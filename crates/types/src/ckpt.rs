//! Crash-safe checkpoint serialization: the [`Checkpointable`] trait and
//! its byte-level writer/reader.
//!
//! Every stateful simulator component implements [`Checkpointable`] so a
//! run can be frozen mid-flight and resumed byte-identically. The format
//! is deliberately dumb: fixed-width little-endian scalars, length-
//! prefixed sequences, no self-description — the schema *is* the code,
//! and the `svc-checkpoint/v1` container (in `svc_sim::checkpoint`)
//! carries a version tag plus an FNV-1a checksum so torn or stale files
//! are detected, never misinterpreted.
//!
//! Restore is *mutating*: state is read back into an object already
//! constructed from its configuration. That keeps non-serialized
//! attachments (tracer/fault/profiler handles, epoch sinks) alive across
//! a restore and means a checkpoint never has to describe configuration
//! that the resuming process already knows.
//!
//! Determinism contract: for the same logical state, `save_state` must
//! produce identical bytes on every platform and run. Implementations
//! that serialize hash maps must therefore iterate keys in sorted order
//! (see the `HashMap` impl here).

use std::collections::HashMap;

use crate::{Addr, Cycle, InvariantKind, InvariantViolation, LineId, MemStats, PuId, TaskId, Word};

/// Why a checkpoint payload failed to restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The payload ended before a read completed (torn/truncated data).
    Truncated,
    /// A value decoded but failed validation (bad tag, length mismatch,
    /// config disagreement).
    Corrupt(String),
}

impl CkptError {
    /// A [`CkptError::Corrupt`] with a formatted message.
    pub fn corrupt(msg: impl Into<String>) -> CkptError {
        CkptError::Corrupt(msg.into())
    }
}

impl core::fmt::Display for CkptError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "checkpoint payload truncated"),
            CkptError::Corrupt(msg) => write!(f, "checkpoint payload corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Serializer for checkpoint payloads: an append-only byte buffer with
/// fixed-width little-endian primitives.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// An empty writer.
    pub fn new() -> CkptWriter {
        CkptWriter::default()
    }

    /// The serialized bytes so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64` (width-independent).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round
    /// trip, NaN payloads included).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Serializes any [`Checkpointable`] value.
    pub fn save<T: Checkpointable + ?Sized>(&mut self, v: &T) {
        v.save_state(self);
    }
}

/// Deserializer for checkpoint payloads produced by [`CkptWriter`].
#[derive(Debug)]
pub struct CkptReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> CkptReader<'a> {
        CkptReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn chunk(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.remaining() < n {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.chunk(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.chunk(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.chunk(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not fit
    /// the current platform.
    pub fn take_usize(&mut self) -> Result<usize, CkptError> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| CkptError::corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a boolean, rejecting bytes other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool, CkptError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CkptError::corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads length-prefixed raw bytes.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.take_usize()?;
        self.chunk(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CkptError> {
        String::from_utf8(self.take_bytes()?.to_vec())
            .map_err(|_| CkptError::corrupt("invalid UTF-8 in string"))
    }

    /// Restores any [`Checkpointable`] value in place.
    pub fn restore_into<T: Checkpointable + ?Sized>(&mut self, v: &mut T) -> Result<(), CkptError> {
        v.restore_state(self)
    }

    /// Reads a default-constructed [`Checkpointable`] value.
    pub fn take<T: Checkpointable + Default>(&mut self) -> Result<T, CkptError> {
        let mut v = T::default();
        v.restore_state(self)?;
        Ok(v)
    }

    /// Fails unless every payload byte was consumed — catches schema
    /// drift between the saving and restoring build.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CkptError::corrupt(format!(
                "{} trailing byte(s) after restore",
                self.remaining()
            )))
        }
    }
}

/// State that can be frozen into a checkpoint payload and restored
/// byte-identically into an object rebuilt from the same configuration.
///
/// Implementations must serialize *every* field that influences future
/// behavior or output (timing state included — this is a process
/// snapshot, not a functional fingerprint), in a fixed order, with
/// sorted iteration for unordered containers.
pub trait Checkpointable {
    /// Appends this object's complete mutable state to `w`.
    fn save_state(&self, w: &mut CkptWriter);
    /// Restores state previously written by [`Checkpointable::save_state`]
    /// into `self` (already constructed from the same configuration).
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError>;
}

macro_rules! scalar_impl {
    ($t:ty, $put:ident, $take:ident) => {
        impl Checkpointable for $t {
            fn save_state(&self, w: &mut CkptWriter) {
                w.$put(*self);
            }
            fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
                *self = r.$take()?;
                Ok(())
            }
        }
    };
}

scalar_impl!(u8, put_u8, take_u8);
scalar_impl!(u32, put_u32, take_u32);
scalar_impl!(u64, put_u64, take_u64);
scalar_impl!(usize, put_usize, take_usize);
scalar_impl!(bool, put_bool, take_bool);
scalar_impl!(f64, put_f64, take_f64);

impl Checkpointable for u16 {
    fn save_state(&self, w: &mut CkptWriter) {
        w.put_u32(*self as u32);
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let v = r.take_u32()?;
        *self = u16::try_from(v).map_err(|_| CkptError::corrupt(format!("u16 overflow: {v}")))?;
        Ok(())
    }
}

impl Checkpointable for String {
    fn save_state(&self, w: &mut CkptWriter) {
        w.put_str(self);
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        *self = r.take_str()?;
        Ok(())
    }
}

impl<T: Checkpointable + Default> Checkpointable for Option<T> {
    fn save_state(&self, w: &mut CkptWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.save_state(w);
            }
        }
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        match r.take_u8()? {
            0 => {
                *self = None;
                Ok(())
            }
            1 => {
                let mut v = self.take().unwrap_or_default();
                v.restore_state(r)?;
                *self = Some(v);
                Ok(())
            }
            b => Err(CkptError::corrupt(format!("bad Option tag {b}"))),
        }
    }
}

impl<T: Checkpointable + Default> Checkpointable for Vec<T> {
    fn save_state(&self, w: &mut CkptWriter) {
        w.put_usize(self.len());
        for v in self {
            v.save_state(w);
        }
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.take_usize()?;
        self.clear();
        // Reserve no more elements than bytes remain, so a forged length
        // prefix costs at most the payload's size before reading fails.
        self.try_reserve(n.min(r.remaining()))
            .map_err(|_| CkptError::corrupt("allocation failure"))?;
        for _ in 0..n {
            self.push(r.take::<T>()?);
        }
        Ok(())
    }
}

impl<A: Checkpointable, B: Checkpointable> Checkpointable for (A, B) {
    fn save_state(&self, w: &mut CkptWriter) {
        self.0.save_state(w);
        self.1.save_state(w);
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.0.restore_state(r)?;
        self.1.restore_state(r)
    }
}

impl<T: Checkpointable, const N: usize> Checkpointable for [T; N] {
    fn save_state(&self, w: &mut CkptWriter) {
        for v in self {
            v.save_state(w);
        }
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        for v in self.iter_mut() {
            v.restore_state(r)?;
        }
        Ok(())
    }
}

/// Hash maps serialize in sorted key order so identical logical state
/// always produces identical bytes, independent of insertion history and
/// of the hasher.
impl<K, V, S> Checkpointable for HashMap<K, V, S>
where
    K: Checkpointable + Default + Ord + Eq + core::hash::Hash,
    V: Checkpointable + Default,
    S: core::hash::BuildHasher,
{
    fn save_state(&self, w: &mut CkptWriter) {
        let mut keys: Vec<&K> = self.keys().collect();
        keys.sort_unstable();
        w.put_usize(keys.len());
        for k in keys {
            k.save_state(w);
            self[k].save_state(w);
        }
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let n = r.take_usize()?;
        self.clear();
        for _ in 0..n {
            let k = r.take::<K>()?;
            let v = r.take::<V>()?;
            if self.insert(k, v).is_some() {
                return Err(CkptError::corrupt("duplicate map key"));
            }
        }
        Ok(())
    }
}

macro_rules! newtype_impl {
    ($t:ident, $inner:ty) => {
        impl Checkpointable for $t {
            fn save_state(&self, w: &mut CkptWriter) {
                self.0.save_state(w);
            }
            fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
                self.0.restore_state(r)
            }
        }
    };
}

newtype_impl!(Addr, u64);
newtype_impl!(LineId, u64);
newtype_impl!(Word, u64);
newtype_impl!(Cycle, u64);
newtype_impl!(PuId, usize);
newtype_impl!(TaskId, u64);

const INVARIANT_KINDS: [InvariantKind; 8] = [
    InvariantKind::VolCycle,
    InvariantKind::VolOrder,
    InvariantKind::Orphan,
    InvariantKind::StateBits,
    InvariantKind::Ownership,
    InvariantKind::SquashResidue,
    InvariantKind::Structure,
    InvariantKind::PresenceIndex,
];

impl Checkpointable for InvariantKind {
    fn save_state(&self, w: &mut CkptWriter) {
        let idx = INVARIANT_KINDS
            .iter()
            .position(|k| k == self)
            .expect("kind listed");
        w.put_u8(idx as u8);
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let idx = r.take_u8()? as usize;
        *self = *INVARIANT_KINDS
            .get(idx)
            .ok_or_else(|| CkptError::corrupt(format!("bad InvariantKind tag {idx}")))?;
        Ok(())
    }
}

impl Checkpointable for InvariantViolation {
    fn save_state(&self, w: &mut CkptWriter) {
        self.kind.save_state(w);
        self.pu.save_state(w);
        self.line.save_state(w);
        self.cycle.save_state(w);
        self.detail.save_state(w);
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.kind.restore_state(r)?;
        self.pu.restore_state(r)?;
        self.line.restore_state(r)?;
        self.cycle.restore_state(r)?;
        self.detail.restore_state(r)
    }
}

impl Default for InvariantViolation {
    fn default() -> InvariantViolation {
        InvariantViolation {
            kind: InvariantKind::Structure,
            pu: None,
            line: None,
            cycle: Cycle(0),
            detail: String::new(),
        }
    }
}

impl Checkpointable for MemStats {
    fn save_state(&self, w: &mut CkptWriter) {
        for (_, v) in self.fields() {
            w.put_u64(v);
        }
    }
    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.loads = r.take_u64()?;
        self.stores = r.take_u64()?;
        self.local_hits = r.take_u64()?;
        self.cache_transfers = r.take_u64()?;
        self.next_level_fills = r.take_u64()?;
        self.bus_transactions = r.take_u64()?;
        self.bus_busy_cycles = r.take_u64()?;
        self.bus_wait_cycles = r.take_u64()?;
        self.writebacks = r.take_u64()?;
        self.purged_versions = r.take_u64()?;
        self.violations = r.take_u64()?;
        self.squash_invalidations = r.take_u64()?;
        self.squash_retained = r.take_u64()?;
        self.snarfs = r.take_u64()?;
        self.replacement_stalls = r.take_u64()?;
        self.l2_hits = r.take_u64()?;
        self.l2_misses = r.take_u64()?;
        self.mshr_misses = r.take_u64()?;
        self.mshr_combines = r.take_u64()?;
        self.mshr_stall_cycles = r.take_u64()?;
        self.wb_stall_cycles = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Checkpointable + Default + PartialEq + core::fmt::Debug>(v: &T) {
        let mut w = CkptWriter::new();
        v.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let back: T = r.take().expect("restore");
        r.finish().expect("fully consumed");
        assert_eq!(&back, v);
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(&0u8);
        round_trip(&u64::MAX);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&-0.0f64);
        round_trip(&f64::INFINITY);
        round_trip(&String::from("svc"));
        round_trip(&Some(Cycle(7)));
        round_trip(&Option::<u64>::None);
        round_trip(&vec![Word(1), Word(2), Word(3)]);
        round_trip(&[Addr(4), Addr(5)]);
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let odd_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let mut w = CkptWriter::new();
        odd_nan.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let back: f64 = r.take().unwrap();
        assert_eq!(back.to_bits(), odd_nan.to_bits());
    }

    #[test]
    fn hashmap_bytes_ignore_insertion_order() {
        let mut a: HashMap<u64, u64> = HashMap::new();
        a.insert(3, 30);
        a.insert(1, 10);
        a.insert(2, 20);
        let mut b: HashMap<u64, u64> = HashMap::new();
        b.insert(1, 10);
        b.insert(2, 20);
        b.insert(3, 30);
        let bytes = |m: &HashMap<u64, u64>| {
            let mut w = CkptWriter::new();
            m.save_state(&mut w);
            w.into_bytes()
        };
        assert_eq!(bytes(&a), bytes(&b));
        round_trip(&a);
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = CkptWriter::new();
        vec![1u64, 2, 3].save_state(&mut w);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes[..bytes.len() - 1]);
        let err = r.take::<Vec<u64>>().unwrap_err();
        assert_eq!(err, CkptError::Truncated);
    }

    #[test]
    fn oversized_length_prefix_reserves_only_the_remaining_bytes() {
        let mut w = CkptWriter::new();
        w.put_u64(1 << 40);
        for b in 0..20u8 {
            w.put_u8(b);
        }
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let mut v: Vec<u64> = Vec::new();
        assert_eq!(v.restore_state(&mut r), Err(CkptError::Truncated));
        assert_eq!(v.len(), 2, "the two whole elements were read");
        assert!(v.capacity() <= 20, "reserved {} elements", v.capacity());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = CkptWriter::new();
        7u64.save_state(&mut w);
        w.put_u8(0xAA);
        let bytes = w.into_bytes();
        let mut r = CkptReader::new(&bytes);
        let _: u64 = r.take().unwrap();
        assert!(matches!(r.finish(), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn invariant_violation_round_trips() {
        round_trip(&InvariantViolation {
            kind: InvariantKind::VolOrder,
            pu: Some(PuId(2)),
            line: None,
            cycle: Cycle(99),
            detail: "suffix out of order".to_string(),
        });
    }

    #[test]
    fn memstats_round_trips() {
        let s = MemStats {
            loads: 10,
            wb_stall_cycles: 7,
            mshr_combines: 3,
            ..MemStats::default()
        };
        round_trip(&s);
    }
}
