//! Per-layer measurement from outside the library: delegating wrappers
//! around the public seams the engine already calls, each folding every
//! call's host time into a per-operation histogram, plus the in-memory
//! span list of a traced run.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use svc_multiscalar::{Instr, TaskSource};
use svc_types::{
    AccessError, Addr, Cycle, DataSource, LoadOutcome, MemStats, PuId, StoreOutcome, TaskId,
    VersionedMemory, Word,
};

/// Sub-bucket bits: 16 buckets per power of two above 32 ns, so a
/// quantile is off by at most 1/16 of its value.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = 976;

fn bucket(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (u64::from(shift) * SUB + (v >> shift)) as usize
}

/// Middle of bucket `i`'s value range.
fn bucket_mid(i: usize) -> f64 {
    let i = i as u64;
    if i < 2 * SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let lo = (SUB + i % SUB) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

/// Log-linear histogram of nanosecond readings.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    sum: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            sum: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.n += 1;
        self.sum += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(i);
            }
        }
        unreachable!("rank {rank} is within the {} recorded readings", self.n)
    }
}

/// The memory-system operations timed separately. A load is `LoadHit`
/// or `LoadBus` by the `LoadOutcome::source` it returns; a load the
/// memory system refuses counts as `LoadBus`, since it did not hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    LoadHit,
    LoadBus,
    Store,
    Commit,
    Squash,
    Assign,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::LoadHit,
        Op::LoadBus,
        Op::Store,
        Op::Commit,
        Op::Squash,
        Op::Assign,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::LoadHit => "load_hit",
            Op::LoadBus => "load_bus",
            Op::Store => "store",
            Op::Commit => "commit",
            Op::Squash => "squash",
            Op::Assign => "assign",
        }
    }
}

/// One histogram per [`Op`]. Readings are stored net of `bias`, the
/// reading an empty span gives, so they show the operation's own cost.
#[derive(Clone)]
pub struct OpStats {
    hists: Vec<Hist>,
    bias: u64,
}

impl OpStats {
    pub fn new(bias: u64) -> OpStats {
        OpStats {
            hists: vec![Hist::new(); Op::ALL.len()],
            bias,
        }
    }

    fn record(&mut self, op: Op, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        self.hists[op as usize].record(ns.saturating_sub(self.bias));
    }

    pub fn get(&self, op: Op) -> &Hist {
        &self.hists[op as usize]
    }

    pub fn merge(&mut self, other: &OpStats) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    pub fn calls(&self) -> u64 {
        self.hists.iter().map(Hist::count).sum()
    }

    pub fn ns_total(&self) -> u64 {
        self.hists.iter().map(Hist::sum).sum()
    }
}

/// A delegating [`VersionedMemory`] that times every call into `inner`.
/// It implements the required methods plus `squash_at`; the planning
/// hooks keep their defaults.
pub struct Traced<M> {
    inner: M,
    pub ops: OpStats,
}

impl<M> Traced<M> {
    pub fn new(inner: M, bias: u64) -> Traced<M> {
        Traced {
            inner,
            ops: OpStats::new(bias),
        }
    }
}

impl<M: VersionedMemory> VersionedMemory for Traced<M> {
    fn num_pus(&self) -> usize {
        self.inner.num_pus()
    }

    fn assign(&mut self, pu: PuId, task: TaskId) {
        let t = Instant::now();
        self.inner.assign(pu, task);
        self.ops.record(Op::Assign, t);
    }

    fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError> {
        let t = Instant::now();
        let out = self.inner.load(pu, addr, now);
        let op = match &out {
            Ok(o) if o.source == DataSource::LocalHit => Op::LoadHit,
            _ => Op::LoadBus,
        };
        self.ops.record(op, t);
        out
    }

    fn store(
        &mut self,
        pu: PuId,
        addr: Addr,
        value: Word,
        now: Cycle,
    ) -> Result<StoreOutcome, AccessError> {
        let t = Instant::now();
        let out = self.inner.store(pu, addr, value, now);
        self.ops.record(Op::Store, t);
        out
    }

    fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle {
        let t = Instant::now();
        let done = self.inner.commit(pu, now);
        self.ops.record(Op::Commit, t);
        done
    }

    fn squash(&mut self, pu: PuId) {
        let t = Instant::now();
        self.inner.squash(pu);
        self.ops.record(Op::Squash, t);
    }

    fn squash_at(&mut self, pu: PuId, now: Cycle) {
        let t = Instant::now();
        self.inner.squash_at(pu, now);
        self.ops.record(Op::Squash, t);
    }

    fn drain(&mut self) {
        self.inner.drain();
    }

    fn architectural(&self, addr: Addr) -> Word {
        self.inner.architectural(addr)
    }

    fn stats(&self) -> MemStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

/// A delegating [`TaskSource`] that times every task generation.
pub struct TracedSource<'a> {
    inner: &'a dyn TaskSource,
    bias: u64,
    hist: RefCell<Hist>,
}

impl<'a> TracedSource<'a> {
    pub fn new(inner: &'a dyn TaskSource, bias: u64) -> TracedSource<'a> {
        TracedSource {
            inner,
            bias,
            hist: RefCell::new(Hist::new()),
        }
    }

    pub fn into_hist(self) -> Hist {
        self.hist.into_inner()
    }
}

impl TaskSource for TracedSource<'_> {
    fn task(&self, id: TaskId) -> Option<Vec<Instr>> {
        let t = Instant::now();
        let task = self.inner.task(id);
        let ns = t.elapsed().as_nanos() as u64;
        self.hist.borrow_mut().record(ns.saturating_sub(self.bias));
        task
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The cost of timing itself, measured before a traced run.
pub struct Calibration {
    /// Median reading of an empty span (two back-to-back clock reads):
    /// the bias subtracted from every per-call reading.
    pub timer_ns: u64,
    /// What one wrapped call around an empty body adds to the enclosing
    /// span: two clock reads plus the histogram update.
    pub wrap_ns: f64,
}

pub fn calibrate() -> Calibration {
    let mut empty = Hist::new();
    for _ in 0..200_000 {
        let t = Instant::now();
        empty.record(t.elapsed().as_nanos() as u64);
    }
    let timer_ns = empty.quantile(0.5).round() as u64;

    const CALLS: u32 = 50_000;
    let mut sink = OpStats::new(timer_ns);
    let mut per_call: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..CALLS {
                let t = Instant::now();
                black_box(&mut sink).record(Op::Assign, t);
            }
            start.elapsed().as_nanos() as f64 / f64::from(CALLS)
        })
        .collect();
    Calibration {
        timer_ns,
        wrap_ns: crate::median(&mut per_call),
    }
}

/// One timed interval of a traced run. Every span of a cell carries the
/// cell span's id in `cell`; `parent` is 0 for a cell span itself.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub cell: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
pub struct Spans {
    origin: Instant,
    next_id: u64,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            next_id: 1,
            list: Vec::new(),
        }
    }

    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        cell: u64,
        name: &str,
        start: Instant,
        end: Instant,
    ) {
        self.list.push(Span {
            id,
            parent,
            cell,
            name: name.to_string(),
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
        });
    }

    /// A child span of `cell`.
    pub fn child(&mut self, cell: u64, name: &str, start: Instant, end: Instant) {
        let id = self.reserve();
        self.push(id, cell, cell, name, start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_bound_their_values() {
        let mut prev = 0;
        for v in 0..100_000u64 {
            let b = bucket(v);
            assert!(b == prev || b == prev + 1, "bucket jumps at {v}");
            prev = b;
            let mid = bucket_mid(b);
            assert!(
                (mid - v as f64).abs() <= (v as f64 / 16.0).max(0.5),
                "{v} -> {mid}"
            );
        }
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_follow_the_readings() {
        let mut h = Hist::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 50.0).abs() <= 50.0 / 16.0);
        assert!((h.quantile(0.99) - 99.0).abs() <= 99.0 / 16.0);
        assert_eq!(h.sum(), 5050);
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }
}
