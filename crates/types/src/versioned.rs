use core::fmt;

use crate::{Addr, Cycle, InvariantViolation, MemStats, PuId, TaskId, Word};

/// Where the data answering a load came from. Feeds the miss-ratio
/// accounting of Table 2: for the SVC "an access is counted as a miss if
/// data is supplied by the next level memory; data transfers between the L1
/// caches are not counted as misses" (paper §4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Satisfied locally (private-cache or buffer hit); no bus/interconnect
    /// transfer of data was needed.
    LocalHit,
    /// Supplied by another L1 cache over the snooping bus (cache-to-cache
    /// transfer), or by a non-architectural buffer stage. Not a miss in the
    /// paper's accounting.
    Transfer,
    /// Supplied by the next level of the memory hierarchy. Counted as a miss.
    NextLevel,
}

/// A detected memory-dependence violation (paper §2.2.2): a store from an
/// older task reached a line that a younger task had loaded before storing
/// (its L bit was set), so that younger load consumed a stale version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The oldest task whose load was incorrect. Under the paper's simple
    /// squash model, this task **and every younger executing task** must be
    /// squashed and re-executed.
    pub victim: TaskId,
    /// The line-aligned word address on which the violation was detected.
    pub addr: Addr,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dependence violation at {} squashing {}+",
            self.addr, self.victim
        )
    }
}

/// Outcome of a load issued to a [`VersionedMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutcome {
    /// The value of the closest previous version in program order
    /// (paper §2.2.1).
    pub value: Word,
    /// Cycle at which the value is available to the issuing PU.
    pub done_at: Cycle,
    /// Who supplied the data.
    pub source: DataSource,
}

/// Outcome of a store issued to a [`VersionedMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOutcome {
    /// Cycle at which the store has been ordered by the memory system (the
    /// issuing PU may proceed).
    pub done_at: Cycle,
    /// A memory-dependence violation detected while communicating this store
    /// to later tasks, if any. The execution engine must squash
    /// `violation.victim` and all younger tasks.
    pub violation: Option<Violation>,
}

/// Errors reported by a [`VersionedMemory`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AccessError {
    /// The PU has no task assigned, so the access has no place in program
    /// order.
    NoTask(PuId),
    /// A speculative (non-head) cache had to replace a line that still
    /// carries versioning state, and the configuration forbids stalling.
    /// "Other caches cannot replace a valid line because it contains
    /// information necessary to guarantee correct execution" (paper §3.2.5).
    ReplacementStall {
        /// The cache that could not find a victim.
        pu: PuId,
        /// The line that needed space.
        addr: Addr,
    },
    /// A structural resource (e.g. ARB row capacity) was exhausted and the
    /// request cannot be accepted this cycle.
    Structural(&'static str),
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessError::NoTask(pu) => write!(f, "{pu} has no assigned task"),
            AccessError::ReplacementStall { pu, addr } => {
                write!(f, "{pu} cannot replace a speculative line for {addr}")
            }
            AccessError::Structural(what) => write!(f, "structural hazard: {what}"),
        }
    }
}

impl std::error::Error for AccessError {}

/// Point-in-time occupancy gauges sampled by the cycle-accounting
/// profiler's interval time series (see `svc_sim::profile`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemGauges {
    /// Fills still outstanding across all MSHR files (or the equivalent
    /// non-blocking-miss structures) at the sample point.
    pub outstanding_misses: u64,
    /// Live speculative versions: uncommitted VOL entries / speculative
    /// lines (SVC), speculative rows (ARB). Zero for systems without
    /// versioning state.
    pub live_versions: u64,
}

/// A memory system that supports *speculative versioning*: buffering
/// multiple uncommitted versions per location, supplying loads with the
/// closest previous version, detecting memory-dependence violations, and
/// committing/squashing whole tasks (paper Table 1).
///
/// Implemented by the SVC (`svc` crate), the ARB baseline (`svc-arb`), the
/// ideal one-cycle memory, and the non-speculative MRSW baseline used in
/// tests. The multiscalar execution engine is generic over this trait, which
/// is what lets one harness regenerate every experiment in the paper.
///
/// # Protocol expected of the caller
///
/// 1. [`assign`](VersionedMemory::assign) a task to a PU before issuing any
///    access from it.
/// 2. Issue [`load`](VersionedMemory::load)s and
///    [`store`](VersionedMemory::store)s with a non-decreasing `now`;
///    loads and stores from the same PU to the same address arrive in
///    program order (the paper assumes a conventional load/store queue in
///    front of each cache, §3.2).
/// 3. On a reported [`Violation`], [`squash`](VersionedMemory::squash) the
///    victim task's PU and every PU running a younger task, then re-`assign`.
/// 4. Only the head task may [`commit`](VersionedMemory::commit).
/// 5. After the run, [`drain`](VersionedMemory::drain) to push all committed
///    state to the next level, then read it back with
///    [`architectural`](VersionedMemory::architectural).
pub trait VersionedMemory {
    /// Number of processing units (private caches / buffer stages).
    fn num_pus(&self) -> usize;

    /// Records that `pu` now executes `task`. Must be called before any
    /// access from `pu`, and again after every commit or squash.
    fn assign(&mut self, pu: PuId, task: TaskId);

    /// Executes a load from `pu`'s current task.
    ///
    /// # Errors
    ///
    /// See [`AccessError`].
    fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError>;

    /// Executes a store from `pu`'s current task, creating a new speculative
    /// version of `addr`.
    ///
    /// # Errors
    ///
    /// See [`AccessError`].
    fn store(
        &mut self,
        pu: PuId,
        addr: Addr,
        value: Word,
        now: Cycle,
    ) -> Result<StoreOutcome, AccessError>;

    /// Commits `pu`'s task: its speculative versions become architectural
    /// (paper §2.2.3). Returns the cycle at which the commit completes —
    /// one cycle for the SVC's flash-set of C bits, potentially many for the
    /// base design's writeback burst. The PU's assignment is released.
    fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle;

    /// Squashes `pu`'s task: its buffered speculative versions are
    /// invalidated (paper §2.2.3). The PU's assignment is released.
    fn squash(&mut self, pu: PuId);

    /// [`squash`](VersionedMemory::squash) with the current cycle, so
    /// implementations can stamp trace events. The default ignores `now`.
    fn squash_at(&mut self, pu: PuId, now: Cycle) {
        let _ = now;
        self.squash(pu);
    }

    /// Runs this memory system's invariant watchdog: protocol-level
    /// consistency checks over the complete speculative state (e.g. VOL
    /// acyclicity, state-bit legality, unique ownership). Returns every
    /// violation found instead of panicking, so callers can feed
    /// forensics and keep running. The default (used by implementations
    /// without a watchdog, like the ideal memory) reports nothing.
    fn check_invariants(&self, now: Cycle) -> Vec<InvariantViolation> {
        let _ = now;
        Vec::new()
    }

    /// Runs the post-squash cleanliness check for `pu`: immediately after
    /// [`squash`](VersionedMemory::squash) no speculative state of the
    /// squashed task may survive in `pu`'s cache/stage. The default
    /// reports nothing.
    fn check_post_squash(&self, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
        let _ = (pu, now);
        Vec::new()
    }

    /// Point-in-time occupancy gauges for the profiler's interval
    /// sampler. The default (systems without MSHRs or versioning state)
    /// reports zeros.
    fn profile_gauges(&self, now: Cycle) -> MemGauges {
        let _ = now;
        MemGauges::default()
    }

    /// Forces all committed state out to the next level of memory, so that
    /// [`architectural`](VersionedMemory::architectural) reflects every
    /// committed store. Used at end-of-run by correctness checks.
    fn drain(&mut self);

    /// Reads the architectural (committed) value of `addr`. Only meaningful
    /// for addresses whose versions have been committed and
    /// [`drain`](VersionedMemory::drain)ed.
    fn architectural(&self, addr: Addr) -> Word;

    /// Snapshot of this memory system's statistics.
    fn stats(&self) -> MemStats;

    /// Resets all statistics to zero (e.g. after warm-up).
    fn reset_stats(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display() {
        let v = Violation {
            victim: TaskId(2),
            addr: Addr(0x10),
        };
        assert_eq!(format!("{v}"), "dependence violation at 0x10 squashing T2+");
    }

    #[test]
    fn access_error_display() {
        assert_eq!(
            format!("{}", AccessError::NoTask(PuId(1))),
            "PU1 has no assigned task"
        );
        let e = AccessError::ReplacementStall {
            pu: PuId(0),
            addr: Addr(4),
        };
        assert!(format!("{e}").contains("cannot replace"));
        assert!(format!("{}", AccessError::Structural("arb rows")).contains("arb rows"));
    }

    #[test]
    fn error_trait_object() {
        // AccessError must be usable as a boxed error (C-GOOD-ERR).
        fn takes_err(_e: Box<dyn std::error::Error + Send + Sync>) {}
        takes_err(Box::new(AccessError::NoTask(PuId(0))));
    }
}
