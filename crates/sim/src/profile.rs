//! Cycle-accounting profiler: per-PU stall attribution, wasted-work
//! metering, and interval time-series.
//!
//! The tracer (PR 2) records *what happened*; this module records *where
//! the cycles went*. Every PU-cycle of a run is attributed to exactly one
//! [`Bucket`], so the per-PU bucket vectors always satisfy the
//! conservation invariant
//!
//! ```text
//! sum(buckets over all PUs) == cycles × num_pus
//! ```
//!
//! which is what lets an IPC gap between two designs be decomposed into
//! named causes (bus-arbitration wait vs. memory latency vs. squash
//! re-execution, the analysis of the paper's Figures 19/20).
//!
//! # Accounting model
//!
//! Attribution is lazy and window-based, which is what makes the
//! invariant hold *by construction*:
//!
//! * Each PU has a **cursor**: every cycle below it has been attributed.
//!   The cursor only ever advances to points in the simulation's past, so
//!   it can never overshoot the end of the run.
//! * Known future blocking (a load's memory window, commit serialization,
//!   post-squash blackout, dispatch overhead) is queued as a **window**
//!   `[start, end)` carrying an [`AccessProfile`] — the per-component
//!   decomposition the memory system reported for that access — plus a
//!   fill bucket for any remainder. Windows drain as the cursor sweeps
//!   over them, clipped to however far the simulation actually got.
//! * Plain execution cycles accumulate as **pending** and are resolved by
//!   task fate: [`Bucket::Commit`] when the task commits,
//!   [`Bucket::WastedExec`] when it is squashed (or still in flight when
//!   the run's budget expires).
//!
//! Like [`Tracer`](crate::trace::Tracer) and
//! [`Faults`](crate::fault::Faults), the handle is a cheap `Rc` clone
//! shared by the engine and the memory system, and a disabled profiler
//! costs a single branch per hook — payloads are never built when off.
//!
//! # Example
//!
//! ```
//! use svc_sim::profile::{Bucket, Profiler};
//! use svc_types::{Cycle, PuId};
//!
//! let p = Profiler::new(1, 0);
//! p.on_dispatch(PuId(0), Cycle(0), Cycle(1)); // 1 cycle of sequencer overhead
//! p.on_commit(PuId(0), Cycle(5), Cycle(6));   // exec [1,5), commit [5,6)
//! p.finish(Cycle(6), &[false]);
//! let report = p.report().unwrap();
//! assert!(report.conservation_ok());
//! assert_eq!(report.totals()[Bucket::Commit as usize], 5);
//! assert_eq!(report.totals()[Bucket::Idle as usize], 1);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use svc_types::{Addr, Cycle, MemGauges, PuId};

/// Number of attribution buckets.
pub const NUM_BUCKETS: usize = 8;

/// Default sampling epoch (cycles between time-series rows).
pub const DEFAULT_EPOCH: u64 = 8_192;

/// How many distinct wasted-work addresses a [`ProfileReport`] keeps
/// (the top-N by squashed-access count).
pub const WASTED_TOP_N: usize = 32;

/// Where a PU-cycle went. Every simulated cycle of every PU lands in
/// exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Bucket {
    /// Useful work: executing and waiting on behalf of a task that went
    /// on to commit, plus the commit operation itself.
    Commit = 0,
    /// Executing (or waiting) on behalf of a task that was later
    /// squashed, or still speculative when the run's budget expired.
    WastedExec = 1,
    /// Waiting for the bus arbiter: request issued, grant pending.
    BusWait = 2,
    /// Occupying the bus (the granted transaction's transfer time).
    BusTransfer = 3,
    /// Waiting on memory beyond the bus: next-level fill latency,
    /// eviction writebacks, VCL lookups, jitter.
    MemLatency = 4,
    /// Structural stalls: MSHR-full waits and replacement-stall retries.
    MshrStall = 5,
    /// No task assigned, plus dispatch/sequencer overhead.
    Idle = 6,
    /// Post-squash blackout: the PU is torn down but still blocked on
    /// the latency of the access it was squashed under.
    SquashRecovery = 7,
}

impl Bucket {
    /// All buckets, in stable serialization order.
    pub const EVERY: [Bucket; NUM_BUCKETS] = [
        Bucket::Commit,
        Bucket::WastedExec,
        Bucket::BusWait,
        Bucket::BusTransfer,
        Bucket::MemLatency,
        Bucket::MshrStall,
        Bucket::Idle,
        Bucket::SquashRecovery,
    ];

    /// The stable snake_case name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Commit => "commit",
            Bucket::WastedExec => "wasted_exec",
            Bucket::BusWait => "bus_wait",
            Bucket::BusTransfer => "bus_transfer",
            Bucket::MemLatency => "mem_latency",
            Bucket::MshrStall => "mshr_stall",
            Bucket::Idle => "idle",
            Bucket::SquashRecovery => "squash_recovery",
        }
    }
}

/// Per-PU bucket totals, indexed by `Bucket as usize`.
pub type BucketSet = [u64; NUM_BUCKETS];

/// The component decomposition of one memory access, composed by the
/// memory system at miss time and consumed (in declaration order) when
/// the access's window drains. Components that exceed the window are
/// clipped; window cycles beyond the components go to the window's fill
/// bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessProfile {
    /// Cycles stalled for a free MSHR (or equivalent structural slot).
    pub mshr_stall: u64,
    /// Cycles between the bus request and its grant.
    pub bus_wait: u64,
    /// Cycles the granted transaction occupied the bus.
    pub bus_transfer: u64,
    /// Cycles of latency beyond the bus (next-level fill, jitter).
    pub mem_latency: u64,
}

impl AccessProfile {
    /// Sum of all components.
    pub fn total(&self) -> u64 {
        self.mshr_stall + self.bus_wait + self.bus_transfer + self.mem_latency
    }

    /// Consumes up to `budget` cycles of components in declaration
    /// order, returning how much each bucket received.
    fn consume(&mut self, budget: u64) -> [(Bucket, u64); 4] {
        let mut left = budget;
        let mut take = |c: &mut u64| {
            let n = (*c).min(left);
            *c -= n;
            left -= n;
            n
        };
        [
            (Bucket::MshrStall, take(&mut self.mshr_stall)),
            (Bucket::BusWait, take(&mut self.bus_wait)),
            (Bucket::BusTransfer, take(&mut self.bus_transfer)),
            (Bucket::MemLatency, take(&mut self.mem_latency)),
        ]
    }
}

/// One row of the interval time series: raw cumulative counters at a
/// sample point. Derived rates (IPC, bus utilization, squash rate) are
/// computed from consecutive rows at render time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sample {
    /// Simulated cycle the sample was taken at.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed_instrs: u64,
    /// Task squashes so far.
    pub squashes: u64,
    /// Cumulative bus-occupancy cycles so far.
    pub bus_busy_cycles: u64,
    /// Fills outstanding across all MSHR files at the sample point.
    pub outstanding_misses: u64,
    /// Live speculative versions (VOL entries / speculative lines).
    pub live_versions: u64,
}

/// The finished profile of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Number of PUs profiled.
    pub num_pus: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Sampling epoch in cycles (0 = sampling was off).
    pub epoch: u64,
    /// Per-PU bucket totals.
    pub per_pu: Vec<BucketSet>,
    /// The interval time series, in cycle order.
    pub samples: Vec<Sample>,
    /// Top wasted-work addresses `(word address, squashed accesses)`,
    /// most-squashed first.
    pub wasted_addrs: Vec<(u64, u64)>,
    /// Interval rows evicted by the rolling sample window (0 when the
    /// window was never exceeded, keeping artifacts byte-identical to
    /// unbounded runs).
    pub intervals_dropped: u64,
}

impl ProfileReport {
    /// Bucket totals summed over all PUs.
    pub fn totals(&self) -> BucketSet {
        let mut t = [0u64; NUM_BUCKETS];
        for pu in &self.per_pu {
            for (slot, v) in t.iter_mut().zip(pu) {
                *slot += v;
            }
        }
        t
    }

    /// Total attributed PU-cycles (sum of every bucket of every PU).
    pub fn attributed(&self) -> u64 {
        self.totals().iter().sum()
    }

    /// What the attribution must sum to: `cycles × num_pus`.
    pub fn expected(&self) -> u64 {
        self.cycles * self.num_pus as u64
    }

    /// The conservation invariant: every PU-cycle attributed exactly
    /// once.
    pub fn conservation_ok(&self) -> bool {
        self.attributed() == self.expected()
    }
}

/// A queued span of known future blocking on one PU.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: u64,
    end: u64,
    profile: AccessProfile,
    fill: Bucket,
}

/// Where the gap cycles of an [`PuAcct::advance`] go.
#[derive(Debug, Clone, Copy)]
enum Gap {
    /// Straight into a bucket.
    Into(Bucket),
    /// Into `pending`, resolved later by task fate.
    Pending,
}

#[derive(Debug, Clone, Default)]
struct PuAcct {
    /// Every cycle below this is attributed.
    cursor: u64,
    /// Execution cycles awaiting their task's fate.
    pending: u64,
    /// Queued windows, non-overlapping, ascending.
    windows: Vec<Window>,
    buckets: BucketSet,
}

impl PuAcct {
    /// Attributes `[cursor, to)`: queued windows drain into their
    /// components (clipped to `to`), everything between and after them
    /// goes to `gap`.
    fn advance(&mut self, to: u64, gap: Gap) {
        if to <= self.cursor {
            return;
        }
        let mut t = self.cursor;
        let mut gap_cycles = 0u64;
        while let Some(w) = self.windows.first_mut() {
            if w.start >= to {
                break;
            }
            if w.start > t {
                gap_cycles += w.start - t;
                t = w.start;
            }
            let clip = to.min(w.end);
            let mut span = clip - t;
            for (bucket, n) in w.profile.consume(span) {
                self.buckets[bucket as usize] += n;
                span -= n;
            }
            self.buckets[w.fill as usize] += span;
            t = clip;
            if clip == w.end {
                self.windows.remove(0);
            } else {
                w.start = clip;
                break;
            }
        }
        if t < to {
            gap_cycles += to - t;
        }
        match gap {
            Gap::Into(b) => self.buckets[b as usize] += gap_cycles,
            Gap::Pending => self.pending += gap_cycles,
        }
        self.cursor = to;
    }

    /// Queues a window, clamped to start after the cursor and any
    /// already-queued window. Empty windows are dropped.
    fn push_window(&mut self, start: u64, end: u64, profile: AccessProfile, fill: Bucket) {
        let floor = self
            .windows
            .last()
            .map_or(self.cursor, |w| w.end.max(self.cursor));
        let start = start.max(floor);
        if end <= start {
            return;
        }
        self.windows.push(Window {
            start,
            end,
            profile,
            fill,
        });
    }

    /// Resolves all pending execution cycles into `bucket`.
    fn flush_pending(&mut self, bucket: Bucket) {
        self.buckets[bucket as usize] += self.pending;
        self.pending = 0;
    }
}

#[derive(Debug)]
struct Core {
    pus: Vec<PuAcct>,
    /// Last access decomposition the memory system reported, per PU.
    slot: Vec<AccessProfile>,
    /// A store's decomposition, held until (if ever) its port pressure
    /// blocks a later access.
    port_debt: Vec<AccessProfile>,
    wasted: BTreeMap<u64, u64>,
    epoch: u64,
    next_sample: u64,
    samples: Vec<Sample>,
    /// Rolling retention cap on `samples` (0 = unbounded).
    window: usize,
    /// Rows evicted by the rolling window.
    dropped: u64,
    finished: Option<u64>,
}

/// A cheap-to-clone profiling handle. All clones share one accounting
/// core; a default-constructed profiler is disabled and costs one branch
/// per hook.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    core: Option<Rc<RefCell<Core>>>,
}

/// Profilers compare by enabled-ness only (like [`Tracer`]), so
/// simulator components keep their derived `PartialEq` implementations.
///
/// [`Tracer`]: crate::trace::Tracer
impl PartialEq for Profiler {
    fn eq(&self, other: &Profiler) -> bool {
        self.core.is_some() == other.core.is_some()
    }
}

impl Eq for Profiler {}

impl Profiler {
    /// A disabled profiler (same as `Profiler::default()`).
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// An enabled profiler over `num_pus` PUs, sampling the time series
    /// every `epoch` cycles (`0` disables sampling but keeps bucket
    /// accounting).
    pub fn new(num_pus: usize, epoch: u64) -> Profiler {
        Profiler {
            core: Some(Rc::new(RefCell::new(Core {
                pus: vec![PuAcct::default(); num_pus],
                slot: vec![AccessProfile::default(); num_pus],
                port_debt: vec![AccessProfile::default(); num_pus],
                wasted: BTreeMap::new(),
                epoch,
                next_sample: epoch,
                samples: Vec::new(),
                window: 0,
                dropped: 0,
                finished: None,
            }))),
        }
    }

    /// Caps interval-sample retention at the `window` most recent rows
    /// (`0` = unbounded, the default). Older rows are evicted as new
    /// samples arrive and counted in
    /// [`intervals_dropped`](Profiler::intervals_dropped) — long soak
    /// runs stay bounded-memory while short runs remain byte-identical
    /// to the unbounded behaviour.
    pub fn set_window(&self, window: usize) {
        if let Some(core) = &self.core {
            core.borrow_mut().window = window;
        }
    }

    /// Interval rows evicted by the rolling window so far.
    pub fn intervals_dropped(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.borrow().dropped)
    }

    /// Whether the profiler is recording — the single branch on the fast
    /// path.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.core.is_some()
    }

    fn with_pu(&self, pu: PuId, f: impl FnOnce(&mut Core, usize)) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            let i = pu.0;
            if i < core.pus.len() {
                f(&mut core, i);
            }
        }
    }

    // -- memory-system side -------------------------------------------

    /// Reports the component decomposition of the access `pu` just made.
    /// Called by the memory system inside `load`/`store`; the engine
    /// pairs it with the access's latency window.
    #[inline]
    pub fn note_access(&self, pu: PuId, profile: AccessProfile) {
        self.with_pu(pu, |core, i| core.slot[i] = profile);
    }

    // -- engine side --------------------------------------------------

    /// A task was dispatched on `pu` at `now`; execution starts at
    /// `exec_ready`. Attributes the gap before `now` (and the dispatch
    /// overhead window) to [`Bucket::Idle`].
    pub fn on_dispatch(&self, pu: PuId, now: Cycle, exec_ready: Cycle) {
        self.with_pu(pu, |core, i| {
            core.pus[i].advance(now.0, Gap::Into(Bucket::Idle));
            core.pus[i].push_window(now.0, exec_ready.0, AccessProfile::default(), Bucket::Idle);
        });
    }

    /// A load issued at `now` whose value is visible at `ready`: queues
    /// the latency window with the decomposition the memory system
    /// reported via [`note_access`](Profiler::note_access).
    pub fn on_load(&self, pu: PuId, now: Cycle, ready: Cycle) {
        self.with_pu(pu, |core, i| {
            let profile = std::mem::take(&mut core.slot[i]);
            core.pus[i].push_window(now.0 + 1, ready.0, profile, Bucket::MemLatency);
        });
    }

    /// A store issued: its decomposition becomes port debt, charged only
    /// if the port pressure later blocks the pipeline.
    pub fn on_store(&self, pu: PuId) {
        self.with_pu(pu, |core, i| {
            core.port_debt[i] = std::mem::take(&mut core.slot[i]);
        });
    }

    /// The memory port blocked the next access at `now` until `until`:
    /// the wait is the previous store's latency still draining.
    pub fn on_port_block(&self, pu: PuId, now: Cycle, until: Cycle) {
        self.with_pu(pu, |core, i| {
            let debt = std::mem::take(&mut core.port_debt[i]);
            core.pus[i].push_window(now.0, until.0, debt, Bucket::BusTransfer);
        });
    }

    /// A structural (replacement) stall at `now`: the PU retries next
    /// cycle.
    pub fn on_stall(&self, pu: PuId, now: Cycle) {
        self.with_pu(pu, |core, i| {
            core.pus[i].push_window(
                now.0,
                now.0 + 1,
                AccessProfile::default(),
                Bucket::MshrStall,
            );
        });
    }

    /// `pu`'s task committed at `now`; the commit operation finishes at
    /// `done`. Pending execution resolves to [`Bucket::Commit`].
    pub fn on_commit(&self, pu: PuId, now: Cycle, done: Cycle) {
        self.with_pu(pu, |core, i| {
            core.pus[i].advance(now.0, Gap::Pending);
            core.pus[i].flush_pending(Bucket::Commit);
            core.pus[i].push_window(now.0, done.0, AccessProfile::default(), Bucket::Commit);
        });
    }

    /// `pu`'s task was squashed at `now` and the PU stays blocked until
    /// `until` (its retained ready-at). Pending execution resolves to
    /// [`Bucket::WastedExec`]; queued windows of the dead access are
    /// discarded and the blackout becomes [`Bucket::SquashRecovery`].
    pub fn on_squash(&self, pu: PuId, now: Cycle, until: Cycle) {
        self.with_pu(pu, |core, i| {
            core.pus[i].advance(now.0, Gap::Pending);
            core.pus[i].flush_pending(Bucket::WastedExec);
            core.pus[i].windows.clear();
            core.pus[i].push_window(
                now.0,
                until.0,
                AccessProfile::default(),
                Bucket::SquashRecovery,
            );
            core.slot[i] = AccessProfile::default();
            core.port_debt[i] = AccessProfile::default();
        });
    }

    /// Records the memory addresses a squashed task had touched (the
    /// wasted-work histogram behind `svc-sim profile`'s top-N table).
    pub fn note_wasted(&self, addrs: impl IntoIterator<Item = Addr>) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            for a in addrs {
                *core.wasted.entry(a.0).or_insert(0) += 1;
            }
        }
    }

    // -- sampling -----------------------------------------------------

    /// Whether the time series is due a row at `now`.
    #[inline]
    pub fn sample_due(&self, now: Cycle) -> bool {
        self.core.as_ref().is_some_and(|c| {
            let c = c.borrow();
            c.epoch > 0 && now.0 >= c.next_sample
        })
    }

    /// The cycle of the next scheduled time-series row, if sampling is
    /// on. The engine's idle-cycle fast-forward clamps its jumps here so
    /// a fast-forwarded run samples at exactly the cycles a cycle-by-
    /// cycle run would.
    #[inline]
    pub fn next_sample_at(&self) -> Option<u64> {
        self.core.as_ref().and_then(|c| {
            let c = c.borrow();
            (c.epoch > 0).then_some(c.next_sample)
        })
    }

    /// Records a time-series row at `now` and schedules the next epoch.
    pub fn sample(
        &self,
        now: Cycle,
        committed_instrs: u64,
        squashes: u64,
        bus_busy_cycles: u64,
        gauges: MemGauges,
    ) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            core.samples.push(Sample {
                cycle: now.0,
                committed_instrs,
                squashes,
                bus_busy_cycles,
                outstanding_misses: gauges.outstanding_misses,
                live_versions: gauges.live_versions,
            });
            core.next_sample = now.0 + core.epoch;
            if core.window > 0 && core.samples.len() > core.window {
                let excess = core.samples.len() - core.window;
                core.samples.drain(..excess);
                core.dropped += excess as u64;
            }
        }
    }

    /// Records the end-of-run row (skipped if one already covers `now`
    /// or sampling is off).
    pub fn final_sample(
        &self,
        now: Cycle,
        committed_instrs: u64,
        squashes: u64,
        bus_busy_cycles: u64,
        gauges: MemGauges,
    ) {
        if let Some(core) = &self.core {
            let due = {
                let c = core.borrow();
                c.epoch > 0 && c.samples.last().is_none_or(|s| s.cycle < now.0)
            };
            if due {
                self.sample(now, committed_instrs, squashes, bus_busy_cycles, gauges);
            }
        }
    }

    // -- finalization -------------------------------------------------

    /// Closes the books at the end of a run: every PU's cursor is driven
    /// to `now` (windows clipped), and leftover pending execution
    /// resolves by `tasked[pu]` — [`Bucket::WastedExec`] for tasks still
    /// in flight when the run ended, [`Bucket::Idle`] otherwise.
    pub fn finish(&self, now: Cycle, tasked: &[bool]) {
        if let Some(core) = &self.core {
            let mut core = core.borrow_mut();
            for (i, acct) in core.pus.iter_mut().enumerate() {
                if tasked.get(i).copied().unwrap_or(false) {
                    acct.advance(now.0, Gap::Pending);
                    acct.flush_pending(Bucket::WastedExec);
                } else {
                    acct.advance(now.0, Gap::Into(Bucket::Idle));
                    acct.flush_pending(Bucket::Idle);
                }
                acct.windows.clear();
            }
            core.finished = Some(now.0);
        }
    }

    /// The finished profile, once [`finish`](Profiler::finish) has run;
    /// `None` for a disabled or still-running profiler.
    pub fn report(&self) -> Option<ProfileReport> {
        let core = self.core.as_ref()?;
        let core = core.borrow();
        let cycles = core.finished?;
        let mut wasted: Vec<(u64, u64)> = core.wasted.iter().map(|(&a, &n)| (a, n)).collect();
        wasted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        wasted.truncate(WASTED_TOP_N);
        Some(ProfileReport {
            num_pus: core.pus.len(),
            cycles,
            epoch: core.epoch,
            per_pu: core.pus.iter().map(|p| p.buckets).collect(),
            samples: core.samples.clone(),
            wasted_addrs: wasted,
            intervals_dropped: core.dropped,
        })
    }
}

// -- checkpointing ----------------------------------------------------

impl svc_types::Checkpointable for Bucket {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        w.put_u8(*self as u8);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let tag = r.take_u8()?;
        *self = *Bucket::EVERY
            .get(tag as usize)
            .ok_or_else(|| svc_types::CkptError::corrupt(format!("unknown bucket tag {tag}")))?;
        Ok(())
    }
}

impl svc_types::Checkpointable for AccessProfile {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.mshr_stall.save_state(w);
        self.bus_wait.save_state(w);
        self.bus_transfer.save_state(w);
        self.mem_latency.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.mshr_stall.restore_state(r)?;
        self.bus_wait.restore_state(r)?;
        self.bus_transfer.restore_state(r)?;
        self.mem_latency.restore_state(r)
    }
}

impl svc_types::Checkpointable for Sample {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.cycle.save_state(w);
        self.committed_instrs.save_state(w);
        self.squashes.save_state(w);
        self.bus_busy_cycles.save_state(w);
        self.outstanding_misses.save_state(w);
        self.live_versions.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.cycle.restore_state(r)?;
        self.committed_instrs.restore_state(r)?;
        self.squashes.restore_state(r)?;
        self.bus_busy_cycles.restore_state(r)?;
        self.outstanding_misses.restore_state(r)?;
        self.live_versions.restore_state(r)
    }
}

impl svc_types::Checkpointable for ProfileReport {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.num_pus.save_state(w);
        self.cycles.save_state(w);
        self.epoch.save_state(w);
        self.per_pu.save_state(w);
        self.samples.save_state(w);
        self.wasted_addrs.save_state(w);
        self.intervals_dropped.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.num_pus.restore_state(r)?;
        self.cycles.restore_state(r)?;
        self.epoch.restore_state(r)?;
        self.per_pu.restore_state(r)?;
        self.samples.restore_state(r)?;
        self.wasted_addrs.restore_state(r)?;
        self.intervals_dropped.restore_state(r)
    }
}

impl Default for Window {
    fn default() -> Window {
        Window {
            start: 0,
            end: 0,
            profile: AccessProfile::default(),
            fill: Bucket::Commit,
        }
    }
}

impl svc_types::Checkpointable for Window {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.start.save_state(w);
        self.end.save_state(w);
        self.profile.save_state(w);
        self.fill.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.start.restore_state(r)?;
        self.end.restore_state(r)?;
        self.profile.restore_state(r)?;
        self.fill.restore_state(r)
    }
}

impl svc_types::Checkpointable for PuAcct {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.cursor.save_state(w);
        self.pending.save_state(w);
        self.windows.save_state(w);
        self.buckets.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.cursor.restore_state(r)?;
        self.pending.restore_state(r)?;
        self.windows.restore_state(r)?;
        self.buckets.restore_state(r)
    }
}

/// An enabled profiler checkpoints its full accounting core — cursors,
/// pending cycles, queued windows, bucket totals, the wasted-work map and
/// the interval time series — so a resumed run reports identically to an
/// uninterrupted one. Restore requires the same attachment: a checkpoint
/// of an enabled profiler cannot restore into a disabled handle (and
/// vice versa), because the handle is shared by reference with the
/// simulator components and cannot be re-wired after construction.
impl svc_types::Checkpointable for Profiler {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        w.put_bool(self.is_active());
        let Some(core) = &self.core else {
            return;
        };
        let core = core.borrow();
        core.pus.len().save_state(w);
        core.pus.save_state(w);
        core.slot.save_state(w);
        core.port_debt.save_state(w);
        w.put_usize(core.wasted.len());
        for (&addr, &count) in &core.wasted {
            addr.save_state(w);
            count.save_state(w);
        }
        core.epoch.save_state(w);
        core.next_sample.save_state(w);
        core.samples.save_state(w);
        core.window.save_state(w);
        core.dropped.save_state(w);
        core.finished.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let active = r.take_bool()?;
        if active != self.is_active() {
            return Err(svc_types::CkptError::corrupt(
                "profiler attachment disagrees with the checkpoint",
            ));
        }
        let Some(core) = &self.core else {
            return Ok(());
        };
        let mut core = core.borrow_mut();
        let num_pus = r.take_usize()?;
        if num_pus != core.pus.len() {
            return Err(svc_types::CkptError::corrupt(format!(
                "profiler built for {} PUs, checkpoint has {num_pus}",
                core.pus.len()
            )));
        }
        core.pus.restore_state(r)?;
        core.slot.restore_state(r)?;
        core.port_debt.restore_state(r)?;
        if core.slot.len() != num_pus || core.port_debt.len() != num_pus {
            return Err(svc_types::CkptError::corrupt(
                "profiler per-PU vectors disagree in length",
            ));
        }
        let n = r.take_usize()?;
        core.wasted.clear();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let addr = r.take::<u64>()?;
            if prev.is_some_and(|p| p >= addr) {
                return Err(svc_types::CkptError::corrupt(
                    "wasted-work map keys out of order",
                ));
            }
            prev = Some(addr);
            let count = r.take::<u64>()?;
            core.wasted.insert(addr, count);
        }
        core.epoch.restore_state(r)?;
        core.next_sample.restore_state(r)?;
        core.samples.restore_state(r)?;
        core.window.restore_state(r)?;
        core.dropped.restore_state(r)?;
        core.finished.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_total(r: &ProfileReport, b: Bucket) -> u64 {
        r.totals()[b as usize]
    }

    #[test]
    fn rolling_window_evicts_and_counts() {
        let p = Profiler::new(1, 10);
        p.set_window(3);
        for i in 1..=6u64 {
            p.sample(Cycle(i * 10), i, 0, 0, MemGauges::default());
        }
        p.finish(Cycle(60), &[false]);
        let r = p.report().unwrap();
        assert_eq!(r.intervals_dropped, 3);
        assert_eq!(r.samples.len(), 3);
        assert_eq!(r.samples[0].cycle, 40, "oldest rows evicted first");

        // A window never exceeded is byte-identical to unbounded.
        let p = Profiler::new(1, 10);
        p.set_window(16);
        let q = Profiler::new(1, 10);
        for i in 1..=4u64 {
            p.sample(Cycle(i * 10), i, 0, 0, MemGauges::default());
            q.sample(Cycle(i * 10), i, 0, 0, MemGauges::default());
        }
        p.finish(Cycle(40), &[false]);
        q.finish(Cycle(40), &[false]);
        assert_eq!(p.report(), q.report());
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        assert!(!p.is_active());
        p.on_dispatch(PuId(0), Cycle(0), Cycle(1));
        p.on_commit(PuId(0), Cycle(5), Cycle(6));
        p.finish(Cycle(6), &[false]);
        assert_eq!(p.report(), None);
    }

    #[test]
    fn exec_then_commit_conserves() {
        let p = Profiler::new(2, 0);
        p.on_dispatch(PuId(0), Cycle(0), Cycle(2));
        p.on_commit(PuId(0), Cycle(10), Cycle(12));
        p.finish(Cycle(20), &[false, false]);
        let r = p.report().unwrap();
        assert!(r.conservation_ok(), "attributed {}", r.attributed());
        // PU0: [0,2) idle window, [2,10) pending→commit, [10,12) commit
        // op, [12,20) idle; PU1: all idle.
        assert_eq!(r.per_pu[0][Bucket::Idle as usize], 2 + 8);
        assert_eq!(r.per_pu[0][Bucket::Commit as usize], 8 + 2);
        assert_eq!(r.per_pu[1][Bucket::Idle as usize], 20);
    }

    #[test]
    fn load_window_drains_components_then_fill() {
        let p = Profiler::new(1, 0);
        p.on_dispatch(PuId(0), Cycle(0), Cycle(1));
        p.note_access(
            PuId(0),
            AccessProfile {
                mshr_stall: 2,
                bus_wait: 3,
                bus_transfer: 4,
                mem_latency: 5,
            },
        );
        // Load at cycle 1, value visible at cycle 21: window [2, 21) of
        // 19 cycles — 14 of components, 5 of fill (MemLatency).
        p.on_load(PuId(0), Cycle(1), Cycle(21));
        p.on_commit(PuId(0), Cycle(21), Cycle(22));
        p.finish(Cycle(22), &[false]);
        let r = p.report().unwrap();
        assert!(r.conservation_ok());
        assert_eq!(commit_total(&r, Bucket::MshrStall), 2);
        assert_eq!(commit_total(&r, Bucket::BusWait), 3);
        assert_eq!(commit_total(&r, Bucket::BusTransfer), 4);
        assert_eq!(commit_total(&r, Bucket::MemLatency), 5 + 5);
        // idle [0,1) + the issue cycle [1,2) pending→commit + commit op.
        assert_eq!(commit_total(&r, Bucket::Idle), 1);
    }

    #[test]
    fn squash_clips_windows_and_wastes_pending() {
        let p = Profiler::new(1, 0);
        p.on_dispatch(PuId(0), Cycle(0), Cycle(1));
        p.note_access(
            PuId(0),
            AccessProfile {
                bus_transfer: 100,
                ..AccessProfile::default()
            },
        );
        p.on_load(PuId(0), Cycle(1), Cycle(51)); // window [2, 51)
                                                 // Squashed at cycle 10, blocked until 51.
        p.on_squash(PuId(0), Cycle(10), Cycle(51));
        p.finish(Cycle(60), &[false]);
        let r = p.report().unwrap();
        assert!(r.conservation_ok(), "attributed {}", r.attributed());
        // [0,1) idle, [1,2) pending→wasted, [2,10) bus_transfer (clipped),
        // [10,51) squash recovery, [51,60) idle.
        assert_eq!(commit_total(&r, Bucket::WastedExec), 1);
        assert_eq!(commit_total(&r, Bucket::BusTransfer), 8);
        assert_eq!(commit_total(&r, Bucket::SquashRecovery), 41);
        assert_eq!(commit_total(&r, Bucket::Idle), 10);
    }

    #[test]
    fn budget_cutoff_wastes_in_flight_tasks() {
        let p = Profiler::new(1, 0);
        p.on_dispatch(PuId(0), Cycle(0), Cycle(1));
        p.finish(Cycle(9), &[true]);
        let r = p.report().unwrap();
        assert!(r.conservation_ok());
        assert_eq!(commit_total(&r, Bucket::Idle), 1);
        assert_eq!(commit_total(&r, Bucket::WastedExec), 8);
    }

    #[test]
    fn windows_never_overshoot_the_end_of_run() {
        let p = Profiler::new(1, 0);
        p.on_dispatch(PuId(0), Cycle(0), Cycle(1));
        p.on_commit(PuId(0), Cycle(4), Cycle(50)); // commit op runs past the end
        p.finish(Cycle(10), &[false]);
        let r = p.report().unwrap();
        assert!(r.conservation_ok(), "attributed {}", r.attributed());
        assert_eq!(commit_total(&r, Bucket::Commit), 3 + 6);
    }

    #[test]
    fn port_block_charges_store_debt() {
        let p = Profiler::new(1, 0);
        p.on_dispatch(PuId(0), Cycle(0), Cycle(1));
        p.note_access(
            PuId(0),
            AccessProfile {
                bus_wait: 2,
                bus_transfer: 10,
                ..AccessProfile::default()
            },
        );
        p.on_store(PuId(0));
        p.on_port_block(PuId(0), Cycle(3), Cycle(8));
        p.on_commit(PuId(0), Cycle(8), Cycle(9));
        p.finish(Cycle(9), &[false]);
        let r = p.report().unwrap();
        assert!(r.conservation_ok());
        assert_eq!(commit_total(&r, Bucket::BusWait), 2);
        assert_eq!(
            commit_total(&r, Bucket::BusTransfer),
            3,
            "clipped to the block window"
        );
    }

    #[test]
    fn wasted_addrs_rank_by_count_then_addr() {
        let p = Profiler::new(1, 0);
        p.note_wasted([Addr(7), Addr(3), Addr(7)]);
        p.finish(Cycle(0), &[false]);
        let r = p.report().unwrap();
        assert_eq!(r.wasted_addrs, vec![(7, 2), (3, 1)]);
    }

    #[test]
    fn sampler_records_rows_and_final_sample_dedupes() {
        let p = Profiler::new(1, 10);
        assert!(!p.sample_due(Cycle(5)));
        assert!(p.sample_due(Cycle(10)));
        p.sample(Cycle(12), 100, 1, 6, MemGauges::default());
        assert!(!p.sample_due(Cycle(15)));
        assert!(p.sample_due(Cycle(22)));
        p.final_sample(Cycle(12), 100, 1, 6, MemGauges::default());
        p.final_sample(Cycle(30), 200, 1, 9, MemGauges::default());
        p.finish(Cycle(30), &[false]);
        let r = p.report().unwrap();
        assert_eq!(r.samples.len(), 2);
        assert_eq!(r.samples[1].cycle, 30);
    }
}
