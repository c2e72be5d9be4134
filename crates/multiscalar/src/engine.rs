use std::collections::{HashMap, VecDeque};

use svc_sim::fault::{FaultEvent, FaultSite, Faults};
use svc_sim::metrics::{MetricSource, MetricsRegistry};
use svc_sim::profile::Profiler;
use svc_sim::rng::Xoshiro256;
use svc_sim::stats::Histogram;
use svc_sim::trace::{Category, TraceEvent, Tracer};
use svc_types::{
    Addr, Cycle, InvariantViolation, MemGauges, MemStats, PuId, TaskId, VersionedMemory, Word,
};

use crate::predictor::PredictorModel;
use crate::task::{Instr, TaskSource};

/// Configuration of the execution [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of processing units (must match the memory system).
    pub num_pus: usize,
    /// Instructions a PU can retire per cycle when nothing stalls
    /// (the paper's PUs are 2-issue).
    pub issue_width: usize,
    /// Cycles of load latency the PU hides for loads whose value is not
    /// needed immediately (standing in for out-of-order issue within the
    /// PU).
    pub load_overlap: u64,
    /// Fraction of loads whose value feeds the next instruction
    /// (dependent use): those expose their full latency. Decided
    /// deterministically per load from the seed.
    pub load_dep_frac: f64,
    /// Sequencer overhead: cycles between task dispatches.
    pub dispatch_cycles: u64,
    /// The task predictor model.
    pub predictor: PredictorModel,
    /// Stop once this many instructions have committed (0 = run the whole
    /// task sequence).
    pub max_instructions: u64,
    /// Hard safety stop.
    pub max_cycles: u64,
    /// Word-address space wrong-path (garbage) tasks touch, polluting the
    /// caches like real wrong-path execution does.
    pub garbage_addr_space: u64,
    /// Seed for wrong-path work generation.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            num_pus: 4,
            issue_width: 2,
            load_overlap: 2,
            load_dep_frac: 0.35,
            dispatch_cycles: 1,
            predictor: PredictorModel::perfect(),
            max_instructions: 0,
            max_cycles: 500_000_000,
            garbage_addr_space: 4096,
            seed: 0,
        }
    }
}

/// The outcome of one [`Engine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions belonging to committed tasks.
    pub committed_instrs: u64,
    /// Tasks committed.
    pub committed_tasks: u64,
    /// Task squash events (mispredictions + violations + resource frees).
    pub squashes: u64,
    /// Squash events caused by detected memory-dependence violations.
    pub violation_squashes: u64,
    /// Squash events freeing speculative resources for a stalled head.
    pub resource_squashes: u64,
    /// Task-misprediction detections.
    pub mispredictions: u64,
    /// Instructions that executed and were then thrown away by a squash
    /// (the wasted re-execution cost of speculation).
    pub wasted_instrs: u64,
    /// PU-cycles spent blocked after a squash: the squashed PU remains
    /// stalled on the latency of the access it was torn down under.
    pub squash_recovery_cycles: u64,
    /// Distribution of committed task lengths (instructions; 8-wide
    /// buckets).
    pub task_lengths: Histogram,
    /// Distribution of dispatch-to-commit latency of committed tasks
    /// (cycles; 64-wide buckets). Not part of the serialized experiment
    /// artifacts — consumed by the soak loop's live telemetry.
    pub task_latency: Histogram,
    /// Distribution of squash depths: tasks torn down per squash event
    /// (1-wide buckets). Not part of the serialized experiment
    /// artifacts — consumed by the soak loop's live telemetry.
    pub squash_depths: Histogram,
    /// Final memory-system statistics.
    pub mem: MemStats,
    /// Whether the run stopped on the cycle safety limit.
    pub hit_cycle_limit: bool,
    /// Idle-cycle fast-forward jumps taken (clock advances of more than
    /// one cycle). Not part of the serialized experiment artifacts —
    /// consumed by the soak loop's live telemetry.
    pub ff_jumps: u64,
    /// Simulated cycles the fast-forward skipped over (beyond the
    /// one-cycle step each jump replaces). Not part of the serialized
    /// experiment artifacts — consumed by the soak loop's live telemetry.
    pub ff_skipped_cycles: u64,
}

impl Default for RunReport {
    /// An all-zero report with the engine's canonical histogram shapes
    /// (so a checkpoint restore — which validates shape — accepts it).
    fn default() -> RunReport {
        RunReport {
            cycles: 0,
            committed_instrs: 0,
            committed_tasks: 0,
            squashes: 0,
            violation_squashes: 0,
            resource_squashes: 0,
            mispredictions: 0,
            wasted_instrs: 0,
            squash_recovery_cycles: 0,
            task_lengths: Histogram::new(8, 32),
            task_latency: Histogram::new(64, 64),
            squash_depths: Histogram::new(1, 8),
            mem: MemStats::default(),
            hit_cycle_limit: false,
            ff_jumps: 0,
            ff_skipped_cycles: 0,
        }
    }
}

impl RunReport {
    /// Mean committed task length in instructions.
    pub fn avg_task_len(&self) -> f64 {
        if self.committed_tasks == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.committed_tasks as f64
        }
    }

    /// Committed instructions per cycle — the metric of Figures 19/20.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.cycles as f64
        }
    }

    /// Bus utilization over the run (Table 3).
    pub fn bus_utilization(&self) -> f64 {
        self.mem.bus_utilization(self.cycles)
    }

    /// Every scalar counter as a `(name, value)` pair, in declaration
    /// order — the single source of truth the JSON experiment reports
    /// iterate (`task_lengths` and `mem` are serialized separately as
    /// structured objects).
    pub fn counter_fields(&self) -> [(&'static str, u64); 9] {
        [
            ("cycles", self.cycles),
            ("committed_instrs", self.committed_instrs),
            ("committed_tasks", self.committed_tasks),
            ("squashes", self.squashes),
            ("violation_squashes", self.violation_squashes),
            ("resource_squashes", self.resource_squashes),
            ("mispredictions", self.mispredictions),
            ("wasted_instrs", self.wasted_instrs),
            ("squash_recovery_cycles", self.squash_recovery_cycles),
        ]
    }
}

impl MetricSource for RunReport {
    fn export_metrics(&self, prefix: &str, reg: &mut MetricsRegistry) {
        for (name, value) in self.counter_fields() {
            reg.counter(&format!("{prefix}{name}"), value);
        }
        reg.gauge(&format!("{prefix}ipc"), self.ipc());
        reg.gauge(&format!("{prefix}avg_task_len"), self.avg_task_len());
        reg.gauge(&format!("{prefix}bus_utilization"), self.bus_utilization());
        reg.histogram(&format!("{prefix}task_lengths"), &self.task_lengths);
        for (name, value) in self.mem.fields() {
            reg.counter(&format!("{prefix}mem.{name}"), value);
        }
        reg.gauge(
            &format!("{prefix}mem.mshr_combine_rate"),
            self.mem.mshr_combine_rate(),
        );
    }
}

#[derive(Debug, Clone)]
struct PuState {
    pos: Option<u64>,
    instrs: Vec<Instr>,
    pc: usize,
    /// When the running task was dispatched (for commit-latency metering).
    dispatched_at: Cycle,
    ready_at: Cycle,
    /// The PU's memory port: a store occupies it until the memory system
    /// has accepted the store (its full latency — this is where a shared
    /// structure's hit latency taxes store-rich code); loads pipeline
    /// through it at one per cycle.
    port_free: Cycle,
    wrong: bool,
    detect_at: Cycle,
    done: bool,
}

impl PuState {
    fn idle() -> PuState {
        PuState {
            pos: None,
            instrs: Vec::new(),
            pc: 0,
            dispatched_at: Cycle::ZERO,
            ready_at: Cycle::ZERO,
            port_free: Cycle::ZERO,
            wrong: false,
            detect_at: Cycle::ZERO,
            done: false,
        }
    }
}

/// A point-in-time snapshot of engine-level state, handed to an
/// [`EpochSink`] at every profiler-epoch boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// The cycle the snapshot was taken at.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed_instrs: u64,
    /// Tasks committed so far.
    pub committed_tasks: u64,
    /// Squash events so far.
    pub squashes: u64,
    /// Cumulative memory-system statistics at the snapshot point.
    pub mem: MemStats,
    /// Point-in-time memory gauges (outstanding misses, live versions).
    pub gauges: MemGauges,
}

/// A consumer of periodic [`EpochSnapshot`]s.
///
/// The engine calls [`on_epoch`](EpochSink::on_epoch) at exactly the
/// cycles the profiler's interval sampler fires (so a sink is only
/// driven when an enabled profiler with a non-zero epoch is attached),
/// and the idle-cycle fast-forward already lands on those cycles —
/// attaching a sink never changes the simulated timeline. The soak
/// server uses this to derive per-epoch bus-wait and MSHR-occupancy
/// histograms without touching engine internals.
///
/// `Debug` is a supertrait so the engine keeps its derived `Debug`.
pub trait EpochSink: std::fmt::Debug {
    /// Called once per profiler epoch with the current snapshot.
    fn on_epoch(&mut self, snap: &EpochSnapshot);
}

/// The hierarchical execution engine: sequencer + PUs over a speculative
/// memory system. See the crate docs for the model and an example.
#[derive(Debug)]
pub struct Engine<M> {
    config: EngineConfig,
    mem: M,
    pus: Vec<PuState>,
    /// The PUs running a task, in dispatch order, which is program order:
    /// dispatch appends the next position, commit pops the head, and a
    /// squash cuts a suffix, so positions strictly increase along it.
    /// Derived from `pus[..].pos`: rebuilt on restore, never checkpointed.
    running: VecDeque<usize>,
    attempts: HashMap<u64, u32>,
    next_pos: u64,
    dispatch_ready: Cycle,
    squashes: u64,
    violation_squashes: u64,
    resource_squashes: u64,
    mispredictions: u64,
    wasted_instrs: u64,
    squash_recovery_cycles: u64,
    task_lengths: Histogram,
    task_latency: Histogram,
    squash_depths: Histogram,
    tracer: Tracer,
    faults: Faults,
    profiler: Profiler,
    epoch_sink: Option<Box<dyn EpochSink>>,
    watchdog_every: u64,
    violations: Vec<InvariantViolation>,
    fast_forward: bool,
    // -- run cursor ---------------------------------------------------
    // The scheduler loop's progress, kept on the engine (rather than as
    // locals of `run`) so a run can be suspended at a cycle boundary,
    // checkpointed, and resumed without observable difference.
    now: Cycle,
    committed_instrs: u64,
    committed_tasks: u64,
    hit_cycle_limit: bool,
    next_watchdog: u64,
    ff_jumps: u64,
    ff_skipped_cycles: u64,
    /// Memoized `source.task(next_pos)` lookup. The termination check
    /// needs "is there a task at `next_pos`?" every scheduler iteration,
    /// but task sources generate their instruction list on every call —
    /// without this cache the engine regenerates (and throws away) a
    /// full task per simulated cycle. Sources are contractually
    /// deterministic, so caching is invisible.
    peek_pos: u64,
    peek_task: Option<Vec<Instr>>,
    peek_valid: bool,
}

/// Why a squash happened, for the report's breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SquashCause {
    Misprediction,
    Violation,
    Resource,
    Fault,
}

impl<M: VersionedMemory> Engine<M> {
    /// Creates an engine over `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_pus` disagrees with `mem.num_pus()` or is 0.
    pub fn new(config: EngineConfig, mem: M) -> Engine<M> {
        assert!(config.num_pus > 0);
        assert_eq!(
            config.num_pus,
            mem.num_pus(),
            "engine and memory sizes differ"
        );
        Engine {
            pus: (0..config.num_pus).map(|_| PuState::idle()).collect(),
            running: VecDeque::with_capacity(config.num_pus),
            mem,
            attempts: HashMap::new(),
            next_pos: 0,
            dispatch_ready: Cycle::ZERO,
            squashes: 0,
            violation_squashes: 0,
            resource_squashes: 0,
            mispredictions: 0,
            wasted_instrs: 0,
            squash_recovery_cycles: 0,
            task_lengths: Histogram::new(8, 32),
            task_latency: Histogram::new(64, 64),
            squash_depths: Histogram::new(1, 8),
            tracer: Tracer::disabled(),
            faults: Faults::disabled(),
            profiler: Profiler::disabled(),
            epoch_sink: None,
            watchdog_every: 0,
            violations: Vec::new(),
            fast_forward: true,
            now: Cycle::ZERO,
            committed_instrs: 0,
            committed_tasks: 0,
            hit_cycle_limit: false,
            next_watchdog: 0,
            ff_jumps: 0,
            ff_skipped_cycles: 0,
            peek_pos: 0,
            peek_task: None,
            peek_valid: false,
            config,
        }
    }

    /// The task at `next_pos`, generated once and reused until the
    /// sequencer moves (dispatch or squash rewind).
    fn peek_next(&mut self, source: &dyn TaskSource) -> Option<&Vec<Instr>> {
        if !self.peek_valid || self.peek_pos != self.next_pos {
            self.peek_task = source.task(TaskId(self.next_pos));
            self.peek_pos = self.next_pos;
            self.peek_valid = true;
        }
        self.peek_task.as_ref()
    }

    /// Attaches `tracer` to the engine (task-lifecycle events). The memory
    /// system has its own [`set_tracer`]-style hook; attach the same tracer
    /// there to interleave both streams in one ring.
    ///
    /// [`set_tracer`]: svc_sim::trace::Tracer
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a fault injector to the engine (spurious squashes). The
    /// memory system has its own [`set_faults`]-style hook; attach the
    /// same handle there so every site draws from one seeded schedule.
    ///
    /// [`set_faults`]: svc_sim::fault::Faults
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// Attaches a cycle-accounting profiler to the engine (dispatch,
    /// execution, commit and squash attribution, plus the interval
    /// sampler). Attach a clone of the same handle to the memory system
    /// (its `set_profiler`-style hook) so per-access decompositions reach
    /// the same books; keep a clone yourself to read the
    /// [`report`](Profiler::report) after the run.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Enables the invariant watchdog: the memory system's
    /// [`check_invariants`](VersionedMemory::check_invariants) runs at
    /// every commit and squash boundary and additionally every `every`
    /// cycles (`0` disables the watchdog entirely, the default). Every
    /// violation is recorded (see [`violations`](Engine::violations)) and
    /// emitted as a `fault`-category trace event; execution continues.
    pub fn set_watchdog(&mut self, every: u64) {
        self.watchdog_every = every;
        // First periodic sweep one interval in (matching the sweep
        // schedule of a run started with the watchdog already set).
        self.next_watchdog = every;
    }

    /// Whether idle cycles are jumped over (the default) or stepped one
    /// by one. Stepping is the reference behavior the fast-forward
    /// differential test compares against; the results are identical.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Attaches a periodic snapshot consumer, driven at profiler-epoch
    /// boundaries (see [`EpochSink`]). Requires an enabled profiler with
    /// a non-zero sampling epoch to ever fire.
    pub fn set_epoch_sink(&mut self, sink: Box<dyn EpochSink>) {
        self.epoch_sink = Some(sink);
    }

    /// Invariant violations the watchdog has collected so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Consumes the engine, returning the memory system (for end-of-run
    /// inspection: `drain()`, `architectural()`).
    pub fn into_memory(self) -> M {
        self.mem
    }

    /// A reference to the memory system.
    pub fn memory(&self) -> &M {
        &self.mem
    }

    /// Runs `source` to completion (or to the configured instruction or
    /// cycle budget) and reports the results.
    pub fn run(&mut self, source: &dyn TaskSource) -> RunReport {
        let finished = self.run_until(source, None);
        debug_assert!(finished, "run_until(None) only returns on completion");
        self.finish()
    }

    /// The current simulated cycle of a run in progress (or just ended).
    pub fn cycle(&self) -> u64 {
        self.now.0
    }

    /// Drives the scheduler loop until the run completes (`true`) or the
    /// clock reaches `stop_at` (`false`; the engine is paused at a cycle
    /// boundary and a later `run_until` call continues with no observable
    /// difference — the pause cycle's watchdog sweep and profiler sample
    /// run on resumption, exactly once). `run_until(source, None)`
    /// followed by [`finish`](Engine::finish) is exactly
    /// [`run`](Engine::run).
    pub fn run_until(&mut self, source: &dyn TaskSource, stop_at: Option<u64>) -> bool {
        // Idle-cycle fast-forward: when no PU can make progress this
        // cycle, jump the clock to the earliest cycle anything can
        // happen instead of ticking empty cycles, unless
        // `set_fast_forward` turned it off. An active fault injector
        // disables jumping too, because injection sites draw from their
        // schedule once per scheduler iteration, so skipping iterations
        // would change the fault timeline.
        let fast_forward = self.fast_forward;

        loop {
            let now = self.now;
            // Checkpoint boundary: yield *before* this cycle's sweeps and
            // events, so they happen exactly once — on the resumed side.
            if stop_at.is_some_and(|s| now.0 >= s) {
                return false;
            }
            // Periodic invariant sweep (watchdog enabled only).
            if self.watchdog_every > 0 && now.0 >= self.next_watchdog {
                let found = self.mem.check_invariants(now);
                self.record_violations(found, now);
                self.next_watchdog = now.0 + self.watchdog_every;
            }
            // Interval sampler (profiler enabled only).
            if self.profiler.sample_due(now) {
                let busy = self.mem.stats().bus_busy_cycles;
                let gauges = self.mem.profile_gauges(now);
                self.profiler
                    .sample(now, self.committed_instrs, self.squashes, busy, gauges);
                if let Some(sink) = &mut self.epoch_sink {
                    sink.on_epoch(&EpochSnapshot {
                        cycle: now.0,
                        committed_instrs: self.committed_instrs,
                        committed_tasks: self.committed_tasks,
                        squashes: self.squashes,
                        mem: self.mem.stats(),
                        gauges,
                    });
                }
            }
            // Termination checks.
            let more_tasks = self.peek_next(source).is_some();
            if self.running.is_empty() && !more_tasks {
                break;
            }
            if self.config.max_instructions > 0
                && self.committed_instrs >= self.config.max_instructions
            {
                break;
            }
            if now.0 >= self.config.max_cycles {
                self.hit_cycle_limit = true;
                break;
            }

            let mut progressed = false;

            // 1. Sequencer: dispatch the next predicted task to a free PU.
            if more_tasks && now >= self.dispatch_ready {
                // Prefer the position's round-robin home PU (gives
                // stack-frame lines PU affinity); fall back to any free PU.
                let want = (self.next_pos % self.config.num_pus as u64) as usize;
                let free = if self.pus[want].pos.is_none() {
                    Some(want)
                } else {
                    self.pus.iter().position(|p| p.pos.is_none())
                };
                if let Some(pu) = free {
                    self.dispatch(pu, self.next_pos, source, now);
                    self.next_pos += 1;
                    self.dispatch_ready = now + self.config.dispatch_cycles;
                    progressed = true;
                }
            }

            // Fault hook: a spurious squash tears down the youngest
            // running task — recoverable by construction (the sequencer
            // re-dispatches it), but it exercises the whole squash/repair
            // machinery under load.
            if self.faults.is_active() {
                if let Some(penalty) = self.faults.inject(FaultSite::SpuriousSquash) {
                    if let Some(victim) = self.running.back().and_then(|&pu| self.pus[pu].pos) {
                        self.tracer.emit(now, Category::Fault, || {
                            TraceEvent::Fault(FaultEvent {
                                site: FaultSite::SpuriousSquash,
                                pu: None,
                                line: None,
                                penalty,
                            })
                        });
                        self.squash_from(victim, SquashCause::Fault, now);
                        progressed = true;
                    }
                }
            }

            // 2. Execute: PUs issue in program order (oldest task first).
            //    A squash here only cuts the tail at or after the current
            //    PU, so walking `running` by index visits each survivor
            //    once.
            let mut k = 0;
            while let Some(&pu) = self.running.get(k) {
                k += 1;
                // Misprediction detection.
                if self.pus[pu].wrong && now >= self.pus[pu].detect_at {
                    let pos = self.pus[pu].pos.expect("checked");
                    self.mispredictions += 1;
                    *self.attempts.entry(pos).or_insert(0) += 1;
                    self.squash_from(pos, SquashCause::Misprediction, now);
                    progressed = true;
                    continue;
                }
                if now < self.pus[pu].ready_at || self.pus[pu].done {
                    continue;
                }
                progressed |= self.issue(pu, now);
            }

            // 3. Commit: the head task, if finished and correctly
            //    predicted, commits its speculative state.
            if let Some(&pu) = self.running.front() {
                let p = &self.pus[pu];
                if p.done && !p.wrong && now >= p.ready_at {
                    let n = p.instrs.len() as u64;
                    let task = p.pos.map(TaskId);
                    let latency = now.since(p.dispatched_at);
                    let done = self.mem.commit(PuId(pu), now);
                    self.tracer
                        .emit(now, Category::Task, || TraceEvent::TaskCommit {
                            pu: PuId(pu),
                            task: task.expect("committing PU has a task"),
                            instrs: n,
                        });
                    if self.watchdog_every > 0 {
                        let found = self.mem.check_invariants(now);
                        self.record_violations(found, now);
                    }
                    self.committed_instrs += n;
                    self.committed_tasks += 1;
                    self.task_lengths.record(n);
                    self.task_latency.record(latency);
                    self.profiler.on_commit(PuId(pu), now, done);
                    self.running.pop_front();
                    self.pus[pu] = PuState::idle();
                    self.pus[pu].ready_at = done;
                    progressed = true;
                }
            }

            // 4. Advance time: to the next cycle if something happened, or
            //    jump to the next event when everything is waiting.
            if progressed || !fast_forward || self.faults.is_active() {
                self.now = now + 1;
            } else {
                let mut next = Cycle(now.0 + 1);
                let mut wake = Cycle(u64::MAX);
                for &pu in &self.running {
                    let p = &self.pus[pu];
                    if p.wrong {
                        wake = Cycle(wake.0.min(p.detect_at.0));
                    }
                    wake = Cycle(wake.0.min(p.ready_at.0));
                }
                if more_tasks && self.running.len() < self.pus.len() {
                    wake = Cycle(wake.0.min(self.dispatch_ready.0.max(next.0)));
                }
                // Never jump over an observability boundary: periodic
                // watchdog sweeps and profiler sample rows must land on
                // the same cycles as in a cycle-by-cycle run.
                if self.watchdog_every > 0 {
                    wake = Cycle(wake.0.min(self.next_watchdog));
                }
                if let Some(s) = self.profiler.next_sample_at() {
                    wake = Cycle(wake.0.min(s));
                }
                if wake.0 != u64::MAX {
                    next = next.max(wake);
                }
                if next.0 > now.0 + 1 {
                    self.ff_jumps += 1;
                    self.ff_skipped_cycles += next.0 - (now.0 + 1);
                }
                self.now = next;
            }
        }
        true
    }

    /// Closes out a completed run — final profiler sample, report
    /// assembly. Must follow a `run_until` call that returned `true`.
    pub fn finish(&mut self) -> RunReport {
        let now = self.now;
        if self.profiler.is_active() {
            let busy = self.mem.stats().bus_busy_cycles;
            let gauges = self.mem.profile_gauges(now);
            self.profiler
                .final_sample(now, self.committed_instrs, self.squashes, busy, gauges);
            let tasked: Vec<bool> = self.pus.iter().map(|p| p.pos.is_some()).collect();
            self.profiler.finish(now, &tasked);
        }

        RunReport {
            cycles: now.0,
            committed_instrs: self.committed_instrs,
            committed_tasks: self.committed_tasks,
            squashes: self.squashes,
            violation_squashes: self.violation_squashes,
            resource_squashes: self.resource_squashes,
            mispredictions: self.mispredictions,
            wasted_instrs: self.wasted_instrs,
            squash_recovery_cycles: self.squash_recovery_cycles,
            task_lengths: self.task_lengths.clone(),
            task_latency: self.task_latency.clone(),
            squash_depths: self.squash_depths.clone(),
            mem: self.mem.stats(),
            hit_cycle_limit: self.hit_cycle_limit,
            ff_jumps: self.ff_jumps,
            ff_skipped_cycles: self.ff_skipped_cycles,
        }
    }

    /// Issues up to `issue_width` instructions on `pu` at `now`. Returns
    /// whether anything happened.
    fn issue(&mut self, pu: usize, now: Cycle) -> bool {
        let mut issued = 0;
        let width = self.config.issue_width;
        while issued < width {
            let p = &self.pus[pu];
            if p.pc >= p.instrs.len() {
                self.pus[pu].done = true;
                return true;
            }
            match p.instrs[p.pc] {
                Instr::Compute(c) => {
                    self.pus[pu].pc += 1;
                    issued += 1;
                    if c > 0 {
                        self.pus[pu].ready_at = now + 1 + u64::from(c);
                        break;
                    }
                }
                Instr::Load(addr) => {
                    if now < self.pus[pu].port_free {
                        self.pus[pu].ready_at = self.pus[pu].port_free;
                        self.profiler
                            .on_port_block(PuId(pu), now, self.pus[pu].port_free);
                        break;
                    }
                    match self.mem.load(PuId(pu), addr, now) {
                        Ok(out) => {
                            let p = &self.pus[pu];
                            // Deterministic per-load dependence draw: a
                            // dependent use exposes the full latency; an
                            // independent load is fire-and-forget (the
                            // paper's non-blocking, MSHR-backed PUs).
                            let mut h = svc_sim::rng::SplitMix64::new(
                                self.config.seed ^ (p.pos.unwrap_or(0) << 20) ^ p.pc as u64,
                            );
                            let dep = (h.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
                                < self.config.load_dep_frac;
                            self.pus[pu].pc += 1;
                            self.pus[pu].port_free = now + 1;
                            let visible = if dep { out.done_at.0 } else { now.0 + 1 };
                            self.pus[pu].ready_at = Cycle(visible.max(now.0 + 1));
                            self.profiler.on_load(PuId(pu), now, self.pus[pu].ready_at);
                        }
                        Err(_) => self.stall(pu, now),
                    }
                    issued += 1;
                    break; // one memory operation per PU per cycle
                }
                Instr::Store(addr, value) => {
                    if now < self.pus[pu].port_free {
                        self.pus[pu].ready_at = self.pus[pu].port_free;
                        self.profiler
                            .on_port_block(PuId(pu), now, self.pus[pu].port_free);
                        break;
                    }
                    match self.mem.store(PuId(pu), addr, value, now) {
                        Ok(out) => {
                            self.pus[pu].pc += 1;
                            self.profiler.on_store(PuId(pu));
                            // Non-blocking for the pipeline; the store
                            // buffer absorbs roughly half the latency of
                            // reaching the memory structure, the rest
                            // shows as port pressure.
                            let tax = out.done_at.since(now).div_ceil(2);
                            self.pus[pu].port_free = now + tax;
                            self.pus[pu].ready_at = now + 1;
                            if let Some(v) = out.violation {
                                self.squash_from(v.victim.0, SquashCause::Violation, now);
                            }
                        }
                        Err(_) => self.stall(pu, now),
                    }
                    issued += 1;
                    break;
                }
            }
            if self.pus[pu].ready_at > now + 1 {
                break;
            }
        }
        if issued > 0 && self.pus[pu].ready_at <= now {
            self.pus[pu].ready_at = now + 1;
        }
        let p = &mut self.pus[pu];
        if p.pos.is_some() && p.pc >= p.instrs.len() {
            p.done = true;
        }
        issued > 0
    }

    /// Handles a replacement/structural stall: the head frees resources by
    /// squashing everything younger; others simply retry next cycle.
    fn stall(&mut self, pu: usize, now: Cycle) {
        if self.running.front() == Some(&pu) {
            // Squash strictly younger tasks to free speculative state.
            if let Some(victim) = self.running.get(1).and_then(|&q| self.pus[q].pos) {
                self.squash_from(victim, SquashCause::Resource, now);
            }
        }
        self.pus[pu].ready_at = now + 1;
        self.profiler.on_stall(PuId(pu), now);
    }

    fn dispatch(&mut self, pu: usize, pos: u64, source: &dyn TaskSource, now: Cycle) {
        let attempt = *self.attempts.get(&pos).unwrap_or(&0);
        let wrong = self.config.predictor.mispredicts(TaskId(pos), attempt);
        let instrs = if wrong {
            self.garbage_task(pos, attempt)
        } else if self.peek_valid && self.peek_pos == pos && self.peek_task.is_some() {
            self.peek_valid = false;
            self.peek_task.take().expect("checked")
        } else {
            source.task(TaskId(pos)).expect("dispatched past the end")
        };
        self.tracer
            .emit(now, Category::Task, || TraceEvent::TaskDispatch {
                pu: PuId(pu),
                task: TaskId(pos),
                attempt,
                wrong_path: wrong,
            });
        self.mem.assign(PuId(pu), TaskId(pos));
        self.running.push_back(pu);
        let ready = now.max(self.pus[pu].ready_at) + self.config.dispatch_cycles;
        self.profiler.on_dispatch(PuId(pu), now, ready);
        self.pus[pu] = PuState {
            pos: Some(pos),
            instrs,
            pc: 0,
            dispatched_at: now,
            ready_at: ready,
            port_free: ready,
            wrong,
            detect_at: now + self.config.predictor.detect_cycles.max(1),
            done: false,
        };
    }

    /// Squashes every task at position `victim` and younger (the paper's
    /// simple squash model), rewinding the sequencer to re-dispatch them.
    fn squash_from(&mut self, victim: u64, cause: SquashCause, now: Cycle) {
        match cause {
            SquashCause::Misprediction | SquashCause::Fault => {}
            SquashCause::Violation => self.violation_squashes += 1,
            SquashCause::Resource => self.resource_squashes += 1,
        }
        let trace_cause = match cause {
            SquashCause::Misprediction => svc_sim::trace::SquashCause::Misprediction,
            SquashCause::Violation => svc_sim::trace::SquashCause::Violation,
            SquashCause::Resource => svc_sim::trace::SquashCause::Resource,
            SquashCause::Fault => svc_sim::trace::SquashCause::Fault,
        };
        let keep = self
            .running
            .partition_point(|&pu| self.pus[pu].pos.is_some_and(|t| t < victim));
        let hit = self.running.len() - keep;
        if hit > 0 {
            self.squash_depths.record(hit as u64);
        }
        // Youngest first.
        while self.running.len() > keep {
            let pu = self.running.pop_back().expect("suffix is non-empty");
            let task = self.pus[pu].pos.expect("running PU has a task");
            let ready = self.pus[pu].ready_at;
            self.tracer
                .emit(now, Category::Task, || TraceEvent::TaskSquash {
                    pu: PuId(pu),
                    task: TaskId(task),
                    cause: trace_cause,
                    restart: TaskId(victim),
                    until: ready,
                });
            self.mem.squash_at(PuId(pu), now);
            if self.watchdog_every > 0 {
                let found = self.mem.check_post_squash(PuId(pu), now);
                self.record_violations(found, now);
            }
            // Wasted-work metering: the instructions this task had already
            // executed are thrown away, and the PU stays blocked on the
            // latency of whatever access it was squashed under.
            self.wasted_instrs += self.pus[pu].pc as u64;
            self.squash_recovery_cycles += ready.since(now);
            if self.profiler.is_active() {
                let p = &self.pus[pu];
                let touched = p.instrs[..p.pc.min(p.instrs.len())]
                    .iter()
                    .filter_map(|i| match i {
                        Instr::Load(a) => Some(*a),
                        Instr::Store(a, _) => Some(*a),
                        Instr::Compute(_) => None,
                    });
                self.profiler.note_wasted(touched);
                self.profiler.on_squash(PuId(pu), now, ready);
            }
            self.pus[pu] = PuState::idle();
            self.pus[pu].ready_at = ready;
            self.squashes += 1;
        }
        self.next_pos = self.next_pos.min(victim);
    }

    /// Records watchdog findings: each is kept for
    /// [`violations`](Engine::violations) and emitted as a trace event.
    fn record_violations(&mut self, found: Vec<InvariantViolation>, now: Cycle) {
        for v in found {
            self.tracer
                .emit(now, Category::Fault, || TraceEvent::InvariantViolation {
                    kind: v.kind.name(),
                    pu: v.pu,
                    line: v.line,
                    detail: v.detail.clone(),
                });
            self.violations.push(v);
        }
    }

    /// Deterministic wrong-path work for a mispredicted dispatch.
    fn garbage_task(&self, pos: u64, attempt: u32) -> Vec<Instr> {
        let mut rng = Xoshiro256::seed_from(
            self.config.seed ^ 0xBAD ^ pos.wrapping_mul(0x9E37_79B9) ^ u64::from(attempt) << 32,
        );
        let len = rng.gen_index(4..20);
        (0..len)
            .map(|_| {
                let r = rng.gen_f64();
                if r < 0.25 {
                    Instr::Load(Addr(rng.gen_range(0..self.config.garbage_addr_space)))
                } else if r < 0.35 {
                    Instr::Store(
                        Addr(rng.gen_range(0..self.config.garbage_addr_space)),
                        Word(rng.next_u64()),
                    )
                } else {
                    Instr::Compute((rng.gen_range(0..2)) as u8)
                }
            })
            .collect()
    }
}

impl svc_types::Checkpointable for PuState {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.pos.save_state(w);
        self.instrs.save_state(w);
        self.pc.save_state(w);
        self.dispatched_at.save_state(w);
        self.ready_at.save_state(w);
        self.port_free.save_state(w);
        self.wrong.save_state(w);
        self.detect_at.save_state(w);
        self.done.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.pos.restore_state(r)?;
        self.instrs.restore_state(r)?;
        self.pc.restore_state(r)?;
        self.dispatched_at.restore_state(r)?;
        self.ready_at.restore_state(r)?;
        self.port_free.restore_state(r)?;
        self.wrong.restore_state(r)?;
        self.detect_at.restore_state(r)?;
        self.done.restore_state(r)?;
        if self.pc > self.instrs.len() {
            return Err(svc_types::CkptError::corrupt(format!(
                "PU pc {} beyond task of {} instructions",
                self.pc,
                self.instrs.len()
            )));
        }
        Ok(())
    }
}

impl svc_types::Checkpointable for RunReport {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.cycles.save_state(w);
        self.committed_instrs.save_state(w);
        self.committed_tasks.save_state(w);
        self.squashes.save_state(w);
        self.violation_squashes.save_state(w);
        self.resource_squashes.save_state(w);
        self.mispredictions.save_state(w);
        self.wasted_instrs.save_state(w);
        self.squash_recovery_cycles.save_state(w);
        self.task_lengths.save_state(w);
        self.task_latency.save_state(w);
        self.squash_depths.save_state(w);
        self.mem.save_state(w);
        self.hit_cycle_limit.save_state(w);
        self.ff_jumps.save_state(w);
        self.ff_skipped_cycles.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.cycles.restore_state(r)?;
        self.committed_instrs.restore_state(r)?;
        self.committed_tasks.restore_state(r)?;
        self.squashes.restore_state(r)?;
        self.violation_squashes.restore_state(r)?;
        self.resource_squashes.restore_state(r)?;
        self.mispredictions.restore_state(r)?;
        self.wasted_instrs.restore_state(r)?;
        self.squash_recovery_cycles.restore_state(r)?;
        self.task_lengths.restore_state(r)?;
        self.task_latency.restore_state(r)?;
        self.squash_depths.restore_state(r)?;
        self.mem.restore_state(r)?;
        self.hit_cycle_limit.restore_state(r)?;
        self.ff_jumps.restore_state(r)?;
        self.ff_skipped_cycles.restore_state(r)
    }
}

/// Engine checkpointing covers the memory system and the full scheduler
/// state — per-PU execution cursors, the sequencer, every report counter
/// and histogram, attached fault streams, the profiler's accumulators,
/// and the run cursor — so a `run_until` paused at a cycle boundary can
/// be serialized and resumed with no observable difference.
///
/// Not serialized: the tracer ring and the epoch sink (observers, not
/// simulation state — reattach after restore if wanted) and the task
/// source (reconstructed from config; sources are contractually
/// deterministic). The peek memo is invalidated on restore and re-asked
/// of the source.
impl<M: VersionedMemory + svc_types::Checkpointable> svc_types::Checkpointable for Engine<M> {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.mem.save_state(w);
        w.put_usize(self.pus.len());
        for pu in &self.pus {
            pu.save_state(w);
        }
        self.attempts.save_state(w);
        self.next_pos.save_state(w);
        self.dispatch_ready.save_state(w);
        self.squashes.save_state(w);
        self.violation_squashes.save_state(w);
        self.resource_squashes.save_state(w);
        self.mispredictions.save_state(w);
        self.wasted_instrs.save_state(w);
        self.squash_recovery_cycles.save_state(w);
        self.task_lengths.save_state(w);
        self.task_latency.save_state(w);
        self.squash_depths.save_state(w);
        self.faults.save_state(w);
        self.profiler.save_state(w);
        self.violations.save_state(w);
        self.now.save_state(w);
        self.committed_instrs.save_state(w);
        self.committed_tasks.save_state(w);
        self.hit_cycle_limit.save_state(w);
        self.next_watchdog.save_state(w);
        self.ff_jumps.save_state(w);
        self.ff_skipped_cycles.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.mem.restore_state(r)?;
        let n = r.take_usize()?;
        if n != self.pus.len() {
            return Err(svc_types::CkptError::corrupt(format!(
                "checkpoint has {n} PUs, engine has {}",
                self.pus.len()
            )));
        }
        for pu in &mut self.pus {
            pu.restore_state(r)?;
        }
        self.attempts.restore_state(r)?;
        self.next_pos.restore_state(r)?;
        self.dispatch_ready.restore_state(r)?;
        self.squashes.restore_state(r)?;
        self.violation_squashes.restore_state(r)?;
        self.resource_squashes.restore_state(r)?;
        self.mispredictions.restore_state(r)?;
        self.wasted_instrs.restore_state(r)?;
        self.squash_recovery_cycles.restore_state(r)?;
        self.task_lengths.restore_state(r)?;
        self.task_latency.restore_state(r)?;
        self.squash_depths.restore_state(r)?;
        self.faults.restore_state(r)?;
        self.profiler.restore_state(r)?;
        self.violations.restore_state(r)?;
        self.now.restore_state(r)?;
        self.committed_instrs.restore_state(r)?;
        self.committed_tasks.restore_state(r)?;
        self.hit_cycle_limit.restore_state(r)?;
        self.next_watchdog.restore_state(r)?;
        self.ff_jumps.restore_state(r)?;
        self.ff_skipped_cycles.restore_state(r)?;
        // The memo caches a lookup against a task source the checkpoint
        // does not carry; drop it so the next peek re-asks the source.
        self.peek_task = None;
        self.peek_valid = false;
        let mut running: Vec<(u64, usize)> = (self.pus.iter().enumerate())
            .filter_map(|(i, p)| p.pos.map(|t| (t, i)))
            .collect();
        running.sort_unstable();
        self.running = running.into_iter().map(|(_, i)| i).collect();
        Ok(())
    }
}
