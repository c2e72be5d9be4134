//! The soak loop behind `svc-sim serve`: an unbounded, seeded, rotating
//! schedule of workload slices driven through the SVC engine, with
//! periodic fault storms and live-exportable state.
//!
//! Time is measured in **ticks**; each tick runs one bounded *slice* (a
//! kernel workload under a committed-instruction budget) on a fresh
//! final-design SVC system, with the invariant watchdog and the
//! cycle-accounting profiler always attached. The [`StormSchedule`]
//! decides which ticks run under uniform fault injection; the calm ticks
//! in between let the recovery machinery drain, so `/healthz` can report
//! whether storms recover cleanly.
//!
//! Everything is a pure function of ([`SoakConfig::seed`], tick count):
//! workload rotation, conflict-density draws, per-slice engine seeds and
//! per-storm fault streams all derive from SplitMix64 streams, so a
//! bounded-tick soak is byte-identity testable — `serve --ticks N
//! --seed S` writes the same `results/soak.json` every time, on any
//! harness thread count (the loop itself is single-threaded; only the
//! HTTP exporter lives on another thread, and it only ever reads
//! pre-rendered strings).

use std::cell::RefCell;
use std::rc::Rc;

use svc::{SvcConfig, SvcSystem};
use svc_multiscalar::{Engine, EngineConfig, EpochSink, EpochSnapshot, RunReport, VecTaskSource};
use svc_sim::fault::{FaultSite, Faults, StormSchedule, NUM_SITES};
use svc_sim::metrics::MetricsRegistry;
use svc_sim::profile::{ProfileReport, Profiler, Sample, NUM_BUCKETS};
use svc_sim::rng::SplitMix64;
use svc_sim::stats::Histogram;
use svc_workloads::kernels;

use crate::report::{self, Json};

/// Stream-derivation salts (arbitrary odd constants, fixed forever so
/// soak artifacts stay reproducible across versions).
const SEED_SALT: u64 = 0x5EED_5A17;
const DENSITY_SALT: u64 = 0xDE45_17F1;
const STORM_SALT: u64 = 0x5707_3352;

/// The nine rotating kernel mixes plus the randomized conflict-density
/// variant slots (three per rotation, so roughly a quarter of ticks are
/// density-swept).
const ROTATION: usize = 12;

/// Mix label per rotation slot index (slots ≥ 9 are density variants).
const MIX_NAMES: [&str; 10] = [
    "streaming",
    "readonly-sharing",
    "producer-consumer",
    "reduction",
    "false-sharing",
    "revisit",
    "pointer-chase",
    "streaming-wide",
    "pointer-chase-deep",
    "conflict-density",
];

/// Configuration of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Master seed; every derived stream hangs off it.
    pub seed: u64,
    /// Ticks to run (0 = unbounded; the observer or a signal stops it).
    pub ticks: u64,
    /// Tasks generated per slice workload.
    pub slice_tasks: u64,
    /// Committed-instruction budget per slice.
    pub slice_budget: u64,
    /// KB per private SVC cache.
    pub kb: usize,
    /// Number of PUs.
    pub pus: usize,
    /// Profiler sampling epoch (cycles) within each slice.
    pub epoch: u64,
    /// Per-slice profiler rolling window (samples; 0 = unbounded).
    pub window: usize,
    /// Rolling retention of the global `/profile` interval series.
    pub sample_window: usize,
    /// Watchdog sweep period (cycles) within each slice.
    pub watchdog: u64,
    /// The fault-storm schedule.
    pub storm: StormSchedule,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: 42,
            ticks: 0,
            slice_tasks: 256,
            slice_budget: 20_000,
            kb: 8,
            pus: crate::NUM_PUS,
            epoch: 2_048,
            window: 64,
            sample_window: 256,
            watchdog: 256,
            storm: StormSchedule::default(),
        }
    }
}

/// Cumulative soak state, updated once per tick and snapshotted into the
/// telemetry exporter by the observer callback.
#[derive(Debug, Clone)]
pub struct SoakState {
    /// Ticks (slices) completed.
    pub ticks: u64,
    /// Total simulated cycles across all slices.
    pub cycles: u64,
    /// Total committed instructions.
    pub committed_instrs: u64,
    /// Total committed tasks.
    pub committed_tasks: u64,
    /// Total squash events.
    pub squashes: u64,
    /// Total wasted (squashed) instructions.
    pub wasted_instrs: u64,
    /// Invariant violations the watchdog found (0 = healthy).
    pub watchdog_violations: u64,
    /// Total injected faults across all storm slices.
    pub faults_injected: u64,
    /// Per-site injected-fault counts, in [`FaultSite::EVERY`] order.
    pub fault_counts: [u64; NUM_SITES],
    /// Distinct storms entered so far.
    pub storms_started: u64,
    /// Slices run under storm injection.
    pub storm_slices: u64,
    /// Storm slices that completed with a clean watchdog.
    pub storm_slices_clean: u64,
    /// Whether the most recent tick was stormy.
    pub storm_active: bool,
    /// Slices completed per mix, in `MIX_NAMES` order.
    pub slices_per_mix: [u64; MIX_NAMES.len()],
    /// Mix label of the most recent slice.
    pub last_mix: &'static str,
    /// Interval rows dropped by rolling windows (per-slice profiler
    /// windows plus the global series window).
    pub intervals_dropped: u64,
    /// Idle-gap fast-forward jumps taken by slice engines.
    pub ff_jumps: u64,
    /// Simulated cycles skipped by those jumps.
    pub ff_skipped_cycles: u64,
    /// Dispatch-to-commit latency of committed tasks (cycles).
    pub task_latency: Histogram,
    /// Tasks torn down per squash event.
    pub squash_depth: Histogram,
    /// Bus-wait cycles accrued per profiler epoch.
    pub bus_wait: Histogram,
    /// MSHR occupancy (outstanding misses) at each epoch boundary.
    pub mshr_occupancy: Histogram,
    /// Per-PU stall-attribution bucket totals, summed over slices.
    pub per_pu: Vec<[u64; NUM_BUCKETS]>,
    /// Rolling global interval series (slice samples re-based onto the
    /// soak-wide cycle/counter axes).
    pub samples: Vec<Sample>,
    /// Offsets for re-basing the next slice's samples.
    base_cycles: u64,
    base_instrs: u64,
    base_squashes: u64,
    base_busy: u64,
    last_storm: Option<u64>,
}

impl SoakState {
    fn new(cfg: &SoakConfig) -> SoakState {
        SoakState {
            ticks: 0,
            cycles: 0,
            committed_instrs: 0,
            committed_tasks: 0,
            squashes: 0,
            wasted_instrs: 0,
            watchdog_violations: 0,
            faults_injected: 0,
            fault_counts: [0; NUM_SITES],
            storms_started: 0,
            storm_slices: 0,
            storm_slices_clean: 0,
            storm_active: false,
            slices_per_mix: [0; MIX_NAMES.len()],
            last_mix: "",
            intervals_dropped: 0,
            ff_jumps: 0,
            ff_skipped_cycles: 0,
            task_latency: Histogram::new(64, 64),
            squash_depth: Histogram::new(1, 8),
            bus_wait: Histogram::new(256, 32),
            mshr_occupancy: Histogram::new(1, 16),
            per_pu: vec![[0; NUM_BUCKETS]; cfg.pus],
            samples: Vec::new(),
            base_cycles: 0,
            base_instrs: 0,
            base_squashes: 0,
            base_busy: 0,
            last_storm: None,
        }
    }

    /// Overall IPC so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instrs as f64 / self.cycles as f64
        }
    }

    /// The registry behind `/metrics`: soak counters and gauges, labeled
    /// per-workload and per-fault-site series, and the four soak
    /// distributions as full bucket-by-bucket histograms.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.counter("soak.ticks", self.ticks);
        reg.counter("soak.cycles", self.cycles);
        reg.counter("soak.committed_instrs", self.committed_instrs);
        reg.counter("soak.committed_tasks", self.committed_tasks);
        reg.counter("soak.squashes", self.squashes);
        reg.counter("soak.wasted_instrs", self.wasted_instrs);
        reg.counter("soak.watchdog_violations", self.watchdog_violations);
        reg.counter("soak.faults_injected", self.faults_injected);
        reg.counter("soak.storms_started", self.storms_started);
        reg.counter("soak.storm_slices", self.storm_slices);
        reg.counter("soak.storm_slices_clean", self.storm_slices_clean);
        reg.counter("profile.intervals_dropped", self.intervals_dropped);
        reg.gauge("soak.ipc", self.ipc());
        reg.gauge(
            "soak.storm_active",
            if self.storm_active { 1.0 } else { 0.0 },
        );
        for (name, count) in MIX_NAMES.iter().zip(self.slices_per_mix.iter()) {
            reg.counter_with("soak.slices", &[("workload", name)], *count);
        }
        for (site, count) in FaultSite::EVERY.iter().zip(self.fault_counts.iter()) {
            reg.counter_with("soak.faults", &[("site", site.name())], *count);
        }
        // Fast-forward effectiveness as one labeled family, so a single
        // dashboard query graphs jumps against the cycles they saved.
        reg.counter_with("soak.fast_forward", &[("kind", "jumps")], self.ff_jumps);
        reg.counter_with(
            "soak.fast_forward",
            &[("kind", "skipped_cycles")],
            self.ff_skipped_cycles,
        );
        reg.distribution("soak.task_latency_cycles", &self.task_latency);
        reg.distribution("soak.squash_depth_tasks", &self.squash_depth);
        reg.distribution("soak.bus_wait_cycles_per_epoch", &self.bus_wait);
        reg.distribution("soak.mshr_occupancy", &self.mshr_occupancy);
        reg
    }

    /// The rolling `/profile` document body: the global interval series
    /// (windowed) plus summed per-PU attribution, as a synthetic
    /// [`ProfileReport`] whose conservation invariant still holds
    /// (per-slice conservation sums).
    pub fn profile_report(&self, cfg: &SoakConfig) -> ProfileReport {
        ProfileReport {
            num_pus: cfg.pus,
            cycles: self.cycles,
            epoch: cfg.epoch,
            per_pu: self.per_pu.clone(),
            samples: self.samples.clone(),
            wasted_addrs: Vec::new(),
            intervals_dropped: self.intervals_dropped,
        }
    }

    /// Whether every watchdog sweep so far came back clean.
    pub fn healthy(&self) -> bool {
        self.watchdog_violations == 0
    }
}

/// The `/healthz` document: watchdog status and fault-campaign recovery
/// counts.
pub fn healthz_json(state: &SoakState) -> Json {
    Json::obj()
        .set(
            "status",
            if state.healthy() { "ok" } else { "degraded" }.into(),
        )
        .set("ticks", state.ticks.into())
        .set("watchdog_violations", state.watchdog_violations.into())
        .set(
            "storms",
            Json::obj()
                .set("active", state.storm_active.into())
                .set("started", state.storms_started.into())
                .set("slices", state.storm_slices.into())
                .set("clean_slices", state.storm_slices_clean.into()),
        )
        .set("faults_injected", state.faults_injected.into())
        .set("intervals_dropped", state.intervals_dropped.into())
        .set("last_workload", state.last_mix.into())
}

/// The final `results/soak.json` snapshot (schema
/// [`report::SCHEMA_SOAK`]): run parameters, the full metrics registry,
/// the health summary, and the rolling profile window.
pub fn soak_doc(cfg: &SoakConfig, state: &SoakState) -> Json {
    Json::obj()
        .set("schema", report::SCHEMA_SOAK.into())
        .set("seed", cfg.seed.into())
        .set("ticks", state.ticks.into())
        .set("slice_tasks", cfg.slice_tasks.into())
        .set("slice_budget", cfg.slice_budget.into())
        .set("kb_per_cache", cfg.kb.into())
        .set("num_pus", cfg.pus.into())
        .set("epoch", cfg.epoch.into())
        .set("window", cfg.window.into())
        .set("storm", cfg.storm.spec().into())
        .set("metrics", report::metrics_json(&state.metrics()))
        .set("healthz", healthz_json(state))
        .set(
            "profile",
            report::profile_report_json(&state.profile_report(cfg)),
        )
}

/// Collects [`EpochSnapshot`]s out of the engine through shared
/// ownership (the engine owns the sink; we keep the other end).
#[derive(Debug)]
struct EpochCollector {
    out: Rc<RefCell<Vec<EpochSnapshot>>>,
}

impl EpochSink for EpochCollector {
    fn on_epoch(&mut self, snap: &EpochSnapshot) {
        self.out.borrow_mut().push(snap.clone());
    }
}

/// The workload of rotation slot `tick % ROTATION`, with variant slots
/// drawing `density` from the per-tick schedule stream. Returns the
/// source and its mix index into [`MIX_NAMES`].
fn slice_source(cfg: &SoakConfig, tick: u64, density: f64, seed: u64) -> (VecTaskSource, usize) {
    let n = cfg.slice_tasks;
    let slot = (tick % ROTATION as u64) as usize;
    let source = match slot {
        0 => kernels::streaming(n, 8),
        1 => kernels::readonly_sharing(n, 32),
        2 => kernels::producer_consumer(n, 6),
        3 => kernels::reduction(n, 3),
        4 => kernels::false_sharing(n, 2),
        5 => kernels::revisit(n, 16, 2),
        6 => kernels::pointer_chase(n, 6, 4096, seed),
        7 => kernels::streaming(n, 32),
        8 => kernels::pointer_chase(n, 12, 2048, seed),
        _ => kernels::conflict_density(n, density, seed),
    };
    (source, slot.min(9))
}

/// Runs one slice and folds its results into `state`.
fn run_slice(cfg: &SoakConfig, state: &mut SoakState, tick: u64, density: f64, seed: u64) {
    let stormy = cfg.storm.active(tick);
    let (source, mix) = slice_source(cfg, tick, density, seed);
    let faults = if stormy {
        Faults::new(&cfg.storm.config(), seed ^ STORM_SALT)
    } else {
        Faults::disabled()
    };
    let profiler = Profiler::new(cfg.pus, cfg.epoch);
    profiler.set_window(cfg.window);

    let mut svc_cfg = SvcConfig::final_design(cfg.pus);
    svc_cfg.geometry = SvcConfig::paper_geometry(cfg.kb);
    let mut system = SvcSystem::new(svc_cfg);
    system.set_faults(faults.clone());
    system.set_profiler(profiler.clone());
    let engine_cfg = EngineConfig {
        num_pus: cfg.pus,
        max_instructions: cfg.slice_budget,
        seed,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(engine_cfg, system);
    engine.set_faults(faults.clone());
    engine.set_watchdog(cfg.watchdog);
    engine.set_profiler(profiler.clone());
    let epochs: Rc<RefCell<Vec<EpochSnapshot>>> = Rc::new(RefCell::new(Vec::new()));
    engine.set_epoch_sink(Box::new(EpochCollector {
        out: Rc::clone(&epochs),
    }));

    let report: RunReport = engine.run(&source);
    let violations = engine.violations().len() as u64;

    // Fold the slice into cumulative state.
    state.ticks += 1;
    state.committed_instrs += report.committed_instrs;
    state.ff_jumps += report.ff_jumps;
    state.ff_skipped_cycles += report.ff_skipped_cycles;
    state.committed_tasks += report.committed_tasks;
    state.squashes += report.squashes;
    state.wasted_instrs += report.wasted_instrs;
    state.watchdog_violations += violations;
    state.slices_per_mix[mix] += 1;
    state.last_mix = MIX_NAMES[mix];
    state.task_latency.merge(&report.task_latency);
    state.squash_depth.merge(&report.squash_depths);
    state.storm_active = stormy;
    if stormy {
        state.storm_slices += 1;
        if violations == 0 {
            state.storm_slices_clean += 1;
        }
        let idx = cfg.storm.storm_index(tick);
        if state.last_storm != Some(idx) {
            state.last_storm = Some(idx);
            state.storms_started += 1;
        }
        state.faults_injected += faults.total_injected();
        for (slot, (_, count)) in state.fault_counts.iter_mut().zip(faults.counts()) {
            *slot += count;
        }
    }

    // Per-epoch histograms from the engine's snapshot stream.
    let mut prev_wait = 0u64;
    for snap in epochs.borrow().iter() {
        state.bus_wait.record(snap.mem.bus_wait_cycles - prev_wait);
        prev_wait = snap.mem.bus_wait_cycles;
        state.mshr_occupancy.record(snap.gauges.outstanding_misses);
    }

    // Profiler attribution and the re-based global interval series.
    if let Some(profile) = profiler.report() {
        for (acc, pu) in state.per_pu.iter_mut().zip(profile.per_pu.iter()) {
            for (a, b) in acc.iter_mut().zip(pu.iter()) {
                *a += b;
            }
        }
        state.intervals_dropped += profile.intervals_dropped;
        for s in &profile.samples {
            state.samples.push(Sample {
                cycle: state.base_cycles + s.cycle,
                committed_instrs: state.base_instrs + s.committed_instrs,
                squashes: state.base_squashes + s.squashes,
                bus_busy_cycles: state.base_busy + s.bus_busy_cycles,
                outstanding_misses: s.outstanding_misses,
                live_versions: s.live_versions,
            });
        }
        if cfg.sample_window > 0 && state.samples.len() > cfg.sample_window {
            let excess = state.samples.len() - cfg.sample_window;
            state.samples.drain(..excess);
            state.intervals_dropped += excess as u64;
        }
    }
    state.cycles += report.cycles;
    state.base_cycles += report.cycles;
    state.base_instrs += report.committed_instrs;
    state.base_squashes += report.squashes;
    state.base_busy += report.mem.bus_busy_cycles;
}

/// Runs the soak loop. `observer` is called after every tick with the
/// cumulative state (this is where `serve` republishes the telemetry
/// snapshot and prints its progress line); returning `false` stops the
/// loop. With `cfg.ticks == 0` the loop runs until the observer says
/// stop.
pub fn run_soak(cfg: &SoakConfig, observer: impl FnMut(&SoakState) -> bool) -> SoakState {
    run_soak_from(cfg, SoakState::new(cfg), observer)
}

/// Continues a soak from a restored [`SoakState`] — the resume path of
/// `svc-sim resume`. Ticks are slice boundaries, so the cumulative state
/// is the *only* thing a soak carries between ticks; the per-tick seed
/// and density streams draw exactly once per tick, so their positions
/// are a pure function of `state.ticks` and are rebuilt by fast-forward.
/// `run_soak_from` after `k` ticks is byte-identical to an uninterrupted
/// [`run_soak`] passing tick `k`.
pub fn run_soak_from(
    cfg: &SoakConfig,
    mut state: SoakState,
    mut observer: impl FnMut(&SoakState) -> bool,
) -> SoakState {
    let mut seeds = SplitMix64::new(cfg.seed ^ SEED_SALT);
    let mut densities = SplitMix64::new(cfg.seed ^ DENSITY_SALT);
    for _ in 0..state.ticks {
        seeds.next_u64();
        densities.next_u64();
    }
    loop {
        let tick = state.ticks;
        if cfg.ticks > 0 && tick >= cfg.ticks {
            break;
        }
        // One draw each per tick, unconditionally, so stream positions
        // are a function of the tick number alone.
        let seed = seeds.next_u64();
        let density = (densities.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        run_slice(cfg, &mut state, tick, density, seed);
        if !observer(&state) {
            break;
        }
    }
    state
}

impl svc_types::Checkpointable for SoakConfig {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.seed.save_state(w);
        self.ticks.save_state(w);
        self.slice_tasks.save_state(w);
        self.slice_budget.save_state(w);
        self.kb.save_state(w);
        self.pus.save_state(w);
        self.epoch.save_state(w);
        self.window.save_state(w);
        self.sample_window.save_state(w);
        self.watchdog.save_state(w);
        // The storm schedule round-trips through its canonical spec
        // string (`StormSchedule::spec` / `parse`).
        w.put_str(&self.storm.spec());
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.seed.restore_state(r)?;
        self.ticks.restore_state(r)?;
        self.slice_tasks.restore_state(r)?;
        self.slice_budget.restore_state(r)?;
        self.kb.restore_state(r)?;
        self.pus.restore_state(r)?;
        self.epoch.restore_state(r)?;
        self.window.restore_state(r)?;
        self.sample_window.restore_state(r)?;
        self.watchdog.restore_state(r)?;
        let spec = r.take_str()?;
        self.storm = StormSchedule::parse(&spec)
            .map_err(|e| svc_types::CkptError::corrupt(format!("bad storm spec {spec:?}: {e}")))?;
        if self.pus == 0 {
            return Err(svc_types::CkptError::corrupt("soak config with 0 PUs"));
        }
        Ok(())
    }
}

impl svc_types::Checkpointable for SoakState {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.ticks.save_state(w);
        self.cycles.save_state(w);
        self.committed_instrs.save_state(w);
        self.committed_tasks.save_state(w);
        self.squashes.save_state(w);
        self.wasted_instrs.save_state(w);
        self.watchdog_violations.save_state(w);
        self.faults_injected.save_state(w);
        self.fault_counts.save_state(w);
        self.storms_started.save_state(w);
        self.storm_slices.save_state(w);
        self.storm_slices_clean.save_state(w);
        self.storm_active.save_state(w);
        self.slices_per_mix.save_state(w);
        // `last_mix` points into MIX_NAMES; 255 encodes the pre-first-
        // tick empty label.
        let mix = MIX_NAMES.iter().position(|&m| m == self.last_mix);
        w.put_u8(mix.map_or(255, |i| i as u8));
        self.intervals_dropped.save_state(w);
        self.task_latency.save_state(w);
        self.squash_depth.save_state(w);
        self.bus_wait.save_state(w);
        self.mshr_occupancy.save_state(w);
        w.put_usize(self.per_pu.len());
        for pu in &self.per_pu {
            pu.save_state(w);
        }
        self.samples.save_state(w);
        self.base_cycles.save_state(w);
        self.base_instrs.save_state(w);
        self.base_squashes.save_state(w);
        self.base_busy.save_state(w);
        self.last_storm.save_state(w);
        self.ff_jumps.save_state(w);
        self.ff_skipped_cycles.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.ticks.restore_state(r)?;
        self.cycles.restore_state(r)?;
        self.committed_instrs.restore_state(r)?;
        self.committed_tasks.restore_state(r)?;
        self.squashes.restore_state(r)?;
        self.wasted_instrs.restore_state(r)?;
        self.watchdog_violations.restore_state(r)?;
        self.faults_injected.restore_state(r)?;
        self.fault_counts.restore_state(r)?;
        self.storms_started.restore_state(r)?;
        self.storm_slices.restore_state(r)?;
        self.storm_slices_clean.restore_state(r)?;
        self.storm_active.restore_state(r)?;
        self.slices_per_mix.restore_state(r)?;
        self.last_mix = match r.take_u8()? {
            255 => "",
            i => *MIX_NAMES
                .get(i as usize)
                .ok_or_else(|| svc_types::CkptError::corrupt(format!("unknown mix index {i}")))?,
        };
        self.intervals_dropped.restore_state(r)?;
        self.task_latency.restore_state(r)?;
        self.squash_depth.restore_state(r)?;
        self.bus_wait.restore_state(r)?;
        self.mshr_occupancy.restore_state(r)?;
        let n = r.take_usize()?;
        if n != self.per_pu.len() {
            return Err(svc_types::CkptError::corrupt(format!(
                "checkpoint has {n} PUs, soak configured for {}",
                self.per_pu.len()
            )));
        }
        for pu in &mut self.per_pu {
            pu.restore_state(r)?;
        }
        self.samples.restore_state(r)?;
        self.base_cycles.restore_state(r)?;
        self.base_instrs.restore_state(r)?;
        self.base_squashes.restore_state(r)?;
        self.base_busy.restore_state(r)?;
        self.last_storm.restore_state(r)?;
        self.ff_jumps.restore_state(r)?;
        self.ff_skipped_cycles.restore_state(r)
    }
}

/// The checkpoint payload of a soak: config + cumulative state in one
/// blob, so `svc-sim resume` needs nothing but the file. The kind tag
/// for [`svc_sim::checkpoint::encode`].
pub const SOAK_CKPT_KIND: &str = "svc-soak-state/v1";

/// Serializes a soak checkpoint payload (pair with
/// [`svc_sim::checkpoint::encode`] for the on-disk container).
pub fn soak_ckpt_payload(cfg: &SoakConfig, state: &SoakState) -> Vec<u8> {
    use svc_types::Checkpointable as _;
    let mut w = svc_types::CkptWriter::new();
    cfg.save_state(&mut w);
    state.save_state(&mut w);
    w.into_bytes()
}

/// Decodes a soak checkpoint payload back into config + state.
pub fn soak_ckpt_restore(payload: &[u8]) -> Result<(SoakConfig, SoakState), svc_types::CkptError> {
    use svc_types::Checkpointable as _;
    let mut r = svc_types::CkptReader::new(payload);
    let mut cfg = SoakConfig::default();
    cfg.restore_state(&mut r)?;
    let mut state = SoakState::new(&cfg);
    state.restore_state(&mut r)?;
    r.finish()?;
    Ok((cfg, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SoakConfig {
        SoakConfig {
            slice_tasks: 24,
            slice_budget: 1_500,
            storm: StormSchedule::parse("period=3,duration=1,rate=0.2,penalty=4").unwrap(),
            ..SoakConfig::default()
        }
    }

    #[test]
    fn bounded_soak_is_deterministic() {
        let cfg = SoakConfig { ticks: 6, ..tiny() };
        let a = soak_doc(&cfg, &run_soak(&cfg, |_| true)).render();
        let b = soak_doc(&cfg, &run_soak(&cfg, |_| true)).render();
        assert_eq!(a, b, "same seed, same bytes");
        let other = SoakConfig { seed: 7, ..cfg };
        let c = soak_doc(&other, &run_soak(&other, |_| true)).render();
        assert_ne!(a, c, "different seed, different soak");
    }

    #[test]
    fn storms_fire_and_observer_stops() {
        let cfg = SoakConfig { ticks: 6, ..tiny() };
        let state = run_soak(&cfg, |_| true);
        assert_eq!(state.ticks, 6);
        assert_eq!(state.storm_slices, 2, "ticks 2 and 5 are stormy");
        assert_eq!(state.storms_started, 2);
        assert!(state.healthy(), "storm recovery must stay watchdog-clean");

        let stopped = run_soak(&SoakConfig { ticks: 0, ..tiny() }, |s| s.ticks < 3);
        assert_eq!(stopped.ticks, 3, "observer stops an unbounded soak");
    }

    #[test]
    fn soak_doc_round_trips_and_conserves() {
        let cfg = SoakConfig { ticks: 5, ..tiny() };
        let state = run_soak(&cfg, |_| true);
        let doc = soak_doc(&cfg, &state);
        let text = doc.render();
        let parsed = report::parse(&text).expect("soak doc parses");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(report::SCHEMA_SOAK)
        );
        assert_eq!(parsed.render(), text, "parse→render is the identity");
        let profile = state.profile_report(&cfg);
        assert!(profile.conservation_ok(), "summed attribution conserves");
        assert!(state.committed_instrs > 0);
    }

    #[test]
    fn metrics_export_fast_forward_series() {
        let cfg = SoakConfig { ticks: 3, ..tiny() };
        let state = run_soak(&cfg, |_| true);
        let prom = state.metrics().render_prometheus();
        assert!(
            prom.contains("soak_fast_forward{kind=\"jumps\"}"),
            "missing jump series in:\n{prom}"
        );
        assert!(
            prom.contains("soak_fast_forward{kind=\"skipped_cycles\"}"),
            "missing skipped-cycles series in:\n{prom}"
        );
        // The slice engines idle between task dispatches, so a healthy
        // soak fast-forwards at least once.
        assert!(state.ff_jumps > 0, "no fast-forward jumps recorded");
        assert!(state.ff_skipped_cycles >= state.ff_jumps);
    }

    #[test]
    fn resumed_soak_is_byte_identical() {
        let cfg = SoakConfig { ticks: 6, ..tiny() };
        let want = soak_doc(&cfg, &run_soak(&cfg, |_| true)).render();

        // Stop after 3 ticks, round-trip through the checkpoint payload
        // (as a killed-and-restarted process would), and continue.
        let half = run_soak(&cfg, |s| s.ticks < 3);
        assert_eq!(half.ticks, 3);
        let payload = soak_ckpt_payload(&cfg, &half);
        drop(half);
        let (rcfg, rstate) = soak_ckpt_restore(&payload).expect("payload restores");
        assert_eq!(rcfg, cfg);
        let done = run_soak_from(&rcfg, rstate, |_| true);
        assert_eq!(
            soak_doc(&rcfg, &done).render(),
            want,
            "resumed soak diverged from uninterrupted soak"
        );
    }

    #[test]
    fn soak_payload_rejects_truncation() {
        let cfg = SoakConfig { ticks: 2, ..tiny() };
        let state = run_soak(&cfg, |_| true);
        let payload = soak_ckpt_payload(&cfg, &state);
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            assert!(
                soak_ckpt_restore(&payload[..cut]).is_err(),
                "prefix of {cut} bytes restored without error"
            );
        }
    }

    #[test]
    fn rolling_sample_window_caps_series() {
        let cfg = SoakConfig {
            ticks: 8,
            sample_window: 4,
            ..tiny()
        };
        let state = run_soak(&cfg, |_| true);
        assert!(state.samples.len() <= 4);
        assert!(state.intervals_dropped > 0);
        let cycles: Vec<u64> = state.samples.iter().map(|s| s.cycle).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable();
        assert_eq!(cycles, sorted, "re-based global series stays monotone");
    }
}
