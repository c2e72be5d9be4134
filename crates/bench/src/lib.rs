//! The experiment harness: one function per metric the paper reports,
//! shared by the experiment binaries (`paper`, the ablations, the
//! scaling studies) and the Criterion benches.
//!
//! Every experiment builds a memory system ([`MemoryKind`]), runs a
//! [`Spec95`] workload (or a kernel) on the multiscalar engine for a
//! committed-instruction budget, and reports the paper's metrics: IPC
//! (Figures 19/20), miss ratio (Table 2) and snooping-bus utilization
//! (Table 3). The [`paper`] module holds the paper's grid and renders
//! every table and figure from it.
//!
//! The paper grid's budget is 400k committed instructions per run
//! ([`PAPER_BUDGET`]) — the paper's 200M scaled to laptop time; override
//! with the `SVC_EXPERIMENT_BUDGET` environment variable (the shapes are
//! stable well below the default, see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkgate;
pub mod cli;
pub mod harness;
pub mod paper;
pub mod report;
pub mod soak;

use std::path::PathBuf;
use svc::{SvcConfig, SvcSystem};
use svc_arb::{ArbConfig, ArbSystem};
use svc_multiscalar::{Engine, EngineConfig, RunReport, TaskSource};
use svc_sim::fault::Faults;
use svc_sim::metrics::{MetricSource, MetricsRegistry};
use svc_sim::profile::{ProfileReport, Profiler};
use svc_sim::trace::Tracer;
use svc_workloads::Spec95;

/// Which memory system to run an experiment on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// The SVC final design with `kb_per_cache` KB per private cache
    /// (the paper's 4×8KB and 4×16KB points).
    Svc {
        /// KB per private cache.
        kb_per_cache: usize,
    },
    /// The ARB with the given hit latency and backing-cache size (the
    /// paper's 32KB/64KB, 1–4 cycle points).
    Arb {
        /// Access latency of the shared structure, cycles.
        hit_cycles: u64,
        /// Backing data-cache size in KB.
        cache_kb: usize,
    },
}

impl MemoryKind {
    /// Short label used in tables, e.g. `SVC-4x8KB` or `ARB-2c-32KB`.
    pub fn label(&self, num_pus: usize) -> String {
        match *self {
            MemoryKind::Svc { kb_per_cache } => format!("SVC-{num_pus}x{kb_per_cache}KB"),
            MemoryKind::Arb {
                hit_cycles,
                cache_kb,
            } => format!("ARB-{hit_cycles}c-{cache_kb}KB"),
        }
    }
}

/// The measurements one experiment run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Workload name.
    pub workload: String,
    /// Memory-system label.
    pub memory: String,
    /// Committed instructions per cycle.
    pub ipc: f64,
    /// Next-level-fill miss ratio (the paper's Table 2 definition).
    pub miss_ratio: f64,
    /// Snooping-bus utilization (0 for the ARB: it has no shared bus).
    pub bus_utilization: f64,
    /// The full engine report, for deeper digging.
    pub report: RunReport,
    /// The cycle-accounting profile, present only when `SVC_PROFILE`
    /// enabled the profiler for this run. Never serialized into the
    /// `results/<name>.json` document (which stays byte-identical with
    /// the profiler on or off); published separately as
    /// `results/<name>.profile.json`.
    pub profile: Option<ProfileReport>,
}

impl Default for ExperimentResult {
    fn default() -> ExperimentResult {
        ExperimentResult {
            workload: String::new(),
            memory: String::new(),
            ipc: 0.0,
            miss_ratio: 0.0,
            bus_utilization: 0.0,
            report: RunReport::default(),
            profile: None,
        }
    }
}

impl svc_types::Checkpointable for ExperimentResult {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.workload.save_state(w);
        self.memory.save_state(w);
        self.ipc.save_state(w);
        self.miss_ratio.save_state(w);
        self.bus_utilization.save_state(w);
        self.report.save_state(w);
        self.profile.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.workload.restore_state(r)?;
        self.memory.restore_state(r)?;
        self.ipc.restore_state(r)?;
        self.miss_ratio.restore_state(r)?;
        self.bus_utilization.restore_state(r)?;
        self.report.restore_state(r)?;
        self.profile.restore_state(r)?;
        Ok(())
    }
}

impl ExperimentResult {
    /// This cell's unified metrics registry (engine counters, derived
    /// rates, the task-length histogram, and every memory-system
    /// counter), as serialized into the `metrics` object of
    /// `results/<name>.json` by `report::metrics_json`.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.report.export_metrics("", &mut reg);
        reg
    }
}

/// The number of processing units used throughout the evaluation (§4.2).
pub const NUM_PUS: usize = 4;

/// The paper grid's committed-instruction budget per run.
pub const PAPER_BUDGET: u64 = 400_000;

/// Committed-instruction budget per run: `SVC_EXPERIMENT_BUDGET` if it
/// parses, otherwise the calling binary's `default`.
pub fn instruction_budget(default: u64) -> u64 {
    std::env::var("SVC_EXPERIMENT_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Invariant-watchdog cadence from `SVC_WATCHDOG`: unset/`0` disables
/// it, `1` enables the default cadence (a sweep every 256 cycles), any
/// larger value is the explicit cycle cadence. Commit/squash-boundary
/// checks run whenever the watchdog is enabled, at any cadence.
pub fn watchdog_from_env() -> u64 {
    match std::env::var("SVC_WATCHDOG")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0)
    {
        0 => 0,
        1 => 256,
        n => n,
    }
}

/// With the env-driven watchdog on, a violation means the simulator
/// corrupted speculative state silently — fail loudly so `SVC_WATCHDOG=1
/// cargo test` turns every test into an invariant check.
fn assert_watchdog_clean(watchdog: u64, violations: &[svc_types::InvariantViolation], label: &str) {
    if watchdog == 0 || violations.is_empty() {
        return;
    }
    let first = &violations[0];
    panic!(
        "SVC_WATCHDOG: {} invariant violation(s) on {label}; first: {} at cycle {} ({})",
        violations.len(),
        first.kind.name(),
        first.cycle.0,
        first.detail,
    );
}

/// Runs `source` on `memory` with the engine configured per the paper
/// (4 PUs, 2-issue) and the workload's predictor model.
///
/// Tracing is driven by the environment: when `SVC_TRACE` names one or
/// more categories, the run records events ([`Tracer::from_env`]) and —
/// if `SVC_TRACE_OUT` points at a directory — writes the three sinks to
/// `$SVC_TRACE_OUT/<workload>-<memory>-<seed>.{log,jsonl,trace.json}`.
///
/// Robustness is likewise env-driven: `SVC_FAULTS` attaches a seeded
/// fault injector ([`Faults::from_env`]) and `SVC_WATCHDOG` an invariant
/// watchdog ([`watchdog_from_env`]); with both unset the run is
/// byte-identical to a build without either feature.
pub fn run_source(
    source: &dyn TaskSource,
    memory: MemoryKind,
    engine_cfg: EngineConfig,
) -> ExperimentResult {
    let tracer = Tracer::from_env();
    let active = tracer.is_active();
    let result = run_source_with(source, memory, engine_cfg, tracer.clone());
    if active {
        if let Some(dir) = std::env::var_os("SVC_TRACE_OUT") {
            if let Err(e) = write_trace_files(dir.as_ref(), &result, engine_cfg.seed, &tracer) {
                eprintln!("SVC_TRACE_OUT: {e}");
            }
        }
    }
    result
}

/// [`run_source`] with an explicit [`Tracer`] attached to both the
/// memory system and the execution engine, interleaving memory and
/// task-lifecycle events in one ring. The caller keeps a clone of the
/// tracer and drains it with [`Tracer::records`] after the run.
pub fn run_source_with(
    source: &dyn TaskSource,
    memory: MemoryKind,
    engine_cfg: EngineConfig,
    tracer: Tracer,
) -> ExperimentResult {
    match prepare_engine(memory, engine_cfg, tracer) {
        PreparedEngine::Svc(mut p) => {
            let report = p.engine.run(source);
            p.finish(source.name(), report)
        }
        PreparedEngine::Arb(mut p) => {
            let report = p.engine.run(source);
            p.finish(source.name(), report)
        }
    }
}

/// A fully attached engine (tracer, env-driven faults, watchdog,
/// profiler — the exact wiring of [`run_source_with`]) plus the pieces
/// needed to assemble an [`ExperimentResult`] once the run completes.
/// For callers that drive the run themselves, like the `svc-sim`
/// checkpointing driver pausing at cycle boundaries.
#[derive(Debug)]
pub struct Prepared<M> {
    /// The engine, ready to run (or to restore a checkpoint into).
    pub engine: Engine<M>,
    /// The attached profiler handle (for the result's profile report).
    pub profiler: Profiler,
    /// The watchdog period the engine was armed with.
    pub watchdog: u64,
    /// The memory-system label for reports.
    pub label: String,
}

impl<M: svc_types::VersionedMemory> Prepared<M> {
    /// Assembles the result after the engine finished, enforcing the
    /// env-driven watchdog contract.
    pub fn finish(&mut self, workload: &str, report: RunReport) -> ExperimentResult {
        assert_watchdog_clean(self.watchdog, self.engine.violations(), &self.label);
        ExperimentResult {
            workload: workload.to_string(),
            memory: self.label.clone(),
            ipc: report.ipc(),
            miss_ratio: report.mem.miss_ratio(),
            bus_utilization: report.bus_utilization(),
            report,
            profile: self.profiler.report(),
        }
    }
}

/// [`Prepared`] over whichever memory system [`MemoryKind`] selects.
///
/// The variants differ in size (the SVC carries per-PU caches the ARB
/// doesn't), but exactly one exists per run and it lives on the stack
/// only briefly before the driver destructures it, so boxing would
/// buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PreparedEngine {
    /// An engine over the final-design SVC.
    Svc(Prepared<SvcSystem>),
    /// An engine over the ARB baseline.
    Arb(Prepared<ArbSystem>),
}

/// Builds the fully attached engine for `memory` — the construction
/// half of [`run_source_with`], shared with resumable drivers.
pub fn prepare_engine(
    memory: MemoryKind,
    engine_cfg: EngineConfig,
    tracer: Tracer,
) -> PreparedEngine {
    let label = memory.label(engine_cfg.num_pus);
    let faults = Faults::from_env(engine_cfg.seed);
    let watchdog = watchdog_from_env();
    let profiler = Profiler::from_env(engine_cfg.num_pus);
    match memory {
        MemoryKind::Svc { kb_per_cache } => {
            let mut cfg = SvcConfig::final_design(engine_cfg.num_pus);
            cfg.geometry = SvcConfig::paper_geometry(kb_per_cache);
            let mut system = SvcSystem::new(cfg);
            system.set_tracer(tracer.clone());
            system.set_faults(faults.clone());
            system.set_profiler(profiler.clone());
            let mut engine = Engine::new(engine_cfg, system);
            engine.set_tracer(tracer);
            engine.set_faults(faults);
            engine.set_watchdog(watchdog);
            engine.set_profiler(profiler.clone());
            PreparedEngine::Svc(Prepared {
                engine,
                profiler,
                watchdog,
                label,
            })
        }
        MemoryKind::Arb {
            hit_cycles,
            cache_kb,
        } => {
            let cfg = ArbConfig::paper(engine_cfg.num_pus, hit_cycles, cache_kb);
            let mut system = ArbSystem::new(cfg);
            system.set_tracer(tracer.clone());
            system.set_profiler(profiler.clone());
            let mut engine = Engine::new(engine_cfg, system);
            engine.set_tracer(tracer);
            engine.set_faults(faults);
            engine.set_watchdog(watchdog);
            engine.set_profiler(profiler.clone());
            PreparedEngine::Arb(Prepared {
                engine,
                profiler,
                watchdog,
                label,
            })
        }
    }
}

/// Writes the text, JSONL, and Chrome-trace sinks for one traced cell
/// into `dir`.
fn write_trace_files(
    dir: &std::path::Path,
    result: &ExperimentResult,
    seed: u64,
    tracer: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let records = tracer.records();
    let stem = format!("{}-{}-{}", result.workload, result.memory, seed);
    report::write_atomic(
        &dir.join(format!("{stem}.log")),
        svc_sim::trace::render_text(&records).as_bytes(),
    )?;
    report::write_atomic(
        &dir.join(format!("{stem}.jsonl")),
        svc_sim::trace::render_jsonl(&records).as_bytes(),
    )?;
    let counters = result
        .profile
        .as_ref()
        .map(profile_counter_series)
        .unwrap_or_default();
    report::write_atomic(
        &dir.join(format!("{stem}.trace.json")),
        svc_sim::trace::render_chrome_with_counters(&records, &stem, &counters).as_bytes(),
    )?;
    Ok(())
}

/// The profiler's interval time series as Chrome-trace counter tracks:
/// derived rates (IPC, bus utilization, squash rate per kilocycle) and
/// raw gauges (outstanding misses, live versions).
pub fn profile_counter_series(p: &ProfileReport) -> Vec<(String, Vec<(u64, f64)>)> {
    let rate = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut ipc = Vec::with_capacity(p.samples.len());
    let mut bus = Vec::with_capacity(p.samples.len());
    let mut squash = Vec::with_capacity(p.samples.len());
    let mut misses = Vec::with_capacity(p.samples.len());
    let mut versions = Vec::with_capacity(p.samples.len());
    let mut prev = None;
    for s in &p.samples {
        let (pc, pi, psq, pb) = prev.unwrap_or((0, 0, 0, 0));
        let dc = s.cycle - pc;
        ipc.push((s.cycle, rate(s.committed_instrs - pi, dc)));
        bus.push((s.cycle, rate(s.bus_busy_cycles - pb, dc)));
        squash.push((s.cycle, rate((s.squashes - psq) * 1000, dc)));
        misses.push((s.cycle, s.outstanding_misses as f64));
        versions.push((s.cycle, s.live_versions as f64));
        prev = Some((s.cycle, s.committed_instrs, s.squashes, s.bus_busy_cycles));
    }
    vec![
        ("ipc".to_string(), ipc),
        ("bus_utilization".to_string(), bus),
        ("squashes_per_kcycle".to_string(), squash),
        ("outstanding_misses".to_string(), misses),
        ("live_versions".to_string(), versions),
    ]
}

/// The engine configuration of a SPEC95 cell: `num_pus` PUs with the
/// model's predictor and load-dependence fraction, `budget` committed
/// instructions at `seed`, and the engine's default safety stop.
pub fn spec95_config(bench: Spec95, num_pus: usize, budget: u64, seed: u64) -> EngineConfig {
    let profile = bench.profile();
    EngineConfig {
        num_pus,
        predictor: profile.predictor(seed),
        max_instructions: budget,
        seed,
        // Wrong-path work touches warm program data (the hot region),
        // as real wrong-path execution does — not a cold private region.
        garbage_addr_space: profile.hot_set.max(64),
        load_dep_frac: profile.load_dep_frac,
        ..EngineConfig::default()
    }
}

/// Runs one SPEC95 benchmark model on the paper's [`NUM_PUS`] PUs with
/// an explicit budget and seed.
pub fn run_spec95_with(
    bench: Spec95,
    memory: MemoryKind,
    budget: u64,
    seed: u64,
) -> ExperimentResult {
    run_job(
        &GridJob {
            bench,
            memory,
            num_pus: NUM_PUS,
        },
        budget,
        seed,
    )
}

/// Runs one grid cell under [`spec95_config`].
fn run_job(job: &GridJob, budget: u64, seed: u64) -> ExperimentResult {
    let cfg = spec95_config(job.bench, job.num_pus, budget, seed);
    run_source(&job.bench.workload(seed), job.memory, cfg)
}

/// The seed every paper-artifact binary pins. The workload profiles are
/// calibrated against it (the EXPERIMENTS.md tables — and a couple of
/// thin shape margins — depend on it), so the table/figure binaries
/// ignore the harness's derived seed stream and run every cell at this
/// seed. The derived stream is exercised by the regression gate and the
/// determinism tests instead.
pub const PAPER_SEED: u64 = 42;

/// One cell of a standard experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridJob {
    /// The SPEC95 benchmark model to run.
    pub bench: Spec95,
    /// The memory system to run it on.
    pub memory: MemoryKind,
    /// Processing units ([`NUM_PUS`] except in the scaling studies).
    pub num_pus: usize,
}

/// The cartesian product `benches × memories` on [`NUM_PUS`] PUs, in
/// row-major order (all memories for the first benchmark, then the
/// next benchmark).
pub fn cross(benches: &[Spec95], memories: &[MemoryKind]) -> Vec<GridJob> {
    let mut jobs = Vec::with_capacity(benches.len() * memories.len());
    for &bench in benches {
        for &memory in memories {
            jobs.push(GridJob {
                bench,
                memory,
                num_pus: NUM_PUS,
            });
        }
    }
    jobs
}

/// Env var naming a directory for the grid-cell journal. When set, the
/// standard grids ([`run_journaled_grid`]) journal every finished cell
/// there and, on a re-run after an interruption, restart from the
/// completed cells instead of re-simulating them.
const GRID_JOURNAL_ENV: &str = "SVC_GRID_JOURNAL";

/// One cell's validation label inside the journal: workload, memory
/// (whose label carries the PU count) and budget, so a journal left by
/// a run at another budget re-runs its cells instead of serving them.
fn grid_cell_label(job: &GridJob, budget: u64) -> String {
    format!(
        "{}/{}@{budget}",
        job.bench.name(),
        job.memory.label(job.num_pus)
    )
}

/// Runs a standard experiment grid of `budget`-instruction cells,
/// through the cell journal when `SVC_GRID_JOURNAL` is set (separate
/// per-grid subdirectories keyed by grid seed and shape, so one journal
/// directory serves many grids).
pub fn run_journaled_grid(
    jobs: &[GridJob],
    grid_seed: u64,
    budget: u64,
    run: impl Fn(&GridJob, u64) -> ExperimentResult + Sync,
) -> harness::GridOutcome<ExperimentResult> {
    let dir = std::env::var_os(GRID_JOURNAL_ENV).map(PathBuf::from);
    run_grid_journaled_in(dir, jobs, grid_seed, budget, run)
}

/// [`run_journaled_grid`] with the journal directory given (`None`:
/// a plain run).
fn run_grid_journaled_in(
    dir: Option<PathBuf>,
    jobs: &[GridJob],
    grid_seed: u64,
    budget: u64,
    run: impl Fn(&GridJob, u64) -> ExperimentResult + Sync,
) -> harness::GridOutcome<ExperimentResult> {
    if let Some(dir) = dir {
        let sub = dir.join(format!("grid-{grid_seed:016x}-{:03}", jobs.len()));
        match harness::GridJournal::open(sub, grid_seed) {
            Ok(journal) => {
                return harness::run_grid_resumable(
                    jobs,
                    grid_seed,
                    harness::threads_from_env(),
                    &journal,
                    |job| grid_cell_label(job, budget),
                    run,
                )
            }
            // An unusable journal dir degrades to a plain run.
            Err(e) => eprintln!("grid journal unavailable (running without): {e}"),
        }
    }
    harness::run_grid(jobs, grid_seed, run)
}

/// Runs a grid in parallel with every cell pinned to [`PAPER_SEED`]
/// (the paper-artifact path; see [`PAPER_SEED`] for why).
pub fn run_paper_grid(jobs: &[GridJob], budget: u64) -> harness::GridOutcome<ExperimentResult> {
    run_journaled_grid(jobs, PAPER_SEED, budget, |job, _derived| {
        run_job(job, budget, PAPER_SEED)
    })
}

/// Runs a grid in parallel with harness-derived per-job seeds (the
/// path the regression gate and the determinism tests exercise).
pub fn run_derived_grid(
    jobs: &[GridJob],
    grid_seed: u64,
    budget: u64,
) -> harness::GridOutcome<ExperimentResult> {
    run_journaled_grid(jobs, grid_seed, budget, |job, seed| {
        run_job(job, budget, seed)
    })
}

/// [`run_derived_grid`] under the failsafe runner: a panicking cell or
/// one that exhausts the engine's cycle cap ([`RunReport::hit_cycle_limit`],
/// the deterministic notion of a timeout) is retried once at the same
/// seed, then recorded as a [`harness::JobFailure`] while the rest of
/// the grid completes.
pub fn run_derived_grid_failsafe(
    jobs: &[GridJob],
    grid_seed: u64,
    budget: u64,
) -> harness::FailsafeOutcome<ExperimentResult> {
    harness::run_grid_failsafe(
        jobs,
        grid_seed,
        harness::threads_from_env(),
        1,
        |job, seed| {
            let result = run_job(job, budget, seed);
            if result.report.hit_cycle_limit {
                return Err(harness::JobError::Timeout);
            }
            Ok(result)
        },
    )
}

/// Writes a paper-seeded grid's deterministic documents:
/// `results/<name>.json` and, if any cell carries a cycle-accounting
/// profile (i.e. the grid ran under `SVC_PROFILE`),
/// `results/<name>.profile.json`. With the profiler off no profile
/// document is written, so unprofiled artifact regeneration leaves the
/// results directory untouched.
pub fn write_paper_docs(
    name: &str,
    budget: u64,
    results: &[ExperimentResult],
) -> std::io::Result<()> {
    let runs = results
        .iter()
        .map(|r| report::experiment_result_json(r, PAPER_SEED))
        .collect();
    let doc = report::experiment_doc(name, budget, PAPER_SEED, runs);
    report::write_experiment(name, &doc)?;
    let profiles: Vec<report::Json> = results
        .iter()
        .filter_map(|r| {
            r.profile.as_ref().map(|p| {
                report::Json::obj()
                    .set("workload", r.workload.as_str().into())
                    .set("memory", r.memory.as_str().into())
                    .set("seed", PAPER_SEED.into())
                    .set("profile", report::profile_report_json(p))
            })
        })
        .collect();
    if !profiles.is_empty() {
        let doc = report::profile_doc(name, budget, PAPER_SEED, profiles);
        report::write_experiment(&format!("{name}.profile"), &doc)?;
    }
    Ok(())
}

/// Records a finished grid's wall-clock self-measurement as the `name`
/// entry of the `BENCH_experiments.json` snapshot.
pub fn record_grid(
    name: &str,
    outcome: &harness::GridOutcome<ExperimentResult>,
) -> std::io::Result<()> {
    let m = report::SelfMeasurement::from_reports(
        outcome.results.iter().map(|r| &r.report),
        outcome.wall.as_secs_f64(),
        outcome.threads,
    );
    report::record_snapshot(name, m)?;
    Ok(())
}

/// Writes both JSON artifacts for a finished paper-seeded grid: its
/// documents ([`write_paper_docs`]) and its snapshot entry
/// ([`record_grid`]).
pub fn publish_paper_grid(
    name: &str,
    budget: u64,
    outcome: &harness::GridOutcome<ExperimentResult>,
) -> std::io::Result<()> {
    write_paper_docs(name, budget, &outcome.results)?;
    record_grid(name, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_is_row_major() {
        let jobs = cross(
            &[Spec95::Ijpeg, Spec95::Perl],
            &[
                MemoryKind::Svc { kb_per_cache: 8 },
                MemoryKind::Svc { kb_per_cache: 16 },
            ],
        );
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].bench, Spec95::Ijpeg);
        assert_eq!(jobs[1].bench, Spec95::Ijpeg);
        assert_eq!(jobs[1].memory, MemoryKind::Svc { kb_per_cache: 16 });
        assert_eq!(jobs[2].bench, Spec95::Perl);
    }

    #[test]
    fn labels() {
        assert_eq!(MemoryKind::Svc { kb_per_cache: 8 }.label(4), "SVC-4x8KB");
        assert_eq!(
            MemoryKind::Arb {
                hit_cycles: 2,
                cache_kb: 32
            }
            .label(4),
            "ARB-2c-32KB"
        );
    }

    #[test]
    fn tiny_run_produces_sane_metrics() {
        let r = run_spec95_with(Spec95::Ijpeg, MemoryKind::Svc { kb_per_cache: 8 }, 5_000, 7);
        assert!(r.ipc > 0.0 && r.ipc < 8.0, "ipc {}", r.ipc);
        assert!(r.miss_ratio >= 0.0 && r.miss_ratio < 1.0);
        assert!(r.bus_utilization >= 0.0 && r.bus_utilization <= 1.0);
        assert!(!r.report.hit_cycle_limit);
    }

    #[test]
    fn arb_run_has_no_bus() {
        let r = run_spec95_with(
            Spec95::Ijpeg,
            MemoryKind::Arb {
                hit_cycles: 1,
                cache_kb: 32,
            },
            5_000,
            7,
        );
        assert_eq!(r.bus_utilization, 0.0);
    }

    #[test]
    fn budget_env_override() {
        // The binary's default without the env var.
        std::env::remove_var("SVC_EXPERIMENT_BUDGET");
        assert_eq!(instruction_budget(PAPER_BUDGET), 400_000);
        assert_eq!(instruction_budget(300_000), 300_000);
    }

    /// A journal written at one budget serves no cells to a run at
    /// another: the rerun equals a plain run at the new budget.
    #[test]
    fn journaled_grid_reruns_cells_of_another_budget() {
        let dir = std::env::temp_dir().join(format!("svc-grid-budget-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = cross(&[Spec95::Ijpeg], &[MemoryKind::Svc { kb_per_cache: 8 }]);
        let journaled = |budget| {
            run_grid_journaled_in(Some(dir.clone()), &jobs, PAPER_SEED, budget, |job, _| {
                run_job(job, budget, PAPER_SEED)
            })
        };
        let first = journaled(3_000);
        let rerun = journaled(5_000);
        let plain = run_grid_journaled_in(None, &jobs, PAPER_SEED, 5_000, |job, _| {
            run_job(job, 5_000, PAPER_SEED)
        });
        assert_eq!(rerun.results, plain.results);
        assert_ne!(rerun.results, first.results);
        // Same budget again: every cell comes from the journal.
        assert_eq!(journaled(5_000).results, plain.results);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
