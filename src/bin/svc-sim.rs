//! `svc-sim` — command-line front end for the simulator.
//!
//! ```text
//! svc-sim run   [--bench NAME|--kernel NAME|--replay FILE]
//!               [--memory svc|arb] [--kb N] [--hit N] [--budget N]
//!               [--seed N] [--pus N] [--json]
//!               [--trace] [--trace-filter CATS] [--trace-out PREFIX]
//!               [--profile] [--profile-out FILE]
//!               [--analyze] [--analyze-out FILE]
//! svc-sim trace [--addr N] [workload/memory flags as for run]
//! svc-sim profile [--json] [workload/memory flags as for run]
//! svc-sim designs [--bench NAME] [--budget N] [--seed N]
//! svc-sim faults [--seed N] [--budget N] [--rate R] [--pus N]
//! svc-sim serve [--port N] [--ticks N] [--seed N] [--pus N] [--kb N]
//!               [--slice-budget N] [--storm SPEC] [--addr-file FILE]
//!               [--out FILE]
//! svc-sim list
//! ```
//!
//! `run` executes one workload on one memory system and prints the
//! report (`--json` emits the machine-readable `svc-experiments/v1`
//! run object instead; when `--trace-out`, `--profile-out`,
//! `--checkpoint-out` or `--analyze-out` wrote artifacts, the object
//! carries an `artifacts` map with their paths). With `--analyze` the
//! captured trace is fed through the offline analyzer (squash-cascade
//! attribution, version lifetimes, bus contention — see `svc-analyze`)
//! and the `svc-analysis/v1` tables follow the report, or the document
//! goes to `--analyze-out FILE`.
//! With `--trace` it records cycle-stamped events (`--trace-filter`
//! takes `all` or a comma list like `bus,task`) and either prints the
//! text log or, with `--trace-out PREFIX`, writes `PREFIX.log`,
//! `PREFIX.jsonl` and `PREFIX.trace.json` (Perfetto). With `--profile`
//! it attaches the cycle-accounting profiler and appends the per-PU
//! bucket table to the report; `--profile-out FILE` also writes the
//! `svc-profile/v1` document. `trace` runs a traced cell and prints
//! the squash-forensics report — a line's version history plus the
//! violation→squash causal chains — for the line containing `--addr`.
//! `profile` runs a profiled cell and prints the per-PU cycle
//! attribution table plus the top wasted-work addresses (`--json`
//! emits the `svc-profile/v1` document instead). `designs` walks the
//! §3 design progression on one benchmark; `faults` runs the
//! deterministic fault-injection campaign (see EXPERIMENTS.md);
//! `serve` runs the soak loop — a seeded rotation of workload mixes
//! with periodic fault storms — while a local HTTP endpoint exports
//! `/metrics` (Prometheus text format), `/profile` (rolling
//! `svc-profile/v1` windows) and `/healthz`; `--ticks 0` (the
//! default) runs until SIGINT/SIGTERM, and shutdown flushes a
//! `svc-soak/v1` snapshot to `results/soak.json` (or `--out`). The
//! bound address goes to stderr and, with `--addr-file`, to a file,
//! so stdout stays byte-deterministic for a given seed and tick
//! budget. `list` shows the available workloads.
//!
//! Exit codes: 0 success, 2 usage error, 3 I/O error, 4 invariant
//! violation / silent corruption ([`svc_repro::bench::cli`]).

use std::process::ExitCode;

use svc_repro::bench::cli::CliError;
use svc_repro::bench::options::{self, RunOptions, ATTACHMENT_KNOBS};
use svc_repro::bench::report::Json;
use svc_repro::bench::{
    prepare_engine, report, run_source, soak, ExperimentResult, MemoryKind, Prepared,
    PreparedEngine, NUM_PUS,
};
use svc_repro::multiscalar::{Engine, EngineConfig, TaskSource, VecTaskSource};
use svc_repro::sim::checkpoint::{self, CheckpointRing};
use svc_repro::sim::fault::{FaultConfig, Faults, StormSchedule};
use svc_repro::sim::forensics;
use svc_repro::sim::profile::{Bucket, ProfileReport};
use svc_repro::sim::rng::SplitMix64;
use svc_repro::sim::telemetry::{shared_snapshot, TelemetryServer};
use svc_repro::sim::trace::{self, Tracer};
use svc_repro::svc::{SvcConfig, SvcSystem};
use svc_repro::types::{
    Addr, Checkpointable, CkptError, CkptReader, CkptWriter, Cycle, PuId, VersionedMemory,
};
use svc_repro::workloads::{kernels, Spec95, SyntheticWorkload};

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    command: String,
    bench: Option<String>,
    kernel: Option<String>,
    replay: Option<String>,
    memory: String,
    kb: usize,
    hit: u64,
    budget: u64,
    seed: u64,
    pus: usize,
    json: bool,
    trace: bool,
    trace_filter: String,
    trace_out: Option<String>,
    profile: bool,
    profile_out: Option<String>,
    /// `run`: feed the captured trace through the offline analyzer.
    analyze: bool,
    /// `run`: write the `svc-analysis/v1` document here (implies
    /// `--analyze`).
    analyze_out: Option<String>,
    addr: Option<u64>,
    rate: f64,
    port: u16,
    ticks: u64,
    slice_budget: u64,
    storm: Option<String>,
    addr_file: Option<String>,
    out: Option<String>,
    /// Checkpoint cadence: simulated cycles for `run`, ticks for
    /// `serve`/`resume` (0 = off / command default).
    checkpoint_every: u64,
    /// `run`: the single checkpoint file, atomically overwritten.
    checkpoint_out: Option<String>,
    /// `serve`: directory holding a ring of checkpoints.
    checkpoint_dir: Option<String>,
    /// Ring retention for `--checkpoint-dir`.
    checkpoint_keep: usize,
    /// `resume`: the checkpoint file (or ring directory) to restart from.
    resume_path: Option<String>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            command: String::new(),
            bench: None,
            kernel: None,
            replay: None,
            memory: "svc".to_string(),
            kb: 8,
            hit: 1,
            budget: 200_000,
            seed: 42,
            pus: NUM_PUS,
            json: false,
            trace: false,
            trace_filter: "all".to_string(),
            trace_out: None,
            profile: false,
            profile_out: None,
            analyze: false,
            analyze_out: None,
            addr: None,
            rate: 0.02,
            port: 0,
            ticks: 0,
            slice_budget: 20_000,
            storm: None,
            addr_file: None,
            out: None,
            checkpoint_every: 0,
            checkpoint_out: None,
            checkpoint_dir: None,
            checkpoint_keep: 4,
            resume_path: None,
        }
    }
}

/// Parses `args` (without the program name). Pure, for testability.
fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    o.command = it.next().cloned().ok_or("missing command")?;
    if !matches!(
        o.command.as_str(),
        "run" | "designs" | "list" | "trace" | "faults" | "profile" | "serve" | "resume"
    ) {
        return Err(format!("unknown command {:?}", o.command));
    }
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" | "-b" => o.bench = Some(value()?),
            "--kernel" | "-k" => o.kernel = Some(value()?),
            "--replay" | "-r" => o.replay = Some(value()?),
            "--memory" | "-m" => o.memory = value()?,
            "--kb" => o.kb = value()?.parse().map_err(|e| format!("--kb: {e}"))?,
            "--hit" => o.hit = value()?.parse().map_err(|e| format!("--hit: {e}"))?,
            "--budget" => o.budget = value()?.parse().map_err(|e| format!("--budget: {e}"))?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--pus" => o.pus = value()?.parse().map_err(|e| format!("--pus: {e}"))?,
            "--json" => o.json = true,
            "--trace" | "-t" => o.trace = true,
            "--trace-filter" => o.trace_filter = value()?,
            "--trace-out" => o.trace_out = Some(value()?),
            "--profile" | "-p" => o.profile = true,
            "--profile-out" => o.profile_out = Some(value()?),
            "--analyze" => o.analyze = true,
            "--analyze-out" => o.analyze_out = Some(value()?),
            "--addr" => o.addr = Some(value()?.parse().map_err(|e| format!("--addr: {e}"))?),
            "--rate" => o.rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--port" => o.port = value()?.parse().map_err(|e| format!("--port: {e}"))?,
            "--ticks" => o.ticks = value()?.parse().map_err(|e| format!("--ticks: {e}"))?,
            "--slice-budget" => {
                o.slice_budget = value()?
                    .parse()
                    .map_err(|e| format!("--slice-budget: {e}"))?;
            }
            "--storm" => o.storm = Some(value()?),
            "--addr-file" => o.addr_file = Some(value()?),
            "--out" => o.out = Some(value()?),
            "--checkpoint-every" => {
                o.checkpoint_every = value()?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--checkpoint-out" => o.checkpoint_out = Some(value()?),
            "--checkpoint-dir" => o.checkpoint_dir = Some(value()?),
            "--checkpoint-keep" => {
                o.checkpoint_keep = value()?
                    .parse()
                    .map_err(|e| format!("--checkpoint-keep: {e}"))?;
            }
            other
                if o.command == "resume" && o.resume_path.is_none() && !other.starts_with('-') =>
            {
                o.resume_path = Some(other.to_string());
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !(0.0..=1.0).contains(&o.rate) || o.rate == 0.0 {
        return Err(format!("--rate must be in (0, 1], got {}", o.rate));
    }
    if [o.bench.is_some(), o.kernel.is_some(), o.replay.is_some()]
        .into_iter()
        .filter(|&b| b)
        .count()
        > 1
    {
        return Err("--bench, --kernel and --replay are mutually exclusive".to_string());
    }
    if !matches!(o.memory.as_str(), "svc" | "arb") {
        return Err(format!("--memory must be svc or arb, got {:?}", o.memory));
    }
    // Validate the filter up front so a typo fails before a long run.
    if o.trace || o.command == "trace" {
        trace::parse_filter(&o.trace_filter).map_err(|e| format!("--trace-filter: {e}"))?;
    }
    if o.command == "trace" && o.addr.is_none() {
        return Err("`svc-sim trace` needs --addr".to_string());
    }
    // Validate the storm spec up front too — `serve` may run for hours.
    if let Some(spec) = &o.storm {
        StormSchedule::parse(spec).map_err(|e| format!("--storm: {e}"))?;
    }
    if o.command == "serve" && o.slice_budget == 0 {
        return Err("--slice-budget must be positive".to_string());
    }
    // `--profile-out` implies profiling, and the `profile` subcommand
    // is always profiled.
    if o.profile_out.is_some() || o.command == "profile" {
        o.profile = true;
    }
    if o.checkpoint_keep == 0 {
        return Err("--checkpoint-keep must be at least 1".to_string());
    }
    // `--analyze-out` implies analysis; analysis needs a captured trace.
    if o.analyze_out.is_some() {
        o.analyze = true;
    }
    if o.analyze {
        if o.command != "run" {
            return Err("--analyze only applies to `run`".to_string());
        }
        if !o.trace {
            return Err("--analyze needs --trace (it analyzes the captured trace)".to_string());
        }
        if o.json && o.analyze_out.is_none() {
            // `--json` keeps stdout a single document; the analysis
            // must go to a file of its own.
            return Err("--analyze with --json needs --analyze-out".to_string());
        }
    }
    if o.command == "run" {
        if o.checkpoint_every > 0 && o.checkpoint_out.is_none() {
            return Err("--checkpoint-every needs --checkpoint-out for `run`".to_string());
        }
        if o.checkpoint_out.is_some() {
            if o.trace || o.trace_out.is_some() {
                // The trace ring is an observer, not simulation state;
                // it is not part of a checkpoint, so a resumed run
                // could not reproduce it.
                return Err("--trace cannot be combined with checkpointing".to_string());
            }
            if o.checkpoint_every == 0 {
                o.checkpoint_every = 250_000;
            }
        }
    }
    if o.command == "serve" && o.checkpoint_dir.is_some() && o.checkpoint_every == 0 {
        o.checkpoint_every = 1;
    }
    if o.command == "resume" && o.resume_path.is_none() {
        return Err("`svc-sim resume` needs a checkpoint file or ring directory".to_string());
    }
    Ok(o)
}

impl Options {
    /// Whether the flags ask for a trace (`--trace`, or the `trace`
    /// subcommand), which `svc-sim` prints or writes itself.
    fn traced(&self) -> bool {
        self.trace || self.command == "trace"
    }
}

/// Values of the [`ATTACHMENT_KNOBS`], in order, as a run checkpoint's
/// header records them.
type Attachments = [Option<String>; ATTACHMENT_KNOBS.len()];

/// Resolves the run options: the flags answer the knobs they stand for
/// (`--profile` is `SVC_PROFILE=1`, `--trace`/`--trace-filter` is
/// `SVC_TRACE`), a resumed run's checkpoint `header` answers the
/// attachment knobs, and the environment answers the rest.
fn run_options(o: &Options, header: Option<&Attachments>) -> Result<RunOptions, CliError> {
    RunOptions::parse(|name| {
        if let (Some(values), Some(i)) = (header, ATTACHMENT_KNOBS.iter().position(|&k| k == name))
        {
            return values[i].clone();
        }
        match name {
            "SVC_PROFILE" if o.profile => Some("1".to_string()),
            // The trace ring is an observer, not simulation state: it is
            // not part of a checkpoint, so a resumed run could not
            // reproduce it.
            "SVC_TRACE" if o.checkpoint_out.is_some() => None,
            "SVC_TRACE" if o.traced() => Some(o.trace_filter.clone()),
            // Flag-driven traces go to `--trace-out` or stdout instead.
            "SVC_TRACE_OUT" if o.traced() => None,
            _ => options::env(name),
        }
    })
}

fn lookup_bench(name: &str) -> Result<Spec95, String> {
    Spec95::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark {name:?} (try `svc-sim list`)"))
}

fn lookup_kernel(name: &str, seed: u64) -> Result<VecTaskSource, String> {
    Ok(match name {
        "streaming" => kernels::streaming(2_000, 8),
        "readonly" => kernels::readonly_sharing(2_000, 32),
        "producer-consumer" => kernels::producer_consumer(2_000, 6),
        "reduction" => kernels::reduction(2_000, 3),
        "false-sharing" => kernels::false_sharing(2_000, 2),
        "pointer-chase" => kernels::pointer_chase(2_000, 6, 4096, seed),
        other => return Err(format!("unknown kernel {other:?} (try `svc-sim list`)")),
    })
}

fn cmd_list() {
    println!("benchmarks (SPEC95 models):");
    for b in Spec95::ALL {
        println!("  {b}");
    }
    println!("kernels:");
    for k in [
        "streaming",
        "readonly",
        "producer-consumer",
        "reduction",
        "false-sharing",
        "pointer-chase",
    ] {
        println!("  {k}");
    }
}

fn engine_config(o: &Options, wl: Option<&SyntheticWorkload>) -> EngineConfig {
    let mut cfg = EngineConfig {
        num_pus: o.pus,
        max_instructions: o.budget,
        seed: o.seed,
        ..EngineConfig::default()
    };
    if let Some(wl) = wl {
        cfg.predictor = wl.profile().predictor(o.seed);
        cfg.garbage_addr_space = wl.profile().hot_set.max(64);
        cfg.load_dep_frac = wl.profile().load_dep_frac;
    }
    cfg
}

fn memory_kind(o: &Options) -> MemoryKind {
    match o.memory.as_str() {
        "svc" => MemoryKind::Svc { kb_per_cache: o.kb },
        _ => MemoryKind::Arb {
            hit_cycles: o.hit,
            cache_kb: o.kb.max(32),
        },
    }
}

/// Builds the selected workload (bench/kernel/replay), its display
/// name, and the engine configuration it implies. Pure construction —
/// shared by the direct runner and the checkpoint/resume drivers, which
/// must rebuild the exact same source from a checkpoint header.
fn select_source(o: &Options) -> Result<(Box<dyn TaskSource>, String, EngineConfig), CliError> {
    Ok(if let Some(path) = &o.replay {
        let text = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
        let src = svc_repro::workloads::parse_trace(&text)
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        let cfg = engine_config(o, None);
        (Box::new(src), path.clone(), cfg)
    } else if let Some(k) = &o.kernel {
        let src = lookup_kernel(k, o.seed).map_err(CliError::Usage)?;
        let cfg = engine_config(o, None);
        (Box::new(src), k.clone(), cfg)
    } else {
        let bench = lookup_bench(o.bench.as_deref().unwrap_or("gcc")).map_err(CliError::Usage)?;
        let wl = bench.workload(o.seed);
        let cfg = engine_config(o, Some(&wl));
        (Box::new(wl), bench.name().to_string(), cfg)
    })
}

/// Runs the selected workload (bench/kernel/replay) on the selected
/// memory system. Returns the result, the workload's display name, and
/// the tracer the flags asked for (disabled without them; an
/// `SVC_TRACE` run writes its sinks to `SVC_TRACE_OUT` in
/// [`run_source`]).
fn run_selected(
    o: &Options,
    run: &RunOptions,
) -> Result<(ExperimentResult, String, Tracer), CliError> {
    let memory = memory_kind(o);
    let (src, name, cfg) = select_source(o)?;
    if o.traced() {
        let (result, tracer) = prepare_engine(memory, cfg, run).run(src.as_ref());
        return Ok((result, name, tracer));
    }
    let result = run_source(src.as_ref(), memory, cfg, run);
    Ok((result, name, Tracer::disabled()))
}

// ---------------------------------------------------------------------
// Checkpointed runs and resume
// ---------------------------------------------------------------------

/// Kind tag of a `run` checkpoint (header + engine state).
const RUN_CKPT_KIND: &str = "svc-run/v1";

/// Serializes everything `resume` needs to rebuild the workload, the
/// memory system, and the engine attachments (as their knobs' values,
/// whatever the resuming shell exports) before restoring state.
fn save_run_header(o: &Options, run: &RunOptions, w: &mut CkptWriter) {
    if let Some(path) = &o.replay {
        w.put_u8(2);
        w.put_str(path);
    } else if let Some(k) = &o.kernel {
        w.put_u8(1);
        w.put_str(k);
    } else {
        w.put_u8(0);
        w.put_str(o.bench.as_deref().unwrap_or("gcc"));
    }
    w.put_str(&o.memory);
    w.put_usize(o.kb);
    w.put_u64(o.hit);
    w.put_u64(o.budget);
    w.put_u64(o.seed);
    w.put_usize(o.pus);
    for value in run.attachment_values() {
        w.put_bool(value.is_some());
        if let Some(v) = value {
            w.put_str(&v);
        }
    }
}

/// Rebuilds the command-line options and the attachment knob values a
/// checkpoint header describes.
fn restore_run_header(r: &mut CkptReader<'_>) -> Result<(Options, Attachments), CkptError> {
    let mut o = Options {
        command: "run".to_string(),
        ..Options::default()
    };
    let tag = r.take_u8()?;
    let name = r.take_str()?;
    match tag {
        0 => o.bench = Some(name),
        1 => o.kernel = Some(name),
        2 => o.replay = Some(name),
        t => return Err(CkptError::corrupt(format!("unknown workload tag {t}"))),
    }
    o.memory = r.take_str()?;
    if !matches!(o.memory.as_str(), "svc" | "arb") {
        return Err(CkptError::corrupt(format!(
            "unknown memory kind {:?}",
            o.memory
        )));
    }
    o.kb = r.take_usize()?;
    o.hit = r.take_u64()?;
    o.budget = r.take_u64()?;
    o.seed = r.take_u64()?;
    o.pus = r.take_usize()?;
    if o.pus == 0 {
        return Err(CkptError::corrupt("checkpoint with 0 PUs"));
    }
    let mut values = Attachments::default();
    for value in &mut values {
        if r.take_bool()? {
            *value = Some(r.take_str()?);
        }
    }
    Ok((o, values))
}

/// Startup probe: `path`'s parent directory must exist (created if
/// needed) and accept an atomic write, so an unwritable destination is
/// a typed I/O failure (exit 3) *before* hours of simulation, not a
/// panic at the first flush.
fn probe_writable(path: &std::path::Path) -> Result<(), CliError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    std::fs::create_dir_all(&dir).map_err(|e| CliError::io(dir.display(), e))?;
    // Per-process name: two invocations sharing a directory must not
    // replace or delete each other's probe.
    let probe = dir.join(format!(".svc-write-probe.{}", std::process::id()));
    checkpoint::write_atomic(&probe, b"probe")
        .and_then(|()| std::fs::remove_file(&probe))
        .map_err(|e| CliError::io(dir.display(), e))
}

/// Drives a prepared engine to completion, atomically rewriting the
/// `--checkpoint-out` file at every `--checkpoint-every` cycle boundary.
fn drive_checkpointed<M>(
    p: &mut Prepared<M>,
    source: &dyn TaskSource,
    name: &str,
    o: &Options,
    run: &RunOptions,
) -> Result<ExperimentResult, CliError>
where
    M: VersionedMemory + Checkpointable,
{
    let out = std::path::Path::new(o.checkpoint_out.as_deref().expect("caller checked"));
    let every = o.checkpoint_every;
    loop {
        let stop = match every {
            0 => None,
            n => Some(p.engine.cycle() + n),
        };
        if p.engine.run_until(source, stop) {
            break;
        }
        let mut w = CkptWriter::new();
        save_run_header(o, run, &mut w);
        p.engine.save_state(&mut w);
        let blob = checkpoint::encode(RUN_CKPT_KIND, &w.into_bytes());
        checkpoint::write_atomic(out, &blob).map_err(|e| CliError::io(out.display(), e))?;
    }
    let report = p.engine.finish();
    Ok(p.finish(name, report))
}

/// The checkpointing variant of [`run_selected`]: same workload, same
/// memory system, same attachments, but driven in `--checkpoint-every`
/// slices with the engine state flushed between them.
fn run_checkpointed(o: &Options, run: &RunOptions) -> Result<(ExperimentResult, String), CliError> {
    let (src, name, cfg) = select_source(o)?;
    let src = src.as_ref();
    let out = std::path::PathBuf::from(o.checkpoint_out.as_deref().expect("caller checked"));
    probe_writable(&out)?;
    let result = match prepare_engine(memory_kind(o), cfg, run) {
        PreparedEngine::Svc(mut p) => drive_checkpointed(&mut p, src, &name, o, run)?,
        PreparedEngine::Arb(mut p) => drive_checkpointed(&mut p, src, &name, o, run)?,
    };
    Ok((result, name))
}

/// Loads a checkpoint from a file, or the newest valid one from a ring
/// directory (skipping torn/corrupt files by checksum).
fn load_checkpoint(
    path: &std::path::Path,
    keep: usize,
) -> Result<(std::path::PathBuf, String, Vec<u8>), CliError> {
    if path.is_dir() {
        let ring = CheckpointRing::open(path, keep).map_err(|e| CliError::io(path.display(), e))?;
        let ckpt = ring
            .newest_valid()
            .map_err(|e| CliError::io(path.display(), e))?
            .ok_or_else(|| {
                CliError::Invariant(format!(
                    "{}: no valid checkpoint in ring (all torn or empty)",
                    path.display()
                ))
            })?;
        eprintln!(
            "resume: ring {} -> checkpoint #{} ({})",
            path.display(),
            ckpt.seq,
            ckpt.kind
        );
        Ok((ckpt.path, ckpt.kind, ckpt.payload))
    } else {
        let bytes = std::fs::read(path).map_err(|e| CliError::io(path.display(), e))?;
        let (kind, payload) = checkpoint::decode(&bytes)
            .map_err(|e| CliError::Invariant(format!("{}: {e}", path.display())))?;
        Ok((path.to_path_buf(), kind, payload))
    }
}

/// `svc-sim resume <ckpt>`: restart a checkpointed `run` or soak from
/// its saved state and carry it to completion (a run takes its
/// attachment knobs from the checkpoint header).
fn cmd_resume(o: &Options) -> Result<(), CliError> {
    let given = std::path::PathBuf::from(o.resume_path.as_deref().expect("parse checked"));
    let (ckpt_path, kind, payload) = load_checkpoint(&given, o.checkpoint_keep)?;
    match kind.as_str() {
        RUN_CKPT_KIND => resume_run(o, &ckpt_path, &payload),
        soak::SOAK_CKPT_KIND => resume_soak(o, &given, &payload, &run_options(o, None)?),
        other => Err(CliError::Invariant(format!(
            "{}: unknown checkpoint kind {other:?}",
            ckpt_path.display()
        ))),
    }
}

/// Resumes a `run` checkpoint: rebuild workload + engine from the
/// header, restore the engine state, continue (checkpointing onward to
/// the same file when `--checkpoint-every` is given), and print the
/// report exactly as `run` would.
fn resume_run(o: &Options, ckpt_path: &std::path::Path, payload: &[u8]) -> Result<(), CliError> {
    let corrupt = |e: CkptError| CliError::Invariant(format!("{}: {e}", ckpt_path.display()));
    let mut r = CkptReader::new(payload);
    let (mut o2, attachments) = restore_run_header(&mut r).map_err(corrupt)?;
    o2.json = o.json;
    o2.checkpoint_every = o.checkpoint_every;
    o2.checkpoint_out = Some(ckpt_path.display().to_string());
    o2.profile_out = o.profile_out.clone();
    let run = run_options(&o2, Some(&attachments))?;

    let (src, name, cfg) = select_source(&o2)?;
    let started = std::time::Instant::now();
    let result = match prepare_engine(memory_kind(&o2), cfg, &run) {
        PreparedEngine::Svc(mut p) => {
            p.engine
                .restore_state(&mut r)
                .and_then(|()| r.finish())
                .map_err(corrupt)?;
            eprintln!("resume: {} at cycle {}", name, p.engine.cycle());
            drive_checkpointed(&mut p, src.as_ref(), &name, &o2, &run)?
        }
        PreparedEngine::Arb(mut p) => {
            p.engine
                .restore_state(&mut r)
                .and_then(|()| r.finish())
                .map_err(corrupt)?;
            eprintln!("resume: {} at cycle {}", name, p.engine.cycle());
            drive_checkpointed(&mut p, src.as_ref(), &name, &o2, &run)?
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    print_run_result(&o2, &name, &result, wall_s, None, None)
}

/// Resumes a soak checkpoint: restore config + cumulative state and
/// re-enter the serve loop (telemetry server, ring checkpointing, final
/// snapshot flush) from the saved tick.
fn resume_soak(
    o: &Options,
    given: &std::path::Path,
    payload: &[u8],
    run: &RunOptions,
) -> Result<(), CliError> {
    let (mut cfg, state) = soak::soak_ckpt_restore(payload)
        .map_err(|e| CliError::Invariant(format!("{}: {e}", given.display())))?;
    if o.ticks > 0 {
        cfg.ticks = o.ticks;
    }
    // Keep checkpointing into the ring we resumed from (or an explicit
    // --checkpoint-dir override).
    let mut o2 = o.clone();
    if o2.checkpoint_dir.is_none() && given.is_dir() {
        o2.checkpoint_dir = Some(given.display().to_string());
    }
    if o2.checkpoint_dir.is_some() && o2.checkpoint_every == 0 {
        o2.checkpoint_every = 1;
    }
    eprintln!("resume: soak at tick {}", state.ticks);
    serve_soak(&o2, run, cfg, Some(state))
}

/// Writes (with `--trace-out PREFIX`) or prints the recorded trace.
fn emit_trace(o: &Options, tracer: &Tracer, title: &str) -> Result<(), CliError> {
    let records = tracer.records();
    if let Some(prefix) = &o.trace_out {
        for (ext, text) in [
            ("log", trace::render_text(&records)),
            ("jsonl", trace::render_jsonl(&records)),
            ("trace.json", trace::render_chrome(&records, title)),
        ] {
            let path = format!("{prefix}.{ext}");
            report::write_atomic(std::path::Path::new(&path), text.as_bytes())
                .map_err(|e| CliError::io(&path, e))?;
        }
        eprintln!(
            "trace: {} events ({} dropped) -> {}.{{log,jsonl,trace.json}}",
            records.len(),
            tracer.dropped(),
            o.trace_out.as_deref().unwrap_or("")
        );
    } else {
        print!("{}", trace::render_text(&records));
        if tracer.dropped() > 0 {
            eprintln!(
                "trace: ring wrapped, {} oldest events dropped (raise SVC_TRACE_CAP)",
                tracer.dropped()
            );
        }
    }
    Ok(())
}

/// The line geometry of the memory system the options select, for
/// mapping word addresses to cache lines in forensics / profile output.
fn words_per_line(o: &Options) -> u64 {
    match o.memory.as_str() {
        "svc" => SvcConfig::paper_geometry(o.kb).words_per_line() as u64,
        _ => svc_repro::arb::ArbConfig::paper(o.pus, o.hit, o.kb.max(32))
            .cache_geometry
            .words_per_line() as u64,
    }
}

/// Wraps one run's profile in the `svc-profile/v1` document shape the
/// experiment binaries publish, so `svc-sim` output parses with the
/// same tooling.
fn profile_doc_for(o: &Options, name: &str, result: &ExperimentResult) -> Json {
    let p = result.profile.as_ref().expect("caller checked profile");
    let run = Json::obj()
        .set("workload", name.into())
        .set("memory", result.memory.as_str().into())
        .set("seed", o.seed.into())
        .set("profile", report::profile_report_json(p));
    report::profile_doc(name, o.budget, o.seed, vec![run])
}

/// Writes the `svc-profile/v1` document to `--profile-out` (if set and
/// a profile was recorded) and returns the path written.
fn write_profile_out(
    o: &Options,
    name: &str,
    result: &ExperimentResult,
) -> Result<Option<String>, CliError> {
    let Some(path) = &o.profile_out else {
        return Ok(None);
    };
    if result.profile.is_none() {
        return Ok(None);
    }
    let doc = profile_doc_for(o, name, result);
    report::write_atomic(std::path::Path::new(path), doc.render().as_bytes())
        .map_err(|e| CliError::io(path, e))?;
    Ok(Some(path.clone()))
}

/// Renders the per-PU cycle-attribution table, the conservation line,
/// and the top wasted-work addresses (with their cache lines, via the
/// forensics address→line mapping).
fn render_profile(p: &ProfileReport, wpl: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(out, "{:6}", "pu");
    for b in Bucket::EVERY {
        let _ = write!(out, " {:>15}", b.name());
    }
    out.push('\n');
    for (i, set) in p.per_pu.iter().enumerate() {
        let _ = write!(out, "pu{i:<4}");
        for v in set {
            let _ = write!(out, " {v:>15}");
        }
        out.push('\n');
    }
    let totals = p.totals();
    let _ = write!(out, "{:6}", "total");
    for v in totals {
        let _ = write!(out, " {v:>15}");
    }
    out.push('\n');
    let attributed = p.attributed().max(1);
    let _ = write!(out, "{:6}", "%");
    for v in totals {
        let _ = write!(out, " {:>14.1}%", 100.0 * v as f64 / attributed as f64);
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "conservation: attributed {} of {} PU-cycles ({} cycles x {} PUs) -- {}",
        p.attributed(),
        p.expected(),
        p.cycles,
        p.num_pus,
        if p.conservation_ok() {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    if !p.wasted_addrs.is_empty() {
        let _ = writeln!(out, "top wasted-work addresses (squashed accesses):");
        for &(addr, count) in &p.wasted_addrs {
            let line = forensics::line_of(Addr(addr), wpl);
            let _ = writeln!(
                out,
                "  addr {addr:>8}  line {:>6}  squashed {count}",
                line.0
            );
        }
    }
    out
}

fn cmd_run(o: &Options, run: &RunOptions) -> Result<(), CliError> {
    if o.checkpoint_out.is_some() {
        // Checkpointed runs drive the engine in slices; tracing is
        // rejected at parse time, so the plain path below never races
        // a tracer against the checkpoint cadence.
        let started = std::time::Instant::now();
        let (result, name) = run_checkpointed(o, run)?;
        let wall_s = started.elapsed().as_secs_f64();
        return print_run_result(o, &name, &result, wall_s, None, None);
    }
    let started = std::time::Instant::now();
    let (result, name, tracer) = run_selected(o, run)?;
    let wall_s = started.elapsed().as_secs_f64();
    if tracer.is_active() {
        emit_trace(o, &tracer, &name)?;
    }
    let trace_prefix = if tracer.is_active() {
        o.trace_out.as_deref()
    } else {
        None
    };
    // Offline analysis of the trace we just captured, in-process (no
    // JSONL round trip). With `--analyze-out` the document is written
    // and advertised under `artifacts.analysis`; without it the text
    // tables follow the human-readable report.
    let analysis = if o.analyze {
        let cfg = svc_repro::analyze::analysis::AnalyzeConfig {
            words_per_line: words_per_line(o),
            ..Default::default()
        };
        Some(svc_repro::analyze::analyze_records(
            &tracer.records(),
            0,
            result.profile.as_ref(),
            &cfg,
        ))
    } else {
        None
    };
    let analysis_path = match (&analysis, &o.analyze_out) {
        (Some(doc), Some(path)) => {
            report::write_atomic(std::path::Path::new(path), doc.render().as_bytes())
                .map_err(|e| CliError::io(path, e))?;
            eprintln!("analysis: -> {path}");
            Some(path.clone())
        }
        _ => None,
    };
    print_run_result(
        o,
        &name,
        &result,
        wall_s,
        trace_prefix,
        analysis_path.as_deref(),
    )?;
    if let (Some(doc), None) = (&analysis, &o.analyze_out) {
        print!("{}", svc_repro::analyze::analysis::render_text(doc));
    }
    Ok(())
}

/// The shared tail of `run` and `resume`: profile artifact, `--json`
/// document or the human-readable report.
fn print_run_result(
    o: &Options,
    name: &str,
    result: &ExperimentResult,
    wall_s: f64,
    trace_prefix: Option<&str>,
    analysis_path: Option<&str>,
) -> Result<(), CliError> {
    let profile_path = write_profile_out(o, name, result)?;
    let cycles_per_sec = if wall_s > 0.0 {
        result.report.cycles as f64 / wall_s
    } else {
        0.0
    };
    if o.json {
        // Self-measurement rides along after the deterministic metrics:
        // tooling diffing `--json` output across runs should strip
        // `wall_s` / `sim_cycles_per_sec` first (as the regress-style
        // identity checks do), since wall-clock data is never stable.
        let mut doc = report::experiment_result_json(result, o.seed)
            .set("wall_s", wall_s.into())
            .set("sim_cycles_per_sec", cycles_per_sec.into());
        // Artifact paths, so tooling reading `--json` output can locate
        // the trace sinks and profile document written alongside it.
        let mut artifacts = Json::obj();
        if let Some(prefix) = trace_prefix {
            artifacts = artifacts
                .set("trace_log", format!("{prefix}.log").into())
                .set("trace_jsonl", format!("{prefix}.jsonl").into())
                .set("trace_chrome", format!("{prefix}.trace.json").into());
        }
        if let Some(path) = &profile_path {
            artifacts = artifacts.set("profile", path.as_str().into());
        }
        if let Some(path) = &o.checkpoint_out {
            artifacts = artifacts.set("checkpoint", path.as_str().into());
        }
        if let Some(path) = analysis_path {
            artifacts = artifacts.set("analysis", path.into());
        }
        if artifacts.as_obj().is_some_and(|m| !m.is_empty()) {
            doc = doc.set("artifacts", artifacts);
        }
        println!("{}", doc.render());
        return Ok(());
    }
    println!("workload   {name}");
    println!("memory     {}", result.memory);
    println!("IPC        {:.3}", result.ipc);
    println!("miss ratio {:.4}", result.miss_ratio);
    if result.bus_utilization > 0.0 {
        println!("bus util   {:.3}", result.bus_utilization);
    }
    let r = &result.report;
    println!(
        "tasks      {} committed (avg {:.1} instrs), {} squashes ({} violation, {} resource), {} mispredictions",
        r.committed_tasks,
        r.avg_task_len(),
        r.squashes,
        r.violation_squashes,
        r.resource_squashes,
        r.mispredictions
    );
    println!(
        "memory     {} loads, {} stores, {} fills, {} transfers, {} writebacks, {} snarfs",
        r.mem.loads,
        r.mem.stores,
        r.mem.next_level_fills,
        r.mem.cache_transfers,
        r.mem.writebacks,
        r.mem.snarfs
    );
    println!(
        "throughput {cycles_per_sec:.0} sim cycles/s ({} cycles in {wall_s:.3}s wall)",
        r.cycles
    );
    if let Some(p) = &result.profile {
        print!("{}", render_profile(p, words_per_line(o)));
    }
    if let Some(path) = &profile_path {
        eprintln!("profile: -> {path}");
    }
    Ok(())
}

/// `svc-sim profile`: run one profiled cell and print the per-PU cycle
/// attribution table plus the top wasted-work addresses (`--json`
/// emits the `svc-profile/v1` document instead).
fn cmd_profile(o: &Options, run: &RunOptions) -> Result<(), CliError> {
    let (result, name, tracer) = run_selected(o, run)?;
    if tracer.is_active() {
        emit_trace(o, &tracer, &name)?;
    }
    let profile_path = write_profile_out(o, &name, &result)?;
    let Some(p) = &result.profile else {
        return Err(CliError::Invariant(
            "profiled run produced no profile report".to_string(),
        ));
    };
    if o.json {
        println!("{}", profile_doc_for(o, &name, &result).render());
        return Ok(());
    }
    println!(
        "workload   {name} on {} ({} cycles, {} PUs, epoch {}, {} samples)",
        result.memory,
        p.cycles,
        p.num_pus,
        p.epoch,
        p.samples.len()
    );
    println!("IPC        {:.3}", result.ipc);
    print!("{}", render_profile(p, words_per_line(o)));
    if let Some(path) = &profile_path {
        eprintln!("profile: -> {path}");
    }
    Ok(())
}

/// `svc-sim trace`: run a fully traced cell and print the forensics
/// report for the line containing `--addr`.
fn cmd_trace(o: &Options, run: &RunOptions) -> Result<(), CliError> {
    let addr = o.addr.expect("parse() enforces --addr for `trace`");
    let (_, name, tracer) = run_selected(o, run)?;
    let records = tracer.records();
    let wpl = words_per_line(o);
    let line = forensics::line_of(svc_repro::types::Addr(addr), wpl);
    println!(
        "workload {name}: {} traced events ({} dropped), line {} (addr {addr}, {wpl} words/line)",
        records.len(),
        tracer.dropped(),
        line.0
    );
    print!("{}", forensics::render_line_report(&records, line, wpl));
    Ok(())
}

fn cmd_designs(o: &Options) -> Result<(), CliError> {
    let bench = lookup_bench(o.bench.as_deref().unwrap_or("gcc")).map_err(CliError::Usage)?;
    let wl = bench.workload(o.seed);
    println!(
        "design progression on {bench} ({} instructions):\n",
        o.budget
    );
    println!(
        "{:8} {:>6} {:>9} {:>8}",
        "design", "IPC", "missrate", "busutil"
    );
    for (name, cfg) in [
        ("base", SvcConfig::base(o.pus)),
        ("EC", SvcConfig::ec(o.pus)),
        ("ECS", SvcConfig::ecs(o.pus)),
        ("HR", SvcConfig::hr(o.pus)),
        ("RL", SvcConfig::rl(o.pus)),
        ("final", SvcConfig::final_design(o.pus)),
    ] {
        let mut engine = Engine::new(engine_config(o, Some(&wl)), SvcSystem::new(cfg));
        let report = engine.run(&wl as &dyn TaskSource);
        let stats = engine.memory().stats();
        println!(
            "{:8} {:6.2} {:9.4} {:8.3}",
            name,
            report.ipc(),
            stats.miss_ratio(),
            report.bus_utilization()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `svc-sim faults`: the deterministic fault-injection campaign
// ---------------------------------------------------------------------

/// Kernels × SVC designs swept by the recovery campaign.
const CAMPAIGN_KERNELS: [&str; 4] = [
    "streaming",
    "producer-consumer",
    "reduction",
    "false-sharing",
];

fn campaign_designs(pus: usize) -> [(&'static str, SvcConfig); 3] {
    [
        ("base", SvcConfig::base(pus)),
        ("ecs", SvcConfig::ecs(pus)),
        ("final", SvcConfig::final_design(pus)),
    ]
}

/// Architectural words probed after draining — wide enough to cover
/// every campaign kernel's address space.
const PROBE_SPAN: u64 = 16 * 1024;

/// What one campaign run left behind: the drained architectural image,
/// the watchdog verdict, and the injection counters.
struct CellOutcome {
    probes: Vec<svc_repro::types::Word>,
    violations: usize,
    injected: u64,
    counts: Vec<(&'static str, u64)>,
}

/// Runs `kernel` on `cfg` with the given injector (watchdog always on),
/// drains, and probes the architectural state.
fn run_fault_cell(
    kernel: &str,
    cfg: SvcConfig,
    o: &Options,
    seed: u64,
    faults: Faults,
) -> Result<CellOutcome, CliError> {
    let src = lookup_kernel(kernel, seed).map_err(CliError::Usage)?;
    let mut system = SvcSystem::new(cfg);
    system.set_faults(faults.clone());
    let engine_cfg = EngineConfig {
        num_pus: o.pus,
        max_instructions: o.budget,
        seed,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(engine_cfg, system);
    engine.set_faults(faults.clone());
    engine.set_watchdog(64);
    engine.run(&src as &dyn TaskSource);
    let violations = engine.violations().len();
    let mut mem = engine.into_memory();
    mem.drain();
    let probes = (0..PROBE_SPAN)
        .map(|a| mem.architectural(Addr(a)))
        .collect();
    Ok(CellOutcome {
        probes,
        violations,
        injected: faults.total_injected(),
        counts: faults.counts(),
    })
}

/// Corrupts a drilled system and asserts the watchdog catches it,
/// printing the violations and the forensics causal chain for the
/// corrupted line. `drill` is `state_bit` or `splice_vol`.
fn run_drill(o: &Options, seed: u64, drill: &str) -> Result<(), CliError> {
    let mask = trace::parse_filter("all").expect("'all' is a valid filter");
    let tracer = Tracer::new(mask, 65_536);
    let src = lookup_kernel("producer-consumer", seed).map_err(CliError::Usage)?;
    let mut system = SvcSystem::new(SvcConfig::final_design(o.pus));
    system.set_tracer(tracer.clone());
    let engine_cfg = EngineConfig {
        num_pus: o.pus,
        max_instructions: o.budget.min(20_000),
        seed,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(engine_cfg, system);
    engine.set_tracer(tracer.clone());
    let report = engine.run(&src as &dyn TaskSource);
    let now = Cycle(report.cycles);
    let mut mem = engine.into_memory();

    let pre = mem.check_invariants(now);
    if !pre.is_empty() {
        return Err(CliError::Invariant(format!(
            "drill {drill}: system dirty before corruption: {}",
            pre[0]
        )));
    }
    let corrupted = (0..PROBE_SPAN).map(Addr).find(|&a| match drill {
        "state_bit" => mem.fault_flip_state_bit(PuId(0), a),
        _ => mem.fault_splice_vol(a),
    });
    let Some(addr) = corrupted else {
        return Err(CliError::Invariant(format!(
            "drill {drill}: no resident line to corrupt (seed {seed:#x})"
        )));
    };
    let found = mem.check_invariants(now);
    if found.is_empty() {
        return Err(CliError::Invariant(format!(
            "drill {drill}: corruption at addr {} NOT caught by the watchdog",
            addr.0
        )));
    }
    println!(
        "detected   drill={drill} addr={} violations={}",
        addr.0,
        found.len()
    );
    for v in found.iter().take(4) {
        println!("           {v}");
    }
    // The forensics causal chain for the corrupted line: its version
    // history as recorded by the tracer up to the corruption.
    let wpl = SvcConfig::final_design(o.pus).geometry.words_per_line() as u64;
    let line = forensics::line_of(addr, wpl);
    let chain = forensics::render_line_report(&tracer.records(), line, wpl);
    for l in chain.lines().take(12) {
        println!("           | {l}");
    }
    Ok(())
}

/// `svc-sim faults`: sweep kernels × designs with every fault site
/// firing at `--rate`, asserting each cell either recovers (drained
/// architectural state identical to the fault-free reference) or is
/// flagged by the watchdog; then run the corruption drills, which the
/// watchdog must catch. Output is byte-identical for a given seed.
fn cmd_faults(o: &Options) -> Result<(), CliError> {
    let spec = format!("all={}", o.rate);
    let fault_cfg = FaultConfig::parse(&spec).map_err(CliError::Usage)?;
    println!(
        "fault campaign: seed {:#x}, rate {}, budget {}",
        o.seed, o.rate, o.budget
    );

    let mut cell_seeds = SplitMix64::new(o.seed);
    let mut cells = 0u64;
    let mut total_injected = 0u64;
    for kernel in CAMPAIGN_KERNELS {
        for (design, cfg) in campaign_designs(o.pus) {
            let seed = cell_seeds.next_u64();
            let reference = run_fault_cell(kernel, cfg, o, seed, Faults::disabled())?;
            let faulted = run_fault_cell(kernel, cfg, o, seed, Faults::new(&fault_cfg, seed))?;
            cells += 1;
            total_injected += faulted.injected;
            if reference.violations > 0 {
                return Err(CliError::Invariant(format!(
                    "{kernel}/{design}: fault-free reference tripped the watchdog"
                )));
            }
            let verdict = if faulted.probes == reference.probes && faulted.violations == 0 {
                "recovered"
            } else if faulted.violations > 0 {
                "detected"
            } else {
                let diverged = faulted
                    .probes
                    .iter()
                    .zip(&reference.probes)
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                return Err(CliError::Invariant(format!(
                    "{kernel}/{design}: SILENT CORRUPTION — architectural state diverges \
                     at addr {diverged} with no watchdog violation (seed {seed:#x})"
                )));
            };
            let fired: Vec<String> = faulted
                .counts
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(name, n)| format!("{name}={n}"))
                .collect();
            println!(
                "{verdict}  kernel={kernel} design={design} seed={seed:#x} injected={} ({})",
                faulted.injected,
                fired.join(", "),
            );
        }
    }
    if total_injected == 0 {
        return Err(CliError::Invariant(format!(
            "campaign injected no faults across {cells} cells — rate {} too low",
            o.rate
        )));
    }

    let mut drill_seeds = SplitMix64::new(o.seed ^ 0xD2_11);
    for drill in ["state_bit", "splice_vol"] {
        run_drill(o, drill_seeds.next_u64(), drill)?;
    }
    println!(
        "campaign: {cells} cells, {total_injected} faults injected, 100% recovered or detected; \
         2/2 corruption drills caught"
    );
    Ok(())
}

// ---------------------------------------------------------------------
// `svc-sim serve`: the long-running soak server
// ---------------------------------------------------------------------

/// SIGINT/SIGTERM handling for `serve`. A handler may only do
/// async-signal-safe work, so it just raises an atomic flag that the
/// soak observer polls between ticks — the shutdown path then runs on
/// the main thread (final snapshot flush, HTTP server join).
mod shutdown {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handle(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the flag-raising handler for SIGINT and SIGTERM.
    pub fn install() {
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    /// Whether a shutdown signal has arrived.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// The `svc-profile/v1` document served at `/profile`: the soak-wide
/// rolling interval window wrapped in the same envelope the experiment
/// binaries publish, so existing tooling parses it unchanged.
fn serve_profile_doc(cfg: &soak::SoakConfig, state: &soak::SoakState) -> Json {
    let run = Json::obj()
        .set("workload", "soak".into())
        .set("memory", "svc".into())
        .set("seed", cfg.seed.into())
        .set(
            "profile",
            report::profile_report_json(&state.profile_report(cfg)),
        );
    report::profile_doc("soak", cfg.slice_budget, cfg.seed, vec![run])
}

/// One deterministic stdout line per tick, so bounded soaks are
/// byte-identical across invocations for a given seed.
fn serve_tick_line(s: &soak::SoakState) -> String {
    format!(
        "tick {:>6} mix={:<18} cycles={} instrs={} squashes={} faults={} storm={}",
        s.ticks,
        s.last_mix,
        s.cycles,
        s.committed_instrs,
        s.squashes,
        s.faults_injected,
        if s.storm_active { "yes" } else { "no" }
    )
}

/// `svc-sim serve`: run the soak loop (unbounded unless `--ticks N`)
/// while exporting `/metrics`, `/profile` and `/healthz` over HTTP,
/// then flush the `svc-soak/v1` snapshot on exit.
fn cmd_serve(o: &Options, run: &RunOptions) -> Result<(), CliError> {
    let storm = match &o.storm {
        Some(spec) => StormSchedule::parse(spec).map_err(CliError::Usage)?,
        None => StormSchedule::default(),
    };
    let cfg = soak::SoakConfig {
        seed: o.seed,
        ticks: o.ticks,
        slice_budget: o.slice_budget,
        kb: o.kb,
        pus: o.pus,
        storm,
        ..soak::SoakConfig::default()
    };
    serve_soak(o, run, cfg, None)
}

/// The serve loop proper, shared by `serve` (fresh state) and `resume`
/// (state restored from a soak checkpoint). Destinations are probed at
/// startup so an unwritable `--out` or `--checkpoint-dir` is a typed
/// I/O failure (exit 3) before the soak starts, not a panic hours in.
fn serve_soak(
    o: &Options,
    run: &RunOptions,
    cfg: soak::SoakConfig,
    resume: Option<soak::SoakState>,
) -> Result<(), CliError> {
    let out_path = match &o.out {
        Some(p) => std::path::PathBuf::from(p),
        None => run.results_dir.join("soak.json"),
    };
    probe_writable(&out_path)?;
    let mut ring = match &o.checkpoint_dir {
        Some(dir) => {
            let dir = std::path::PathBuf::from(dir);
            std::fs::create_dir_all(&dir).map_err(|e| CliError::io(dir.display(), e))?;
            probe_writable(&dir.join("ckpt"))?;
            let ring = CheckpointRing::open(&dir, o.checkpoint_keep)
                .map_err(|e| CliError::io(dir.display(), e))?;
            eprintln!(
                "serve: checkpointing to {} (every {} tick(s), keep {})",
                dir.display(),
                o.checkpoint_every.max(1),
                o.checkpoint_keep
            );
            Some(ring)
        }
        None => None,
    };
    let every = o.checkpoint_every.max(1);

    shutdown::install();
    let shared = shared_snapshot();
    let server = TelemetryServer::bind(&format!("127.0.0.1:{}", o.port), shared.clone())
        .map_err(|e| CliError::io("telemetry bind", e))?;
    // The ephemeral port goes to stderr (and optionally a file), never
    // stdout: stdout is the byte-deterministic soak log.
    eprintln!("serve: listening on http://{}", server.local_addr());
    eprintln!("serve: endpoints /metrics /profile /healthz");
    if let Some(path) = &o.addr_file {
        report::write_atomic(
            std::path::Path::new(path),
            server.local_addr().to_string().as_bytes(),
        )
        .map_err(|e| CliError::io(path, e))?;
    }
    // Seed `/healthz` before the first tick so early scrapes see a
    // well-formed body rather than an empty one.
    if let Ok(mut snap) = shared.lock() {
        snap.healthz_json = Json::obj().set("status", "starting".into()).render();
    }
    // (seq, tick) of the last checkpoint this process wrote; surfaced
    // in `/healthz` so operators can watch checkpoint freshness. The
    // observer lives in its own scope so its `ring` borrow ends before
    // the final checkpoint below.
    let state = {
        let mut last_ckpt: Option<(u64, u64)> = None;
        // Checkpoint write telemetry (count, last/total wall latency).
        // Wall-clock data stays in this process's exporter copy of the
        // registry and never enters SoakState, so `results/soak.json`
        // remains a pure function of (seed, ticks).
        let mut ckpt_writes = 0u64;
        let mut ckpt_last_micros = 0u64;
        let mut ckpt_total_micros = 0u64;
        let mut observer = |s: &soak::SoakState| {
            println!("{}", serve_tick_line(s));
            if let Some(ring) = ring.as_mut() {
                if s.ticks.is_multiple_of(every) {
                    let payload = soak::soak_ckpt_payload(&cfg, s);
                    let write_started = std::time::Instant::now();
                    match ring.write(soak::SOAK_CKPT_KIND, &payload) {
                        Ok(_) => {
                            last_ckpt = Some((ring.next_seq().saturating_sub(1), s.ticks));
                            ckpt_writes += 1;
                            ckpt_last_micros = write_started.elapsed().as_micros() as u64;
                            ckpt_total_micros += ckpt_last_micros;
                        }
                        // A full disk mid-soak degrades checkpointing,
                        // not the soak itself.
                        Err(e) => eprintln!("serve: checkpoint write failed (continuing): {e}"),
                    }
                }
            }
            if let Ok(mut snap) = shared.lock() {
                let mut reg = s.metrics();
                if let Some((seq, tick)) = last_ckpt {
                    reg.counter("soak.checkpoint_writes", ckpt_writes);
                    reg.gauge_with("soak.checkpoint", &[("field", "seq")], seq as f64);
                    reg.gauge_with(
                        "soak.checkpoint",
                        &[("field", "age_ticks")],
                        s.ticks.saturating_sub(tick) as f64,
                    );
                    reg.gauge_with(
                        "soak.checkpoint_write_micros",
                        &[("stat", "last")],
                        ckpt_last_micros as f64,
                    );
                    reg.gauge_with(
                        "soak.checkpoint_write_micros",
                        &[("stat", "total")],
                        ckpt_total_micros as f64,
                    );
                }
                snap.metrics_text = reg.render_prometheus();
                snap.profile_json = serve_profile_doc(&cfg, s).render();
                let mut hz = soak::healthz_json(s);
                if let Some((seq, tick)) = last_ckpt {
                    hz = hz.set(
                        "checkpoint",
                        Json::obj()
                            .set("seq", seq.into())
                            .set("age_ticks", s.ticks.saturating_sub(tick).into())
                            .set("valid", true.into()),
                    );
                }
                snap.healthz_json = hz.render();
            }
            !shutdown::requested()
        };
        match resume {
            Some(s) => soak::run_soak_from(&cfg, s, &mut observer),
            None => soak::run_soak(&cfg, &mut observer),
        }
    };
    // Final checkpoint at the stopping tick, so a `resume` after a clean
    // shutdown continues from exactly where the soak stopped.
    if let Some(ring) = ring.as_mut() {
        let payload = soak::soak_ckpt_payload(&cfg, &state);
        if let Err(e) = ring.write(soak::SOAK_CKPT_KIND, &payload) {
            eprintln!("serve: final checkpoint write failed: {e}");
        }
    }
    server.shutdown();
    let doc = soak::soak_doc(&cfg, &state);
    let path = out_path;
    report::write_atomic(&path, doc.render().as_bytes())
        .map_err(|e| CliError::io(path.display(), e))?;
    eprintln!("serve: snapshot -> {}", path.display());
    println!(
        "soak: {} ticks, {} cycles, {} instrs, {} tasks, {} squashes, {} faults, {} storms, {} watchdog violations",
        state.ticks,
        state.cycles,
        state.committed_instrs,
        state.committed_tasks,
        state.squashes,
        state.faults_injected,
        state.storms_started,
        state.watchdog_violations
    );
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: svc-sim run|trace|profile|designs|faults|serve|resume|list [flags] (see `cargo doc`)"
            );
            return ExitCode::from(svc_repro::bench::cli::EXIT_USAGE);
        }
    };
    let result = if opts.command == "resume" {
        cmd_resume(&opts)
    } else {
        run_options(&opts, None).and_then(|run| match opts.command.as_str() {
            "list" => {
                cmd_list();
                Ok(())
            }
            "run" => cmd_run(&opts, &run),
            "trace" => cmd_trace(&opts, &run),
            "profile" => cmd_profile(&opts, &run),
            "faults" => cmd_faults(&opts),
            "serve" => cmd_serve(&opts, &run),
            _ => cmd_designs(&opts),
        })
    };
    svc_repro::bench::cli::exit_report(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = parse(&argv("run")).unwrap();
        assert_eq!(o.command, "run");
        assert_eq!(o.memory, "svc");
        assert_eq!(o.kb, 8);
        assert_eq!(o.budget, 200_000);
    }

    #[test]
    fn parse_flags() {
        let o = parse(&argv(
            "run --bench mgrid --memory arb --hit 3 --kb 64 --budget 5000 --seed 9 --pus 8",
        ))
        .unwrap();
        assert_eq!(o.bench.as_deref(), Some("mgrid"));
        assert_eq!(o.memory, "arb");
        assert_eq!(o.hit, 3);
        assert_eq!(o.kb, 64);
        assert_eq!(o.budget, 5000);
        assert_eq!(o.seed, 9);
        assert_eq!(o.pus, 8);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse(&argv("")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --bench gcc --kernel reduction")).is_err());
        assert!(parse(&argv("run --memory weird")).is_err());
        assert!(parse(&argv("run --budget notanumber")).is_err());
        assert!(parse(&argv("run --budget")).is_err());
        // The parallel engine's lane flag is gone: old scripts get a
        // usage error rather than a silently ignored option.
        for cmd in ["run", "serve", "resume ckpt"] {
            assert_eq!(
                parse(&argv(&format!("{cmd} --engine-threads 2"))).unwrap_err(),
                "unknown flag \"--engine-threads\""
            );
        }
    }

    #[test]
    fn parse_json_flag() {
        assert!(!parse(&argv("run")).unwrap().json);
        assert!(parse(&argv("run --json --bench gcc")).unwrap().json);
    }

    #[test]
    fn parse_replay_flag() {
        let o = parse(&argv("run --replay foo.trace")).unwrap();
        assert_eq!(o.replay.as_deref(), Some("foo.trace"));
        assert!(parse(&argv("run --replay f --kernel reduction")).is_err());
    }

    #[test]
    fn parse_trace_flags() {
        let o = parse(&argv("run --trace")).unwrap();
        assert!(o.trace);
        assert_eq!(o.trace_filter, "all");
        let o = parse(&argv(
            "run --trace --trace-filter bus,task --trace-out /tmp/t",
        ))
        .unwrap();
        assert_eq!(o.trace_filter, "bus,task");
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/t"));
        // A bad filter fails at parse time, not after the run.
        assert!(parse(&argv("run --trace --trace-filter nonsense")).is_err());
        // --trace-filter without --trace is accepted but unvalidated
        // only when tracing is off for a plain run.
        assert!(parse(&argv("run --trace-filter bus")).is_ok());
    }

    #[test]
    fn parse_trace_subcommand() {
        let o = parse(&argv("trace --addr 128 --bench gcc")).unwrap();
        assert_eq!(o.command, "trace");
        assert_eq!(o.addr, Some(128));
        assert!(
            parse(&argv("trace --bench gcc")).is_err(),
            "--addr required"
        );
        assert!(parse(&argv("trace --addr 1 --trace-filter bogus")).is_err());
    }

    #[test]
    fn parse_profile_flags() {
        assert!(!parse(&argv("run")).unwrap().profile);
        assert!(parse(&argv("run --profile --bench gcc")).unwrap().profile);
        // --profile-out implies --profile.
        let o = parse(&argv("run --profile-out /tmp/p.json")).unwrap();
        assert!(o.profile);
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/p.json"));
        assert!(parse(&argv("run --profile-out")).is_err());
    }

    #[test]
    fn parse_analyze_flags() {
        // --analyze rides on a captured trace.
        assert!(parse(&argv("run --analyze")).is_err());
        assert!(parse(&argv("run --trace --analyze")).unwrap().analyze);
        // --analyze-out implies --analyze.
        let o = parse(&argv("run --trace --analyze-out /tmp/a.json")).unwrap();
        assert!(o.analyze);
        assert_eq!(o.analyze_out.as_deref(), Some("/tmp/a.json"));
        // --json keeps stdout a single document, so the analysis needs
        // its own sink.
        assert!(parse(&argv("run --trace --json --analyze")).is_err());
        assert!(parse(&argv("run --trace --json --analyze-out /tmp/a.json")).is_ok());
        // Only `run` analyzes.
        assert!(parse(&argv("serve --analyze")).is_err());
    }

    #[test]
    fn parse_profile_subcommand() {
        let o = parse(&argv("profile --kernel reduction --json")).unwrap();
        assert_eq!(o.command, "profile");
        assert!(o.profile, "profile subcommand is always profiled");
        assert!(o.json);
    }

    #[test]
    fn parse_serve_defaults() {
        let o = parse(&argv("serve")).unwrap();
        assert_eq!(o.command, "serve");
        assert_eq!(o.port, 0, "ephemeral port by default");
        assert_eq!(o.ticks, 0, "unbounded by default");
        assert_eq!(o.slice_budget, 20_000);
        assert!(o.storm.is_none());
        assert!(o.addr_file.is_none());
        assert!(o.out.is_none());
    }

    #[test]
    fn parse_serve_flags() {
        let o = parse(&argv(
            "serve --port 9100 --ticks 24 --seed 7 --slice-budget 5000 \
             --storm period=6,duration=2,rate=0.1 --addr-file /tmp/a --out /tmp/s.json",
        ))
        .unwrap();
        assert_eq!(o.port, 9100);
        assert_eq!(o.ticks, 24);
        assert_eq!(o.seed, 7);
        assert_eq!(o.slice_budget, 5000);
        assert_eq!(o.storm.as_deref(), Some("period=6,duration=2,rate=0.1"));
        assert_eq!(o.addr_file.as_deref(), Some("/tmp/a"));
        assert_eq!(o.out.as_deref(), Some("/tmp/s.json"));
    }

    #[test]
    fn parse_serve_rejects_bad_input() {
        assert!(parse(&argv("serve --port notaport")).is_err());
        assert!(parse(&argv("serve --slice-budget 0")).is_err());
        // Bad storm specs fail at parse time, not hours into a soak.
        assert!(parse(&argv("serve --storm period=0")).is_err());
        assert!(parse(&argv("serve --storm bogus=1")).is_err());
    }

    #[test]
    fn lookups() {
        assert!(lookup_bench("gcc").is_ok());
        assert!(lookup_bench("nope").is_err());
        assert!(lookup_kernel("reduction", 1).is_ok());
        assert!(lookup_kernel("nope", 1).is_err());
    }

    #[test]
    fn parse_checkpoint_flags() {
        let o = parse(&argv(
            "run --bench gcc --checkpoint-out /tmp/c.svc --checkpoint-every 5000",
        ))
        .unwrap();
        assert_eq!(o.checkpoint_out.as_deref(), Some("/tmp/c.svc"));
        assert_eq!(o.checkpoint_every, 5000);

        // --checkpoint-out alone gets the default cadence.
        let o = parse(&argv("run --checkpoint-out /tmp/c.svc")).unwrap();
        assert_eq!(o.checkpoint_every, 250_000);

        let o = parse(&argv(
            "serve --checkpoint-dir /tmp/ring --checkpoint-keep 2",
        ))
        .unwrap();
        assert_eq!(o.checkpoint_dir.as_deref(), Some("/tmp/ring"));
        assert_eq!(o.checkpoint_keep, 2);
        // serve checkpoints every tick unless told otherwise.
        assert_eq!(o.checkpoint_every, 1);
    }

    #[test]
    fn parse_checkpoint_rejects_bad_combinations() {
        // A cadence with nowhere to write.
        assert!(parse(&argv("run --checkpoint-every 1000")).is_err());
        // Tracing and checkpointing are mutually exclusive.
        assert!(parse(&argv("run --trace --checkpoint-out /tmp/c.svc")).is_err());
        // The ring must keep at least one checkpoint.
        assert!(parse(&argv("serve --checkpoint-dir /tmp/r --checkpoint-keep 0")).is_err());
    }

    #[test]
    fn parse_resume_subcommand() {
        let o = parse(&argv("resume /tmp/ring --ticks 50 --json")).unwrap();
        assert_eq!(o.command, "resume");
        assert_eq!(o.resume_path.as_deref(), Some("/tmp/ring"));
        assert_eq!(o.ticks, 50);
        assert!(o.json);
        // The checkpoint (file or ring directory) is mandatory.
        assert!(parse(&argv("resume")).is_err());
    }
}
