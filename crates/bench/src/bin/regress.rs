//! The regression gate: re-runs a fixed, fast experiment grid and diffs
//! the fresh metrics against the checked-in baseline
//! (`results/baseline.json`), exiting non-zero on drift.
//!
//! The grid is pinned — fixed benchmarks, memory systems, budget and
//! grid seed, with harness-derived per-job seeds — and deliberately
//! ignores `SVC_EXPERIMENT_BUDGET` so the gate measures the simulator,
//! not the environment. Per-metric tolerances absorb honest noise-level
//! refactors while still catching behavioral drift:
//!
//! * `ipc`: ±5% relative;
//! * `miss_ratio`, `bus_utilization`: ±10% relative with a 0.005
//!   absolute floor (ratios near zero would make pure relative error
//!   hair-triggered).
//!
//! The grid runs under the failsafe harness, so a crashing cell does not
//! hide the health of the rest: each cell is classified `OK`, `DRIFT`
//! (ran, but a metric moved), `FAILED` (panicked or exhausted its cycle
//! cap — reported with the cell's seed for reproduction), or `MISSING`
//! (no baseline entry).
//!
//! The gate also re-runs the exhaustive model checker (`svc-check`) on
//! every design's pinned bounds and diffs the explored state/transition
//! counts against `results/check.json` — **exactly**, no tolerance:
//! exploration is deterministic, so a single state of drift means the
//! protocol's reachable behaviour changed.
//!
//! Usage: `regress` to check, `regress --update` to rewrite the
//! baseline (and `results/check.json`) after an intentional behavior
//! change.
//!
//! Exit codes: 0 clean, 1 drift, 2 usage, 3 baseline I/O,
//! 4 failed cells (simulator crash/timeout — worse than drift) or a
//! model-check property violation.

use std::process::ExitCode;

use svc_bench::cli::CliError;
use svc_bench::options::{self, RunOptions};
use svc_bench::report::{self, Json};
use svc_bench::{cross, run_derived_grid_failsafe, MemoryKind};
use svc_workloads::Spec95;

/// Pinned grid parameters. Changing any of these invalidates the
/// baseline — rerun with `--update`.
const GRID_SEED: u64 = 0xB5E1;
const BUDGET: u64 = 40_000;
const BENCHES: [Spec95; 3] = [Spec95::Gcc, Spec95::Ijpeg, Spec95::Mgrid];
const MEMORIES: [MemoryKind; 4] = [
    MemoryKind::Arb {
        hit_cycles: 1,
        cache_kb: 32,
    },
    MemoryKind::Arb {
        hit_cycles: 2,
        cache_kb: 32,
    },
    MemoryKind::Svc { kb_per_cache: 8 },
    MemoryKind::Svc { kb_per_cache: 16 },
];

/// (metric, relative tolerance, absolute floor).
///
/// `squashes`, `wasted_instrs` and `squash_recovery_cycles` are integer
/// counts on a fully deterministic grid, so any change of ±1 or more is
/// drift (the 0.5 floor only absorbs float round-trip noise);
/// `mshr_combine_rate` likewise must be bit-stable.
const TOLERANCES: [(&str, f64, f64); 7] = [
    ("ipc", 0.05, 0.0),
    ("miss_ratio", 0.10, 0.005),
    ("bus_utilization", 0.10, 0.005),
    ("squashes", 0.0, 0.5),
    ("wasted_instrs", 0.0, 0.5),
    ("squash_recovery_cycles", 0.0, 0.5),
    ("mshr_combine_rate", 0.0, 1e-9),
];

fn baseline_path(opts: &RunOptions) -> std::path::PathBuf {
    std::env::var_os("SVC_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| opts.results_dir.join("baseline.json"))
}

fn check_path(opts: &RunOptions) -> std::path::PathBuf {
    std::env::var_os("SVC_CHECK_BASELINE")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| opts.results_dir.join("check.json"))
}

/// Runs the model checker and diffs the explored counts against the
/// pinned `results/check.json`. Returns the number of drift complaints
/// (already printed); a property violation is fatal.
fn check_gate(opts: &RunOptions) -> Result<usize, CliError> {
    let fresh = svc_bench::checkgate::fresh_check_doc().map_err(CliError::Invariant)?;
    let path = check_path(opts);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        CliError::io(
            format!(
                "{} (run `regress --update` to create the check baseline)",
                path.display()
            ),
            e,
        )
    })?;
    let baseline = report::parse(&text).map_err(|e| {
        CliError::Io(format!(
            "check baseline {} is not valid JSON: {e}",
            path.display()
        ))
    })?;
    let complaints = svc_bench::checkgate::diff_check(&baseline, &fresh);
    for c in &complaints {
        println!("DRIFT check: {c}");
    }
    Ok(complaints.len())
}

struct Fresh {
    doc: Json,
    failures: Vec<svc_bench::harness::JobFailure>,
}

fn fresh_doc(opts: &RunOptions) -> Fresh {
    let jobs = cross(&BENCHES, &MEMORIES);
    let outcome = run_derived_grid_failsafe(&jobs, GRID_SEED, BUDGET, opts);
    let seeds = svc_bench::harness::job_seeds(GRID_SEED, jobs.len());
    let runs = outcome
        .results
        .iter()
        .zip(&seeds)
        .filter_map(|(r, &s)| r.as_ref().map(|r| report::experiment_result_json(r, s)))
        .collect();
    Fresh {
        doc: report::experiment_doc_failsafe("regress", BUDGET, GRID_SEED, runs, &outcome.failures),
        failures: outcome.failures,
    }
}

fn run_key(run: &Json) -> String {
    format!(
        "{}/{}",
        run.get("workload").and_then(Json::as_str).unwrap_or("?"),
        run.get("memory").and_then(Json::as_str).unwrap_or("?"),
    )
}

fn run(update: bool, opts: &RunOptions) -> Result<ExitCode, CliError> {
    let path = baseline_path(opts);
    let fresh = fresh_doc(opts);

    // Cells that never produced metrics: report them regardless of mode.
    // `FAILED` is a different statement than `DRIFT` — the simulator
    // crashed or ran out of cycles, so there is nothing to compare.
    let jobs = cross(&BENCHES, &MEMORIES);
    for f in &fresh.failures {
        let job = &jobs[f.index];
        println!(
            "FAILED {}/{}: {} after {} attempt(s) at seed {:#x}{}{}",
            job.bench.name(),
            job.memory.label(svc_bench::NUM_PUS),
            f.error.kind(),
            f.attempts,
            f.seed,
            if f.error.detail().is_empty() {
                ""
            } else {
                ": "
            },
            f.error.detail(),
        );
    }

    if update {
        if !fresh.failures.is_empty() {
            return Err(CliError::Invariant(format!(
                "refusing to update the baseline: {} grid cell(s) failed",
                fresh.failures.len()
            )));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir.display(), e))?;
        }
        svc_bench::report::write_atomic(&path, fresh.doc.render().as_bytes())
            .map_err(|e| CliError::io(path.display(), e))?;
        println!("baseline updated: {}", path.display());
        let check_doc = svc_bench::checkgate::fresh_check_doc().map_err(CliError::Invariant)?;
        let cpath = check_path(opts);
        svc_bench::report::write_atomic(&cpath, check_doc.render().as_bytes())
            .map_err(|e| CliError::io(cpath.display(), e))?;
        println!("check baseline updated: {}", cpath.display());
        return Ok(ExitCode::SUCCESS);
    }

    let text = std::fs::read_to_string(&path).map_err(|e| {
        CliError::io(
            format!(
                "{} (run `regress --update` to create a baseline)",
                path.display()
            ),
            e,
        )
    })?;
    let baseline = report::parse(&text).map_err(|e| {
        CliError::Io(format!(
            "baseline {} is not valid JSON: {e}",
            path.display()
        ))
    })?;

    let empty = [];
    let base_runs = baseline
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    let fresh_runs = fresh
        .doc
        .get("runs")
        .and_then(Json::as_arr)
        .expect("fresh runs");

    let mut drifted = 0;
    let mut compared = 0;
    for fresh_run in fresh_runs {
        let key = run_key(fresh_run);
        let Some(base_run) = base_runs.iter().find(|r| run_key(r) == key) else {
            println!("MISSING {key}: not in baseline (run `regress --update`?)");
            drifted += 1;
            continue;
        };
        for (metric, rel_tol, abs_floor) in TOLERANCES {
            let get = |run: &Json| run.get(metric).and_then(Json::as_f64);
            let (Some(base), Some(now)) = (get(base_run), get(fresh_run)) else {
                println!("MISSING {key}.{metric}");
                drifted += 1;
                continue;
            };
            compared += 1;
            let allowed = (base.abs() * rel_tol).max(abs_floor);
            let diff = (now - base).abs();
            if diff > allowed {
                println!(
                    "DRIFT {key}.{metric}: baseline {base:.4}, now {now:.4} \
                     (|diff| {diff:.4} > allowed {allowed:.4})"
                );
                drifted += 1;
            }
        }
    }
    // Exhaustive model-check gate: explored counts are pinned exactly.
    drifted += check_gate(opts)?;

    // Failed cells are absent from `runs`, so only flag a shape mismatch
    // the failures don't already explain.
    if base_runs.len() != fresh_runs.len() + fresh.failures.len() {
        println!(
            "GRID SHAPE: baseline has {} runs, fresh grid has {} (+{} failed)",
            base_runs.len(),
            fresh_runs.len(),
            fresh.failures.len()
        );
        drifted += 1;
    }

    if !fresh.failures.is_empty() {
        println!(
            "regress: {} cell(s) FAILED, {drifted} drift(s) against {}",
            fresh.failures.len(),
            path.display()
        );
        return Err(CliError::Invariant(format!(
            "{} grid cell(s) failed to produce metrics",
            fresh.failures.len()
        )));
    }
    if drifted == 0 {
        println!(
            "regress: {compared} metrics within tolerance of {}",
            path.display()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "regress: {drifted} drift(s) detected against {}",
            path.display()
        );
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    let mut update = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update" => update = true,
            other => {
                eprintln!("usage error: unknown argument {other:?}\nusage: regress [--update]");
                return ExitCode::from(svc_bench::cli::EXIT_USAGE);
            }
        }
    }
    match RunOptions::parse(options::env).and_then(|opts| run(update, &opts)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}
