//! Benchmark trajectory driver: regenerates the `BENCH_experiments.json`
//! perf snapshot and reports how simulator throughput moved.
//!
//! Two modes:
//!
//! * `bench` — rotates the snapshot (current `experiments` become
//!   `previous`), reruns every experiment binary so each merges a fresh
//!   self-measurement back in, then prints the per-experiment and
//!   aggregate `sim_cycles_per_sec` speedups the snapshot now carries.
//!   The experiment documents under `results/` are regenerated too and
//!   must stay byte-identical — wall-clock data never leaks into them.
//! * `bench --cell` — a seconds-scale CI probe: times one grid cell
//!   in-process (best of three) and prints its throughput next to the
//!   committed snapshot's aggregate. Informational only; timing on
//!   shared CI runners is too noisy to gate on, so this always exits 0.

use std::process::Command;
use std::time::Instant;

use svc_bench::options::{self, RunOptions};
use svc_bench::report::{self, Json};
use svc_bench::{cli, run_spec95_with, MemoryKind, PAPER_SEED};
use svc_workloads::Spec95;

/// Every binary that contributes an entry to the snapshot, in sweep
/// order.
const EXPERIMENTS: [&str; 5] = ["motivation", "paper", "scaling", "scaling-xl", "ablations"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = RunOptions::parse(options::env).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(i32::from(cli::EXIT_USAGE));
    });
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => full_sweep(&opts),
        ["--cell"] => cell_probe(&opts),
        _ => {
            eprintln!(
                "usage error: bench takes no arguments or --cell (got {args:?}); \
                 configure it via SVC_EXPERIMENT_BUDGET / SVC_BENCH_SNAPSHOT"
            );
            std::process::exit(i32::from(cli::EXIT_USAGE));
        }
    }
}

fn full_sweep(opts: &RunOptions) {
    cli::check_io("rotate snapshot", report::rotate_snapshot(&opts.snapshot));
    println!(
        "bench: rotated {} (experiments -> previous)",
        opts.snapshot.display()
    );

    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .unwrap_or_default();
    for name in EXPERIMENTS {
        let bin = exe_dir.join(name);
        print!("bench: running {name} ... ");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        let started = Instant::now();
        let status = Command::new(&bin)
            .stdout(std::process::Stdio::null())
            .status();
        match status {
            Ok(s) if s.code() == Some(0) || s.code() == Some(1) => {
                // Exit 1 is a shape-check miss, not a harness failure;
                // the snapshot entry was still recorded.
                println!(
                    "done in {:.1}s{}",
                    started.elapsed().as_secs_f64(),
                    if s.code() == Some(1) {
                        " (shape checks failed)"
                    } else {
                        ""
                    }
                );
            }
            Ok(s) => {
                eprintln!("bench: {name} failed with {s}");
                std::process::exit(i32::from(cli::EXIT_IO));
            }
            Err(e) => {
                eprintln!("bench: cannot run {}: {e}", bin.display());
                std::process::exit(i32::from(cli::EXIT_IO));
            }
        }
    }

    let doc = read_snapshot(opts);
    print_trajectory(&doc);
}

/// Prints the per-experiment throughput table and the aggregate speedup
/// the snapshot's `speedup` section carries.
fn print_trajectory(doc: &Json) {
    let Some(experiments) = doc.get("experiments").and_then(Json::as_obj) else {
        println!("bench: snapshot has no experiments section");
        return;
    };
    let speedup = doc.get("speedup");
    let per = speedup.and_then(|s| s.get("per_experiment"));
    println!(
        "\n{:<12} {:>16} {:>9}",
        "experiment", "sim_cycles/s", "speedup"
    );
    for (name, entry) in experiments {
        let cps = entry
            .get("sim_cycles_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let ratio = per.and_then(|p| p.get(name)).and_then(Json::as_f64);
        match ratio {
            Some(r) => println!("{name:<12} {cps:>16.0} {r:>8.2}x"),
            None => println!("{name:<12} {cps:>16.0} {:>9}", "-"),
        }
    }
    match speedup
        .and_then(|s| s.get("aggregate"))
        .and_then(Json::as_f64)
    {
        Some(agg) => println!("\naggregate speedup vs previous sweep: {agg:.2}x"),
        None => println!("\nno previous sweep to compare against"),
    }
}

/// One small in-process cell, timed best-of-three: ijpeg on the final
/// SVC design at a fraction of the default budget.
fn cell_probe(opts: &RunOptions) {
    const BUDGET: u64 = 100_000;
    let memory = MemoryKind::Svc { kb_per_cache: 8 };
    let mut best_cps = 0.0f64;
    let mut cycles = 0u64;
    for _ in 0..3 {
        let started = Instant::now();
        let result = run_spec95_with(Spec95::Ijpeg, memory, BUDGET, PAPER_SEED, opts);
        let wall = started.elapsed().as_secs_f64();
        cycles = result.report.cycles;
        if wall > 0.0 {
            best_cps = best_cps.max(cycles as f64 / wall);
        }
    }
    println!(
        "bench --cell: ijpeg/SVC-4x8KB {cycles} cycles, best of 3: {best_cps:.0} sim cycles/s"
    );
    let doc = read_snapshot(opts);
    if let Some((cycles_sum, wall_sum)) = snapshot_totals(&doc) {
        let snapshot_cps = cycles_sum / wall_sum;
        println!(
            "bench --cell: committed snapshot aggregate {snapshot_cps:.0} sim cycles/s \
             (this cell: {:+.1}%, informational only)",
            (best_cps / snapshot_cps - 1.0) * 100.0
        );
    }
}

/// Total `(sim_cycles, wall_s)` over the snapshot's experiments.
fn snapshot_totals(doc: &Json) -> Option<(f64, f64)> {
    let experiments = doc.get("experiments")?.as_obj()?;
    let mut cycles = 0.0;
    let mut wall = 0.0;
    for (_, e) in experiments {
        cycles += e.get("sim_cycles")?.as_f64()?;
        wall += e.get("wall_s")?.as_f64()?;
    }
    (wall > 0.0).then_some((cycles, wall))
}

fn read_snapshot(opts: &RunOptions) -> Json {
    std::fs::read_to_string(&opts.snapshot)
        .ok()
        .and_then(|text| report::parse(&text).ok())
        .unwrap_or_else(Json::obj)
}
