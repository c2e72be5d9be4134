//! Extra-large scaling study: the SVC sharded far past the paper's
//! 4-8 PU design point (64/128/256 PUs), where one snooping bus serves
//! every cache and saturates from 64 PUs up. A single cell simulates
//! hundreds of PUs sequentially, so the family leans on two knobs:
//!
//! * `SVC_GRID_JOURNAL=dir` journals finished cells, so an interrupted
//!   multi-billion-cycle sweep resumes from the completed cells;
//! * `SVC_EXPERIMENT_BUDGET=N` scales the per-cell instruction budget
//!   (the committed default keeps regeneration tractable; push it up
//!   for the long-haul runs).
//!
//! The 9-cell grid (3 benchmarks × 3 PU counts, final SVC design) runs
//! through the parallel harness (cells in parallel, each cell on one
//! thread) and writes `results/scaling-xl.json`; memory labels encode
//! the PU count (e.g. `SVC-128x8KB`).

use svc_bench::{
    cli, harness, publish_paper_grid, run_source, MemoryKind, GRID_JOURNAL_ENV, PAPER_SEED,
};
use svc_multiscalar::EngineConfig;
use svc_sim::table::{fmt_ipc, fmt_ratio, Table};
use svc_workloads::Spec95;

const BENCHES: [Spec95; 3] = [Spec95::Gcc, Spec95::Ijpeg, Spec95::Mgrid];
const PUS: [usize; 3] = [64, 128, 256];
const MEMORY: MemoryKind = MemoryKind::Svc { kb_per_cache: 8 };

fn main() {
    cli::parse_profile_flag("scaling-xl");
    let budget: u64 = std::env::var("SVC_EXPERIMENT_BUDGET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400_000);
    let mut jobs = Vec::new();
    for bench in BENCHES {
        for pus in PUS {
            jobs.push((bench, pus));
        }
    }
    let run = |&(bench, pus): &(Spec95, usize), _derived: u64| {
        let wl = bench.workload(PAPER_SEED);
        let cfg = EngineConfig {
            num_pus: pus,
            predictor: wl.profile().predictor(PAPER_SEED),
            max_instructions: budget,
            // The safety stop must clear a multi-billion-cycle budget:
            // hundreds of PUs on one snooping bus serialize hard, so
            // cycles per committed instruction ballooon far beyond the
            // small-machine grids.
            max_cycles: u64::MAX / 4,
            seed: PAPER_SEED,
            garbage_addr_space: wl.profile().hot_set.max(64),
            load_dep_frac: wl.profile().load_dep_frac,
            ..EngineConfig::default()
        };
        run_source(&wl, MEMORY, cfg)
    };
    let outcome = match std::env::var_os(GRID_JOURNAL_ENV) {
        Some(dir) => {
            let sub = std::path::PathBuf::from(dir)
                .join(format!("scaling-xl-{PAPER_SEED:016x}-{:03}", jobs.len()));
            match harness::GridJournal::open(sub, PAPER_SEED) {
                Ok(journal) => harness::run_grid_resumable(
                    &jobs,
                    PAPER_SEED,
                    harness::threads_from_env(),
                    &journal,
                    |&(bench, pus)| format!("{}/SVC-{pus}x8KB", bench.name()),
                    run,
                ),
                Err(e) => {
                    eprintln!("grid journal unavailable (running without): {e}");
                    harness::run_grid(&jobs, PAPER_SEED, run)
                }
            }
        }
        None => harness::run_grid(&jobs, PAPER_SEED, run),
    };

    let mut t = Table::new(
        ["bench", "PUs", "IPC", "IPC/PU", "bus util"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for (bi, bench) in BENCHES.into_iter().enumerate() {
        for (pi, pus) in PUS.into_iter().enumerate() {
            let r = &outcome.results[bi * PUS.len() + pi];
            t.row(vec![
                bench.to_string(),
                format!("{pus}"),
                fmt_ipc(r.ipc),
                format!("{:.4}", r.ipc / pus as f64),
                fmt_ratio(r.bus_utilization),
            ]);
        }
    }
    println!("SVC far beyond the paper's design point:\n\n{}", t.render());
    println!("Expected shape: one snooping bus cannot feed hundreds of PUs — IPC");
    println!("per PU collapses as bus utilization pins at 1.0. The paper's shared-");
    println!("bus bottleneck, measured instead of argued.");
    cli::check_io(
        "results/scaling-xl.json",
        publish_paper_grid("scaling-xl", budget, &outcome),
    );
}
