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
    cli, run_journaled_grid, run_source, spec95_config, write_paper_docs, GridJob, MemoryKind,
    PAPER_SEED,
};
use svc_multiscalar::EngineConfig;
use svc_sim::table::{fmt_ipc, fmt_ratio, Table};
use svc_workloads::Spec95;

const BENCHES: [Spec95; 3] = [Spec95::Gcc, Spec95::Ijpeg, Spec95::Mgrid];
const PUS: [usize; 3] = [64, 128, 256];

fn main() {
    let opts = cli::experiment_options("scaling-xl");
    let budget = opts.budget.unwrap_or(400_000);
    let mut jobs = Vec::new();
    for bench in BENCHES {
        for num_pus in PUS {
            jobs.push(GridJob {
                bench,
                memory: MemoryKind::Svc { kb_per_cache: 8 },
                num_pus,
            });
        }
    }
    let results = run_journaled_grid(&jobs, PAPER_SEED, budget, &opts, |job, _derived| {
        let cfg = EngineConfig {
            // The safety stop must clear a multi-billion-cycle budget:
            // hundreds of PUs on one snooping bus serialize hard, so
            // cycles per committed instruction balloon far beyond the
            // small-machine grids.
            max_cycles: u64::MAX / 4,
            ..spec95_config(job.bench, job.num_pus, budget, PAPER_SEED)
        };
        run_source(&job.bench.workload(PAPER_SEED), job.memory, cfg, &opts)
    });

    let mut t = Table::new(
        ["bench", "PUs", "IPC", "IPC/PU", "bus util"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for (bi, bench) in BENCHES.into_iter().enumerate() {
        for (pi, pus) in PUS.into_iter().enumerate() {
            let r = &results[bi * PUS.len() + pi];
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
        write_paper_docs("scaling-xl", budget, &results, &opts),
    );
}
