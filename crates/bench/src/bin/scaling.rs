//! Scaling study (beyond the paper): how the SVC and the contention-free
//! ARB scale with processing-unit count on the SPEC95 models. The paper
//! flags the shared bus as the SVC's eventual bottleneck ("the shared
//! buffer is a potential bandwidth bottleneck" — of the ARB; the SVC
//! trades that for snooping-bus bandwidth); this quantifies where the
//! crossover sits.
//!
//! The 18-cell grid (3 benchmarks × 3 PU counts × 2 systems) runs
//! through the parallel harness and writes `results/scaling.json`; the
//! memory labels encode the PU count (e.g. `SVC-8x8KB`).

use svc_bench::{cli, run_paper_grid, write_paper_docs, GridJob, MemoryKind};
use svc_sim::table::{fmt_ipc, fmt_ratio, Table};
use svc_workloads::Spec95;

const BENCHES: [Spec95; 3] = [Spec95::Gcc, Spec95::Ijpeg, Spec95::Mgrid];
const PUS: [usize; 3] = [2, 4, 8];
const MEMORIES: [MemoryKind; 2] = [
    MemoryKind::Svc { kb_per_cache: 8 },
    MemoryKind::Arb {
        hit_cycles: 2,
        cache_kb: 32,
    },
];

fn main() {
    let opts = cli::experiment_options("scaling");
    let budget = opts.budget.unwrap_or(300_000);
    let mut jobs = Vec::new();
    for bench in BENCHES {
        for num_pus in PUS {
            for memory in MEMORIES {
                jobs.push(GridJob {
                    bench,
                    memory,
                    num_pus,
                });
            }
        }
    }
    let results = run_paper_grid(&jobs, budget, &opts);

    for (bi, bench) in BENCHES.into_iter().enumerate() {
        println!("scaling on {bench}:\n");
        let mut t = Table::new(
            ["PUs", "SVC IPC", "bus util", "ARB-2c IPC", "SVC/ARB"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        for (pi, pus) in PUS.into_iter().enumerate() {
            let base = (bi * PUS.len() + pi) * MEMORIES.len();
            let svc = &results[base];
            let arb = &results[base + 1];
            t.row(vec![
                format!("{pus}"),
                fmt_ipc(svc.ipc),
                fmt_ratio(svc.bus_utilization),
                fmt_ipc(arb.ipc),
                format!("{:.2}", svc.ipc / arb.ipc),
            ]);
        }
        println!("{}", t.render());
    }
    println!("Expected shape: both scale with PUs; the SVC's advantage narrows as");
    println!("its snooping bus saturates — the bandwidth ceiling the paper trades");
    println!("against the ARB's latency ceiling.");
    cli::check_io(
        "results/scaling.json",
        write_paper_docs("scaling", budget, &results, &opts),
    );
}
