//! The harness's core guarantee: the same grid seed produces
//! byte-identical JSON at any worker-thread count.

use svc_bench::harness::{job_seeds, run_grid};
use svc_bench::report::{experiment_doc, experiment_result_json};
use svc_bench::{cross, run_spec95_with, MemoryKind, RunOptions};
use svc_workloads::Spec95;

#[test]
fn same_grid_seed_is_byte_identical_at_1_2_and_8_threads() {
    const GRID_SEED: u64 = 0xDE7E; // any value; determinism is the point
    const BUDGET: u64 = 8_000;
    let jobs = cross(
        &[Spec95::Gcc, Spec95::Mgrid],
        &[
            MemoryKind::Svc { kb_per_cache: 8 },
            MemoryKind::Arb {
                hit_cycles: 2,
                cache_kb: 32,
            },
        ],
    );
    let seeds = job_seeds(GRID_SEED, jobs.len());
    let opts = RunOptions::default();
    let render = |threads: usize| {
        let results = run_grid(&jobs, GRID_SEED, threads, |job, seed| {
            run_spec95_with(job.bench, job.memory, BUDGET, seed, &opts)
        });
        let runs = results
            .iter()
            .zip(&seeds)
            .map(|(r, &s)| experiment_result_json(r, s))
            .collect();
        experiment_doc("determinism", BUDGET, GRID_SEED, runs).render()
    };
    let serial = render(1);
    for threads in [2, 8] {
        let parallel = render(threads);
        assert_eq!(
            serial, parallel,
            "JSON diverged between 1 and {threads} threads"
        );
    }
    // And the derived seeds actually vary by job (the paper binaries pin
    // theirs, but the harness stream must not be degenerate).
    assert!(seeds.windows(2).all(|w| w[0] != w[1]));
}
