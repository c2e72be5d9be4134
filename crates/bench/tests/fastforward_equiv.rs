//! Differential test for the idle-cycle fast-forward: jumping the clock
//! over provably-idle cycles must be invisible in every serialized
//! artifact. [`RunOptions::step_every_cycle`] selects the reference
//! cycle-by-cycle scheduler; each test runs the same work both ways and
//! demands byte-identical JSON.

use svc_bench::harness::job_seeds;
use svc_bench::report::{self, Json};
use svc_bench::{
    cross, run_derived_grid, run_spec95_with, ExperimentResult, MemoryKind, RunOptions, PAPER_SEED,
};
use svc_workloads::Spec95;

/// The regression gate's pinned 12-cell grid (`regress.rs` constants),
/// at a smaller budget so the doubled sweep stays seconds-scale.
const GRID_SEED: u64 = 0xB5E1;
const BUDGET: u64 = 20_000;
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

/// `opts` with the reference scheduler (`step`) or the fast-forwarding
/// one.
fn stepping(step: bool, opts: &RunOptions) -> RunOptions {
    RunOptions {
        step_every_cycle: step,
        ..opts.clone()
    }
}

/// Renders the pinned grid as a full `svc-experiments/v1` document.
fn grid_doc(opts: &RunOptions) -> String {
    let jobs = cross(&BENCHES, &MEMORIES);
    let seeds = job_seeds(GRID_SEED, jobs.len());
    let runs = run_derived_grid(&jobs, GRID_SEED, BUDGET, opts)
        .iter()
        .zip(&seeds)
        .map(|(r, &s)| report::experiment_result_json(r, s))
        .collect();
    report::experiment_doc("fastforward-equiv", BUDGET, GRID_SEED, runs).render()
}

/// Renders one cell (run report + metrics registry) as JSON.
fn cell_json(result: &ExperimentResult) -> String {
    report::experiment_result_json(result, PAPER_SEED).render()
}

#[test]
fn fastforward_grid_is_byte_identical_to_cycle_by_cycle() {
    let opts = RunOptions::default();
    let fast_grid = grid_doc(&stepping(false, &opts));
    assert_eq!(
        grid_doc(&stepping(true, &opts)),
        fast_grid,
        "fast-forward changed the pinned 12-cell grid document"
    );
    // Sanity: the documents carry real runs, not empty grids.
    let doc = report::parse(&fast_grid).expect("grid doc parses");
    assert_eq!(
        doc.get("runs").and_then(Json::as_arr).map(<[_]>::len),
        Some(12)
    );
}

/// One faulted campaign cell: every injection site live at a rate that
/// fires often on this budget. Fast-forward must self-disable under an
/// active injector (sites draw from per-site streams once per scheduler
/// iteration, so skipped iterations would change the fault timeline).
#[test]
fn fastforward_faulted_cell_is_byte_identical_to_cycle_by_cycle() {
    let opts =
        RunOptions::parse(|name| (name == "SVC_FAULTS").then(|| "all=0.01, penalty=5".to_string()))
            .expect("fault spec parses");
    let cell = |step| {
        let memory = MemoryKind::Svc { kb_per_cache: 8 };
        let result = run_spec95_with(
            Spec95::Gcc,
            memory,
            BUDGET,
            PAPER_SEED,
            &stepping(step, &opts),
        );
        cell_json(&result)
    };
    assert_eq!(
        cell(true),
        cell(false),
        "fast-forward changed a faulted campaign cell"
    );
}

/// One profiled cell: the interval sampler's rows must land on the same
/// cycles (fast-forward clamps jumps at sample boundaries) and the
/// stall-bucket conservation invariant must hold either way.
#[test]
fn fastforward_profiled_cell_is_byte_identical_to_cycle_by_cycle() {
    let opts = RunOptions {
        profile: true,
        ..RunOptions::default()
    };
    let cell = |step| {
        let memory = MemoryKind::Svc { kb_per_cache: 8 };
        let result = run_spec95_with(
            Spec95::Mgrid,
            memory,
            BUDGET,
            PAPER_SEED,
            &stepping(step, &opts),
        );
        let profile = result.profile.as_ref().expect("profiling on");
        assert!(
            profile.conservation_ok(),
            "stall attribution violates conservation: expected {}, attributed {}",
            profile.expected(),
            profile.attributed()
        );
        format!(
            "{}{}",
            cell_json(&result),
            report::profile_report_json(profile).render()
        )
    };
    assert_eq!(
        cell(true),
        cell(false),
        "fast-forward changed a profiled cell or its stall attribution"
    );
}
