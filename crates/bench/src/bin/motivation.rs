//! The paper's §1 motivation, quantified: three generations of
//! speculative-versioning hardware on the same workloads.
//!
//! * a centralized **load/store queue** — works, but its capacity (number
//!   of buffered stores) and its single shared port limit speculation;
//! * the **ARB** — tracks addresses instead of stores, fixing capacity,
//!   but still a shared structure whose hit latency taxes every access;
//! * the **SVC** — private caches: 1-cycle hits, capacity scales with
//!   PUs, at the cost of a snooping bus and lower hit rates.
//!
//! The 12-cell grid runs through the parallel harness and writes
//! `results/motivation.json`.
//!
//! Run: `cargo run --release -p svc-bench --bin motivation`

use svc::{SvcConfig, SvcSystem};
use svc_arb::{ArbConfig, ArbSystem};
use svc_bench::{
    cli, harness, spec95_config, write_paper_docs, ExperimentResult, RunOptions, NUM_PUS,
    PAPER_SEED,
};
use svc_lsq::{LsqConfig, LsqMemory};
use svc_multiscalar::{Engine, RunReport};
use svc_sim::profile::Profiler;
use svc_sim::table::{fmt_ipc, Table};
use svc_types::VersionedMemory;
use svc_workloads::Spec95;

#[derive(Debug, Clone, Copy)]
enum Design {
    Lsq16,
    Lsq64,
    Arb2,
    Svc,
}

impl Design {
    const ALL: [Design; 4] = [Design::Lsq16, Design::Lsq64, Design::Arb2, Design::Svc];

    fn label(self) -> &'static str {
        match self {
            Design::Lsq16 => "LSQ-16",
            Design::Lsq64 => "LSQ-64",
            Design::Arb2 => "ARB-2c-32KB",
            Design::Svc => "SVC-4x8KB",
        }
    }
}

fn run<M: VersionedMemory>(mem: M, bench: Spec95, budget: u64, profiler: &Profiler) -> RunReport {
    let mut engine = Engine::new(spec95_config(bench, NUM_PUS, budget, PAPER_SEED), mem);
    engine.set_profiler(profiler.clone());
    engine.run(&bench.workload(PAPER_SEED))
}

fn run_cell(bench: Spec95, design: Design, budget: u64, opts: &RunOptions) -> ExperimentResult {
    // The LSQ designs predate the profiler's memory-side hooks, so their
    // memory time profiles as generic latency; the ARB and SVC report
    // their full decompositions.
    let profiler = opts.profiler(NUM_PUS);
    let report = match design {
        Design::Lsq16 => {
            let small = LsqConfig {
                store_entries: 16,
                load_entries: 16,
                ..LsqConfig::default()
            };
            run(LsqMemory::new(small), bench, budget, &profiler)
        }
        Design::Lsq64 => run(
            LsqMemory::new(LsqConfig::default()),
            bench,
            budget,
            &profiler,
        ),
        Design::Arb2 => {
            let mut mem = ArbSystem::new(ArbConfig::paper(NUM_PUS, 2, 32));
            mem.set_profiler(profiler.clone());
            run(mem, bench, budget, &profiler)
        }
        Design::Svc => {
            let mut mem = SvcSystem::new(SvcConfig::final_design(NUM_PUS));
            mem.set_profiler(profiler.clone());
            run(mem, bench, budget, &profiler)
        }
    };
    ExperimentResult {
        workload: bench.name().to_string(),
        memory: design.label().to_string(),
        ipc: report.ipc(),
        miss_ratio: report.mem.miss_ratio(),
        bus_utilization: report.bus_utilization(),
        profile: profiler.report(),
        report,
    }
}

const BENCHES: [Spec95; 3] = [Spec95::Compress, Spec95::Gcc, Spec95::Mgrid];

fn main() {
    let opts = cli::experiment_options("motivation");
    let budget = opts.budget.unwrap_or(300_000);
    let mut jobs = Vec::new();
    for bench in BENCHES {
        for design in Design::ALL {
            jobs.push((bench, design));
        }
    }
    let results = harness::run_grid(
        &jobs,
        PAPER_SEED,
        opts.threads,
        |&(bench, design), _derived| run_cell(bench, design, budget, &opts),
    );

    let mut t = Table::new(
        ["bench", "LSQ-16", "LSQ-64", "ARB-2c", "SVC", "LSQ16 stalls"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    let mut ok = true;
    for (bi, bench) in BENCHES.into_iter().enumerate() {
        let row = &results[bi * Design::ALL.len()..(bi + 1) * Design::ALL.len()];
        let (lsq16, lsq64, arb, svc) = (&row[0], &row[1], &row[2], &row[3]);
        t.row(vec![
            bench.name().into(),
            fmt_ipc(lsq16.ipc),
            fmt_ipc(lsq64.ipc),
            fmt_ipc(arb.ipc),
            fmt_ipc(svc.ipc),
            format!("{}", lsq16.report.mem.replacement_stalls),
        ]);
        // The capacity story: the small queue must visibly stall.
        ok &= lsq16.report.mem.replacement_stalls > lsq64.report.mem.replacement_stalls;
        ok &= lsq16.ipc <= lsq64.ipc + 0.02;
    }
    println!("Motivation (paper §1): LSQ -> ARB -> SVC\n");
    println!("{}", t.render());
    println!("LSQ-16/LSQ-64: 16- vs 64-entry store/load queues (capacity stalls);");
    println!("ARB-2c: contention-free shared buffer, 2-cycle hits; SVC: 4x8KB.");
    cli::check_io(
        "results/motivation.json",
        write_paper_docs("motivation", budget, &results, &opts),
    );
    std::process::exit(i32::from(!ok));
}
