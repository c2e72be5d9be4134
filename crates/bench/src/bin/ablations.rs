//! Ablation studies for the SVC's design choices (DESIGN.md §3): each
//! isolates one mechanism of the §3 progression on a kernel built to
//! stress it.
//!
//! * `commit`   — base flush-on-commit vs EC lazy commit (C bit);
//! * `squash`   — invalidate-all vs A-bit architectural retention;
//! * `snarf`    — HR snarfing on/off under read-only sharing;
//! * `linesize` — RL sub-block granularity vs line-granularity L/S bits
//!   under false sharing;
//! * `retain`   — §3.8.1's optional retention of flushed passive-dirty
//!   lines, on a slot-revisiting kernel;
//! * `l2`       — shared L2 behind the bus (extension beyond the paper);
//! * `protocol` — write-invalidate vs hybrid update–invalidate for
//!   producer→consumer communication.
//!
//! The 14 arms run through the parallel harness and land in
//! `results/ablations.json` (workload = study, memory = arm label).
//!
//! Run all: `cargo run --release -p svc-bench --bin ablations`

use svc::{SvcConfig, SvcSystem};
use svc_bench::{cli, harness, write_paper_docs, ExperimentResult, RunOptions, PAPER_SEED};
use svc_mem::CacheGeometry;
use svc_multiscalar::{Engine, EngineConfig, PredictorModel, TaskSource};
use svc_workloads::kernels;

/// One ablation arm: a kernel plus an SVC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    CommitEager,
    CommitLazy,
    SquashNoA,
    SquashA,
    SnarfOff,
    SnarfOn,
    LineGrain,
    WordGrain,
    RetainOff,
    RetainOn,
    L2Flat,
    L2On,
    ProtoInv,
    ProtoUpd,
}

/// (study, first arm + label, second arm + label), in report order.
const STUDIES: [(&str, Arm, &str, Arm, &str); 7] = [
    (
        "commit",
        Arm::CommitEager,
        "flush-on-commit (base)",
        Arm::CommitLazy,
        "lazy C-bit commit (EC)",
    ),
    (
        "squash",
        Arm::SquashNoA,
        "invalidate-all (EC)",
        Arm::SquashA,
        "A-bit retention (ECS)",
    ),
    (
        "snarf",
        Arm::SnarfOff,
        "no snarfing (ECS)",
        Arm::SnarfOn,
        "snarfing (HR)",
    ),
    (
        "linesize",
        Arm::LineGrain,
        "line-grain L/S bits",
        Arm::WordGrain,
        "word-grain L/S (RL)",
    ),
    (
        "retain",
        Arm::RetainOff,
        "purge on flush (final)",
        Arm::RetainOn,
        "retain flushed (option)",
    ),
    (
        "l2",
        Arm::L2Flat,
        "no L2 (30-cycle DRAM)",
        Arm::L2On,
        "256KB L2 + 30-cycle DRAM",
    ),
    (
        "protocol",
        Arm::ProtoInv,
        "write-invalidate",
        Arm::ProtoUpd,
        "hybrid update (final)",
    ),
];

fn simulate(
    study: &str,
    label: &str,
    cfg: SvcConfig,
    src: &dyn TaskSource,
    mispredict: f64,
    opts: &RunOptions,
) -> ExperimentResult {
    let engine_cfg = EngineConfig {
        num_pus: cfg.num_pus,
        predictor: PredictorModel {
            accuracy: 1.0 - mispredict,
            detect_cycles: 12,
            seed: 5,
        },
        seed: 5,
        garbage_addr_space: 256,
        ..EngineConfig::default()
    };
    let profiler = opts.profiler(cfg.num_pus);
    let mut system = SvcSystem::new(cfg);
    system.set_profiler(profiler.clone());
    let mut engine = Engine::new(engine_cfg, system);
    engine.set_profiler(profiler.clone());
    let report = engine.run(src);
    ExperimentResult {
        workload: study.to_string(),
        memory: label.to_string(),
        ipc: report.ipc(),
        miss_ratio: report.mem.miss_ratio(),
        bus_utilization: report.bus_utilization(),
        profile: profiler.report(),
        report,
    }
}

fn run_arm(study: &str, label: &str, arm: Arm, opts: &RunOptions) -> ExperimentResult {
    let run = |cfg: SvcConfig, src: &dyn TaskSource, mispredict: f64| {
        simulate(study, label, cfg, src, mispredict, opts)
    };
    match arm {
        Arm::CommitEager => run(SvcConfig::base(4), &kernels::streaming(800, 8), 0.0),
        Arm::CommitLazy => run(SvcConfig::ec(4), &kernels::streaming(800, 8), 0.0),
        Arm::SquashNoA => {
            let mut no_a = SvcConfig::ec(4);
            no_a.arch_bit = false;
            run(no_a, &kernels::readonly_sharing(1500, 48), 0.06)
        }
        Arm::SquashA => run(
            SvcConfig::ecs(4),
            &kernels::readonly_sharing(1500, 48),
            0.06,
        ),
        Arm::SnarfOff => run(SvcConfig::ecs(4), &kernels::readonly_sharing(1500, 48), 0.0),
        Arm::SnarfOn => run(SvcConfig::hr(4), &kernels::readonly_sharing(1500, 48), 0.0),
        Arm::LineGrain => {
            let mut line_grain = SvcConfig::final_design(4);
            line_grain.geometry = CacheGeometry::new(128, 4, 4, 4); // L/S per line
            run(line_grain, &kernels::false_sharing(2000, 4), 0.0)
        }
        Arm::WordGrain => {
            let mut word_grain = SvcConfig::final_design(4);
            word_grain.geometry = CacheGeometry::new(128, 4, 4, 1); // L/S per word
            run(word_grain, &kernels::false_sharing(2000, 4), 0.0)
        }
        // Each PU revisits its own slot every epoch while neighbours'
        // reads flush the committed version in between: retention turns
        // the owner's next-epoch revisit into a local hit.
        Arm::RetainOff => run(SvcConfig::ecs(4), &kernels::revisit(2000, 8, 4), 0.0),
        Arm::RetainOn => {
            let mut retain = SvcConfig::ecs(4);
            retain.retain_flushed = true;
            run(retain, &kernels::revisit(2000, 8, 4), 0.0)
        }
        // The fringe-like pattern (working set larger than the L1s but
        // smaller than an L2) is where a second level pays off. Both
        // arms see the same 30-cycle DRAM; the question is whether a
        // 6-cycle L2 in front of it earns its keep.
        Arm::L2Flat => {
            let mut flat_cfg = SvcConfig::final_design(4);
            flat_cfg.timing.memory_cycles = 30;
            run(flat_cfg, &kernels::pointer_chase(4000, 6, 6000, 5), 0.0)
        }
        Arm::L2On => {
            let mut l2cfg = SvcConfig::final_design(4);
            l2cfg.l2 = Some(svc_mem::L2Config::typical());
            run(l2cfg, &kernels::pointer_chase(4000, 6, 6000, 5), 0.0)
        }
        Arm::ProtoInv => {
            let mut invalidate = SvcConfig::final_design(4);
            invalidate.hybrid_update = false;
            run(invalidate, &kernels::producer_consumer(1200, 10), 0.0)
        }
        Arm::ProtoUpd => run(
            SvcConfig::final_design(4),
            &kernels::producer_consumer(1200, 10),
            0.0,
        ),
    }
}

fn show(label: &str, r: &ExperimentResult) {
    let m = &r.report.mem;
    println!(
        "  {label:26} IPC {:5.2}  miss {:5.3}  bus {:5.3}  viol {:5}  wb {:6}  retained {:5}  snarfs {:5}",
        r.ipc, r.miss_ratio, r.bus_utilization, m.violations, m.writebacks, m.squash_retained, m.snarfs
    );
}

fn main() {
    let opts = cli::experiment_options("ablations");
    let mut jobs = Vec::new();
    for &(study, arm_a, label_a, arm_b, label_b) in &STUDIES {
        jobs.push((study, arm_a, label_a));
        jobs.push((study, arm_b, label_b));
    }
    let results = harness::run_grid(
        &jobs,
        PAPER_SEED,
        opts.threads,
        |&(study, arm, label), _derived| run_arm(study, label, arm, &opts),
    );

    let mut failures = 0;
    let mut fail = |cond: bool, msg: &str| {
        if cond {
            println!("  UNEXPECTED: {msg}");
            failures += 1;
        }
    };

    let cell = |i: usize, side: usize| &results[i * 2 + side];

    println!("ablation: commit policy (streaming stores — the base design's writeback burst)");
    let (eager, lazy) = (cell(0, 0), cell(0, 1));
    show(STUDIES[0].2, eager);
    show(STUDIES[0].4, lazy);
    fail(lazy.ipc <= eager.ipc, "lazy commit should win");

    println!("\nablation: squash policy (read-only sharing + mispredictions)");
    let (without, with) = (cell(1, 0), cell(1, 1));
    show(STUDIES[1].2, without);
    show(STUDIES[1].4, with);
    fail(
        with.miss_ratio >= without.miss_ratio,
        "the A bit should cut post-squash misses",
    );

    println!("\nablation: snarfing (reference spreading on read-only data)");
    let (off, on) = (cell(2, 0), cell(2, 1));
    show(STUDIES[2].2, off);
    show(STUDIES[2].4, on);
    fail(on.report.mem.snarfs == 0, "HR should snarf");

    println!("\nablation: versioning-block size (false sharing)");
    let (coarse, fine) = (cell(3, 0), cell(3, 1));
    show(STUDIES[3].2, coarse);
    show(STUDIES[3].4, fine);
    fail(
        fine.report.mem.violations >= coarse.report.mem.violations,
        "sub-blocking should remove false-sharing squashes",
    );

    println!("\nablation: retain flushed passive-dirty lines (§3.8.1 optimization)");
    let (off, on) = (cell(4, 0), cell(4, 1));
    show(STUDIES[4].2, off);
    show(STUDIES[4].4, on);
    fail(
        on.miss_ratio >= off.miss_ratio,
        "retention should turn revisits into local hits",
    );

    println!("\nablation: shared L2 behind the bus (extension beyond the paper)");
    let (flat, l2) = (cell(5, 0), cell(5, 1));
    show(STUDIES[5].2, flat);
    show(STUDIES[5].4, l2);
    fail(
        l2.ipc <= flat.ipc,
        "the L2 should absorb capacity misses here",
    );

    println!("\nablation: update protocol (producer -> consumer chains)");
    let (inv, upd) = (cell(6, 0), cell(6, 1));
    show(STUDIES[6].2, inv);
    show(STUDIES[6].4, upd);

    cli::check_io(
        "results/ablations.json",
        write_paper_docs("ablations", 0, &results, &opts),
    );

    println!();
    if failures == 0 {
        println!("all ablation expectations hold");
    } else {
        println!("{failures} ablation expectation(s) violated");
        std::process::exit(1);
    }
}
