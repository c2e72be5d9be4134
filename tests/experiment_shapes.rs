//! Reduced-budget versions of the experiment shape checks that the
//! `paper` binary asserts at full budget — the robust subset that holds
//! even at a small instruction budget, so `cargo test` exercises the
//! evaluation pipeline end to end.

use svc_repro::bench::report::{self, Json};
use svc_repro::bench::{
    cross, run_paper_grid, run_spec95_with, MemoryKind, RunOptions, PAPER_SEED,
};
use svc_repro::workloads::Spec95;

const BUDGET: u64 = 60_000;

fn arb(bench: Spec95, hit: u64, kb: usize) -> svc_repro::bench::ExperimentResult {
    run_spec95_with(
        bench,
        MemoryKind::Arb {
            hit_cycles: hit,
            cache_kb: kb,
        },
        BUDGET,
        42,
        &RunOptions::default(),
    )
}

fn svc(bench: Spec95, kb: usize) -> svc_repro::bench::ExperimentResult {
    let memory = MemoryKind::Svc { kb_per_cache: kb };
    run_spec95_with(bench, memory, BUDGET, 42, &RunOptions::default())
}

#[test]
fn arb_ipc_degrades_with_hit_latency_everywhere() {
    for b in Spec95::ALL {
        let a1 = arb(b, 1, 32).ipc;
        let a4 = arb(b, 4, 32).ipc;
        assert!(
            a1 > a4 * 1.05,
            "{b}: ARB-1c ({a1:.2}) should clearly beat ARB-4c ({a4:.2})"
        );
    }
}

#[test]
fn svc_beats_slow_arb_everywhere() {
    for b in Spec95::ALL {
        let s = svc(b, 8).ipc;
        let a3 = arb(b, 3, 32).ipc;
        assert!(
            s > a3,
            "{b}: SVC ({s:.2}) should beat contention-free ARB-3c ({a3:.2})"
        );
    }
}

#[test]
fn svc_beats_arb2_on_the_papers_three() {
    for b in [Spec95::Gcc, Spec95::Apsi] {
        let s = svc(b, 8).ipc;
        let a2 = arb(b, 2, 32).ipc;
        assert!(
            s > a2,
            "{b}: SVC ({s:.2}) should beat ARB-2c ({a2:.2}) per §4.4"
        );
    }
    // mgrid's margin over ARB-2c is ~1% at full budget — too thin to
    // assert at this reduced budget, so require "within noise" instead.
    let s = svc(Spec95::Mgrid, 8).ipc;
    let a2 = arb(Spec95::Mgrid, 2, 32).ipc;
    assert!(
        s > a2 * 0.95,
        "mgrid: SVC ({s:.2}) should at least match ARB-2c ({a2:.2})"
    );
}

#[test]
fn miss_ratio_gap_directions_match_table2_through_the_harness() {
    // Table 2's grid, driven by the parallel harness exactly as the
    // `paper` binary drives it. The gap direction needs warm caches to
    // show (cold compulsory misses hit the ARB's direct-mapped cache
    // harder), hence the larger default budget.
    let jobs = cross(
        &Spec95::ALL,
        &[
            MemoryKind::Arb {
                hit_cycles: 1,
                cache_kb: 32,
            },
            MemoryKind::Svc { kb_per_cache: 8 },
        ],
    );
    let results = run_paper_grid(&jobs, 300_000, &RunOptions::default());
    for (i, b) in Spec95::ALL.into_iter().enumerate() {
        let a = results[i * 2].miss_ratio;
        let s = results[i * 2 + 1].miss_ratio;
        if b == Spec95::Perl {
            assert!(s < a, "perl inverts: SVC {s:.3} < ARB {a:.3}");
        } else {
            assert!(s > a, "{b}: SVC {s:.3} > ARB {a:.3} (reference spreading)");
        }
    }
}

#[test]
fn bus_utilization_shape_matches_table3_through_the_harness() {
    // Table 3's grid through the harness: mgrid has the highest bus
    // utilization; doubling the caches never needs more bus.
    let jobs = cross(
        &Spec95::ALL,
        &[
            MemoryKind::Svc { kb_per_cache: 8 },
            MemoryKind::Svc { kb_per_cache: 16 },
        ],
    );
    let results = run_paper_grid(&jobs, BUDGET, &RunOptions::default());
    let util8 = |i: usize| results[i * 2].bus_utilization;
    let util16 = |i: usize| results[i * 2 + 1].bus_utilization;
    let mgrid_idx = Spec95::ALL
        .into_iter()
        .position(|b| b == Spec95::Mgrid)
        .expect("mgrid in ALL");
    for (i, b) in Spec95::ALL.into_iter().enumerate() {
        if b == Spec95::Mgrid || b == Spec95::Compress {
            continue; // compress trails mgrid only at full budget
        }
        assert!(
            util8(mgrid_idx) > util8(i),
            "mgrid ({:.3}) has the highest bus utilization (vs {b}: {:.3})",
            util8(mgrid_idx),
            util8(i)
        );
    }
    for (i, b) in Spec95::ALL.into_iter().enumerate() {
        assert!(
            util16(i) <= util8(i) + 0.02,
            "{b}: bigger caches don't need more bus ({:.3} vs {:.3})",
            util16(i),
            util8(i)
        );
    }
}

#[test]
fn experiment_json_documents_roundtrip() {
    // A small harness run serialized to the schema-versioned document
    // must parse back to the same value, with the metrics intact.
    let jobs = cross(&[Spec95::Ijpeg], &[MemoryKind::Svc { kb_per_cache: 8 }]);
    let budget = 10_000;
    let results = run_paper_grid(&jobs, budget, &RunOptions::default());
    let runs: Vec<Json> = results
        .iter()
        .map(|r| report::experiment_result_json(r, PAPER_SEED))
        .collect();
    let doc = report::experiment_doc("shapes-test", budget, PAPER_SEED, runs);
    let text = doc.render();
    let back = report::parse(&text).expect("rendered JSON parses");
    assert_eq!(back, doc, "render/parse round-trip");
    assert_eq!(
        back.get("schema").and_then(Json::as_str),
        Some(report::SCHEMA_EXPERIMENT)
    );
    let runs = back.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    assert_eq!(run.get("workload").and_then(Json::as_str), Some("ijpeg"));
    assert_eq!(run.get("ipc").and_then(Json::as_f64), Some(results[0].ipc));
    let mem = run.get("report").and_then(|r| r.get("mem")).expect("mem");
    assert_eq!(
        mem.get("loads").and_then(Json::as_f64),
        Some(results[0].report.mem.loads as f64)
    );
}

#[test]
fn bigger_caches_never_hurt_miss_ratio() {
    for b in Spec95::ALL {
        let m8 = svc(b, 8).miss_ratio;
        let m16 = svc(b, 16).miss_ratio;
        assert!(
            m16 <= m8 + 0.003,
            "{b}: 4x16KB miss ({m16:.3}) <= 4x8KB miss ({m8:.3})"
        );
    }
}
