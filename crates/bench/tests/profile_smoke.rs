//! Profiler end-to-end guarantees: the `svc-profile/v1` document is
//! byte-identical at any worker-thread count and round-trips through the
//! report parser, Chrome counter tracks render next to the event stream,
//! and a profiler that is attached but disabled leaves the simulation's
//! serialized output untouched (the zero-cost claim).
//!
//! The profiled tests run with [`RunOptions::profile`] set; the zero-cost
//! test attaches its profilers explicitly.

use svc_bench::harness::{job_seeds, run_grid};
use svc_bench::report::{self, Json};
use svc_bench::{cross, profile_counter_series, run_spec95_with, MemoryKind, RunOptions, NUM_PUS};
use svc_multiscalar::{Engine, EngineConfig, TaskSource};
use svc_sim::profile::Profiler;
use svc_sim::trace::render_chrome_with_counters;
use svc_types::VersionedMemory;
use svc_workloads::{kernels, Spec95};

const GRID_SEED: u64 = 0x9F11E;
const BUDGET: u64 = 8_000;

fn profiling() -> RunOptions {
    RunOptions {
        profile: true,
        ..RunOptions::default()
    }
}

/// Runs the smoke grid and renders its `svc-profile/v1` document.
fn profile_doc_at(threads: usize) -> String {
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
    let opts = profiling();
    let results = run_grid(&jobs, GRID_SEED, threads, |job, seed| {
        run_spec95_with(job.bench, job.memory, BUDGET, seed, &opts)
    });
    let runs = results
        .iter()
        .zip(&seeds)
        .map(|(r, &s)| {
            let p = r.profile.as_ref().expect("profiling yields profiles");
            assert!(p.conservation_ok(), "grid cell violates conservation");
            Json::obj()
                .set("workload", "cell".into())
                .set("seed", s.into())
                .set("profile", report::profile_report_json(p))
        })
        .collect();
    report::profile_doc("profile-smoke", BUDGET, GRID_SEED, runs).render()
}

#[test]
fn profile_json_byte_identical_at_1_2_and_8_threads() {
    let serial = profile_doc_at(1);
    for threads in [2, 8] {
        assert_eq!(
            serial,
            profile_doc_at(threads),
            "profile JSON diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn profile_doc_parses_as_svc_profile_v1() {
    let doc = report::parse(&profile_doc_at(2)).expect("profile doc parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(report::SCHEMA_PROFILE)
    );
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 4);
    for run in runs {
        let p = run.get("profile").expect("run carries a profile");
        let ok = p
            .get("conservation")
            .and_then(|c| c.get("ok"))
            .map(Json::render);
        assert_eq!(
            ok.as_deref().map(str::trim),
            Some("true"),
            "conservation.ok must serialize true"
        );
        let per_pu = p.get("per_pu").and_then(Json::as_arr).expect("per_pu");
        assert_eq!(per_pu.len(), NUM_PUS);
        // The interval series exists and its rows carry the derived
        // rates tooling plots directly.
        let series = p.get("series").and_then(Json::as_arr).expect("series");
        assert!(!series.is_empty(), "budgeted run must produce samples");
        for row in series {
            for key in ["cycle", "ipc", "bus_utilization", "squash_rate"] {
                assert!(row.get(key).is_some(), "series row lacks {key}");
            }
        }
    }
}

#[test]
fn chrome_counter_tracks_render_alongside_events() {
    let memory = MemoryKind::Svc { kb_per_cache: 8 };
    let result = run_spec95_with(Spec95::Gcc, memory, BUDGET, 7, &profiling());
    let counters = profile_counter_series(result.profile.as_ref().expect("profiled"));
    assert!(counters.iter().any(|(name, _)| name == "ipc"));
    let chrome = render_chrome_with_counters(&[], "counters-smoke", &counters);
    let doc = report::parse(&chrome).expect("chrome trace with counters parses");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let counter_events: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
        .collect();
    assert!(!counter_events.is_empty(), "no counter events emitted");
    for e in &counter_events {
        assert!(
            e.get("args").and_then(|a| a.get("value")).is_some(),
            "counter event lacks args.value"
        );
    }
}

#[test]
fn attached_disabled_profiler_is_zero_cost_in_serialized_output() {
    // A run with a disabled profiler attached must serialize exactly as
    // a live-profiled run does (minus the profile itself): the profiler
    // is observational only and must never perturb timing or stats.
    let render = |profiler: Profiler| {
        let source = kernels::producer_consumer(2_000, 6);
        let mut system = svc::SvcSystem::new(svc::SvcConfig::final_design(NUM_PUS));
        system.set_profiler(profiler.clone());
        let cfg = EngineConfig {
            num_pus: NUM_PUS,
            max_instructions: BUDGET,
            seed: 42,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(cfg, system);
        engine.set_profiler(profiler);
        let report = engine.run(&source as &dyn TaskSource);
        let stats = engine.memory().stats();
        format!(
            "{}{}",
            report::run_report_json(&report).render(),
            report::mem_stats_json(&stats).render()
        )
    };
    assert_eq!(
        render(Profiler::disabled()),
        render(Profiler::new(NUM_PUS, 1_024)),
        "an active profiler changed the simulation's serialized output"
    );
}
