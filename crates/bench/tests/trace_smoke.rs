//! Tracing end-to-end guarantees: the sinks produce parseable output,
//! the forensics pass reconstructs a causal squash chain from a real
//! conflict-heavy run, tracing stays deterministic under the parallel
//! harness, and a disabled tracer leaves the experiment JSON
//! byte-identical to a run that never saw one.

use svc_bench::harness::run_grid;
use svc_bench::report::{self, experiment_result_json};
use svc_bench::{prepare_engine, run_source, MemoryKind, RunOptions, NUM_PUS};
use svc_multiscalar::EngineConfig;
use svc_sim::forensics;
use svc_sim::trace::{render_chrome, render_jsonl, Category, Tracer};
use svc_workloads::kernels;

const BUDGET: u64 = 6_000;

fn cfg(seed: u64) -> EngineConfig {
    EngineConfig {
        num_pus: NUM_PUS,
        max_instructions: BUDGET,
        seed,
        ..EngineConfig::default()
    }
}

fn traced_run(seed: u64) -> (svc_bench::ExperimentResult, Tracer) {
    let traced = RunOptions {
        trace: Category::ALL,
        ..RunOptions::default()
    };
    let source = kernels::producer_consumer(2_000, 6);
    prepare_engine(MemoryKind::Svc { kb_per_cache: 8 }, cfg(seed), &traced).run(&source)
}

#[test]
fn traced_sinks_parse_and_forensics_reconstructs_squash_chains() {
    let (result, tracer) = traced_run(7);
    let records = tracer.records();
    assert!(!records.is_empty(), "traced run produced no events");
    assert_eq!(tracer.dropped(), 0, "tiny run must fit the ring");

    // Every JSONL line is a standalone JSON object the report parser
    // accepts.
    let jsonl = render_jsonl(&records);
    for (i, line) in jsonl.lines().enumerate() {
        let obj = report::parse(line).unwrap_or_else(|e| panic!("jsonl line {i}: {e}"));
        assert!(obj.get("cycle").is_some(), "jsonl line {i} lacks cycle");
        assert!(obj.get("cat").is_some(), "jsonl line {i} lacks cat");
    }

    // The Chrome trace is one valid JSON document with a traceEvents
    // array.
    let chrome = report::parse(&render_chrome(&records, "smoke")).expect("chrome trace parses");
    let events = chrome
        .get("traceEvents")
        .and_then(report::Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // producer-consumer is a known-conflict workload: the forensics
    // pass must recover at least one violation -> squash causal chain,
    // each naming the offending store and a squashed victim set that
    // includes the violation's victim task.
    assert!(result.report.squashes > 0, "workload must squash");
    let chains = forensics::squash_chains(&records, 4);
    assert!(!chains.is_empty(), "no squash chains reconstructed");
    for chain in &chains {
        assert!(
            chain.squashed.iter().any(|&(_, t)| t == chain.victim),
            "chain at cycle {} squashes {:?} but not its victim {:?}",
            chain.cycle,
            chain.squashed,
            chain.victim
        );
        assert!(forensics::render_chain(chain).contains("violation"));
    }
}

#[test]
fn traced_jsonl_is_byte_identical_across_thread_counts() {
    // Each grid job gets its own per-thread tracer, so the parallel
    // harness must not perturb a cell's event stream: the rendered
    // JSONL is byte-identical at any worker count.
    let jobs = [3u64, 5, 7, 11];
    let render = |threads: usize| -> Vec<String> {
        run_grid(&jobs, 0xACE5, threads, |&salt, seed| {
            let (_, tracer) = traced_run(seed ^ salt);
            render_jsonl(&tracer.records())
        })
    };
    let serial = render(1);
    assert!(serial.iter().all(|s| !s.is_empty()));
    for threads in [2, 8] {
        assert_eq!(
            serial,
            render(threads),
            "traced JSONL diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn tracing_leaves_experiment_json_byte_identical() {
    // A traced run must report exactly what an untraced run reports —
    // the observer claim, checked end to end through the serialized
    // experiment JSON (stats, metrics registry and all).
    let source = kernels::producer_consumer(2_000, 6);
    let memory = MemoryKind::Svc { kb_per_cache: 8 };
    let plain = run_source(&source, memory, cfg(42), &RunOptions::default());
    let (traced, tracer) = traced_run(42);
    assert!(!tracer.records().is_empty());
    assert_eq!(
        experiment_result_json(&plain, 42).render(),
        experiment_result_json(&traced, 42).render()
    );
}
