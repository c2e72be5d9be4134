//! Prometheus exposition hygiene over every metric the harness
//! actually emits: a real run's registry and a real soak registry
//! (labels, histograms, distributions included) must render to valid
//! text-format lines with legal names, no collisions, and one `# TYPE`
//! per family.

use std::collections::HashSet;

use svc_bench::soak::{run_soak, SoakConfig};
use svc_bench::{run_source, MemoryKind, RunOptions, NUM_PUS};
use svc_multiscalar::EngineConfig;
use svc_sim::fault::StormSchedule;
use svc_sim::metrics::{sanitize_metric_name, MetricsRegistry};
use svc_workloads::kernels;

/// A legal Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_legal_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits a sample line into (name-with-labels, value), checking shape.
fn check_sample_line(line: &str) {
    let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line has no value separator: {line:?}");
    });
    assert!(
        value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
        "unparseable sample value {value:?} in {line:?}"
    );
    let name = match series.split_once('{') {
        Some((name, rest)) => {
            assert!(rest.ends_with('}'), "unterminated label set: {line:?}");
            for pair in rest[..rest.len() - 1].split("\",") {
                let (key, val) = pair
                    .split_once("=\"")
                    .unwrap_or_else(|| panic!("malformed label pair {pair:?} in {line:?}"));
                assert!(is_legal_name(key), "illegal label name {key:?} in {line:?}");
                // Escaped payloads only: no raw quote or newline.
                assert!(!val.trim_end_matches('"').contains('\n'));
            }
            name
        }
        None => series,
    };
    assert!(
        is_legal_name(name),
        "illegal metric name {name:?} in {line:?}"
    );
}

/// Asserts the full exposition body is line-format clean and each
/// family is TYPE-declared at most once.
fn check_exposition(text: &str) {
    let mut typed = HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(is_legal_name(family), "illegal family {family:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram" | "summary"),
                "unknown family kind {kind:?}"
            );
            assert!(
                typed.insert(family.to_string()),
                "duplicate TYPE for {family}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment line {line:?}");
        check_sample_line(line);
    }
}

/// Every raw registry name sanitizes to a legal, collision-free name.
fn check_names(reg: &MetricsRegistry) {
    let mut seen = HashSet::new();
    let mut raw = HashSet::new();
    for entry in reg.iter_entries() {
        let clean = sanitize_metric_name(&entry.name);
        assert!(
            is_legal_name(&clean),
            "{:?} sanitized to illegal {clean:?}",
            entry.name
        );
        if raw.insert(entry.name.clone()) {
            assert!(
                seen.insert(clean.clone()),
                "distinct raw names collide after sanitization at {clean:?}"
            );
        }
    }
    assert!(!seen.is_empty(), "registry exported no metrics");
}

#[test]
fn run_registry_sanitizes_and_renders_cleanly() {
    let src = kernels::producer_consumer(400, 6);
    let cfg = EngineConfig {
        num_pus: NUM_PUS,
        max_instructions: 20_000,
        seed: 42,
        ..EngineConfig::default()
    };
    let memory = MemoryKind::Svc { kb_per_cache: 8 };
    let result = run_source(&src, memory, cfg, &RunOptions::default());
    let reg = result.metrics();
    // The engine's raw names use dots (`mem.bus_wait_cycles` et al) —
    // exactly what sanitization exists for.
    assert!(
        reg.iter_entries().any(|e| e.name.contains('.')),
        "expected dotted raw names in the run registry"
    );
    check_names(&reg);
    check_exposition(&reg.render_prometheus());
}

#[test]
fn soak_registry_with_labels_and_distributions_renders_cleanly() {
    let cfg = SoakConfig {
        seed: 7,
        ticks: 13, // past one full storm period, so fault labels appear
        slice_budget: 4_000,
        storm: StormSchedule::default(),
        ..SoakConfig::default()
    };
    let state = run_soak(&cfg, |_| true);
    let reg = state.metrics();
    assert!(
        reg.iter_entries().any(|e| !e.labels.is_empty()),
        "soak registry exports labeled series"
    );
    check_names(&reg);
    let text = reg.render_prometheus();
    check_exposition(&text);
    // Histogram families carry the cumulative bucket contract.
    assert!(text.contains("_bucket{le=\"+Inf\"}"), "+Inf bucket present");
    assert!(text.contains("soak_slices{workload=\"streaming\"}"));
    assert!(text.contains("soak_faults{site="));
}
