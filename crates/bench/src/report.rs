//! Schema-versioned JSON reports for experiment results.
//!
//! Hand-rolled (the build environment is offline; no serde) but
//! complete: a small JSON value model ([`Json`]), a deterministic
//! emitter whose output is byte-identical for identical inputs
//! (insertion-ordered keys, shortest-roundtrip float formatting), and a
//! recursive-descent parser so the `regress` gate can read baselines
//! back.
//!
//! The main schema, [`SCHEMA_EXPERIMENT`], is that of
//! `results/<name>.json`: the grid parameters plus every run's metrics,
//! [`MemStats`], and engine report. Deterministic: no wall-clock data.
//! The other schema tags below name the profile, analysis and soak
//! documents.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use svc_multiscalar::RunReport;
use svc_sim::metrics::{HistogramSummary, MetricValue, MetricsRegistry};
use svc_sim::profile::{Bucket, ProfileReport};
use svc_sim::stats::{Histogram, Running};
use svc_types::MemStats;

use crate::ExperimentResult;

/// Schema tag of `results/<name>.json` documents.
pub const SCHEMA_EXPERIMENT: &str = "svc-experiments/v1";
/// Schema tag of experiment documents that carry a `failures` array
/// (emitted only when a grid had failed cells; fully-healthy grids keep
/// emitting byte-identical [`SCHEMA_EXPERIMENT`] documents).
pub const SCHEMA_EXPERIMENT_V2: &str = "svc-experiments/v2";
/// Schema tag of `results/<name>.profile.json` cycle-accounting
/// documents (emitted only when `SVC_PROFILE` is set).
pub const SCHEMA_PROFILE: &str = "svc-profile/v1";
/// Schema tag of `svc-analyze`'s offline-analysis documents (cascade
/// attribution, version lifetimes, contention heatmaps, run diffs).
pub const SCHEMA_ANALYSIS: &str = "svc-analysis/v1";
/// Schema tag of the `results/soak.json` snapshot `svc-sim serve`
/// flushes on shutdown (see [`crate::soak::soak_doc`]).
pub const SCHEMA_SOAK: &str = "svc-soak/v1";

// ---------------------------------------------------------------------
// Value model
// ---------------------------------------------------------------------

/// A JSON value. Object keys keep insertion order so emission is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number. Counters in this workspace stay far below 2^53, so
    /// `f64` holds them exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder seed.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a key in an object; panics on non-objects.
    pub fn set(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
                self
            }
            _ => panic!("set() on a non-object"),
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline —
    /// deterministic byte-for-byte for equal values.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Scalars inline; nested structures one per line.
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                if nested {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        indent(out, depth + 1);
                        item.write_into(out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write_into(out, depth);
                    }
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null"); // JSON has no NaN/inf
    } else if x == x.trunc() && x.abs() < 9e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest-roundtrip float formatting is deterministic.
        let _ = write!(out, "{x}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// Parses a JSON document (as produced by [`Json::render`], though any
/// standard JSON is accepted).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!(
                "unexpected byte {:?} at offset {}",
                b as char, self.pos
            )),
            None => Err(format!("unexpected end of input at byte {}", self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            s.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. Validate at most the 4
                    // bytes the scalar can span — validating the whole
                    // remaining input here makes parsing quadratic,
                    // which megabyte-scale trace documents actually hit.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let chunk = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(chunk) {
                        Ok(text) => text.chars().next().expect("non-empty"),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&chunk[..e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                                .expect("non-empty")
                        }
                        Err(e) => return Err(e.to_string()),
                    };
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] at byte {}: {other:?}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} at byte {}: {other:?}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Serializers for the simulator's stats types
// ---------------------------------------------------------------------

/// [`MemStats`] as an object: every counter (via [`MemStats::fields`],
/// so new counters appear automatically) plus the derived ratios.
pub fn mem_stats_json(stats: &MemStats) -> Json {
    let mut obj = Json::obj();
    for (name, value) in stats.fields() {
        obj = obj.set(name, value.into());
    }
    obj.set("miss_ratio", stats.miss_ratio().into())
        .set("local_hit_ratio", stats.local_hit_ratio().into())
}

/// A [`Histogram`] as `{width, buckets, overflow, total}`.
pub fn histogram_json(h: &Histogram) -> Json {
    Json::obj()
        .set("width", h.width().into())
        .set(
            "buckets",
            Json::Arr(h.bucket_counts().iter().map(|&c| c.into()).collect()),
        )
        .set("overflow", h.overflow().into())
        .set("total", h.total().into())
}

/// A [`Running`] accumulator as `{count, sum, mean, min, max}`.
pub fn running_json(r: &Running) -> Json {
    Json::obj()
        .set("count", r.count().into())
        .set("sum", r.sum().into())
        .set("mean", r.mean().into())
        .set("min", r.min().into())
        .set("max", r.max().into())
}

/// A full engine [`RunReport`]: scalar counters (via
/// [`RunReport::counter_fields`]), derived metrics, the task-length
/// histogram, and the memory-system stats.
pub fn run_report_json(report: &RunReport) -> Json {
    let mut obj = Json::obj();
    for (name, value) in report.counter_fields() {
        obj = obj.set(name, value.into());
    }
    obj.set("hit_cycle_limit", report.hit_cycle_limit.into())
        .set("ipc", report.ipc().into())
        .set("avg_task_len", report.avg_task_len().into())
        .set("bus_utilization", report.bus_utilization().into())
        .set("task_lengths", histogram_json(&report.task_lengths))
        .set("mem", mem_stats_json(&report.mem))
}

/// A [`HistogramSummary`] as `{total, overflow, p50, p90, p99}`
/// (absent quantiles — empty histogram — serialize to `null`).
pub fn histogram_summary_json(s: &HistogramSummary) -> Json {
    let q = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    Json::obj()
        .set("total", s.total.into())
        .set("overflow", s.overflow.into())
        .set("p50", q(s.p50))
        .set("p90", q(s.p90))
        .set("p99", q(s.p99))
}

/// A [`MetricsRegistry`] as an object, keys in registration order.
/// Unlabeled entries keep their bare names (existing artifacts are
/// byte-identical); labeled entries render their series key as
/// `name{k="v",…}` and full distributions reuse the [`histogram_json`]
/// shape.
pub fn metrics_json(reg: &MetricsRegistry) -> Json {
    let mut obj = Json::obj();
    for e in reg.iter_entries() {
        let v = match &e.value {
            MetricValue::Counter(c) => Json::from(*c),
            MetricValue::Gauge(g) => Json::from(*g),
            MetricValue::Histogram(s) => histogram_summary_json(s),
            MetricValue::Distribution(h) => histogram_json(h),
        };
        let key = if e.labels.is_empty() {
            e.name.clone()
        } else {
            let labels: Vec<String> = e
                .labels
                .iter()
                .map(|(k, val)| format!("{k}=\"{}\"", svc_sim::metrics::escape_label_value(val)))
                .collect();
            format!("{}{{{}}}", e.name, labels.join(","))
        };
        obj = obj.set(&key, v);
    }
    obj
}

/// A [`BucketSet`](svc_sim::profile::BucketSet) as an object, one key
/// per bucket in [`Bucket::EVERY`] order.
fn bucket_set_json(set: &[u64; svc_sim::profile::NUM_BUCKETS]) -> Json {
    let mut obj = Json::obj();
    for b in Bucket::EVERY {
        obj = obj.set(b.name(), set[b as usize].into());
    }
    obj
}

/// A [`ProfileReport`] as an object: per-PU and total bucket
/// attribution, the conservation check, the interval time series (raw
/// cumulative counters plus rates derived between consecutive rows),
/// and the top wasted-work addresses.
pub fn profile_report_json(p: &ProfileReport) -> Json {
    let rate = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut series = Vec::with_capacity(p.samples.len());
    let mut prev_cycle = 0u64;
    let mut prev_instrs = 0u64;
    let mut prev_squashes = 0u64;
    let mut prev_busy = 0u64;
    for s in &p.samples {
        let dc = s.cycle - prev_cycle;
        series.push(
            Json::obj()
                .set("cycle", s.cycle.into())
                .set("committed_instrs", s.committed_instrs.into())
                .set("squashes", s.squashes.into())
                .set("bus_busy_cycles", s.bus_busy_cycles.into())
                .set("outstanding_misses", s.outstanding_misses.into())
                .set("live_versions", s.live_versions.into())
                .set("ipc", rate(s.committed_instrs - prev_instrs, dc).into())
                .set(
                    "bus_utilization",
                    rate(s.bus_busy_cycles - prev_busy, dc).into(),
                )
                .set("squash_rate", rate(s.squashes - prev_squashes, dc).into()),
        );
        prev_cycle = s.cycle;
        prev_instrs = s.committed_instrs;
        prev_squashes = s.squashes;
        prev_busy = s.bus_busy_cycles;
    }
    let wasted: Vec<Json> = p
        .wasted_addrs
        .iter()
        .map(|&(addr, count)| {
            Json::obj()
                .set("addr", addr.into())
                .set("squashed_accesses", count.into())
        })
        .collect();
    let mut obj = Json::obj()
        .set("num_pus", p.num_pus.into())
        .set("cycles", p.cycles.into())
        .set("epoch", p.epoch.into())
        .set("total", bucket_set_json(&p.totals()))
        .set(
            "per_pu",
            Json::Arr(p.per_pu.iter().map(bucket_set_json).collect()),
        )
        .set(
            "conservation",
            Json::obj()
                .set("expected", p.expected().into())
                .set("attributed", p.attributed().into())
                .set("ok", p.conservation_ok().into()),
        )
        .set("series", Json::Arr(series))
        .set("wasted_addrs", Json::Arr(wasted));
    // Only rolling-window runs carry this key, so documents from runs
    // that never evicted a row stay byte-identical to before the window
    // existed.
    if p.intervals_dropped > 0 {
        obj = obj.set("intervals_dropped", p.intervals_dropped.into());
    }
    obj
}

/// The `results/<name>.profile.json` document envelope: one entry per
/// profiled grid cell, in grid order.
pub fn profile_doc(name: &str, budget: u64, grid_seed: u64, runs: Vec<Json>) -> Json {
    Json::obj()
        .set("schema", SCHEMA_PROFILE.into())
        .set("experiment", name.into())
        .set("budget", budget.into())
        .set("grid_seed", grid_seed.into())
        .set("runs", Json::Arr(runs))
}

/// One grid cell's result: workload, memory label, seed, the paper's
/// three metrics plus the squash count and MSHR combine rate (the
/// regression gate's per-cell diff set), the full engine report, and
/// the unified metrics registry.
pub fn experiment_result_json(result: &ExperimentResult, seed: u64) -> Json {
    Json::obj()
        .set("workload", result.workload.as_str().into())
        .set("memory", result.memory.as_str().into())
        .set("seed", seed.into())
        .set("ipc", result.ipc.into())
        .set("miss_ratio", result.miss_ratio.into())
        .set("bus_utilization", result.bus_utilization.into())
        .set("squashes", result.report.squashes.into())
        .set("wasted_instrs", result.report.wasted_instrs.into())
        .set(
            "squash_recovery_cycles",
            result.report.squash_recovery_cycles.into(),
        )
        .set(
            "mshr_combine_rate",
            result.report.mem.mshr_combine_rate().into(),
        )
        .set("report", run_report_json(&result.report))
        .set("metrics", metrics_json(&result.metrics()))
}

/// The `results/<name>.json` document envelope.
pub fn experiment_doc(name: &str, budget: u64, grid_seed: u64, runs: Vec<Json>) -> Json {
    Json::obj()
        .set("schema", SCHEMA_EXPERIMENT.into())
        .set("experiment", name.into())
        .set("budget", budget.into())
        .set("grid_seed", grid_seed.into())
        .set("runs", Json::Arr(runs))
}

/// One [`JobFailure`](crate::harness::JobFailure) as `{index, seed, kind, detail, attempts}`.
pub fn job_failure_json(f: &crate::harness::JobFailure) -> Json {
    Json::obj()
        .set("index", f.index.into())
        .set("seed", f.seed.into())
        .set("kind", f.error.kind().into())
        .set("detail", f.error.detail().into())
        .set("attempts", Json::Num(f.attempts as f64))
}

/// The experiment document for a grid that may have failed cells.
///
/// With no failures this is exactly [`experiment_doc`] — byte-identical
/// `svc-experiments/v1` output, so healthy artifact regeneration never
/// drifts. With failures the schema becomes
/// [`SCHEMA_EXPERIMENT_V2`] and a `failures` array (grid order) is
/// appended after `runs`.
pub fn experiment_doc_failsafe(
    name: &str,
    budget: u64,
    grid_seed: u64,
    runs: Vec<Json>,
    failures: &[crate::harness::JobFailure],
) -> Json {
    if failures.is_empty() {
        return experiment_doc(name, budget, grid_seed, runs);
    }
    Json::obj()
        .set("schema", SCHEMA_EXPERIMENT_V2.into())
        .set("experiment", name.into())
        .set("budget", budget.into())
        .set("grid_seed", grid_seed.into())
        .set("runs", Json::Arr(runs))
        .set(
            "failures",
            Json::Arr(failures.iter().map(job_failure_json).collect()),
        )
}

// ---------------------------------------------------------------------
// File output
// ---------------------------------------------------------------------

/// Crash-atomic file write for result artifacts: write to a `.tmp`
/// sibling, fsync, rename over the destination. A reader (or a process
/// killed mid-write) sees either the old complete file or the new
/// complete file, never a torn one. All harness artifact writers go
/// through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    svc_sim::checkpoint::write_atomic(path, bytes)
}

/// Writes `doc` to `<dir>/<name>.json`, creating the directory.
pub fn write_experiment(dir: &Path, name: &str, doc: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    write_atomic(&path, doc.render().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_parses_back() {
        let doc = Json::obj()
            .set("schema", SCHEMA_EXPERIMENT.into())
            .set("n", 42u64.into())
            .set("x", 0.125.into())
            .set("flag", true.into())
            .set("name", "a \"quoted\" name\n".into())
            .set("arr", Json::Arr(vec![1u64.into(), 2u64.into()]))
            .set("nested", Json::obj().set("empty", Json::Arr(vec![])));
        let a = doc.render();
        let b = doc.render();
        assert_eq!(a, b);
        let back = parse(&a).expect("parses");
        assert_eq!(back, doc);
    }

    #[test]
    fn numbers_render_integers_exactly() {
        let mut s = String::new();
        write_number(&mut s, 400000.0);
        assert_eq!(s, "400000");
        s.clear();
        write_number(&mut s, 0.035);
        assert_eq!(s, "0.035");
        s.clear();
        write_number(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn parser_accepts_standard_json() {
        let v = parse(r#" {"a": [1, 2.5, null, true, "xA"], "b": {}} "#).expect("ok");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(5)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[4].as_str(),
            Some("xA")
        );
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("42 garbage").is_err());
    }

    #[test]
    fn histogram_and_running_serialize() {
        let mut h = Histogram::new(8, 4);
        h.record(3);
        h.record(100);
        let j = histogram_json(&h);
        assert_eq!(j.get("width").and_then(Json::as_f64), Some(8.0));
        assert_eq!(j.get("overflow").and_then(Json::as_f64), Some(1.0));

        let mut r = Running::new();
        r.push(2.0);
        r.push(4.0);
        let j = running_json(&r);
        assert_eq!(j.get("mean").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn failsafe_doc_is_v1_bytes_when_healthy_and_v2_with_failures() {
        use crate::harness::{JobError, JobFailure};
        let runs = || vec![Json::obj().set("ipc", 1.5.into())];
        let healthy = experiment_doc_failsafe("t", 1000, 7, runs(), &[]);
        assert_eq!(
            healthy.render(),
            experiment_doc("t", 1000, 7, runs()).render()
        );

        let failures = [JobFailure {
            index: 3,
            seed: 99,
            error: JobError::Panic("boom".to_string()),
            attempts: 2,
        }];
        let degraded = experiment_doc_failsafe("t", 1000, 7, runs(), &failures);
        assert_eq!(
            degraded.get("schema").and_then(Json::as_str),
            Some(SCHEMA_EXPERIMENT_V2)
        );
        let fj = &degraded.get("failures").unwrap().as_arr().unwrap()[0];
        assert_eq!(fj.get("kind").and_then(Json::as_str), Some("panic"));
        assert_eq!(fj.get("detail").and_then(Json::as_str), Some("boom"));
        assert_eq!(fj.get("index").and_then(Json::as_f64), Some(3.0));
        assert_eq!(fj.get("attempts").and_then(Json::as_f64), Some(2.0));
        // Round-trips through the parser like any other document.
        assert_eq!(parse(&degraded.render()).expect("parses"), degraded);
    }
}
