//! The repository benchmark: host throughput of the SVC simulator and of
//! its model checker on three fixed workloads, with every simulated
//! output checked against the artifact committed under `results/`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-4pu --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it records the host facts. A traced run
//! also writes its spans to `perfbench/out/`. See `perfbench/README.md`.

mod cells;
mod host;
mod layers;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use svc_bench::report::Json;
use svc_check::{explore_design, DesignId, ExploreOutcome, Limits};
use svc_multiscalar::{Engine, RunReport, TaskSource};
use svc_types::{MemStats, VersionedMemory};

use cells::{Artifact, Cell, Mem, Workload};
use layers::{Calibration, Hist, Op, OpStats, Spans, Traced, TracedSource};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (paper-4pu, wide-64pu, check-svc)")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Orders the cells of each pass; the only thing `--seed` changes.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

/// The one pass/fail decision for every cell and exploration: it ran to
/// its end without panicking, and its rendered output equals the
/// expected one.
fn verdict(finished: bool, fresh: &str, expected: &str) -> bool {
    finished && fresh == expected
}

/// Cells or explorations attempted, and those that panicked, hit the
/// cycle limit, or differ from the committed artifact.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
    }
}

/// The negative self-test. `fresh`, an output that matched `expected`,
/// goes through [`verdict`] and a [`Tally`] twice: against `expected`,
/// and against a copy with the counter `field` altered. Exactly the
/// altered copy must be counted as a failure.
fn self_test(fresh: &str, expected: &str, field: &str) -> Result<bool, String> {
    let altered = cells::altered(expected, field)?;
    let mut tally = Tally::default();
    tally.record(
        verdict(true, fresh, expected),
        "self-test: committed output",
    );
    tally.record(
        verdict(true, fresh, &altered),
        &format!("self-test: {field} altered (this failure is the expected one)"),
    );
    Ok(tally.attempted == 2 && tally.failed == 1)
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn json(&self) -> Json {
        self.0.iter().fold(Json::obj(), |o, m| {
            o.set(
                &m.name,
                Json::obj()
                    .set("value", m.value.into())
                    .set("unit", m.unit.into()),
            )
        })
    }
}

/// Renders `j` on one line.
fn one_line(j: &Json) -> String {
    match j {
        Json::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", quoted(k), one_line(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
        Json::Arr(items) => {
            let body: Vec<String> = items.iter().map(one_line).collect();
            format!("[{}]", body.join(", "))
        }
        Json::Str(s) => quoted(s),
        Json::Num(x) if x.is_finite() => format!("{x}"),
        other => other.render().trim_end().to_string(),
    }
}

fn quoted(s: &str) -> String {
    Json::Str(s.to_string()).render().trim_end().to_string()
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn ns_between(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_nanos() as f64
}

/// The fastest host seconds seen for each slice of a deterministic piece
/// of work that is repeated. A slice is the same work every time, so
/// noise only ever adds time: the sum of the minima is what a host with
/// no other load would take.
#[derive(Clone, Default)]
struct Minima(Vec<f64>);

impl Minima {
    fn record(&mut self, slice: usize, seconds: f64) {
        match self.0.get_mut(slice) {
            Some(best) => *best = best.min(seconds),
            None => self.0.push(seconds),
        }
    }

    fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Timings of a set-up. Each sample repeats the set-up until 20 ms have
/// passed, so a millisecond set-up is not timer noise. Between passes a
/// sample is taken at most once a second, so the samples see the host
/// over the whole run. The fastest is reported, for the reason
/// [`Minima`] gives.
struct SetupClock<F> {
    setup: F,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl<F: FnMut() -> Result<(), String>> SetupClock<F> {
    fn new(setup: F) -> SetupClock<F> {
        SetupClock {
            setup,
            samples: Vec::new(),
            last: None,
        }
    }

    fn sample(&mut self) -> Result<(), String> {
        let start = Instant::now();
        let mut reps = 0u32;
        while reps == 0 || start.elapsed() < Duration::from_millis(20) {
            (self.setup)()?;
            reps += 1;
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / f64::from(reps));
        self.last = Some(Instant::now());
        Ok(())
    }

    /// Takes a sample if none was taken in the last second.
    fn sample_due(&mut self) -> Result<(), String> {
        match self.last {
            Some(t) if t.elapsed() < Duration::from_secs(1) => Ok(()),
            _ => self.sample(),
        }
    }

    fn best_s(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// A lone set-up timing: the fastest of 11 samples taken back to back.
fn setup_once(setup: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut clock = SetupClock::new(setup);
    for _ in 0..11 {
        clock.sample()?;
    }
    Ok(clock.best_s())
}

/// Layer readings a traced run accumulates.
struct TraceState {
    cal: Calibration,
    svc: OpStats,
    arb: OpStats,
    task: Hist,
    /// `Engine::run` nanoseconds net of what the wrappers themselves add:
    /// all cells, then the SVC cells and the ARB cells alone.
    engine_ns: f64,
    svc_engine_ns: f64,
    arb_engine_ns: f64,
    spans: Spans,
}

/// Simulated facts of one cell, identical on every pass.
#[derive(Clone, Copy, Default)]
struct CellFacts {
    cycles: u64,
    instrs: u64,
    ff_skipped: u64,
    mem: MemStats,
    bytes: usize,
}

struct CellOutcome {
    ok: bool,
    run_s: f64,
    serialize_ns: f64,
    facts: CellFacts,
    fresh: String,
}

type Timed<T> = (Result<T, String>, Instant, Instant);

/// Runs an engine to completion, catching a panic as a failure.
fn drive<M: VersionedMemory>(
    mut engine: Engine<M>,
    source: &dyn TaskSource,
) -> (Timed<RunReport>, M) {
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| engine.run(source))).map_err(|p| panic_text(&*p));
    let end = Instant::now();
    ((run, start, end), engine.into_memory())
}

/// [`drive`] in slices of `slice` simulated cycles through the engine's
/// run cursor (`run_until` then `finish` is exactly `run`), recording
/// each slice's host seconds in `best`.
fn drive_sliced<M: VersionedMemory>(
    mut engine: Engine<M>,
    source: &dyn TaskSource,
    slice: u64,
    best: &mut Minima,
) -> Timed<RunReport> {
    let start = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        for k in 0.. {
            let t = Instant::now();
            let done = engine.run_until(source, Some((k + 1) * slice));
            best.record(k as usize, t.elapsed().as_secs_f64());
            if done {
                break;
            }
        }
        engine.finish()
    }))
    .map_err(|p| panic_text(&*p));
    (run, start, Instant::now())
}

/// Runs, renders and checks one cell: sliced into `best` when
/// untraced, whole through the layer wrappers when traced.
fn sim_cell(
    cell: &Cell,
    budget: u64,
    expected: &str,
    best: &mut Minima,
    mut trace: Option<&mut TraceState>,
) -> CellOutcome {
    let cell_start = Instant::now();
    let wl = cell.workload();
    let cfg = cell.engine_config(&wl, budget);
    let (run, run_start, run_end) = match trace.as_deref_mut() {
        None => match cell.memory() {
            Mem::Svc(m) => drive_sliced(Engine::new(cfg, m), &wl, cell.slice, best),
            Mem::Arb(m) => drive_sliced(Engine::new(cfg, m), &wl, cell.slice, best),
        },
        Some(t) => {
            let bias = t.cal.timer_ns;
            let src = TracedSource::new(&wl, bias);
            let (timed, calls, layer_engine_ns) = match cell.memory() {
                Mem::Svc(m) => {
                    let (timed, mem) = drive(Engine::new(cfg, Traced::new(m, bias)), &src);
                    t.svc.merge(&mem.ops);
                    (timed, mem.ops.calls(), &mut t.svc_engine_ns)
                }
                Mem::Arb(m) => {
                    let (timed, mem) = drive(Engine::new(cfg, Traced::new(m, bias)), &src);
                    t.arb.merge(&mem.ops);
                    (timed, mem.ops.calls(), &mut t.arb_engine_ns)
                }
            };
            let task = src.into_hist();
            let wrapped = (calls + task.count()) as f64;
            let engine_ns = ns_between(timed.1, timed.2) - wrapped * t.cal.wrap_ns;
            *layer_engine_ns += engine_ns;
            t.engine_ns += engine_ns;
            t.task.merge(&task);
            timed
        }
    };

    let serialize_start = Instant::now();
    let (fresh, facts, finished) = match run {
        Ok(r) => {
            let mut facts = CellFacts {
                cycles: r.cycles,
                instrs: r.committed_instrs,
                ff_skipped: r.ff_skipped_cycles,
                mem: r.mem,
                bytes: 0,
            };
            let finished = !r.hit_cycle_limit;
            let fresh = cell.render(wl.name(), r).render();
            facts.bytes = fresh.len();
            (fresh, facts, finished)
        }
        Err(e) => {
            eprintln!(
                "perfbench: {}/{} panicked: {e}",
                cell.bench.name(),
                cell.label()
            );
            (String::new(), CellFacts::default(), false)
        }
    };
    let verify_start = Instant::now();
    let ok = verdict(finished, &fresh, expected);
    let verify_end = Instant::now();

    if let Some(t) = trace {
        let id = t.spans.reserve();
        t.spans.child(id, "setup", cell_start, run_start);
        t.spans.child(id, "engine.run", run_start, run_end);
        t.spans
            .child(id, "serialize", serialize_start, verify_start);
        t.spans.child(id, "verify", verify_start, verify_end);
        let name = format!("cell {}/{}", cell.bench.name(), cell.label());
        t.spans.push(id, 0, id, &name, cell_start, verify_end);
    }
    CellOutcome {
        ok,
        run_s: run_end.duration_since(run_start).as_secs_f64(),
        serialize_ns: ns_between(serialize_start, verify_start),
        facts,
        fresh,
    }
}

/// Timed passes over the cells of a simulated workload.
struct SimPhase {
    run_s: Vec<Vec<f64>>,
    serialize_ns: Vec<Vec<f64>>,
    /// Per cell, the fastest host seconds of each slice (untraced only).
    best: Vec<Minima>,
    passes: u64,
}

impl SimPhase {
    /// Host seconds of one pass: the sum of per-cell medians.
    fn median_pass_s(&self) -> f64 {
        self.run_s.iter().map(|v| median(&mut v.clone())).sum()
    }

    /// Host seconds of one pass with no other load on the host.
    fn best_pass_s(&self) -> f64 {
        self.best.iter().map(Minima::total).sum()
    }
}

/// The workload's cells with the committed outputs they must reproduce.
struct SimWork {
    cells: Vec<Cell>,
    budget: u64,
    expected: Vec<String>,
    facts: Vec<CellFacts>,
    /// A cell and its fresh output that matched, for the self-test.
    matched: Option<(usize, String)>,
}

impl SimWork {
    /// Passes over every cell, in a seeded order, until `seconds` would
    /// be exceeded; `between` runs before each pass.
    fn phase(
        &mut self,
        seconds: f64,
        rng: &mut SplitMix64,
        tally: &mut Tally,
        mut trace: Option<&mut TraceState>,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<SimPhase, String> {
        let n = self.cells.len();
        let mut phase = SimPhase {
            run_s: vec![Vec::new(); n],
            serialize_ns: vec![Vec::new(); n],
            best: vec![Minima::default(); n],
            passes: 0,
        };
        let start = Instant::now();
        loop {
            between()?;
            let pass_start = Instant::now();
            for i in rng.shuffled(n) {
                let cell = &self.cells[i];
                let out = sim_cell(
                    cell,
                    self.budget,
                    &self.expected[i],
                    &mut phase.best[i],
                    trace.as_deref_mut(),
                );
                tally.record(out.ok, &format!("{}/{}", cell.bench.name(), cell.label()));
                phase.run_s[i].push(out.run_s);
                phase.serialize_ns[i].push(out.serialize_ns);
                self.facts[i] = out.facts;
                if out.ok && self.matched.is_none() {
                    self.matched = Some((i, out.fresh));
                }
            }
            phase.passes += 1;
            if (start.elapsed() + pass_start.elapsed()).as_secs_f64() > seconds {
                return Ok(phase);
            }
        }
    }

    fn self_test(&self) -> Result<bool, String> {
        match &self.matched {
            Some((i, fresh)) => self_test(fresh, &self.expected[*i], "squashes"),
            None => Ok(false),
        }
    }

    fn total(&self, f: impl Fn(&CellFacts) -> u64) -> u64 {
        self.facts.iter().map(f).sum()
    }
}

/// Everything a run reports besides its metrics.
struct Report {
    metrics: Metrics,
    tally: Tally,
    self_test: bool,
    passes: u64,
    spans: Option<Spans>,
}

/// A simulated workload's set-up: parse the committed artifact, pick out
/// the expected cells, and build every generator, memory system and
/// engine.
fn sim_setup(text: &str, cells: &[Cell]) -> Result<(), String> {
    let artifact = Artifact::parse(text)?;
    let budget = artifact.budget()?;
    for cell in cells {
        black_box(artifact.expected_cell(cell)?);
        let wl = cell.workload();
        let cfg = cell.engine_config(&wl, budget);
        match cell.memory() {
            Mem::Svc(m) => drop(black_box((Engine::new(cfg, m), wl))),
            Mem::Arb(m) => drop(black_box((Engine::new(cfg, m), wl))),
        }
    }
    Ok(())
}

fn run_sim(args: &Args, rng: &mut SplitMix64) -> Result<Report, String> {
    let path = args.workload.artifact();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let cells = args.workload.cells();
    let artifact = Artifact::parse(&text)?;
    let mut work = SimWork {
        budget: artifact.budget()?,
        expected: cells
            .iter()
            .map(|c| artifact.expected_cell(c))
            .collect::<Result<_, _>>()?,
        facts: vec![CellFacts::default(); cells.len()],
        cells,
        matched: None,
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();

    if !args.trace {
        let setup_cells = work.cells.clone();
        let mut setup = SetupClock::new(|| sim_setup(&text, &setup_cells));
        let phase = work.phase(args.seconds, rng, &mut tally, None, &mut || {
            setup.sample_due()
        })?;
        let cycles = work.total(|f| f.cycles) as f64;
        metrics.put("work_per_s", cycles / phase.best_pass_s(), "1/s");
        metrics.put("setup_s", setup.best_s(), "s");
        return Ok(Report {
            metrics,
            tally,
            self_test: work.self_test()?,
            passes: phase.passes,
            spans: None,
        });
    }

    let parse_ns = setup_once(|| Artifact::parse(&text).map(drop))? * 1e9;
    let cal = layers::calibrate();
    let plain = work.phase(args.seconds / 2.0, rng, &mut tally, None, &mut || Ok(()))?;
    let mut t = TraceState {
        svc: OpStats::new(cal.timer_ns),
        arb: OpStats::new(cal.timer_ns),
        task: Hist::new(),
        engine_ns: 0.0,
        svc_engine_ns: 0.0,
        arb_engine_ns: 0.0,
        spans: Spans::new(Instant::now()),
        cal,
    };
    let traced = work.phase(
        args.seconds / 2.0,
        rng,
        &mut tally,
        Some(&mut t),
        &mut || Ok(()),
    )?;
    let per_pass = traced.passes as f64;

    let m = &mut metrics;
    let cycles = work.total(|f| f.cycles);
    let iterations = cycles - work.total(|f| f.ff_skipped);
    let layer_ns = (t.svc.ns_total() + t.arb.ns_total() + t.task.sum()) as f64;
    let self_ns = (t.engine_ns - layer_ns).max(0.0) / per_pass;
    m.put("engine.run_ns", t.engine_ns / per_pass, "ns");
    m.put("engine.self_ns", self_ns, "ns");
    m.put("engine.iterations", iterations as f64, "count");
    m.put(
        "engine.self_ns_per_iteration",
        self_ns / iterations as f64,
        "ns",
    );
    m.put(
        "engine.ff_skip_ratio",
        work.total(|f| f.ff_skipped) as f64 / cycles as f64,
        "ratio",
    );
    put_ops(m, "svc", &t.svc, per_pass, t.svc_engine_ns);
    put_ops(m, "arb", &t.arb, per_pass, t.arb_engine_ns);
    m.put(
        "workloads.task.calls",
        t.task.count() as f64 / per_pass,
        "count",
    );
    m.put(
        "workloads.task.ns_total",
        t.task.sum() as f64 / per_pass,
        "ns",
    );
    m.put(
        "workloads.share",
        t.task.sum() as f64 / t.engine_ns,
        "ratio",
    );
    put_mem(m, &work);
    put_check(m, None, 0.0);
    m.put(
        "report.cell_bytes",
        work.total(|f| f.bytes as u64) as f64,
        "B",
    );
    let serialize: Vec<Vec<f64>> = (0..work.cells.len())
        .map(|i| [&plain.serialize_ns[i][..], &traced.serialize_ns[i][..]].concat())
        .collect();
    let serialize_ns: f64 = serialize.into_iter().map(|mut v| median(&mut v)).sum();
    m.put("report.serialize_ns", serialize_ns, "ns");
    m.put("report.parse_ns", parse_ns, "ns");
    let overhead = traced.median_pass_s() / plain.median_pass_s() - 1.0;
    put_trace(m, &t.cal, overhead);
    m.put(
        "sim_cycles_per_s",
        cycles as f64 / plain.best_pass_s(),
        "1/s",
    );
    m.put(
        "sim_instrs_per_s",
        work.total(|f| f.instrs) as f64 / plain.best_pass_s(),
        "1/s",
    );
    m.put("check_states_per_s", 0.0, "1/s");
    Ok(Report {
        metrics,
        tally,
        self_test: work.self_test()?,
        passes: plain.passes + traced.passes,
        spans: Some(t.spans),
    })
}

/// The layer's per-op metrics; its share is of `engine_ns`, the engine
/// time of the cells that run on it.
fn put_ops(m: &mut Metrics, layer: &str, ops: &OpStats, per_pass: f64, engine_ns: f64) {
    for op in Op::ALL {
        let h = ops.get(op);
        let name = format!("{layer}.{}", op.name());
        m.put(
            format!("{name}.calls"),
            h.count() as f64 / per_pass,
            "count",
        );
        m.put(format!("{name}.ns_total"), h.sum() as f64 / per_pass, "ns");
        m.put(format!("{name}.ns_p50"), h.quantile(0.5), "ns");
        m.put(format!("{name}.ns_p99"), h.quantile(0.99), "ns");
    }
    let share = if engine_ns > 0.0 {
        ops.ns_total() as f64 / engine_ns
    } else {
        0.0
    };
    m.put(format!("{layer}.share"), share, "ratio");
}

fn put_mem(m: &mut Metrics, work: &SimWork) {
    let sum = |f: fn(&MemStats) -> u64| work.total(|c| f(&c.mem));
    let mut total = MemStats::default();
    total.mshr_misses = sum(|s| s.mshr_misses);
    total.mshr_combines = sum(|s| s.mshr_combines);
    let busy = sum(|s| s.bus_busy_cycles);
    m.put(
        "mem.bus_transactions",
        sum(|s| s.bus_transactions) as f64,
        "count",
    );
    m.put("mem.bus_busy_cycles", busy as f64, "cycles");
    m.put(
        "mem.bus_wait_cycles",
        sum(|s| s.bus_wait_cycles) as f64,
        "cycles",
    );
    m.put(
        "mem.bus_utilization",
        busy as f64 / work.total(|c| c.cycles) as f64,
        "ratio",
    );
    m.put(
        "mem.next_level_fills",
        sum(|s| s.next_level_fills) as f64,
        "count",
    );
    m.put(
        "mem.cache_transfers",
        sum(|s| s.cache_transfers) as f64,
        "count",
    );
    m.put("mem.mshr_combine_rate", total.mshr_combine_rate(), "ratio");
}

fn put_check(m: &mut Metrics, out: Option<&ExploreOutcome>, transitions_per_s: f64) {
    let (states, transitions, depth) =
        out.map_or((0, 0, 0), |o| (o.states, o.transitions, o.max_depth));
    m.put("check.states", states as f64, "count");
    m.put("check.transitions", transitions as f64, "count");
    m.put("check.max_depth", depth as f64, "count");
    m.put("check.transitions_per_s", transitions_per_s, "1/s");
}

fn put_trace(m: &mut Metrics, cal: &Calibration, overhead: f64) {
    m.put("trace.timer_ns", cal.timer_ns as f64, "ns");
    m.put("trace.wrap_ns", cal.wrap_ns, "ns");
    m.put("trace.overhead", overhead, "ratio");
}

/// Zeroes for the layers a model check never calls.
fn put_idle_sim_layers(m: &mut Metrics) {
    for (name, unit) in [
        ("engine.run_ns", "ns"),
        ("engine.self_ns", "ns"),
        ("engine.iterations", "count"),
        ("engine.self_ns_per_iteration", "ns"),
        ("engine.ff_skip_ratio", "ratio"),
    ] {
        m.put(name, 0.0, unit);
    }
    let idle = OpStats::new(0);
    for layer in ["svc", "arb"] {
        put_ops(m, layer, &idle, 1.0, 0.0);
    }
    for (name, unit) in [
        ("workloads.task.calls", "count"),
        ("workloads.task.ns_total", "ns"),
        ("workloads.share", "ratio"),
        ("mem.bus_transactions", "count"),
        ("mem.bus_busy_cycles", "cycles"),
        ("mem.bus_wait_cycles", "cycles"),
        ("mem.bus_utilization", "ratio"),
        ("mem.next_level_fills", "count"),
        ("mem.cache_transfers", "count"),
        ("mem.mshr_combine_rate", "ratio"),
    ] {
        m.put(name, 0.0, unit);
    }
}

/// Runs `explore_design(SvcFinal)` within `limits`, catching a panic as
/// a failure.
fn explore(limits: &Limits) -> Timed<ExploreOutcome> {
    let start = Instant::now();
    let run =
        catch_unwind(|| explore_design(DesignId::SvcFinal, limits)).map_err(|p| panic_text(&*p));
    (run, start, Instant::now())
}

/// An exploration that was run, rendered and judged.
struct Explored {
    /// The outcome, if it passed.
    out: Option<ExploreOutcome>,
    explore_s: f64,
    serialize_ns: f64,
    fresh: String,
}

/// One exploration within `limits`, rendered and judged against
/// `expected` (`None`: the first of its kind, which becomes the expected
/// output). A `prefix` must stop at its limit, a full exploration must
/// not, and neither may find a violation.
fn check_one(
    limits: &Limits,
    prefix: bool,
    expected: &mut Option<String>,
    tally: &mut Tally,
    spans: Option<&mut Spans>,
) -> Explored {
    let (run, start, end) = explore(limits);
    let (fresh, finished) = match &run {
        Ok(out) => (
            cells::render_check(out).render(),
            out.violation.is_none() && out.truncated == prefix,
        ),
        Err(e) => {
            eprintln!("perfbench: svc-final exploration panicked: {e}");
            (String::new(), false)
        }
    };
    let verify_start = Instant::now();
    let want = expected.get_or_insert_with(|| fresh.clone());
    let ok = verdict(finished, &fresh, want);
    let verify_end = Instant::now();
    let what = if prefix {
        format!("svc-final exploration of {} states", limits.max_states)
    } else {
        "svc-final exploration".to_string()
    };
    tally.record(ok, &what);
    if let Some(spans) = spans {
        let id = spans.reserve();
        spans.child(id, "explore_design", start, end);
        spans.child(id, "serialize", end, verify_start);
        spans.child(id, "verify", verify_start, verify_end);
        spans.push(id, 0, id, &format!("check {what}"), start, verify_end);
    }
    Explored {
        out: run.ok().filter(|_| ok),
        explore_s: end.duration_since(start).as_secs_f64(),
        serialize_ns: ns_between(end, verify_start),
        fresh,
    }
}

/// The model-check workload: one full exploration checked against the
/// committed pin, then a fixed prefix of the same breadth-first
/// exploration run over and over. The prefix is the same work every
/// time, so its fastest run is the timing, as a simulation slice's is.
struct CheckWork {
    /// The committed `svc-final` entry.
    expected: Option<String>,
    /// The first prefix exploration's output, which every later one must
    /// reproduce.
    prefix_expected: Option<String>,
    /// The full exploration, if it passed.
    full: Option<Explored>,
    /// The prefix's outcome, if it passed.
    prefix_out: Option<ExploreOutcome>,
}

impl CheckWork {
    fn full(&mut self, tally: &mut Tally, spans: Option<&mut Spans>) -> f64 {
        let full = check_one(&Limits::default(), false, &mut self.expected, tally, spans);
        let secs = full.explore_s;
        self.full = Some(full).filter(|f| f.out.is_some());
        secs
    }

    /// Prefix explorations until `seconds` would be exceeded, `between`
    /// running before each: the fastest in `best`, every time in the
    /// returned list.
    fn phase(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        best: &mut Minima,
        mut spans: Option<&mut Spans>,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<Vec<f64>, String> {
        let limits = Limits {
            max_states: cells::CHECK_PREFIX_STATES,
        };
        let mut times = Vec::new();
        let start = Instant::now();
        loop {
            between()?;
            let run = check_one(
                &limits,
                true,
                &mut self.prefix_expected,
                tally,
                spans.as_deref_mut(),
            );
            if run.out.is_some() {
                self.prefix_out = run.out;
            }
            best.record(0, run.explore_s);
            times.push(run.explore_s);
            if start.elapsed().as_secs_f64() + run.explore_s > seconds {
                return Ok(times);
            }
        }
    }

    /// Distinct states of the prefix per host second, with no other load.
    fn states_per_s(&self, best: &Minima) -> f64 {
        self.prefix_out.as_ref().map_or(0.0, |o| o.states as f64) / best.total()
    }

    fn self_test(&self) -> Result<bool, String> {
        match (&self.full, &self.expected) {
            (Some(full), Some(expected)) => self_test(&full.fresh, expected, "states"),
            _ => Ok(false),
        }
    }
}

fn run_check(args: &Args) -> Result<Report, String> {
    let path = args.workload.artifact();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let check_setup = || Artifact::parse(&text)?.expected_check().map(drop);
    let mut work = CheckWork {
        expected: Some(Artifact::parse(&text)?.expected_check()?),
        prefix_expected: None,
        full: None,
        prefix_out: None,
    };
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut best = Minima::default();
    let start = Instant::now();

    if !args.trace {
        let mut setup = SetupClock::new(check_setup);
        work.full(&mut tally, None);
        let times = work.phase(
            args.seconds - start.elapsed().as_secs_f64(),
            &mut tally,
            &mut best,
            None,
            &mut || setup.sample_due(),
        )?;
        metrics.put("work_per_s", work.states_per_s(&best), "1/s");
        metrics.put("setup_s", setup.best_s(), "s");
        return Ok(Report {
            metrics,
            self_test: work.self_test()?,
            tally,
            passes: 1 + times.len() as u64,
            spans: None,
        });
    }

    let parse_ns = setup_once(check_setup)? * 1e9;
    let cal = layers::calibrate();
    let mut spans = Spans::new(Instant::now());
    let full_s = work.full(&mut tally, Some(&mut spans));
    let half = (args.seconds - start.elapsed().as_secs_f64()) / 2.0;
    let mut plain = work.phase(half, &mut tally, &mut best, None, &mut || Ok(()))?;
    let mut traced = work.phase(
        half,
        &mut tally,
        &mut Minima::default(),
        Some(&mut spans),
        &mut || Ok(()),
    )?;
    let m = &mut metrics;
    put_idle_sim_layers(m);
    let full = work.full.as_ref();
    let outcome = full.and_then(|f| f.out.as_ref());
    put_check(
        m,
        outcome,
        outcome.map_or(0.0, |o| o.transitions as f64) / full_s,
    );
    m.put(
        "report.cell_bytes",
        full.map_or(0.0, |f| f.fresh.len() as f64),
        "B",
    );
    m.put(
        "report.serialize_ns",
        full.map_or(0.0, |f| f.serialize_ns),
        "ns",
    );
    m.put("report.parse_ns", parse_ns, "ns");
    put_trace(m, &cal, median(&mut traced) / median(&mut plain) - 1.0);
    m.put("sim_cycles_per_s", 0.0, "1/s");
    m.put("sim_instrs_per_s", 0.0, "1/s");
    m.put("check_states_per_s", work.states_per_s(&best), "1/s");
    Ok(Report {
        metrics,
        self_test: work.self_test()?,
        tally,
        passes: 1 + (plain.len() + traced.len()) as u64,
        spans: Some(spans),
    })
}

fn spans_json(spans: &Spans) -> Json {
    Json::Arr(
        spans
            .list
            .iter()
            .map(|s| {
                Json::obj()
                    .set("id", s.id.into())
                    .set("parent", s.parent.into())
                    .set("cell", s.cell.into())
                    .set("name", s.name.as_str().into())
                    .set("start_ns", s.start_ns.into())
                    .set("dur_ns", s.dur_ns.into())
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<(bool, Tally, Metrics), String> {
    let wall_start = Instant::now();
    let cpu_start = host::cpu_ns()?;
    let mut rng = SplitMix64(args.seed);
    let mut report = match args.workload {
        Workload::CheckSvc => run_check(args)?,
        _ => run_sim(args, &mut rng)?,
    };
    let cpu_per_wall =
        (host::cpu_ns()? - cpu_start) as f64 / wall_start.elapsed().as_nanos() as f64;
    if args.trace {
        report
            .metrics
            .put("host.cpu_per_wall", cpu_per_wall, "ratio");
    } else {
        let rss_mb = host::peak_rss_kib()? as f64 / 1024.0;
        report.metrics.put("peak_rss_mb", rss_mb, "MB");
    }
    if !report.self_test {
        eprintln!("perfbench: the output check did not reject a deliberately altered output");
    }

    let t = &report.tally;
    let host = Json::obj()
        .set("workload", args.workload.name().into())
        .set("seed", args.seed.into())
        .set("trace", args.trace.into())
        .set("passes", report.passes.into())
        .set(
            "error_rate",
            (t.failed as f64 / t.attempted.max(1) as f64).into(),
        )
        .set("self_test", report.self_test.into())
        .set("nproc", host::nproc().into())
        .set("cpu_model", host::cpu_model().into())
        .set("rustc", host::rustc().into())
        .set("revision", host::revision().into())
        .set("cpu_per_wall", cpu_per_wall.into());
    println!("{}", one_line(&Json::obj().set("host", host.clone())));
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new("perfbench/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            args.workload.name(),
            args.seed
        ));
        let doc = Json::obj()
            .set("schema", "perfbench-trace/v1".into())
            .set("host", host)
            .set("metrics", report.metrics.json())
            .set("spans", spans_json(spans));
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans -> {}", path.display());
    }
    let correct = report.self_test && t.failed == 0;
    Ok((correct, report.tally, report.metrics))
}

fn main() -> ExitCode {
    // Pin configuration at the edge: library code still reads several
    // `SVC_*` variables deep inside (fast-forward, engine lanes, tracing,
    // profiling, faults, watchdog, mutations), so none may leak in.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("SVC_") {
            std::env::remove_var(&key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper-4pu|wide-64pu|check-svc> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((correct, tally, metrics)) => {
            let line = Json::obj()
                .set("correct", correct.into())
                .set("attempted", tally.attempted.into())
                .set("failed", tally.failed.into())
                .set("metrics", metrics.json());
            println!("{}", one_line(&line));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_rejects_unfinished_and_differing_outputs() {
        assert!(verdict(true, "a", "a"));
        assert!(!verdict(false, "a", "a"));
        assert!(!verdict(true, "a", "b"));
    }

    #[test]
    fn self_test_counts_exactly_the_altered_copy() {
        let expected = svc_bench::report::parse(r#"{"states": 5, "squashes": 2}"#)
            .unwrap()
            .render();
        assert!(self_test(&expected, &expected, "squashes").unwrap());
        // An output that never matched fails both checks, not one.
        assert!(!self_test("{}", &expected, "squashes").unwrap());
    }

    #[test]
    fn minima_keep_the_fastest_time_per_slice() {
        let mut m = Minima::default();
        for (k, s) in [(0, 3.0), (1, 2.0), (0, 1.0), (1, 5.0)] {
            m.record(k, s);
        }
        assert_eq!(m.total(), 3.0);
    }
}
