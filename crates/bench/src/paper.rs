//! The paper's evaluation grid (§4.4) and every view rendered from it.
//!
//! Tables 2 and 3 and Figures 19 and 20 are columns of one grid: the
//! seven SPEC95 models on the ARB with 1–4-cycle hits and on the SVC,
//! at 32KB and at 64KB total data storage — 70 cells. [`grid`] lists
//! each cell once, the `paper` binary simulates each once, and
//! [`render`] prints the tables, the figures, the calibration views and
//! the per-event diagnostics from that one set of results, asserting
//! the paper's shape claims on the way.

use std::fmt::Write as _;

use svc_sim::table::{fmt_ipc, fmt_pct, fmt_ratio, Table};
use svc_workloads::Spec95;

use crate::{cross, ExperimentResult, GridJob, MemoryKind, NUM_PUS};

/// Cells per figure: seven benchmarks × (four ARB hit latencies + the
/// SVC). The grid holds Figure 19's cells, then Figure 20's.
pub const FIGURE_CELLS: usize = 35;

/// The paper's measurements per benchmark, in [`Spec95::ALL`] order:
/// (ARB-32KB miss ratio, SVC-4x8KB miss ratio, from Table 2; 4x8KB and
/// 4x16KB bus utilization, from Table 3).
const REPORTED: [(f64, f64, f64, f64); 7] = [
    (0.031, 0.075, 0.348, 0.341), // compress
    (0.021, 0.036, 0.219, 0.203), // gcc
    (0.019, 0.025, 0.360, 0.354), // vortex
    (0.026, 0.024, 0.313, 0.291), // perl
    (0.015, 0.027, 0.241, 0.226), // ijpeg
    (0.081, 0.093, 0.747, 0.632), // mgrid
    (0.023, 0.034, 0.276, 0.255), // apsi
];

fn arb(hit_cycles: u64, cache_kb: usize) -> MemoryKind {
    MemoryKind::Arb {
        hit_cycles,
        cache_kb,
    }
}

fn svc(kb_per_cache: usize) -> MemoryKind {
    MemoryKind::Svc { kb_per_cache }
}

/// A figure's five memories: the ARB with 1–4-cycle hits over an
/// `arb_kb` cache, then the SVC with `svc_kb` per private cache.
fn figure_memories(arb_kb: usize, svc_kb: usize) -> Vec<MemoryKind> {
    (1..=4)
        .map(|h| arb(h, arb_kb))
        .chain(std::iter::once(svc(svc_kb)))
        .collect()
}

/// The 70 cells: Figure 19's 35 (32KB total) then Figure 20's 35
/// (64KB), each benchmark-major in its document's run order. Every
/// other view reads a subset of these.
pub fn grid() -> Vec<GridJob> {
    let mut jobs = cross(&Spec95::ALL, &figure_memories(32, 8));
    jobs.extend(cross(&Spec95::ALL, &figure_memories(64, 16)));
    jobs
}

/// Finished paper-grid results, looked up by cell.
struct Cells<'a>(&'a [ExperimentResult]);

impl<'a> Cells<'a> {
    fn get(&self, bench: Spec95, memory: MemoryKind) -> &'a ExperimentResult {
        let label = memory.label(NUM_PUS);
        self.0
            .iter()
            .find(|r| r.workload == bench.name() && r.memory == label)
            .unwrap_or_else(|| panic!("{bench}/{label} is not a paper-grid cell"))
    }
}

fn verdict(pass: bool) -> &'static str {
    if pass {
        "PASS"
    } else {
        "FAIL"
    }
}

fn header(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|s| s.to_string()).collect()
}

/// One view: appends its lines to the output and returns whether its
/// shape checks passed (views without checks return `true`).
type View = fn(&Cells, &mut String) -> bool;

/// Renders every view of the finished grid — Table 2, Table 3, Figures
/// 19 and 20, the 32KB and 64KB calibration tables and the per-event
/// diagnostics — in that order, a blank line apart. Returns the text
/// and whether every shape check passed.
///
/// # Panics
///
/// If `results` lacks a cell some view reads.
pub fn render(results: &[ExperimentResult]) -> (String, bool) {
    const VIEWS: [View; 7] = [
        table_2,
        table_3,
        figure_19,
        figure_20,
        calibration_32kb,
        calibration_64kb,
        diagnostics,
    ];
    let cells = Cells(results);
    let mut out = String::new();
    let mut ok = true;
    for (i, view) in VIEWS.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        ok &= view(&cells, &mut out);
    }
    (out, ok)
}

/// **Table 2**: miss ratios for the ARB (32KB shared, direct-mapped)
/// and the SVC (4×8KB private, 4-way). "For the SVC, an access is
/// counted as a miss if data is supplied by the next level memory;
/// data transfers between the L1 caches are not counted as misses."
/// (§4.4) The SVC misses more everywhere except perl.
fn table_2(cells: &Cells, out: &mut String) -> bool {
    let _ = writeln!(
        out,
        "Table 2: Miss Ratios for ARB and SVC (32KB total data storage)\n"
    );
    let mut t = Table::new(header(&[
        "Benchmark",
        "ARB-32KB",
        "(paper)",
        "SVC-4x8KB",
        "(paper)",
    ]));
    for (b, &(arb_miss, svc_miss, ..)) in Spec95::ALL.into_iter().zip(&REPORTED) {
        t.row(vec![
            b.name().into(),
            fmt_ratio(cells.get(b, arb(1, 32)).miss_ratio),
            fmt_ratio(arb_miss),
            fmt_ratio(cells.get(b, svc(8)).miss_ratio),
            fmt_ratio(svc_miss),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "Shape checks:");
    let mut ok = true;
    for b in Spec95::ALL {
        let (a, s) = (cells.get(b, arb(1, 32)), cells.get(b, svc(8)));
        let inverted = b == Spec95::Perl;
        let pass = if inverted {
            s.miss_ratio < a.miss_ratio
        } else {
            s.miss_ratio > a.miss_ratio
        };
        ok &= pass;
        let _ = writeln!(
            out,
            "  {} {:8}: SVC {} ARB ({})",
            verdict(pass),
            b.name(),
            if inverted { "<" } else { ">" },
            if inverted {
                "perl is the paper's one inversion"
            } else {
                "reference spreading"
            }
        );
    }
    ok
}

/// **Table 3**: snooping-bus utilization of the SVC at 4×8KB and
/// 4×16KB. mgrid is by far the highest ("mostly due to misses to the
/// next level memory", §4.4); 4×16KB is at or below 4×8KB everywhere.
/// Absolute levels run below the paper's because this bus model
/// pipelines consecutive transactions (see EXPERIMENTS.md).
fn table_3(cells: &Cells, out: &mut String) -> bool {
    let _ = writeln!(out, "Table 3: Snooping Bus Utilization for SVC\n");
    let mut t = Table::new(header(&[
        "Benchmark",
        "4x8KB",
        "(paper)",
        "4x16KB",
        "(paper)",
    ]));
    let util = |b, kb| cells.get(b, svc(kb)).bus_utilization;
    for (b, &(.., bus_8kb, bus_16kb)) in Spec95::ALL.into_iter().zip(&REPORTED) {
        t.row(vec![
            b.name().into(),
            fmt_ratio(util(b, 8)),
            fmt_ratio(bus_8kb),
            fmt_ratio(util(b, 16)),
            fmt_ratio(bus_16kb),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "Shape checks:");
    let mut ok = true;
    let mgrid = util(Spec95::Mgrid, 8);
    for b in Spec95::ALL.into_iter().filter(|&b| b != Spec95::Mgrid) {
        let pass = mgrid > util(b, 8);
        ok &= pass;
        let _ = writeln!(
            out,
            "  {} mgrid ({mgrid:.3}) > {} ({:.3})",
            verdict(pass),
            b.name(),
            util(b, 8)
        );
    }
    for b in Spec95::ALL {
        let (u8kb, u16kb) = (util(b, 8), util(b, 16));
        let pass = u16kb <= u8kb + 0.01;
        ok &= pass;
        let _ = writeln!(
            out,
            "  {} {:8}: 4x16KB ({u16kb:.3}) <= 4x8KB ({u8kb:.3})",
            verdict(pass),
            b.name()
        );
    }
    ok
}

/// **Figure 19**: IPCs for the ARB (hit latency 1–4 cycles,
/// contention-free) and the SVC (1-cycle private hits) at 32KB total.
fn figure_19(cells: &Cells, out: &mut String) -> bool {
    figure(
        cells,
        out,
        "Figure 19: SPEC95 IPCs for ARB and SVC — 32KB total data storage",
        32,
        8,
    )
}

/// **Figure 20**: Figure 19 at 64KB total, plus the paper's headline:
/// "for a total storage of 64KB, the SVC outperforms the ARB [with
/// 2-cycle hits] by as much as 8% for mgrid" (reported, not asserted).
fn figure_20(cells: &Cells, out: &mut String) -> bool {
    let ok = figure(
        cells,
        out,
        "Figure 20: SPEC95 IPCs for ARB and SVC — 64KB total data storage",
        64,
        16,
    );
    let arb2 = cells.get(Spec95::Mgrid, arb(2, 64)).ipc;
    let svc16 = cells.get(Spec95::Mgrid, svc(16)).ipc;
    let _ = writeln!(
        out,
        "\nmgrid headline: SVC-4x16KB {svc16:.2} vs ARB-2c-64KB {arb2:.2} ({:+.1}%; paper: up to +8%)",
        (svc16 / arb2 - 1.0) * 100.0
    );
    ok
}

/// One IPC figure. Shape targets (§4.4): (i) ARB IPC falls
/// monotonically with hit latency; (ii) the SVC beats the ARB at 3+
/// cycles everywhere and at 2 cycles for gcc, apsi and mgrid.
fn figure(cells: &Cells, out: &mut String, title: &str, arb_kb: usize, svc_kb: usize) -> bool {
    let _ = writeln!(out, "{title}\n");
    let mut t = Table::new(header(&[
        "Benchmark",
        "ARB(1c)",
        "ARB(2c)",
        "ARB(3c)",
        "ARB(4c)",
        "SVC(1c)",
        "SVC vs ARB2",
    ]));
    let mut ok = true;
    let mut checks = Vec::new();
    for b in Spec95::ALL {
        let arb_ipc: Vec<f64> = (1..=4).map(|h| cells.get(b, arb(h, arb_kb)).ipc).collect();
        let svc_ipc = cells.get(b, svc(svc_kb)).ipc;
        t.row(vec![
            b.name().into(),
            fmt_ipc(arb_ipc[0]),
            fmt_ipc(arb_ipc[1]),
            fmt_ipc(arb_ipc[2]),
            fmt_ipc(arb_ipc[3]),
            fmt_ipc(svc_ipc),
            fmt_pct(svc_ipc / arb_ipc[1] - 1.0),
        ]);
        let mono = arb_ipc.windows(2).all(|w| w[0] > w[1]);
        ok &= mono;
        checks.push(format!(
            "  {} {:8}: ARB IPC falls monotonically 1c..4c",
            verdict(mono),
            b.name()
        ));
        let beats3 = svc_ipc > arb_ipc[2];
        ok &= beats3;
        checks.push(format!(
            "  {} {:8}: SVC ({svc_ipc:.2}) > ARB-3c ({:.2})",
            verdict(beats3),
            b.name(),
            arb_ipc[2]
        ));
        if matches!(b, Spec95::Gcc | Spec95::Apsi | Spec95::Mgrid) {
            let beats2 = svc_ipc > arb_ipc[1];
            ok &= beats2;
            checks.push(format!(
                "  {} {:8}: SVC ({svc_ipc:.2}) > ARB-2c ({:.2}) [paper: gcc/apsi/mgrid]",
                verdict(beats2),
                b.name(),
                arb_ipc[1]
            ));
        }
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(out, "Shape checks:");
    for c in checks {
        let _ = writeln!(out, "{c}");
    }
    ok
}

/// The 32KB calibration view: every metric the paper reports per
/// benchmark, side by side with the paper's values, for tuning the
/// workload profiles in `svc-workloads`.
fn calibration_32kb(cells: &Cells, out: &mut String) -> bool {
    let mut t = Table::new(header(&[
        "bench", "ARBmiss", "(paper)", "SVCmiss", "(paper)", "bus8K", "(paper)", "ARB1", "ARB2",
        "ARB3", "ARB4", "SVC", "sq", "mp",
    ]));
    for (b, &(arb_miss, svc_miss, bus_8kb, _)) in Spec95::ALL.into_iter().zip(&REPORTED) {
        let arb_ipc = |h| fmt_ipc(cells.get(b, arb(h, 32)).ipc);
        let s = cells.get(b, svc(8));
        t.row(vec![
            b.name().into(),
            fmt_ratio(cells.get(b, arb(1, 32)).miss_ratio),
            fmt_ratio(arb_miss),
            fmt_ratio(s.miss_ratio),
            fmt_ratio(svc_miss),
            fmt_ratio(s.bus_utilization),
            fmt_ratio(bus_8kb),
            arb_ipc(1),
            arb_ipc(2),
            arb_ipc(3),
            arb_ipc(4),
            fmt_ipc(s.ipc),
            format!("{}", s.report.squashes),
            format!("{}", s.report.mispredictions),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    true
}

/// The 64KB calibration view (Figure 20's configuration).
fn calibration_64kb(cells: &Cells, out: &mut String) -> bool {
    let mut t = Table::new(header(&[
        "bench", "ARB1", "ARB2", "ARB3", "ARB4", "SVC16", "SVCmiss", "bus16K", "(paper)",
    ]));
    for (b, &(.., bus_16kb)) in Spec95::ALL.into_iter().zip(&REPORTED) {
        let arb_ipc = |h| fmt_ipc(cells.get(b, arb(h, 64)).ipc);
        let s = cells.get(b, svc(16));
        t.row(vec![
            b.name().into(),
            arb_ipc(1),
            arb_ipc(2),
            arb_ipc(3),
            arb_ipc(4),
            fmt_ipc(s.ipc),
            fmt_ratio(s.miss_ratio),
            fmt_ratio(s.bus_utilization),
            fmt_ratio(bus_16kb),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    true
}

/// Per-event diagnostics used while calibrating the workload models:
/// per-task event rates of the 4×8KB SVC and the 1-cycle 32KB ARB on
/// gcc, compress and mgrid.
fn diagnostics(cells: &Cells, out: &mut String) -> bool {
    for b in [Spec95::Gcc, Spec95::Compress, Spec95::Mgrid] {
        let (s, a) = (cells.get(b, svc(8)), cells.get(b, arb(1, 32)));
        let t = s.report.committed_tasks as f64;
        let m = &s.report.mem;
        let _ = writeln!(
            out,
            "== {b:?}: SVC tasks={t} cycles={} cyc/task={:.1}",
            s.report.cycles,
            s.report.cycles as f64 / t
        );
        let _ = writeln!(out, "  SVC per task: loads {:.2} stores {:.2} fills {:.3} transfers {:.3} txns {:.3} wbacks {:.3} purged {:.3} squashinv {:.3} snarfs {:.3}",
            m.loads as f64/t, m.stores as f64/t, m.next_level_fills as f64/t,
            m.cache_transfers as f64/t, m.bus_transactions as f64/t,
            m.writebacks as f64/t, m.purged_versions as f64/t,
            m.squash_invalidations as f64/t, m.snarfs as f64/t);
        let _ = writeln!(
            out,
            "  SVC busy/txn {:.2} violations/task {:.3} squashes {} repl_stalls {}",
            m.bus_busy_cycles as f64 / m.bus_transactions.max(1) as f64,
            m.violations as f64 / t,
            s.report.squashes,
            m.replacement_stalls
        );
        let am = &a.report.mem;
        let at = a.report.committed_tasks as f64;
        let _ = writeln!(
            out,
            "  ARB per task: loads {:.2} stores {:.2} fills {:.3} miss {:.4} viol/task {:.3}",
            am.loads as f64 / at,
            am.stores as f64 / at,
            am.next_level_fills as f64 / at,
            a.miss_ratio,
            am.violations as f64 / at
        );
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{self, Json};

    /// Unsimulated results carrying each grid cell's labels.
    fn labeled(jobs: &[GridJob]) -> Vec<ExperimentResult> {
        jobs.iter()
            .map(|j| ExperimentResult {
                workload: j.bench.name().to_string(),
                memory: j.memory.label(j.num_pus),
                ..ExperimentResult::default()
            })
            .collect()
    }

    #[test]
    fn grid_holds_seventy_distinct_cells() {
        let jobs = grid();
        assert_eq!(jobs.len(), 2 * FIGURE_CELLS);
        for (i, a) in jobs.iter().enumerate() {
            assert!(!jobs[..i].contains(a), "{a:?} appears twice");
        }
    }

    /// Every view renders from the grid alone: a view reading a cell
    /// outside it would panic in the lookup.
    #[test]
    fn every_view_reads_only_grid_cells() {
        let (text, _) = render(&labeled(&grid()));
        for title in [
            "Table 2:",
            "Table 3:",
            "Figure 19:",
            "Figure 20:",
            "mgrid headline:",
        ] {
            assert!(text.contains(title), "{title} missing");
        }
        let mut jobs = grid();
        jobs.retain(|j| !(j.bench == Spec95::Mgrid && j.memory == svc(16)));
        let missing = std::panic::catch_unwind(|| render(&labeled(&jobs)));
        assert!(missing.is_err(), "a view's cell was dropped unnoticed");
    }

    /// The grid's halves are the committed Figure 19 and Figure 20
    /// documents, cell for cell and in their run order.
    #[test]
    fn figure_halves_follow_the_committed_run_order() {
        let docs = [
            include_str!("../../../results/fig19.json"),
            include_str!("../../../results/fig20.json"),
        ];
        for (half, text) in grid().chunks(FIGURE_CELLS).zip(docs) {
            let doc = report::parse(text).expect("committed document parses");
            let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
            let committed: Vec<(String, String)> = runs
                .iter()
                .map(|r| {
                    let label = |k| r.get(k).and_then(Json::as_str).expect("label").to_string();
                    (label("workload"), label("memory"))
                })
                .collect();
            let ours: Vec<(String, String)> = half
                .iter()
                .map(|j| (j.bench.name().to_string(), j.memory.label(j.num_pus)))
                .collect();
            assert_eq!(ours, committed);
        }
    }
}
