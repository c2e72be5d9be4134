//! Squash forensics: turning a raw event trace into causal explanations.
//!
//! A squash counter going up tells you *that* speculation failed; this
//! module reconstructs *why*. Working over the recorded
//! [`Record`] stream it can
//!
//! * rebuild a chosen line's full version history
//!   ([`line_history`] / [`render_line_report`]): every state-bit
//!   transition, VOL splice/purge, VCL plan, and access that touched the
//!   line, in cycle order; and
//! * extract causal squash chains ([`squash_chains`]): for each detected
//!   memory-dependence violation, the store that triggered it, the
//!   premature load it exposed, the VOL order of the line at that moment
//!   (hence which task held which version), and the set of tasks the
//!   squash walk then tore down.
//!
//! The pass is pure — it reads records, it never re-runs the simulator —
//! so it works equally on a live in-memory ring or on records re-read
//! from a JSONL artifact.

use std::collections::BTreeMap;

use svc_types::{Addr, LineId, PuId, TaskId};

use crate::trace::{AccessOp, LineBits, Record, SquashCause, TraceEvent, VolEntry};

/// The line a word address maps to, given the line size in words.
pub fn line_of(addr: Addr, words_per_line: u64) -> LineId {
    LineId(addr.0 / words_per_line.max(1))
}

/// Whether `event` concerns `line` (directly, or via an address that maps
/// to it).
fn touches_line(event: &TraceEvent, line: LineId, words_per_line: u64) -> bool {
    match event {
        TraceEvent::BusTransaction { line: l, .. } => *l == Some(line),
        TraceEvent::MshrAllocate { line: l, .. }
        | TraceEvent::MshrCombine { line: l, .. }
        | TraceEvent::MshrRetire { line: l, .. }
        | TraceEvent::LineTransition { line: l, .. }
        | TraceEvent::CoherenceTransition { line: l, .. }
        | TraceEvent::VolReorder { line: l, .. } => *l == line,
        TraceEvent::VclPlan(p) => p.line == line,
        TraceEvent::Access { addr, .. } | TraceEvent::Violation { addr, .. } => {
            line_of(*addr, words_per_line) == line
        }
        TraceEvent::Fault(e) => e.line == Some(line),
        TraceEvent::InvariantViolation { line: l, .. } => *l == Some(line),
        TraceEvent::WritebackPush { .. }
        | TraceEvent::TaskDispatch { .. }
        | TraceEvent::TaskCommit { .. }
        | TraceEvent::TaskSquash { .. } => false,
    }
}

/// All records that touched `line`, in trace order.
pub fn line_history(records: &[Record], line: LineId, words_per_line: u64) -> Vec<&Record> {
    records
        .iter()
        .filter(|r| touches_line(&r.event, line, words_per_line))
        .collect()
}

/// One reconstructed violation → squash causal chain.
#[derive(Debug, Clone, PartialEq)]
pub struct SquashChain {
    /// Cycle the violation was detected.
    pub cycle: u64,
    /// The conflicting word address.
    pub addr: Addr,
    /// The line that address maps to.
    pub line: LineId,
    /// The PU whose store exposed the violation.
    pub store_pu: PuId,
    /// The task whose store exposed the violation.
    pub store_task: TaskId,
    /// The oldest violated task (root of the squash walk).
    pub victim: TaskId,
    /// The store access that triggered detection, if the `access`
    /// category was recorded.
    pub trigger_store: Option<Record>,
    /// The victim's premature load of the same address, if recorded.
    pub victim_load: Option<Record>,
    /// The line's VOL order at the moment of the violation (last
    /// reorder seen before it), oldest first — identifies which task
    /// held which version.
    pub vol_at_violation: Vec<VolEntry>,
    /// Tasks holding *versions* (store data) of the line at that moment,
    /// oldest first, from the VOL.
    pub version_writers: Vec<(PuId, TaskId)>,
    /// The squash walk this violation caused: `(pu, task)` in squash
    /// order, if the `task` category was recorded.
    pub squashed: Vec<(PuId, TaskId)>,
    /// Per squashed task, the cycle its PU stays blocked until (the
    /// squash-recovery window end), aligned with `squashed`.
    pub squash_until: Vec<u64>,
}

/// Reconstructs every violation's causal chain from a trace.
///
/// Requires at least the `task` category in the trace (violations and
/// squashes); `access` and `vol` categories enrich the chains with the
/// triggering store, the premature load, and version ownership.
pub fn squash_chains(records: &[Record], words_per_line: u64) -> Vec<SquashChain> {
    let mut chains = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let TraceEvent::Violation {
            pu,
            task,
            victim,
            addr,
        } = r.event
        else {
            continue;
        };
        let line = line_of(addr, words_per_line);

        // The store access that tripped detection: the last store to this
        // address by the violating task at or before the violation.
        let trigger_store = records[..=i]
            .iter()
            .rev()
            .find(|c| {
                matches!(
                    c.event,
                    TraceEvent::Access {
                        task: t,
                        op: AccessOp::Store,
                        addr: a,
                        ..
                    } if t == task && a == addr
                )
            })
            .cloned();

        // The premature load: the victim task (or any task at/after it in
        // program order — the walk squashes them all) loaded the address
        // before this store defined it.
        let victim_load = records[..i]
            .iter()
            .rev()
            .find(|c| {
                matches!(
                    c.event,
                    TraceEvent::Access {
                        task: t,
                        op: AccessOp::Load,
                        addr: a,
                        ..
                    } if t >= victim && a == addr
                )
            })
            .cloned();

        // The line's VOL order at the moment of detection.
        let vol_at_violation = records[..=i]
            .iter()
            .rev()
            .find_map(|c| match &c.event {
                TraceEvent::VolReorder { line: l, order, .. } if *l == line => Some(order.clone()),
                _ => None,
            })
            .unwrap_or_default();
        let version_writers = vol_at_violation
            .iter()
            .filter(|e| e.version)
            .filter_map(|e| e.task.map(|t| (e.pu, t)))
            .collect();

        // The squash walk: every violation-caused squash restarting at
        // this victim, from detection until the walk's batch ends (the
        // next violation or the next dispatch breaks the batch).
        let mut squashed = Vec::new();
        let mut squash_until = Vec::new();
        for c in &records[i + 1..] {
            match c.event {
                TraceEvent::TaskSquash {
                    pu: sp,
                    task: st,
                    cause: SquashCause::Violation,
                    restart,
                    until,
                } if restart == victim => {
                    squashed.push((sp, st));
                    squash_until.push(until.0);
                }
                TraceEvent::Violation { .. } | TraceEvent::TaskDispatch { .. } => break,
                _ => {}
            }
        }

        chains.push(SquashChain {
            cycle: r.cycle,
            addr,
            line,
            store_pu: pu,
            store_task: task,
            victim,
            trigger_store,
            victim_load,
            vol_at_violation,
            version_writers,
            squashed,
            squash_until,
        });
    }
    chains
}

// ---------------------------------------------------------------------
// Cascade attribution
// ---------------------------------------------------------------------

/// Wasted-cycle attribution for one [`SquashChain`], computed against the
/// profiler's accounting model so the totals stay comparable with — and
/// bounded by — the `wasted_exec` and `squash_recovery` buckets of a
/// profile of the same run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainCost {
    /// Execution cycles the chain's squashes provably threw away: each
    /// squashed task's access issue cycles between its dispatch and the
    /// squash that no queued latency window could cover. A lower bound on
    /// the profiler's `wasted_exec` share of the chain (compute-instr
    /// cycles are pending too but not reconstructible from the trace).
    pub wasted_exec_cycles: u64,
    /// Post-squash blackout cycles, truncated exactly as the profiler
    /// truncates them: at the next squash on the same PU and at the end
    /// of the run.
    pub recovery_cycles: u64,
}

impl ChainCost {
    /// Total attributed cost.
    pub fn total(&self) -> u64 {
        self.wasted_exec_cycles + self.recovery_cycles
    }
}

/// Whether `cycle` falls inside one of the sorted, disjoint `intervals`.
fn covered(intervals: &[(u64, u64)], cycle: u64) -> bool {
    let i = intervals.partition_point(|&(start, _)| start <= cycle);
    i > 0 && cycle < intervals[i - 1].1
}

/// Attributes wasted cycles to each chain's squash walk.
///
/// Requires the `task` category; the `access` category tightens the
/// re-executed-work estimate (without it only recovery cycles are
/// attributed). `end_cycle` clips blackouts that outlive the trace, the
/// way the profiler clips them at [`finish`](crate::profile::Profiler::finish).
pub fn chain_costs(records: &[Record], chains: &[SquashChain], end_cycle: u64) -> Vec<ChainCost> {
    // Latency-window coverage per PU: an access issued at `c` queues
    // [c+1, done_at). Merged, these over-approximate the profiler's real
    // windows (which clip to visibility and clear on squash), keeping the
    // re-executed-work count a lower bound.
    let mut windows: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    // Access issue cycles and dispatch cycles per (pu, task); squash
    // cycles per PU (any cause — each one truncates its predecessor's
    // blackout window).
    let mut issues: BTreeMap<(usize, u64), Vec<u64>> = BTreeMap::new();
    let mut dispatches: BTreeMap<(usize, u64), Vec<u64>> = BTreeMap::new();
    let mut squashes: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for r in records {
        match &r.event {
            TraceEvent::Access {
                pu, task, done_at, ..
            } => {
                if done_at.0 > r.cycle + 1 {
                    windows
                        .entry(pu.0)
                        .or_default()
                        .push((r.cycle + 1, done_at.0));
                }
                issues.entry((pu.0, task.0)).or_default().push(r.cycle);
            }
            TraceEvent::TaskDispatch { pu, task, .. } => {
                dispatches.entry((pu.0, task.0)).or_default().push(r.cycle);
            }
            TraceEvent::TaskSquash { pu, .. } => {
                squashes.entry(pu.0).or_default().push(r.cycle);
            }
            _ => {}
        }
    }
    for spans in windows.values_mut() {
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
        for &(start, end) in spans.iter() {
            match merged.last_mut() {
                Some(last) if start <= last.1 => last.1 = last.1.max(end),
                _ => merged.push((start, end)),
            }
        }
        *spans = merged;
    }

    chains
        .iter()
        .map(|chain| {
            let mut cost = ChainCost::default();
            for (k, &(pu, task)) in chain.squashed.iter().enumerate() {
                let sq = chain.cycle;
                let until = chain.squash_until.get(k).copied().unwrap_or(sq);
                let next_squash = squashes.get(&pu.0).map_or(u64::MAX, |cycles| {
                    let i = cycles.partition_point(|&c| c <= sq);
                    cycles.get(i).copied().unwrap_or(u64::MAX)
                });
                let limit = until.min(end_cycle).min(next_squash);
                cost.recovery_cycles += limit.saturating_sub(sq);
                let Some(dispatch) = dispatches.get(&(pu.0, task.0)).and_then(|cycles| {
                    let i = cycles.partition_point(|&c| c <= sq);
                    (i > 0).then(|| cycles[i - 1])
                }) else {
                    continue;
                };
                if let Some(cycles) = issues.get(&(pu.0, task.0)) {
                    let pu_windows = windows.get(&pu.0).map_or(&[][..], Vec::as_slice);
                    cost.wasted_exec_cycles += cycles
                        .iter()
                        .filter(|&&c| c >= dispatch && c < sq && !covered(pu_windows, c))
                        .count() as u64;
                }
            }
            cost
        })
        .collect()
}

/// A squash cascade: a root violation chain plus every later chain it
/// transitively triggered — a violation whose storing task or victim was
/// itself torn down by an earlier chain of the cascade (it re-ran because
/// of that chain and violated again).
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    /// Indices into the chain slice the cascade was built from, in cycle
    /// order; the first entry is the root.
    pub members: Vec<usize>,
    /// Summed [`ChainCost::wasted_exec_cycles`] over the members.
    pub wasted_exec_cycles: u64,
    /// Summed [`ChainCost::recovery_cycles`] over the members.
    pub recovery_cycles: u64,
}

impl Cascade {
    /// Total attributed cost of the cascade.
    pub fn total_cost(&self) -> u64 {
        self.wasted_exec_cycles + self.recovery_cycles
    }
}

/// Groups chains into cascades and ranks them most-expensive first (ties
/// break toward the earlier root). `costs` must be parallel to `chains`
/// (the result of [`chain_costs`]).
pub fn cascades(chains: &[SquashChain], costs: &[ChainCost]) -> Vec<Cascade> {
    let involved = |i: usize, t: TaskId| -> bool {
        chains[i].victim == t || chains[i].squashed.iter().any(|&(_, st)| st == t)
    };
    let mut root: Vec<usize> = (0..chains.len()).collect();
    for j in 0..chains.len() {
        for i in (0..j).rev() {
            if chains[i].cycle < chains[j].cycle
                && (involved(i, chains[j].store_task) || involved(i, chains[j].victim))
            {
                root[j] = root[i];
                break;
            }
        }
    }
    let mut groups: BTreeMap<usize, Cascade> = BTreeMap::new();
    for (j, &r) in root.iter().enumerate() {
        let g = groups.entry(r).or_insert_with(|| Cascade {
            members: Vec::new(),
            wasted_exec_cycles: 0,
            recovery_cycles: 0,
        });
        g.members.push(j);
        if let Some(c) = costs.get(j) {
            g.wasted_exec_cycles += c.wasted_exec_cycles;
            g.recovery_cycles += c.recovery_cycles;
        }
    }
    let mut out: Vec<Cascade> = groups.into_values().collect();
    out.sort_by(|a, b| {
        b.total_cost()
            .cmp(&a.total_cost())
            .then(a.members[0].cmp(&b.members[0]))
    });
    out
}

// ---------------------------------------------------------------------
// Version-lifetime analytics
// ---------------------------------------------------------------------

/// The Figure-18 state names, in [`LineLifetime::state_cycles`] order.
pub const LIFETIME_STATES: [&str; 5] = ["I", "AC", "AD", "PC", "PD"];

fn state_index(bits: &LineBits) -> usize {
    match bits.state_name() {
        "I" => 0,
        "AC" => 1,
        "AD" => 2,
        "PC" => 3,
        _ => 4,
    }
}

/// Version-lifetime analytics for one line, extracted from the `line`,
/// `vol` and `vcl` trace categories.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineLifetime {
    /// The line.
    pub line: LineId,
    /// PU-cycles copies of the line spent in each Figure-18 state
    /// (indexed like [`LIFETIME_STATES`]), from the first observed
    /// transition of each copy to the end of the trace.
    pub state_cycles: [u64; 5],
    /// PU-cycles with at least one load (L) bit set.
    pub load_cycles: u64,
    /// PU-cycles with at least one store (S) bit set.
    pub store_cycles: u64,
    /// PU-cycles with the stale (T) bit set.
    pub stale_cycles: u64,
    /// Peak simultaneous versions in the VOL.
    pub max_versions: u64,
    /// Versions summed over VOL snapshots (mean = `version_sum /
    /// vol_events`).
    pub version_sum: u64,
    /// VOL snapshots observed.
    pub vol_events: u64,
    /// VOL splice events.
    pub splices: u64,
    /// VOL purge events.
    pub purges: u64,
    /// Caches that snarfed a fill of this line, summed over plans.
    pub snarfs: u64,
    /// Flash reverts: transitions dropping all load and store bits at
    /// once without the commit bit — a squash tearing speculative state
    /// down in one step.
    pub flash_reverts: u64,
}

/// Aggregates per-line version-lifetime statistics over a trace. Dwell
/// times run from each copy's first observed transition to `end_cycle`
/// (pass the run's cycle count). Lines are returned in id order.
pub fn line_lifetimes(records: &[Record], end_cycle: u64) -> Vec<LineLifetime> {
    let mut lines: BTreeMap<u64, LineLifetime> = BTreeMap::new();
    // Last observed bits per (pu, line) copy, with the cycle they took
    // effect.
    let mut last: BTreeMap<(usize, u64), (u64, LineBits)> = BTreeMap::new();
    let dwell = |entry: &mut LineLifetime, bits: &LineBits, cycles: u64| {
        entry.state_cycles[state_index(bits)] += cycles;
        if bits.load != 0 {
            entry.load_cycles += cycles;
        }
        if bits.store != 0 {
            entry.store_cycles += cycles;
        }
        if bits.stale {
            entry.stale_cycles += cycles;
        }
    };
    for r in records {
        match &r.event {
            TraceEvent::LineTransition { pu, line, from, to } => {
                let entry = lines.entry(line.0).or_default();
                entry.line = *line;
                if let Some((since, bits)) = last.insert((pu.0, line.0), (r.cycle, *to)) {
                    dwell(entry, &bits, r.cycle.saturating_sub(since));
                }
                if (from.load != 0 || from.store != 0)
                    && to.load == 0
                    && to.store == 0
                    && !to.committed
                {
                    entry.flash_reverts += 1;
                }
            }
            TraceEvent::VolReorder { line, op, order } => {
                let entry = lines.entry(line.0).or_default();
                entry.line = *line;
                let versions = order.iter().filter(|e| e.version).count() as u64;
                entry.max_versions = entry.max_versions.max(versions);
                entry.version_sum += versions;
                entry.vol_events += 1;
                match op {
                    crate::trace::VolOp::Splice => entry.splices += 1,
                    crate::trace::VolOp::Purge => entry.purges += 1,
                }
            }
            TraceEvent::VclPlan(p) if p.snarfers > 0 => {
                let entry = lines.entry(p.line.0).or_default();
                entry.line = p.line;
                entry.snarfs += u64::from(p.snarfers);
            }
            _ => {}
        }
    }
    for (&(_, line), &(since, ref bits)) in &last {
        if let Some(entry) = lines.get_mut(&line) {
            dwell(entry, bits, end_cycle.saturating_sub(since));
        }
    }
    lines.into_values().collect()
}

fn render_vol(out: &mut String, order: &[VolEntry]) {
    if order.is_empty() {
        out.push_str("(not recorded)");
        return;
    }
    for (i, e) in order.iter().enumerate() {
        if i > 0 {
            out.push_str(" -> ");
        }
        out.push_str(&format!("{}", e.pu));
        if let Some(t) = e.task {
            out.push_str(&format!("/T{}", t.0));
        }
        if e.version {
            out.push('*');
        }
    }
    out.push_str("  (* = holds a version)");
}

/// Renders one chain as a short human-readable explanation.
pub fn render_chain(chain: &SquashChain) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "violation @ cycle {}: store by {}/T{} to addr {} (line {})\n",
        chain.cycle, chain.store_pu, chain.store_task.0, chain.addr.0, chain.line.0
    ));
    match &chain.trigger_store {
        Some(r) => out.push_str(&format!("  triggering store : {r}\n")),
        None => out.push_str("  triggering store : (access category not recorded)\n"),
    }
    match &chain.victim_load {
        Some(r) => out.push_str(&format!("  premature load   : {r}\n")),
        None => out.push_str("  premature load   : (not recorded)\n"),
    }
    out.push_str("  VOL at violation : ");
    render_vol(&mut out, &chain.vol_at_violation);
    out.push('\n');
    if !chain.version_writers.is_empty() {
        out.push_str("  version writers  : ");
        for (i, (pu, t)) in chain.version_writers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("T{} (on {pu})", t.0));
        }
        out.push('\n');
    }
    if chain.squashed.is_empty() {
        out.push_str(&format!(
            "  squash walk      : restart at T{} (task category not recorded)\n",
            chain.victim.0
        ));
    } else {
        out.push_str(&format!(
            "  squash walk      : T{} and {} task(s) torn down:",
            chain.victim.0,
            chain.squashed.len()
        ));
        for (pu, t) in &chain.squashed {
            out.push_str(&format!(" T{}@{pu}", t.0));
        }
        out.push('\n');
    }
    out
}

/// Renders a chosen line's full version history plus every causal squash
/// chain that involved it. This is the payload of `svc-sim trace`.
pub fn render_line_report(records: &[Record], line: LineId, words_per_line: u64) -> String {
    let mut out = String::new();
    let history = line_history(records, line, words_per_line);
    out.push_str(&format!(
        "== line {} version history ({} event(s)) ==\n",
        line.0,
        history.len()
    ));
    for r in &history {
        out.push_str(&format!("{r}\n"));
    }
    let chains: Vec<SquashChain> = squash_chains(records, words_per_line)
        .into_iter()
        .filter(|c| c.line == line)
        .collect();
    out.push_str(&format!(
        "\n== squash chains on line {} ({}) ==\n",
        line.0,
        chains.len()
    ));
    for c in &chains {
        out.push_str(&render_chain(c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Category, Tracer, VolOp};
    use svc_types::Cycle;

    /// Builds the canonical conflict: T2 loads addr 5 early, T1 later
    /// stores addr 5, the VCL flags the violation, T2 and T3 squash.
    fn conflict_trace() -> Vec<Record> {
        let t = Tracer::new(Category::ALL, 1024);
        t.emit(Cycle(10), Category::Access, || TraceEvent::Access {
            pu: PuId(2),
            task: TaskId(2),
            op: AccessOp::Load,
            addr: Addr(5),
            source: "next-level",
            done_at: Cycle(12),
        });
        t.emit(Cycle(10), Category::Vol, || TraceEvent::VolReorder {
            line: LineId(1),
            op: VolOp::Splice,
            order: vec![
                VolEntry {
                    pu: PuId(1),
                    task: Some(TaskId(1)),
                    version: true,
                },
                VolEntry {
                    pu: PuId(2),
                    task: Some(TaskId(2)),
                    version: false,
                },
            ],
        });
        t.emit(Cycle(20), Category::Access, || TraceEvent::Access {
            pu: PuId(1),
            task: TaskId(1),
            op: AccessOp::Store,
            addr: Addr(5),
            source: "accepted",
            done_at: Cycle(20),
        });
        t.emit(Cycle(20), Category::Task, || TraceEvent::Violation {
            pu: PuId(1),
            task: TaskId(1),
            victim: TaskId(2),
            addr: Addr(5),
        });
        t.emit(Cycle(20), Category::Task, || TraceEvent::TaskSquash {
            pu: PuId(3),
            task: TaskId(3),
            cause: SquashCause::Violation,
            restart: TaskId(2),
            until: Cycle(26),
        });
        t.emit(Cycle(20), Category::Task, || TraceEvent::TaskSquash {
            pu: PuId(2),
            task: TaskId(2),
            cause: SquashCause::Violation,
            restart: TaskId(2),
            until: Cycle(23),
        });
        t.emit(Cycle(21), Category::Task, || TraceEvent::TaskDispatch {
            pu: PuId(2),
            task: TaskId(2),
            attempt: 1,
            wrong_path: false,
        });
        t.records()
    }

    #[test]
    fn reconstructs_the_causal_chain() {
        let records = conflict_trace();
        let chains = squash_chains(&records, 4);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.cycle, 20);
        assert_eq!(c.line, LineId(1), "addr 5 / 4 words per line");
        assert_eq!(c.store_task, TaskId(1));
        assert_eq!(c.victim, TaskId(2));
        assert!(
            matches!(
                c.trigger_store.as_ref().map(|r| &r.event),
                Some(TraceEvent::Access {
                    op: AccessOp::Store,
                    task: TaskId(1),
                    ..
                })
            ),
            "found the triggering store"
        );
        assert!(
            matches!(
                c.victim_load.as_ref().map(|r| &r.event),
                Some(TraceEvent::Access {
                    op: AccessOp::Load,
                    task: TaskId(2),
                    ..
                })
            ),
            "found the premature load"
        );
        assert_eq!(c.vol_at_violation.len(), 2);
        assert_eq!(c.version_writers, vec![(PuId(1), TaskId(1))]);
        assert_eq!(c.squashed, vec![(PuId(3), TaskId(3)), (PuId(2), TaskId(2))]);
        assert_eq!(c.squash_until, vec![26, 23]);
    }

    #[test]
    fn chain_costs_attribute_recovery_and_reexecution() {
        let records = conflict_trace();
        let chains = squash_chains(&records, 4);
        let costs = chain_costs(&records, &chains, 100);
        assert_eq!(costs.len(), 1);
        // T3 blocked [20,26), T2 blocked [20,23): 6 + 3 recovery cycles.
        assert_eq!(costs[0].recovery_cycles, 9);
        // No dispatches recorded before the squashes → no re-executed
        // work attributable.
        assert_eq!(costs[0].wasted_exec_cycles, 0);

        // Clipping: a run that ended at cycle 22 cuts both blackouts.
        let clipped = chain_costs(&records, &chains, 22);
        assert_eq!(clipped[0].recovery_cycles, 2 + 2);
    }

    #[test]
    fn cascades_link_retriggered_violations() {
        let t = Tracer::new(Category::ALL, 64);
        let violation = |cycle: u64, task: u64, victim: u64| {
            t.emit(Cycle(cycle), Category::Task, || TraceEvent::Violation {
                pu: PuId(1),
                task: TaskId(task),
                victim: TaskId(victim),
                addr: Addr(5),
            });
            t.emit(Cycle(cycle), Category::Task, || TraceEvent::TaskSquash {
                pu: PuId(2),
                task: TaskId(victim),
                cause: SquashCause::Violation,
                restart: TaskId(victim),
                until: Cycle(cycle + 4),
            });
        };
        violation(10, 1, 2); // root: T1's store squashes T2
        violation(30, 1, 2); // T2 re-ran and violated again → same cascade
        violation(50, 7, 8); // unrelated tasks → separate cascade
        let records = t.records();
        let chains = squash_chains(&records, 4);
        assert_eq!(chains.len(), 3);
        let costs = chain_costs(&records, &chains, 100);
        let groups = cascades(&chains, &costs);
        assert_eq!(groups.len(), 2);
        // The two-member cascade costs 8 recovery cycles, the singleton 4,
        // so it ranks first.
        assert_eq!(groups[0].members, vec![0, 1]);
        assert_eq!(groups[0].total_cost(), 8);
        assert_eq!(groups[1].members, vec![2]);
        assert_eq!(groups[1].total_cost(), 4);
    }

    #[test]
    fn line_lifetimes_track_states_and_vol() {
        use crate::trace::LineBits;
        let t = Tracer::new(Category::ALL, 64);
        let ac = LineBits {
            valid: 0b1,
            ..LineBits::default()
        };
        let ad = LineBits {
            valid: 0b1,
            store: 0b1,
            load: 0b1,
            ..LineBits::default()
        };
        t.emit(Cycle(10), Category::Line, || TraceEvent::LineTransition {
            pu: PuId(0),
            line: LineId(1),
            from: LineBits::default(),
            to: ad,
        });
        t.emit(Cycle(16), Category::Line, || TraceEvent::LineTransition {
            pu: PuId(0),
            line: LineId(1),
            from: ad,
            to: ac, // speculative bits dropped, no commit: flash revert
        });
        t.emit(Cycle(12), Category::Vol, || TraceEvent::VolReorder {
            line: LineId(1),
            op: VolOp::Splice,
            order: vec![
                VolEntry {
                    pu: PuId(0),
                    task: Some(TaskId(1)),
                    version: true,
                },
                VolEntry {
                    pu: PuId(1),
                    task: Some(TaskId(2)),
                    version: true,
                },
            ],
        });
        let lives = line_lifetimes(&t.records(), 20);
        assert_eq!(lives.len(), 1);
        let l = &lives[0];
        assert_eq!(l.line, LineId(1));
        // AD for [10,16), AC for [16,20).
        assert_eq!(l.state_cycles, [0, 4, 6, 0, 0]);
        assert_eq!(l.load_cycles, 6);
        assert_eq!(l.store_cycles, 6);
        assert_eq!(l.max_versions, 2);
        assert_eq!(l.splices, 1);
        assert_eq!(l.flash_reverts, 1);
    }

    #[test]
    fn squash_batch_stops_at_redispatch() {
        let records = conflict_trace();
        // The dispatch at cycle 21 ends the batch; a later unrelated
        // squash with the same restart must not be absorbed.
        let t = Tracer::new(Category::ALL, 16);
        for r in &records {
            t.emit(Cycle(r.cycle), r.event.category(), || r.event.clone());
        }
        t.emit(Cycle(30), Category::Task, || TraceEvent::TaskSquash {
            pu: PuId(2),
            task: TaskId(2),
            cause: SquashCause::Violation,
            restart: TaskId(2),
            until: Cycle(31),
        });
        let chains = squash_chains(&t.records(), 4);
        assert_eq!(chains[0].squashed.len(), 2, "batch ended at the dispatch");
    }

    #[test]
    fn line_history_filters_by_line() {
        let records = conflict_trace();
        let hits = line_history(&records, LineId(1), 4);
        // load, vol splice, store, violation — squash/dispatch are not
        // line events.
        assert_eq!(hits.len(), 4);
        let misses = line_history(&records, LineId(9), 4);
        assert!(misses.is_empty());
    }

    #[test]
    fn line_report_reads_like_a_story() {
        let records = conflict_trace();
        let report = render_line_report(&records, LineId(1), 4);
        assert!(report.contains("line 1 version history"));
        assert!(report.contains("violation @ cycle 20"));
        assert!(report.contains("premature load"));
        assert!(report.contains("PU1/T1*"), "VOL shows T1 holding a version");
        assert!(report.contains("T2"), "victim named");
    }

    #[test]
    fn chains_degrade_gracefully_without_optional_categories() {
        // Only the task category: no access / vol enrichment.
        let full = conflict_trace();
        let task_only: Vec<Record> = full
            .into_iter()
            .filter(|r| r.event.category() == Category::Task)
            .collect();
        let chains = squash_chains(&task_only, 4);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert!(c.trigger_store.is_none());
        assert!(c.victim_load.is_none());
        assert!(c.vol_at_violation.is_empty());
        assert_eq!(c.squashed.len(), 2);
        // Rendering still works.
        assert!(render_chain(c).contains("not recorded"));
    }
}
