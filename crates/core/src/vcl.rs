//! The Version Control Logic (VCL).
//!
//! In hardware the VCL is combinational logic beside the bus arbiter
//! (paper Figure 5): on every bus request it receives the states of the
//! requested line in each L1 cache, reconstructs the Version Ordering List,
//! and tells each cache what to do. Here it is a set of *pure planning
//! functions*: given [`LineSnapshot`]s they return a plan — who supplies
//! each sub-block, which committed versions to write back or purge, which
//! copies to invalidate or update, which tasks are squashed by a detected
//! memory-dependence violation, who may snarf, and the VOL after the
//! transaction with every member's T bit. The [`SvcSystem`](crate::SvcSystem)
//! applies the plan (moves data, writes each member's pointer, X and T bit
//! once) and charges the timing.
//!
//! Keeping the VCL pure makes the paper's figure walk-throughs directly
//! testable; see the unit tests at the bottom of this module.

use smallvec::SmallVec;
use svc_sim::trace::{PlanKind, PlanSummary};
use svc_types::{LineId, PuId, TaskId};

use crate::mask::SubMask;
use crate::snapshot::LineSnapshot;
use crate::vol::{vol_indices, VolOrder};

/// Per-sub-block fill sources; inline for the common ≤8-sub-block case.
pub type FillList = SmallVec<(usize, SupplySource), 8>;
/// Per-PU sub-block masks (flush and invalidate sets).
pub type MaskList = SmallVec<(PuId, SubMask), 8>;
/// A short list of PUs (purge/demote/snarf/update sets).
pub type PuList = SmallVec<PuId, 8>;
/// Squash victims: `(pu, task)` pairs.
pub type VictimList = SmallVec<(PuId, TaskId), 8>;

fn fill_split(fill: &[(usize, SupplySource)]) -> (u32, u32) {
    let from_cache = fill
        .iter()
        .filter(|(_, s)| matches!(s, SupplySource::Cache(_)))
        .count() as u32;
    (from_cache, fill.len() as u32 - from_cache)
}

/// Where one sub-block of a fill comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplySource {
    /// Another cache's line (a cache-to-cache transfer, not a miss).
    Cache(PuId),
    /// The next level of memory (a miss in the paper's accounting).
    Memory,
}

/// The VCL's answer to a `BusRead` request (paper §3.2.2, §3.4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadPlan {
    /// Per filled sub-block: where its data comes from. Covers exactly the
    /// sub-blocks the requestor asked to fill.
    pub fill: FillList,
    /// Whether the requestor's filled line is (a copy of) the architectural
    /// version — sets the A bit (§3.5.1).
    pub arch: bool,
    /// Committed winners to write back to memory, oldest-version data
    /// first: for each sub-block the *most recent committed* version is
    /// flushed (§3.4.1); superseded committed data is purged silently.
    pub flush: MaskList,
    /// Committed lines to invalidate after the flush: on a read, the
    /// passive-*dirty* lines ("on a bus request, a line in passive dirty
    /// state is invalidated whether it is flushed or not", §3.8.1);
    /// passive-clean copies are retained.
    pub purge: PuList,
    /// With the retain-flushed optimization: passive-dirty lines whose
    /// entire store mask was flushed are demoted to passive-clean
    /// architectural copies instead of purged (§3.8.1's "further
    /// optimization").
    pub demote: PuList,
    /// Caches (beyond the requestor) that may snarf the fill (§3.6),
    /// already filtered to those whose correct version matches the
    /// requestor's for every filled sub-block.
    pub snarfers: PuList,
    /// The VOL after the transaction (including requestor and snarfers).
    pub vol_after: VolOrder,
    /// Members of `vol_after` before this index get the T bit, the rest
    /// clear it: the index of the most recent member holding store data.
    /// `None` leaves every T bit alone: the design keeps no T bit, or no
    /// member holds store data afterwards (DESIGN.md errata 4).
    pub fresh_from: Option<usize>,
}

/// The VCL's answer to a `BusWrite` request (paper §3.2.3, §3.4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WritePlan {
    /// Fill sources for sub-blocks the requestor lacks (write-allocate).
    pub fill: FillList,
    /// Committed winners to flush to memory before purging (§3.4.2:
    /// "it determines that version 1 has to be written back ... and the
    /// other versions can be invalidated").
    pub flush: MaskList,
    /// All committed lines — purged on a store miss (Figure 13).
    pub purge: PuList,
    /// Uncommitted copies in the invalidation range (requestor's successor
    /// up to the next version): `(pu, sub-blocks to invalidate)`.
    pub invalidate: MaskList,
    /// Hybrid update–invalidate (§3.8): non-violated copies in the range
    /// that receive the new data in place instead of being invalidated.
    pub update: PuList,
    /// Tasks whose recorded use-before-define was exposed by this store —
    /// each must be squashed along with everything younger (§3.2.3).
    pub victims: VictimList,
    /// The VOL after the transaction.
    pub vol_after: VolOrder,
    /// As [`ReadPlan::fresh_from`].
    pub fresh_from: Option<usize>,
}

/// The VCL's answer to a `BusWback` (dirty replacement) request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbackPlan {
    /// Committed winners flushed to memory before the evicted data lands.
    pub flush: MaskList,
    /// Committed lines purged (all of them — the castout supersedes or
    /// flushes every committed version of the line).
    pub purge: PuList,
    /// Sub-blocks of the evicted line whose data must be written to
    /// memory.
    pub write_evicted: SubMask,
    /// The VOL after the transaction (evictor removed).
    pub vol_after: VolOrder,
    /// As [`ReadPlan::fresh_from`].
    pub fresh_from: Option<usize>,
}

impl ReadPlan {
    /// Compresses the plan into a [`PlanSummary`] for the event trace.
    pub fn trace_summary(&self, pu: PuId, task: Option<TaskId>, line: LineId) -> PlanSummary {
        let (fill_from_cache, fill_from_memory) = fill_split(&self.fill);
        PlanSummary {
            kind: PlanKind::Read,
            pu,
            task,
            line,
            fill_from_cache,
            fill_from_memory,
            flush: self.flush.len() as u32,
            purge: self.purge.len() as u32,
            invalidate: 0,
            update: 0,
            snarfers: self.snarfers.len() as u32,
            victims: Vec::new(),
            arch: self.arch,
        }
    }
}

impl WritePlan {
    /// Compresses the plan into a [`PlanSummary`] for the event trace.
    pub fn trace_summary(&self, pu: PuId, task: Option<TaskId>, line: LineId) -> PlanSummary {
        let (fill_from_cache, fill_from_memory) = fill_split(&self.fill);
        PlanSummary {
            kind: PlanKind::Write,
            pu,
            task,
            line,
            fill_from_cache,
            fill_from_memory,
            flush: self.flush.len() as u32,
            purge: self.purge.len() as u32,
            invalidate: self.invalidate.len() as u32,
            update: self.update.len() as u32,
            snarfers: 0,
            victims: self.victims.iter().map(|&(_, t)| t).collect(),
            arch: false,
        }
    }
}

impl WbackPlan {
    /// Compresses the plan into a [`PlanSummary`] for the event trace.
    pub fn trace_summary(&self, pu: PuId, task: Option<TaskId>, line: LineId) -> PlanSummary {
        PlanSummary {
            kind: PlanKind::Wback,
            pu,
            task,
            line,
            fill_from_cache: 0,
            fill_from_memory: 0,
            flush: self.flush.len() as u32,
            purge: self.purge.len() as u32,
            invalidate: 0,
            update: 0,
            snarfers: 0,
            victims: Vec::new(),
            arch: false,
        }
    }
}

/// The Version Control Logic. Holds only the protocol options that change
/// its decisions; all per-request state arrives as arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vcl {
    /// §3.8: update instead of invalidate for non-violated range copies.
    pub hybrid_update: bool,
    /// §3.6: offer fills to other caches.
    pub snarfing: bool,
    /// Whether the design maintains the T (stale) bit, allowing non-stale
    /// committed copies to act as suppliers.
    pub trust_stale: bool,
    /// Cap on copies updated (rather than invalidated) per store under
    /// the hybrid protocol.
    pub update_limit: usize,
    /// §3.8.1 optimization: keep fully-flushed passive-dirty lines as
    /// passive-clean architectural copies on BusRead.
    pub retain_flushed: bool,
}

impl Vcl {
    /// Plans a `BusRead`: requestor `pu` (running `task`) wants the
    /// sub-blocks in `fill_mask` of the line described by `snaps`: a
    /// snapshot of every holder, at most one per PU; non-holders may be
    /// left out or passed as invalid entries. `head_task` is
    /// the oldest executing task (for A-bit decisions);
    /// `snarf_candidates` are caches with a free slot and no copy.
    pub fn plan_read(
        &self,
        snaps: &[LineSnapshot],
        pu: PuId,
        task: TaskId,
        head_task: Option<TaskId>,
        fill_mask: SubMask,
        snarf_candidates: &[(PuId, TaskId)],
    ) -> ReadPlan {
        let vol = ordered(snaps);
        let pos = position_for(&vol, pu, task);
        let fill = plan_fill(&vol, pos, pu, fill_mask, self.trust_stale);
        let arch = fill.iter().all(|&(_, src)| match src {
            SupplySource::Memory => true,
            SupplySource::Cache(spu) => {
                let s = member(&vol, spu);
                s.committed || s.arch || head_task.is_some() && s.task == head_task
            }
        });
        let (flush, _) = committed_winners(&vol);
        // Read: purge passive-dirty lines, keep passive-clean copies.
        // With retain_flushed, a passive-dirty line whose whole store mask
        // is being flushed survives as an architectural copy.
        let fully_flushed = |s: &LineSnapshot| {
            flush
                .iter()
                .any(|&(q, m)| q == s.pu && s.store.minus(m).is_empty())
        };
        let mut demote: PuList = SmallVec::new();
        let mut purge: PuList = SmallVec::new();
        for s in vol.iter().filter(|s| s.committed && s.is_version()) {
            if self.retain_flushed && s.pu != pu && fully_flushed(s) {
                demote.push(s.pu);
            } else {
                purge.push(s.pu);
            }
        }

        // Snarfers: a candidate may copy the fill iff, for every filled
        // sub-block, its correct supplier equals the requestor's (the
        // source `fill` already names).
        let snarfers: PuList = if self.snarfing {
            snarf_candidates
                .iter()
                .filter(|&&(q, qtask)| {
                    if q == pu {
                        return false;
                    }
                    let qpos = position_for(&vol, q, qtask);
                    fill.iter().all(|&(j, src)| {
                        let want = match src {
                            SupplySource::Cache(s) => Some(s),
                            SupplySource::Memory => None,
                        };
                        supplier(&vol, qpos, q, j, self.trust_stale) == want
                    })
                })
                .map(|&(q, _)| q)
                .collect()
        } else {
            SmallVec::new()
        };

        // VOL afterwards: survivors (clean committed + all uncommitted) in
        // order, with requestor and snarfers at their task positions. Only
        // uncommitted data keeps its S bits: retained committed lines are
        // clean or demoted, the requestor keeps its own active version,
        // and snarfers install fresh copies.
        let mut after: OrderBuf = SmallVec::new();
        let mut own_version = false;
        for s in &vol {
            if s.pu == pu {
                // The requestor re-enters at its task position.
                own_version |= !s.committed && s.is_version();
                continue;
            }
            if s.committed {
                if !s.is_version() || demote.contains(&s.pu) {
                    after.push((None, s.pu, false)); // retained passive clean
                }
            } else {
                after.push((s.ordering_task(), s.pu, s.is_version()));
            }
        }
        after.push((Some(task), pu, own_version));
        for &(q, qtask) in snarf_candidates {
            if snarfers.contains(&q) {
                after.push((Some(qtask), q, false));
            }
        }
        let (vol_after, fresh_from) = finish_order(after, self.trust_stale);

        ReadPlan {
            fill,
            arch,
            flush,
            purge,
            demote,
            snarfers,
            vol_after,
            fresh_from,
        }
    }

    /// Plans a `BusWrite`: requestor `pu` (running `task`) stores to the
    /// sub-blocks in `store_mask`; `fill_mask` are the sub-blocks it also
    /// needs fetched (write-allocate of words it does not overwrite).
    /// `snaps` as for [`plan_read`](Self::plan_read).
    pub fn plan_write(
        &self,
        snaps: &[LineSnapshot],
        pu: PuId,
        task: TaskId,
        store_mask: SubMask,
        fill_mask: SubMask,
    ) -> WritePlan {
        let vol = ordered(snaps);
        let pos = position_for(&vol, pu, task);
        let fill = plan_fill(&vol, pos, pu, fill_mask, self.trust_stale);
        let (flush, _) = committed_winners(&vol);
        // Store miss purges every committed version/copy (Figure 13).
        let purge: PuList = vol.iter().filter(|s| s.committed).map(|s| s.pu).collect();

        // Walk the successors: invalidate (or update) copies until the next
        // version of these sub-blocks, inclusive if it recorded a use
        // before definition (§3.2.3).
        let mut invalidate: MaskList = SmallVec::new();
        let mut update: PuList = SmallVec::new();
        let mut victims: VictimList = SmallVec::new();
        for s in vol.iter().filter(|s| !s.committed) {
            let stask = s.ordering_task().expect("uncommitted");
            if s.pu == pu || !task.is_older_than(stask) {
                continue; // predecessors and self are untouched
            }
            // (Successors are scanned in VOL order because `vol` is
            // ordered; the first version boundary stops the walk.)
            let violated = s.load.intersects(store_mask);
            let is_boundary = s.store.intersects(store_mask);
            if violated {
                victims.push((s.pu, stask));
                invalidate.push((s.pu, store_mask));
            } else if is_boundary {
                // Next version, no use-before-define: walk stops before it.
            } else if self.hybrid_update
                && update.len() < self.update_limit
                && !s.store.intersects(store_mask)
            {
                update.push(s.pu);
            } else {
                invalidate.push((s.pu, store_mask));
            }
            if is_boundary {
                break;
            }
        }

        // VOL afterwards: committed all purged; fully-invalidated copies
        // drop out; requestor joins at its position, holding the new
        // version. (Squash victims keep their membership here — the
        // engine squashes them immediately, which clears their whole
        // cache.)
        let mut after: OrderBuf = SmallVec::new();
        for s in vol.iter().filter(|s| !s.committed && s.pu != pu) {
            let lost = invalidate
                .iter()
                .find(|&&(q, _)| q == s.pu)
                .map_or(SubMask::EMPTY, |&(_, m)| m);
            if !s.valid.minus(lost).is_empty() {
                let version = !s.store.minus(lost).is_empty();
                after.push((s.ordering_task(), s.pu, version));
            }
        }
        after.push((Some(task), pu, true));
        let (vol_after, fresh_from) = finish_order(after, self.trust_stale);

        WritePlan {
            fill,
            flush,
            purge,
            invalidate,
            update,
            victims,
            vol_after,
            fresh_from,
        }
    }

    /// Plans a `BusWback`: cache `pu` casts out its (dirty) line, writing
    /// `evict_store` sub-blocks. For a *committed* castout only the
    /// winning (most recent committed) sub-blocks reach memory; for an
    /// *active* castout (head task only) the evicted data supersedes all
    /// committed versions of the same sub-blocks. `snaps` as for
    /// [`plan_read`](Self::plan_read).
    pub fn plan_wback(&self, snaps: &[LineSnapshot], pu: PuId) -> WbackPlan {
        let vol = ordered(snaps);
        let me = member(&vol, pu);
        let evict_store = me.store;
        let (mut flush, winners) = committed_winners(&vol);
        let write_evicted = if me.committed {
            // Only the sub-blocks this line wins are written; the rest are
            // superseded by younger committed versions.
            let mine = winners
                .iter()
                .filter(|&&(q, _)| q == pu)
                .fold(SubMask::EMPTY, |m, &(_, j)| m | SubMask::single(j));
            flush.retain(|&(q, _)| q != pu); // we write it as the castout
            mine
        } else {
            // Active castout: head data beats every committed version of
            // the same sub-blocks, so drop those from the flush set.
            flush = flush
                .into_iter()
                .filter_map(|(q, m)| {
                    let kept = m.minus(evict_store);
                    if kept.is_empty() {
                        None
                    } else {
                        Some((q, kept))
                    }
                })
                .collect();
            evict_store
        };
        let purge: PuList = vol
            .iter()
            .filter(|s| s.committed || s.pu == pu)
            .map(|s| s.pu)
            .collect();
        let after: OrderBuf = vol
            .iter()
            .filter(|s| !s.committed && s.pu != pu)
            .map(|s| (s.ordering_task(), s.pu, s.is_version()))
            .collect();
        let (vol_after, fresh_from) = finish_order(after, self.trust_stale);
        WbackPlan {
            flush,
            purge,
            write_evicted,
            vol_after,
            fresh_from,
        }
    }
}

// ---------------------------------------------------------------------
// Internal helpers
// ---------------------------------------------------------------------

/// `(ordering task, pu, holds store data afterwards)` per member of the
/// VOL after a transaction, accumulated before [`finish_order`].
type OrderBuf = SmallVec<(Option<TaskId>, PuId, bool), 8>;

/// Valid members in VOL order.
fn ordered(snaps: &[LineSnapshot]) -> SmallVec<&LineSnapshot, 8> {
    vol_indices(snaps).into_iter().map(|i| &snaps[i]).collect()
}

fn member<'a>(vol: &[&'a LineSnapshot], pu: PuId) -> &'a LineSnapshot {
    vol.iter().find(|s| s.pu == pu).expect("member present")
}

/// The index at (or before) which a request from `pu` running `task` sits:
/// if `pu` holds an *uncommitted* copy, its index (the line belongs to this
/// very task); otherwise the position where the task would be inserted —
/// after every committed member (including `pu`'s own old committed line,
/// which predates the task) and after every uncommitted member with an
/// older task.
fn position_for(vol: &[&LineSnapshot], pu: PuId, task: TaskId) -> usize {
    if let Some(i) = vol.iter().position(|s| s.pu == pu && !s.committed) {
        return i;
    }
    let mut pos = 0;
    for (i, s) in vol.iter().enumerate() {
        match s.ordering_task() {
            None => pos = i + 1, // committed: always before us
            Some(t) if t.is_older_than(task) => pos = i + 1,
            Some(_) => break,
        }
    }
    pos
}

/// The cache that supplies sub-block `j` to a requestor at `pos`: the
/// closest predecessor in the VOL with valid data for `j` (§3.2.2's
/// reverse search). `None` means memory supplies.
///
/// Uncommitted predecessors always hold the right data for their position
/// (the invalidation walks keep them consistent). Committed members are
/// trickier: a retained passive-clean *copy* may predate a committed
/// version that was since flushed to memory, so it may supply only if it
/// holds actual version data for `j` (its S bit) or its T bit proves it a
/// copy of the most recent version (`trust_stale` — designs without the T
/// bit fall back to memory). The requestor's own line can only be a
/// committed one here (an active copy of `j` would have hit locally).
fn supplier(
    vol: &[&LineSnapshot],
    pos: usize,
    pu: PuId,
    j: usize,
    trust_stale: bool,
) -> Option<PuId> {
    vol[..pos]
        .iter()
        .rev()
        .find(|s| {
            if !s.valid.contains(j) {
                return false;
            }
            if s.committed {
                s.store.contains(j) || (trust_stale && !s.stale)
            } else {
                s.pu != pu
            }
        })
        .map(|s| s.pu)
}

fn plan_fill(
    vol: &[&LineSnapshot],
    pos: usize,
    pu: PuId,
    fill_mask: SubMask,
    trust_stale: bool,
) -> FillList {
    fill_mask
        .iter()
        .map(|j| {
            let src = match supplier(vol, pos, pu, j, trust_stale) {
                Some(q) => SupplySource::Cache(q),
                None => SupplySource::Memory,
            };
            (j, src)
        })
        .collect()
}

/// Per-PU flush masks, plus the raw `(pu, sub-block)` winner pairs.
type Winners = (MaskList, SmallVec<(PuId, usize), 8>);

/// The committed versions of a line that must reach memory, for the
/// members in `snaps`: per PU, the sub-blocks it holds the most recent
/// committed version of, grouped in order of the lowest such sub-block.
pub(crate) fn committed_flush(snaps: &[LineSnapshot]) -> MaskList {
    committed_winners(&ordered(snaps)).0
}

/// For each sub-block, the most recent committed version wins and must be
/// flushed to memory; older committed store data is silently superseded.
/// Returns the flush list (grouped per PU) and the raw `(pu, subblock)`
/// winner pairs.
fn committed_winners(vol: &[&LineSnapshot]) -> Winners {
    let mut winners: SmallVec<(PuId, usize), 8> = SmallVec::new();
    let committed: SmallVec<&LineSnapshot, 8> =
        vol.iter().copied().filter(|s| s.committed).collect();
    // Only sub-blocks some committed line actually stored can win; iterate
    // their union (ascending) rather than all 64 positions.
    let stored = committed.iter().fold(SubMask::EMPTY, |m, s| m | s.store);
    for j in stored.iter() {
        // Youngest committed holder of S[j] wins.
        if let Some(s) = committed.iter().rev().find(|s| s.store.contains(j)) {
            winners.push((s.pu, j));
        }
    }
    let mut flush: MaskList = SmallVec::new();
    for &(pu, j) in &winners {
        match flush.iter_mut().find(|(q, _)| *q == pu) {
            Some((_, m)) => m.set(j),
            None => flush.push((pu, SubMask::single(j))),
        }
    }
    (flush, winners)
}

/// Sorts the members of the VOL after a transaction into order: `None`
/// (committed, retained) entries keep their relative order at the front;
/// tasked entries follow by task id.
///
/// Also returns where the T bits split (§3.4.3): the position of the most
/// recent member holding store data. It and the copies after it (kept
/// consistent with it by the invalidation walks) are fresh, everything
/// older is stale. `None` leaves every T bit alone: the design keeps no T
/// bit, or no version member remains (errata 4, monotonic staleness). A
/// flushed or purged version may leave a copy of an older architectural
/// value around, and only a refetch, which installs a fresh line, makes it
/// current again.
fn finish_order(mut entries: OrderBuf, trust_stale: bool) -> (VolOrder, Option<usize>) {
    // Stable sort: None < Some, Some sorted by task.
    entries.sort_by(|a, b| match (a.0, b.0) {
        (None, None) => core::cmp::Ordering::Equal,
        (None, Some(_)) => core::cmp::Ordering::Less,
        (Some(_), None) => core::cmp::Ordering::Greater,
        (Some(x), Some(y)) => x.cmp(&y),
    });
    let order = entries.iter().map(|&(_, pu, _)| pu).collect();
    let fresh_from = entries
        .iter()
        .rposition(|&(_, _, version)| version)
        .filter(|_| trust_stale);
    (order, fresh_from)
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 3; // PU W in the paper's 4-PU examples
    const X: usize = 0;
    const Y: usize = 1;
    const Z: usize = 2;

    /// Builds a snapshot; `valid`/`store`/`load` given as bit masks over
    /// one-word lines (bit 0 only) unless stated otherwise.
    #[allow(clippy::too_many_arguments)]
    fn snap(
        pu: usize,
        task: Option<u64>,
        valid: u64,
        store: u64,
        load: u64,
        committed: bool,
        next: Option<usize>,
    ) -> LineSnapshot {
        LineSnapshot {
            pu: PuId(pu),
            task: task.map(TaskId),
            valid: SubMask(valid),
            store: SubMask(store),
            load: SubMask(load),
            committed,
            stale: false,
            arch: false,
            next: next.map(PuId),
        }
    }

    fn absent(pu: usize, task: Option<u64>) -> LineSnapshot {
        snap(pu, task, 0, 0, 0, false, None)
    }

    fn vcl() -> Vcl {
        Vcl {
            hybrid_update: false,
            snarfing: false,
            trust_stale: true,
            update_limit: usize::MAX,
            retain_flushed: false,
        }
    }

    // ---- Figure 8: base-design load -------------------------------------

    #[test]
    fn figure8_load_supplied_by_closest_previous_version() {
        // X/0 has version 0 (S), Z/1 has version 1 (S), Y/3 has version 3
        // (S). W/2 loads: the VCL must supply Z's version (task 1).
        let snaps = [
            snap(X, Some(0), 1, 1, 0, false, Some(Z)),
            snap(Y, Some(3), 1, 1, 0, false, None),
            snap(Z, Some(1), 1, 1, 0, false, Some(Y)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(
            &snaps,
            PuId(W),
            TaskId(2),
            Some(TaskId(0)),
            SubMask::all(1),
            &[],
        );
        assert_eq!(plan.fill, vec![(0, SupplySource::Cache(PuId(Z)))]);
        assert!(!plan.arch, "an uncommitted non-head version is speculative");
        assert!(plan.flush.is_empty());
        assert!(plan.purge.is_empty());
        assert_eq!(
            plan.vol_after,
            vec![PuId(X), PuId(Z), PuId(W), PuId(Y)],
            "W/2 inserted between Z/1 and Y/3"
        );
        assert_eq!(
            plan.fresh_from,
            Some(3),
            "Y/3 is the most recent version: X, Z and W's copy of Z's version are stale"
        );
    }

    // ---- Figure 9: base-design stores -----------------------------------

    #[test]
    fn figure9_store_by_most_recent_task_invalidates_nothing() {
        // X/0 and Z/1 hold versions; W/2 holds a copy with L set. Y/3
        // stores: most recent task, no successors to invalidate.
        let snaps = [
            snap(X, Some(0), 1, 1, 0, false, Some(Z)),
            absent(Y, Some(3)),
            snap(Z, Some(1), 1, 1, 0, false, Some(W)),
            snap(W, Some(2), 1, 0, 1, false, None),
        ];
        let plan = vcl().plan_write(&snaps, PuId(Y), TaskId(3), SubMask::all(1), SubMask::EMPTY);
        assert!(plan.invalidate.is_empty());
        assert!(plan.victims.is_empty());
        assert_eq!(plan.vol_after, vec![PuId(X), PuId(Z), PuId(W), PuId(Y)]);
    }

    #[test]
    fn figure9_store_detects_violation() {
        // After task 3's store: X/0, Z/1 versions; W/2 copy with L; Y/3
        // version. Now Z executing task 1 stores: the VCL walks from W/2
        // (immediate successor) to Y/3 (next version, not included — no L).
        // W has L set -> violation, tasks 2+ squash.
        let snaps = [
            snap(X, Some(0), 1, 1, 0, false, Some(Z)),
            snap(Y, Some(3), 1, 1, 0, false, None),
            absent(Z, Some(1)),
            snap(W, Some(2), 1, 0, 1, false, Some(Y)),
        ];
        let plan = vcl().plan_write(&snaps, PuId(Z), TaskId(1), SubMask::all(1), SubMask::EMPTY);
        assert_eq!(plan.victims, vec![(PuId(W), TaskId(2))]);
        assert_eq!(plan.invalidate, vec![(PuId(W), SubMask::all(1))]);
        assert_eq!(
            plan.vol_after,
            vec![PuId(X), PuId(Z), PuId(Y)],
            "W's copy is gone; Z takes its place between X/0 and Y/3"
        );
    }

    #[test]
    fn store_walk_stops_at_next_version_without_load_bit() {
        // Copies behind the next version survive: X/0 stores; Z/1 is the
        // next version (no L); W/2 holds a copy of Z's version.
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            snap(Z, Some(1), 1, 1, 0, false, Some(W)),
            snap(W, Some(2), 1, 0, 1, false, None),
        ];
        let plan = vcl().plan_write(&snaps, PuId(X), TaskId(0), SubMask::all(1), SubMask::EMPTY);
        assert!(
            plan.victims.is_empty(),
            "Z stored before loading; W copied Z's version"
        );
        assert!(plan.invalidate.is_empty());
    }

    #[test]
    fn store_violates_next_version_with_load_bit_inclusive() {
        // The next version itself recorded a use before definition: it is
        // included in the invalidation (§3.2.3 "inclusive, if it has the L
        // bit set").
        let snaps = [
            absent(X, Some(0)),
            snap(Z, Some(1), 1, 1, 1, false, None), // loaded then stored
            absent(Y, Some(3)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_write(&snaps, PuId(X), TaskId(0), SubMask::all(1), SubMask::EMPTY);
        assert_eq!(plan.victims, vec![(PuId(Z), TaskId(1))]);
    }

    // ---- Figure 12: EC-design load with committed versions ---------------

    #[test]
    fn figure12_load_gets_most_recent_committed_version() {
        // X holds committed version 0, Z holds committed version 1
        // (chain X->Z), Y/3 holds uncommitted version 3. W/2 loads:
        // supply = Z's committed version 1 (W/2 precedes Y/3); version 1 is
        // flushed to memory; version 0 is purged.
        let snaps = [
            snap(X, Some(5), 1, 1, 0, true, Some(Z)),
            snap(Y, Some(3), 1, 1, 0, false, None),
            snap(Z, Some(4), 1, 1, 0, true, Some(Y)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(
            &snaps,
            PuId(W),
            TaskId(2),
            Some(TaskId(2)),
            SubMask::all(1),
            &[],
        );
        assert_eq!(plan.fill, vec![(0, SupplySource::Cache(PuId(Z)))]);
        assert!(plan.arch, "a committed version is architectural");
        assert_eq!(plan.flush, vec![(PuId(Z), SubMask::all(1))]);
        // Both committed lines are dirty, so both are invalidated after
        // the flush (final-design rule).
        assert!(plan.purge.contains(&PuId(X)) && plan.purge.contains(&PuId(Z)));
        assert_eq!(plan.vol_after, vec![PuId(W), PuId(Y)]);
        assert_eq!(
            plan.fresh_from,
            Some(1),
            "W copied version 1 but Y/3 holds a younger version"
        );
    }

    // ---- Figure 13: EC-design store purges committed versions ------------

    #[test]
    fn figure13_store_purges_committed_versions() {
        // Z holds committed v1, X holds committed v0 (chain X->Z); Y/3
        // uncommitted v3. X (now task 5) stores: all committed versions
        // purge, v1 flushes, new VOL = Y/3, X/5.
        let snaps = [
            snap(X, Some(5), 1, 1, 0, true, Some(Z)),
            snap(Y, Some(3), 1, 1, 0, false, None),
            snap(Z, Some(4), 1, 1, 0, true, Some(Y)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_write(&snaps, PuId(X), TaskId(5), SubMask::all(1), SubMask::EMPTY);
        assert_eq!(plan.flush, vec![(PuId(Z), SubMask::all(1))]);
        assert!(plan.purge.contains(&PuId(X)) && plan.purge.contains(&PuId(Z)));
        assert!(plan.victims.is_empty());
        assert_eq!(plan.vol_after, vec![PuId(Y), PuId(X)]);
        assert_eq!(plan.fresh_from, Some(1), "X/5 holds the newest version");
    }

    #[test]
    fn flushed_and_purged_versions_leave_t_bits_alone() {
        // X holds the only version, committed, and Y a committed clean
        // copy of it. W/2 loads: X's version is flushed and purged, Y's
        // copy survives. No member holds store data afterwards, so no T
        // bit may change (errata 4): Y might copy an older value.
        let snaps = [
            snap(X, Some(5), 1, 1, 0, true, Some(Y)),
            snap(Y, Some(6), 1, 0, 0, true, None),
            absent(Z, Some(4)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(&snaps, PuId(W), TaskId(2), None, SubMask::all(1), &[]);
        assert_eq!(plan.flush, vec![(PuId(X), SubMask::all(1))]);
        assert_eq!(plan.purge, vec![PuId(X)]);
        assert_eq!(plan.vol_after, vec![PuId(Y), PuId(W)]);
        assert_eq!(plan.fresh_from, None);
        // The requestor's own active version keeps the split defined;
        // without the T bit there is never one.
        let mut own = snaps;
        own[3] = snap(W, Some(2), 0b10, 0b10, 0, false, None);
        let plan = vcl().plan_read(&own, PuId(W), TaskId(2), None, SubMask::single(0), &[]);
        assert_eq!(plan.vol_after, vec![PuId(Y), PuId(W)]);
        assert_eq!(plan.fresh_from, Some(1));
        let plain = Vcl {
            trust_stale: false,
            ..vcl()
        };
        let plan = plain.plan_read(&own, PuId(W), TaskId(2), None, SubMask::single(0), &[]);
        assert_eq!(plan.fresh_from, None);
    }

    // ---- Sub-block (RL) behaviour ----------------------------------------

    #[test]
    fn store_mask_limits_violations_to_overlapping_subblocks() {
        // False sharing: W/2 loaded sub-block 1; X/0 stores sub-block 0 of
        // the same line. No violation; W loses only sub-block 0.
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            absent(Z, Some(1)),
            snap(W, Some(2), 0b11, 0, 0b10, false, None),
        ];
        let plan = vcl().plan_write(
            &snaps,
            PuId(X),
            TaskId(0),
            SubMask::single(0),
            SubMask::EMPTY,
        );
        assert!(
            plan.victims.is_empty(),
            "loads were to a different sub-block"
        );
        assert_eq!(plan.invalidate, vec![(PuId(W), SubMask::single(0))]);
        assert!(
            plan.vol_after.contains(&PuId(W)),
            "W keeps its line (sub-block 1 still valid)"
        );
    }

    #[test]
    fn committed_winners_are_per_subblock() {
        // Committed A stored sub-block 0; committed B (younger) stored
        // sub-block 1. Both win their own sub-block.
        let snaps = [
            snap(X, Some(8), 0b01, 0b01, 0, true, Some(Y)),
            snap(Y, Some(9), 0b10, 0b10, 0, true, None),
            absent(Z, Some(4)),
            absent(W, Some(5)),
        ];
        let plan = vcl().plan_write(
            &snaps,
            PuId(Z),
            TaskId(4),
            SubMask::single(0),
            SubMask::EMPTY,
        );
        let mut flush = plan.flush.clone();
        flush.sort_by_key(|(pu, _)| pu.index());
        assert_eq!(
            flush,
            vec![(PuId(X), SubMask::single(0)), (PuId(Y), SubMask::single(1))]
        );
    }

    #[test]
    fn superseded_committed_subblock_is_not_flushed() {
        // Committed A stored sub-block 0; committed B (younger) also
        // stored sub-block 0: only B flushes.
        let snaps = [
            snap(X, Some(8), 0b01, 0b01, 0, true, Some(Y)),
            snap(Y, Some(9), 0b01, 0b01, 0, true, None),
            absent(Z, Some(4)),
            absent(W, Some(5)),
        ];
        let plan = vcl().plan_read(&snaps, PuId(Z), TaskId(4), None, SubMask::single(0), &[]);
        assert_eq!(plan.flush, vec![(PuId(Y), SubMask::single(0))]);
        assert_eq!(plan.fill, vec![(0, SupplySource::Cache(PuId(Y)))]);
    }

    // ---- Hybrid update ----------------------------------------------------

    #[test]
    fn hybrid_update_replaces_invalidation_for_clean_copies() {
        let v = Vcl {
            hybrid_update: true,
            snarfing: false,
            trust_stale: true,
            update_limit: usize::MAX,
            retain_flushed: false,
        };
        // W/2 holds a clean copy (no L on the stored sub-block); Z/1
        // stores. With hybrid update W receives the data instead of losing
        // the line.
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            absent(Z, Some(1)),
            snap(W, Some(2), 1, 0, 0, false, None),
        ];
        let plan = v.plan_write(&snaps, PuId(Z), TaskId(1), SubMask::all(1), SubMask::EMPTY);
        assert_eq!(plan.update, vec![PuId(W)]);
        assert!(plan.invalidate.is_empty());
        assert!(plan.vol_after.contains(&PuId(W)));
    }

    #[test]
    fn hybrid_update_still_squashes_violations() {
        let v = Vcl {
            hybrid_update: true,
            snarfing: false,
            trust_stale: true,
            update_limit: usize::MAX,
            retain_flushed: false,
        };
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            absent(Z, Some(1)),
            snap(W, Some(2), 1, 0, 1, false, None),
        ];
        let plan = v.plan_write(&snaps, PuId(Z), TaskId(1), SubMask::all(1), SubMask::EMPTY);
        assert_eq!(plan.victims, vec![(PuId(W), TaskId(2))]);
        assert!(plan.update.is_empty());
    }

    // ---- Snarfing -----------------------------------------------------------

    #[test]
    fn snarf_allowed_only_for_matching_version() {
        let v = Vcl {
            hybrid_update: false,
            snarfing: true,
            trust_stale: true,
            update_limit: usize::MAX,
            retain_flushed: false,
        };
        // Z/1 holds a version. W/2 loads it. Y/3 may snarf (same
        // supplier); X/0 may NOT (it precedes the version, its correct
        // supplier is memory).
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            snap(Z, Some(1), 1, 1, 0, false, None),
            absent(W, Some(2)),
        ];
        let plan = v.plan_read(
            &snaps,
            PuId(W),
            TaskId(2),
            None,
            SubMask::all(1),
            &[(PuId(X), TaskId(0)), (PuId(Y), TaskId(3))],
        );
        assert_eq!(plan.snarfers, vec![PuId(Y)]);
        assert_eq!(plan.vol_after, vec![PuId(Z), PuId(W), PuId(Y)]);
    }

    #[test]
    fn snarfing_disabled_yields_no_snarfers() {
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            snap(Z, Some(1), 1, 1, 0, false, None),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(
            &snaps,
            PuId(W),
            TaskId(2),
            None,
            SubMask::all(1),
            &[(PuId(Y), TaskId(3))],
        );
        assert!(plan.snarfers.is_empty());
    }

    // ---- Memory supply & positions -----------------------------------------

    #[test]
    fn no_version_means_memory_supplies() {
        let snaps = [
            absent(X, Some(0)),
            absent(Y, Some(3)),
            absent(Z, Some(1)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(&snaps, PuId(W), TaskId(2), None, SubMask::all(1), &[]);
        assert_eq!(plan.fill, vec![(0, SupplySource::Memory)]);
        assert!(plan.arch);
        assert_eq!(plan.vol_after, vec![PuId(W)]);
    }

    #[test]
    fn younger_version_does_not_supply_older_load() {
        // Y/3 holds a version; X/0 loads. X precedes Y: memory supplies.
        let snaps = [
            absent(X, Some(0)),
            snap(Y, Some(3), 1, 1, 0, false, None),
            absent(Z, Some(1)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(&snaps, PuId(X), TaskId(0), None, SubMask::all(1), &[]);
        assert_eq!(plan.fill, vec![(0, SupplySource::Memory)]);
    }

    #[test]
    fn head_task_supply_is_architectural() {
        // Head task (task 0 on X) supplies its uncommitted version: the
        // copy may set the A bit (§3.5.1).
        let snaps = [
            snap(X, Some(0), 1, 1, 0, false, None),
            absent(Y, Some(3)),
            absent(Z, Some(1)),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_read(
            &snaps,
            PuId(Z),
            TaskId(1),
            Some(TaskId(0)),
            SubMask::all(1),
            &[],
        );
        assert_eq!(plan.fill, vec![(0, SupplySource::Cache(PuId(X)))]);
        assert!(plan.arch);
    }

    // ---- Writeback planning --------------------------------------------------

    #[test]
    fn committed_castout_writes_only_winning_subblocks() {
        // X committed stored 0b11; Y (younger committed) stored 0b10.
        // Evicting X writes only sub-block 0.
        let snaps = [
            snap(X, Some(8), 0b11, 0b11, 0, true, Some(Y)),
            snap(Y, Some(9), 0b10, 0b10, 0, true, None),
            absent(Z, Some(4)),
            absent(W, Some(5)),
        ];
        let plan = vcl().plan_wback(&snaps, PuId(X));
        assert_eq!(plan.write_evicted, SubMask::single(0));
        assert_eq!(plan.flush, vec![(PuId(Y), SubMask::single(1))]);
        assert!(plan.purge.contains(&PuId(X)) && plan.purge.contains(&PuId(Y)));
        assert!(plan.vol_after.is_empty());
    }

    #[test]
    fn active_castout_supersedes_committed_subblocks() {
        // Head task's dirty line (sub-block 0) evicts; a committed line
        // also stored sub-blocks 0 and 1. Sub-block 0 is superseded (no
        // flush); sub-block 1 still flushes.
        let snaps = [
            snap(X, Some(8), 0b11, 0b11, 0, true, None),
            absent(Y, Some(3)),
            snap(Z, Some(1), 0b01, 0b01, 0, false, None),
            absent(W, Some(2)),
        ];
        let plan = vcl().plan_wback(&snaps, PuId(Z));
        assert_eq!(plan.write_evicted, SubMask::single(0));
        assert_eq!(plan.flush, vec![(PuId(X), SubMask::single(1))]);
        assert!(plan.purge.contains(&PuId(Z)));
        assert!(plan.vol_after.is_empty());
    }
}
