//! Version Ordering List reconstruction.
//!
//! The VOL of a line is the program-order list of its copies and versions
//! (paper §2.3). It is stored distributed, as one pointer per line; on each
//! bus request the VCL reassembles it from the snooped snapshots. Squashes
//! invalidate the (uncommitted) tail of the list and may leave a dangling
//! pointer in the last surviving entry (§3.5, Figure 17); reconstruction
//! here simply ignores pointers to caches that no longer hold the line,
//! which *is* the repair — each VCL plan carries the VOL after its
//! transaction, and the system writes every member's pointer from it.

use smallvec::SmallVec;
use svc_sim::trace::VolEntry;
use svc_types::{PuId, TaskId};

use crate::snapshot::LineSnapshot;

/// A reconstructed VOL order: inline up to 8 members (one per PU in
/// every paper configuration), heap beyond that.
pub type VolOrder = SmallVec<PuId, 8>;

/// Positions in a snapshot slice, in VOL order (see [`vol_indices`]).
pub(crate) type VolIndices = SmallVec<usize, 8>;

/// The reconstructed VOL as trace entries (oldest first): each member's
/// PU, current task, and whether it is a *version* (holds store data)
/// rather than a pure copy. Feeds `vol`-category trace events.
pub fn vol_trace_entries(snapshots: &[LineSnapshot]) -> Vec<VolEntry> {
    vol_indices(snapshots)
        .into_iter()
        .map(|i| {
            let s = &snapshots[i];
            VolEntry {
                pu: s.pu,
                task: s.task,
                version: s.is_version(),
            }
        })
        .collect()
}

/// Reconstructs the VOL (oldest first) from the snooped line snapshots.
///
/// The order is: all *committed* copies/versions first, in their stored
/// pointer-chain order (their creating tasks are gone, so the chain is the
/// only record of their relative age); then all *uncommitted* lines,
/// ordered by the task currently on their PU — valid because an
/// uncommitted line always belongs to its PU's current task.
///
/// `snapshots` holds at most one snapshot per PU, in any order (a
/// snooped bus sees each cache once). Invalid snapshots are skipped.
/// Dangling pointers (to PUs whose line was squash-invalidated) are
/// ignored.
///
/// # Panics
///
/// Panics if an uncommitted valid line sits on a PU with no assigned task
/// (a system invariant violation). Debug builds also panic if two
/// committed snapshots share a PU.
pub fn order_vol(snapshots: &[LineSnapshot]) -> VolOrder {
    vol_indices(snapshots)
        .into_iter()
        .map(|i| snapshots[i].pu)
        .collect()
}

/// [`order_vol`] as positions in `snapshots` (whose PUs must be
/// distinct), in O(h log h) for h snapshots.
///
/// Committed chains start at the committed members no other committed
/// member points to, taken in PU order; each chain follows `next` through
/// committed members until it leaves the set or meets a member already
/// placed (a corrupt cycle). Committed members no chain reached follow in
/// slice order. Uncommitted members come last, by task, ties in slice
/// order.
pub(crate) fn vol_indices(snapshots: &[LineSnapshot]) -> VolIndices {
    let n = snapshots.len();
    let mut order = VolIndices::new();

    // --- Committed prefix: follow the pointer chain. ---
    // Committed members sorted by PU: the lookup `next` pointers resolve
    // through.
    let mut by_pu: VolIndices = (0..n)
        .filter(|&i| snapshots[i].is_valid() && snapshots[i].committed)
        .collect();
    if !by_pu.is_empty() {
        by_pu.sort_unstable_by_key(|&i| snapshots[i].pu.index());
        debug_assert!(
            by_pu
                .windows(2)
                .all(|w| snapshots[w[0]].pu != snapshots[w[1]].pu),
            "one snapshot per PU"
        );
        let member = |pu: PuId| {
            by_pu
                .binary_search_by_key(&pu.index(), |&i| snapshots[i].pu.index())
                .ok()
                .map(|k| by_pu[k])
        };
        // pointed[i]: another committed member's `next` names member i.
        let mut pointed: SmallVec<bool, 64> = (0..n).map(|_| false).collect();
        for &i in &by_pu {
            let s = &snapshots[i];
            if let Some(j) = s.next.filter(|&q| q != s.pu).and_then(member) {
                pointed[j] = true;
            }
        }
        // placed[i]: member i is in `order` (doubles as the cycle guard).
        let mut placed: SmallVec<bool, 64> = (0..n).map(|_| false).collect();
        // Normally exactly one head; multiple fragments can only arise
        // from repaired state. Heads go in PU order.
        for &head in by_pu.iter().filter(|&&i| !pointed[i]) {
            let mut cur = Some(head);
            while let Some(i) = cur.filter(|&i| !placed[i]) {
                placed[i] = true;
                order.push(i);
                cur = snapshots[i].next.and_then(member);
            }
        }
        // Any committed member the chains missed (fully corrupt pointers):
        // append deterministically.
        for i in 0..n {
            if snapshots[i].is_valid() && snapshots[i].committed && !placed[i] {
                order.push(i);
            }
        }
    }

    // --- Uncommitted suffix: order by current task. ---
    let mut uncommitted: SmallVec<(TaskId, usize), 8> = (0..n)
        .filter(|&i| snapshots[i].is_valid() && !snapshots[i].committed)
        .map(|i| {
            let task = snapshots[i]
                .ordering_task()
                .expect("uncommitted lines have tasks");
            (task, i)
        })
        .collect();
    uncommitted.sort_unstable();
    order.extend(uncommitted.iter().map(|&(_, i)| i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::SubMask;

    fn snap(pu: usize, task: Option<u64>, committed: bool, next: Option<usize>) -> LineSnapshot {
        LineSnapshot {
            pu: PuId(pu),
            task: task.map(TaskId),
            valid: SubMask::all(1),
            store: SubMask::EMPTY,
            load: SubMask::EMPTY,
            committed,
            stale: false,
            arch: false,
            next: next.map(PuId),
        }
    }

    fn invalid(pu: usize) -> LineSnapshot {
        LineSnapshot {
            valid: SubMask::EMPTY,
            ..snap(pu, None, false, None)
        }
    }

    #[test]
    fn uncommitted_sorted_by_task() {
        // Paper Figure 8: X/0, Z/1, W/2 (requestor), Y/3 — all uncommitted.
        let snaps = vec![
            snap(0, Some(0), false, Some(2)), // X/0 -> Z
            snap(1, Some(3), false, None),    // Y/3
            snap(2, Some(1), false, Some(1)), // Z/1 -> Y
            invalid(3),                       // W: no copy yet
        ];
        assert_eq!(order_vol(&snaps), vec![PuId(0), PuId(2), PuId(1)]);
    }

    #[test]
    fn committed_prefix_uses_pointer_chain() {
        // Paper Figure 12: X holds committed version 0, Z holds committed
        // version 1 (X -> Z), while X and Z now run tasks 5 and 4. Y/3 is
        // uncommitted. Chain order must be X, Z (creation order), NOT the
        // current-task order (which would put Z/4 before X/5).
        let snaps = vec![
            snap(0, Some(5), true, Some(2)), // X: committed v0 -> Z
            snap(1, Some(3), false, None),   // Y/3: uncommitted v3
            snap(2, Some(4), true, Some(1)), // Z: committed v1 -> Y
            invalid(3),
        ];
        assert_eq!(order_vol(&snaps), vec![PuId(0), PuId(2), PuId(1)]);
    }

    #[test]
    fn dangling_pointer_after_squash_is_repaired() {
        // Paper Figure 17: versions 0 (committed, X), 1 (Z), 3 (Y). Tasks 3
        // and 4 squash; Y's line is invalidated, leaving Z's pointer
        // dangling. Reconstruction must yield X, Z.
        let snaps = vec![
            snap(0, None, true, Some(2)),     // X: committed v0 -> Z
            invalid(1),                       // Y: squashed
            snap(2, Some(1), false, Some(1)), // Z/1 -> Y (dangling)
            snap(3, Some(2), false, None),    // W/2 has a copy
        ];
        assert_eq!(order_vol(&snaps), vec![PuId(0), PuId(2), PuId(3)]);
    }

    #[test]
    fn empty_and_single() {
        assert!(order_vol(&[]).is_empty());
        assert!(order_vol(&[invalid(0), invalid(1)]).is_empty());
        let one = vec![snap(2, Some(9), false, None)];
        assert_eq!(order_vol(&one), vec![PuId(2)]);
    }

    #[test]
    fn corrupt_committed_cycle_terminates() {
        // Two committed lines pointing at each other must not loop forever.
        let snaps = vec![snap(0, None, true, Some(1)), snap(1, None, true, Some(0))];
        let vol = order_vol(&snaps);
        assert_eq!(vol.len(), 2);
        assert!(vol.contains(&PuId(0)) && vol.contains(&PuId(1)));
    }

    #[test]
    fn committed_always_precede_uncommitted() {
        let snaps = vec![
            snap(0, Some(9), false, None), // uncommitted, young task
            snap(1, Some(10), true, None), // committed on PU running task 10
        ];
        assert_eq!(order_vol(&snaps), vec![PuId(1), PuId(0)]);
    }
}
