//! Runtime invariant watchdog for the SVC.
//!
//! Validates the protocol-level consistency of the complete speculative
//! state — the distributed Version Ordering List and the per-line state
//! bits — and reports every problem as a structured
//! [`InvariantViolation`] instead of panicking, so a harness can feed the
//! violations to forensics and keep the run alive.
//!
//! The checks (each maps to an [`InvariantKind`]):
//!
//! - **State-bit legality** ([`InvariantKind::StateBits`]): store and load
//!   masks are subsets of the valid mask, and a committed line carries no
//!   load (use-before-define) bits — commits flash-clear L (§3.4).
//! - **Orphans** ([`InvariantKind::Orphan`]): every uncommitted valid line
//!   belongs to its PU's *current* task; a task-less PU holding
//!   speculative state has escaped a commit/squash.
//! - **VOL acyclicity** ([`InvariantKind::VolCycle`]): following the
//!   distributed `next` pointers among the current holders never revisits
//!   a cache. (Pointers *to caches that no longer hold the line* are
//!   legal dangling ends — squashes leave them behind and the next bus
//!   request repairs them, §3.5.)
//! - **Program-order consistency** ([`InvariantKind::VolOrder`]): every
//!   stored pointer between two live holders agrees with the VOL
//!   reconstructed by [`order_vol`](crate::order_vol) — no pointer runs backwards.
//!   Two epoch-stale shapes are exempt because only bus transactions
//!   rewrite pointers: a pointer *from* an uncommitted architectural
//!   copy (local reuse, §3.4.3/§3.5.1, adopts the line without a bus
//!   transaction) and a pointer from an uncommitted holder *to* a
//!   committed one (a squash flash-reverted the destination). Both are
//!   repaired by the next bus request, like dangling pointers.
//! - **Exclusive ownership** ([`InvariantKind::Ownership`]): a line with
//!   the X bit set (Figure 16 silent-store optimization) is the only
//!   cached copy anywhere.
//! - **Post-squash cleanliness** ([`InvariantKind::SquashResidue`],
//!   [`check_post_squash`]): immediately after a squash, no uncommitted
//!   valid line survives in the squashed PU's cache.
//! - **Presence index** ([`InvariantKind::PresenceIndex`]): the host-side
//!   index of which caches hold each line, which have a free way in each
//!   set and which slots hold active lines equals a recomputation over
//!   the caches.

use smallvec::SmallVec;
use svc_types::{Cycle, InvariantKind, InvariantViolation, LineId, PuId};

use crate::snapshot::LineSnapshot;
use crate::system::SvcSystem;
use crate::vol::vol_indices;

/// The empty entry of the watchdog's scratch tables.
const NONE: u32 = u32::MAX;

/// Runs every whole-system invariant check. Returns all violations found
/// (empty for a healthy system).
pub fn check_system(sys: &SvcSystem, now: Cycle) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    // Per-PU scratch for `check_line`, all NONE between lines.
    let n = sys.config().num_pus;
    let mut scratch: SmallVec<u32, 16> = (0..2 * n).map(|_| NONE).collect();
    let (index, mark) = scratch.split_at_mut(n);
    for line in sys.resident_lines() {
        check_line(sys, line, &sys.snapshots(line), now, index, mark, &mut out);
    }
    for (pu, line, detail) in sys.presence_mismatches() {
        out.push(InvariantViolation {
            kind: InvariantKind::PresenceIndex,
            pu,
            line,
            cycle: now,
            detail,
        });
    }
    out
}

/// Runs the post-squash cleanliness check for `pu`: called immediately
/// after a squash, it reports any uncommitted valid line that survived.
pub fn check_post_squash(sys: &SvcSystem, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
    sys.speculative_lines_of(pu)
        .into_iter()
        .map(|line| InvariantViolation {
            kind: InvariantKind::SquashResidue,
            pu: Some(pu),
            line: Some(line),
            cycle: now,
            detail: "uncommitted valid line survived the squash".to_string(),
        })
        .collect()
}

fn violation(
    kind: InvariantKind,
    pu: Option<PuId>,
    line: LineId,
    now: Cycle,
    detail: String,
) -> InvariantViolation {
    InvariantViolation {
        kind,
        pu,
        line: Some(line),
        cycle: now,
        detail,
    }
}

/// Checks one line in time linear in its holders, with no table of its
/// own but the holder list (inline up to 8): `index[pu]` is the PU's
/// position among the holders, `mark[k]` first the walk that reached
/// holder `k`, then its VOL rank. Both are all NONE before and after.
fn check_line(
    sys: &SvcSystem,
    line: LineId,
    snaps: &[LineSnapshot],
    now: Cycle,
    index: &mut [u32],
    mark: &mut [u32],
    out: &mut Vec<InvariantViolation>,
) {
    // The holders, as indices into `snaps`.
    let holders: SmallVec<usize, 8> = (0..snaps.len()).filter(|&i| snaps[i].is_valid()).collect();
    let holders = &holders[..];
    let mut orphaned = false;
    for s in holders.iter().map(|&i| &snaps[i]) {
        if !s.store.minus(s.valid).is_empty() {
            out.push(violation(
                InvariantKind::StateBits,
                Some(s.pu),
                line,
                now,
                format!("store mask {:?} exceeds valid mask {:?}", s.store, s.valid),
            ));
        }
        if !s.load.minus(s.valid).is_empty() {
            out.push(violation(
                InvariantKind::StateBits,
                Some(s.pu),
                line,
                now,
                format!("load mask {:?} exceeds valid mask {:?}", s.load, s.valid),
            ));
        }
        if s.committed && !s.load.is_empty() {
            out.push(violation(
                InvariantKind::StateBits,
                Some(s.pu),
                line,
                now,
                "committed line carries load bits".to_string(),
            ));
        }
        if !s.committed && s.task.is_none() {
            orphaned = true;
            out.push(violation(
                InvariantKind::Orphan,
                Some(s.pu),
                line,
                now,
                "uncommitted valid line on a PU with no assigned task".to_string(),
            ));
        }
        if sys.line_exclusive(s.pu, line) && holders.len() > 1 {
            out.push(violation(
                InvariantKind::Ownership,
                Some(s.pu),
                line,
                now,
                format!("X bit set but {} caches hold the line", holders.len()),
            ));
        }
    }

    for (k, &i) in holders.iter().enumerate() {
        index[snaps[i].pu.index()] = k as u32;
    }
    // The holder that holder k's `next` pointer names (NONE for no
    // pointer, or one to a non-holder: a legal dangling end).
    let succ = |index: &[u32], k: usize| {
        let next = snaps[holders[k]].next;
        next.and_then(|q| index.get(q.index()).copied())
            .unwrap_or(NONE)
    };

    // VOL acyclicity: follow the pointers from each holder in turn.
    // Revisiting a holder of the current walk is a cycle, reported once
    // per line; reaching one an earlier walk visited ends the walk (that
    // walk ended at a dangling end), so each holder is walked once.
    'walks: for start in 0..holders.len() {
        let mut k = start;
        while mark[k] == NONE {
            mark[k] = start as u32;
            match succ(index, k) {
                NONE => continue 'walks,
                next => k = next as usize,
            }
        }
        if mark[k] == start as u32 {
            let (from, q) = (snaps[holders[start]].pu, snaps[holders[k]].pu);
            out.push(violation(
                InvariantKind::VolCycle,
                Some(q),
                line,
                now,
                format!("VOL pointer walk from {from} revisits {q}"),
            ));
            break;
        }
    }

    // Program-order consistency: the stored forward pointers must agree
    // with the reconstruction. (Skipped if an orphan was found — the
    // reconstruction needs every uncommitted holder to have a task.)
    if !orphaned {
        // The reconstruction places every holder: mark[k] becomes its rank.
        for (pos, i) in vol_indices(snaps).into_iter().enumerate() {
            mark[index[snaps[i].pu.index()] as usize] = pos as u32;
        }
        for (k, &i) in holders.iter().enumerate() {
            let s = &snaps[i];
            // Local reuse of a passive architectural copy (§3.4.3/§3.5.1)
            // clears C and adopts the line for the PU's current task
            // *without* a bus transaction, so its stored pointer is an
            // epoch-stale leftover until the next bus request rewrites
            // it. Such pointers are legal in any direction — only check
            // pointers written by a bus transaction in this epoch.
            if !s.committed && s.arch {
                continue;
            }
            let d = succ(index, k);
            if d == NONE {
                continue; // no pointer, or dangling: squash repair pending
            }
            let dst = &snaps[holders[d as usize]];
            // A squash flash-reverts architectural copies back to
            // committed (C/A optimization) without repairing inbound
            // pointers, so an uncommitted holder legally pointing at a
            // now-committed copy is the in-cache analog of a dangling
            // pointer; the next bus request rewrites it.
            if !s.committed && dst.committed {
                continue;
            }
            if mark[d as usize] <= mark[k] {
                out.push(violation(
                    InvariantKind::VolOrder,
                    Some(s.pu),
                    line,
                    now,
                    format!(
                        "VOL pointer {} -> {} runs against program order",
                        s.pu, dst.pu
                    ),
                ));
            }
        }
    }
    for (k, &i) in holders.iter().enumerate() {
        index[snaps[i].pu.index()] = NONE;
        mark[k] = NONE;
    }
}

#[cfg(test)]
mod tests {
    use svc_types::{Addr, PuId, TaskId, VersionedMemory, Word};

    use super::*;
    use crate::config::SvcConfig;

    fn busy_system(design: fn(usize) -> SvcConfig) -> SvcSystem {
        let mut sys = SvcSystem::new(design(4));
        for i in 0..4 {
            sys.assign(PuId(i), TaskId(i as u64));
        }
        // Mix of shared lines, private lines, versions and copies.
        for i in 0..4u64 {
            let pu = PuId(i as usize);
            sys.store(pu, Addr(64 + i), Word(i), Cycle(i)).unwrap();
            sys.load(pu, Addr(64), Cycle(10 + i)).unwrap();
            sys.store(pu, Addr(128 + 8 * i), Word(i), Cycle(20 + i))
                .unwrap();
        }
        sys
    }

    #[test]
    fn healthy_system_has_no_violations() {
        for design in [
            SvcConfig::base as fn(usize) -> SvcConfig,
            SvcConfig::final_design,
        ] {
            let sys = busy_system(design);
            assert_eq!(check_system(&sys, Cycle(30)), Vec::new());
        }
    }

    #[test]
    fn flipped_state_bit_is_caught() {
        let mut sys = busy_system(SvcConfig::final_design);
        assert!(sys.fault_flip_state_bit(PuId(1), Addr(64)));
        let found = check_system(&sys, Cycle(40));
        assert!(
            found.iter().any(|v| v.kind == InvariantKind::StateBits),
            "got {found:?}"
        );
    }

    #[test]
    fn spliced_vol_is_caught() {
        let mut sys = busy_system(SvcConfig::final_design);
        assert!(sys.fault_splice_vol(Addr(64)));
        let found = check_system(&sys, Cycle(40));
        assert!(
            found
                .iter()
                .any(|v| v.kind == InvariantKind::VolCycle || v.kind == InvariantKind::VolOrder),
            "got {found:?}"
        );
    }

    /// More holders than any inline table holds, with the cycle closed
    /// far down the walk: 0 -> 1 -> ... -> 135 -> 120. Reported once,
    /// naming the first revisited holder.
    #[test]
    fn long_chain_cycle_far_down_the_walk_is_reported_once() {
        const HOLDERS: usize = 136;
        let sys = SvcSystem::new(SvcConfig::final_design(HOLDERS));
        let snaps: Vec<LineSnapshot> = (0..HOLDERS)
            .map(|i| LineSnapshot {
                pu: PuId(i),
                task: Some(TaskId(i as u64)),
                valid: crate::mask::SubMask::all(1),
                store: crate::mask::SubMask::EMPTY,
                load: crate::mask::SubMask::EMPTY,
                committed: true,
                stale: false,
                arch: false,
                next: Some(PuId(if i + 1 < HOLDERS { i + 1 } else { 120 })),
            })
            .collect();
        let (mut index, mut mark) = (vec![NONE; HOLDERS], vec![NONE; HOLDERS]);
        let mut out = Vec::new();
        let line = LineId(3);
        check_line(
            &sys,
            line,
            &snaps,
            Cycle(9),
            &mut index,
            &mut mark,
            &mut out,
        );
        let cycles: Vec<_> = out
            .iter()
            .filter(|v| v.kind == InvariantKind::VolCycle)
            .collect();
        assert_eq!(cycles.len(), 1, "got {out:?}");
        assert_eq!(cycles[0].pu, Some(PuId(120)));
        assert_eq!(cycles[0].detail, "VOL pointer walk from PU0 revisits PU120");
        assert!(
            index.iter().chain(&mark).all(|&k| k == NONE),
            "tables left dirty"
        );
    }

    /// The same end to end: 136 PUs share a line and the drill bends the
    /// youngest copy's pointer back to the oldest.
    #[test]
    fn spliced_vol_over_136_holders_is_reported_once() {
        const PUS: usize = 136;
        let mut sys = SvcSystem::new(SvcConfig::final_design(PUS));
        for i in 0..PUS {
            sys.assign(PuId(i), TaskId(i as u64));
            sys.load(PuId(i), Addr(64), Cycle(i as u64)).unwrap();
        }
        assert_eq!(check_system(&sys, Cycle(200)), Vec::new());
        assert!(sys.fault_splice_vol(Addr(64)));
        let found = check_system(&sys, Cycle(200));
        let cycles = found
            .iter()
            .filter(|v| v.kind == InvariantKind::VolCycle)
            .count();
        assert_eq!(cycles, 1, "got {found:?}");
    }

    #[test]
    fn post_squash_is_clean() {
        let mut sys = busy_system(SvcConfig::final_design);
        sys.squash_at(PuId(3), Cycle(50));
        assert_eq!(check_post_squash(&sys, PuId(3), Cycle(50)), Vec::new());
        assert_eq!(check_system(&sys, Cycle(50)), Vec::new());
    }

    #[test]
    fn commit_and_drain_stay_clean() {
        let mut sys = busy_system(SvcConfig::final_design);
        for i in 0..4 {
            sys.commit(PuId(i), Cycle(60 + i as u64));
            assert_eq!(check_system(&sys, Cycle(60 + i as u64)), Vec::new());
        }
        sys.drain();
        assert_eq!(check_system(&sys, Cycle(70)), Vec::new());
    }
}
