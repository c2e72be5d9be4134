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
//!   reconstructed by [`order_vol`] — no pointer runs backwards.
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
//!   index of which caches hold each line and which have a free way in
//!   each set equals a recomputation over the caches.

use smallvec::SmallVec;
use svc_types::{Cycle, InvariantKind, InvariantViolation, LineId, PuId};

use crate::snapshot::LineSnapshot;
use crate::system::SvcSystem;
use crate::vol::order_vol;

/// Runs every whole-system invariant check. Returns all violations found
/// (empty for a healthy system).
pub fn check_system(sys: &SvcSystem, now: Cycle) -> Vec<InvariantViolation> {
    let mut out = Vec::new();
    for line in sys.resident_lines() {
        check_line(sys, line, &sys.snapshots(line), now, &mut out);
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

fn check_line(
    sys: &SvcSystem,
    line: LineId,
    snaps: &[LineSnapshot],
    now: Cycle,
    out: &mut Vec<InvariantViolation>,
) {
    let holders: SmallVec<&LineSnapshot, 8> = snaps.iter().filter(|s| s.is_valid()).collect();
    let mut orphaned = false;
    for s in &holders {
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

    // VOL acyclicity: walk the next pointers from every holder; a pointer
    // to a non-holder is a legal dangling end, but revisiting a holder
    // already on the walk is a cycle. Report at most once per line.
    'walks: for start in &holders {
        let mut visited: SmallVec<PuId, 8> = SmallVec::new();
        visited.push(start.pu);
        let mut cur = start.next;
        while let Some(q) = cur {
            let Some(next_snap) = holders.iter().find(|s| s.pu == q) else {
                break; // dangling: squash repair pending
            };
            if visited.contains(&q) {
                out.push(violation(
                    InvariantKind::VolCycle,
                    Some(q),
                    line,
                    now,
                    format!("VOL pointer walk from {} revisits {}", start.pu, q),
                ));
                break 'walks;
            }
            visited.push(q);
            cur = next_snap.next;
        }
    }

    // Program-order consistency: the stored forward pointers must agree
    // with the reconstruction. (Skipped if an orphan was found — the
    // reconstruction needs every uncommitted holder to have a task.)
    if !orphaned {
        let vol = order_vol(snaps);
        for s in holders.iter().filter(|s| !vol.contains(&s.pu)) {
            out.push(violation(
                InvariantKind::VolOrder,
                Some(s.pu),
                line,
                now,
                "holder missing from the reconstructed VOL".to_string(),
            ));
        }
        for s in &holders {
            // Local reuse of a passive architectural copy (§3.4.3/§3.5.1)
            // clears C and adopts the line for the PU's current task
            // *without* a bus transaction, so its stored pointer is an
            // epoch-stale leftover until the next bus request rewrites
            // it. Such pointers are legal in any direction — only check
            // pointers written by a bus transaction in this epoch.
            if !s.committed && s.arch {
                continue;
            }
            let Some(q) = s.next else { continue };
            let Some(dst) = holders.iter().find(|h| h.pu == q) else {
                continue; // dangling: squash repair pending
            };
            // A squash flash-reverts architectural copies back to
            // committed (C/A optimization) without repairing inbound
            // pointers, so an uncommitted holder legally pointing at a
            // now-committed copy is the in-cache analog of a dangling
            // pointer; the next bus request rewrites it.
            if !s.committed && dst.committed {
                continue;
            }
            let (Some(i), Some(j)) = (
                vol.iter().position(|&p| p == s.pu),
                vol.iter().position(|&p| p == q),
            ) else {
                continue; // missing from the VOL: handled above
            };
            if j <= i {
                out.push(violation(
                    InvariantKind::VolOrder,
                    Some(s.pu),
                    line,
                    now,
                    format!("VOL pointer {} -> {} runs against program order", s.pu, q),
                ));
            }
        }
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
