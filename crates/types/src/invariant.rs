use core::fmt;

use crate::{Cycle, LineId, PuId};

/// Which protocol invariant a watchdog check found broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A Version Ordering List's `next` pointers form a cycle, or a PU
    /// appears more than once in the derived order.
    VolCycle,
    /// The VOL's uncommitted suffix is not in program (task) order, or a
    /// valid copy is missing from the derived order.
    VolOrder,
    /// An uncommitted valid line has no task assigned to its PU, so it
    /// has no place in program order.
    Orphan,
    /// A line's state bits form an illegal combination (e.g. store or
    /// load bits outside the valid mask, a committed line with L bits).
    StateBits,
    /// More than one cache claims exclusive/dirty ownership where the
    /// protocol allows at most one.
    Ownership,
    /// Speculative state survived a squash that should have cleared it.
    SquashResidue,
    /// An internal structure (index, free list, row table) is
    /// inconsistent with itself.
    Structure,
    /// A host-side lookup derived from the caches (the SVC's presence
    /// index: which caches hold a line, which have a free way in a set)
    /// differs from a recomputation over the caches themselves.
    PresenceIndex,
}

impl InvariantKind {
    /// Short stable name used in traces, reports and campaign output.
    pub fn name(self) -> &'static str {
        match self {
            InvariantKind::VolCycle => "vol_cycle",
            InvariantKind::VolOrder => "vol_order",
            InvariantKind::Orphan => "orphan",
            InvariantKind::StateBits => "state_bits",
            InvariantKind::Ownership => "ownership",
            InvariantKind::SquashResidue => "squash_residue",
            InvariantKind::Structure => "structure",
            InvariantKind::PresenceIndex => "presence_index",
        }
    }
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured invariant violation reported by a watchdog check.
///
/// Watchdogs return these instead of panicking, so a violation can feed
/// forensics (trace event + causal line report) and surface as a distinct
/// process exit code rather than tearing the whole experiment grid down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The broken invariant.
    pub kind: InvariantKind,
    /// The PU/cache involved, if attributable.
    pub pu: Option<PuId>,
    /// The line involved, if attributable.
    pub line: Option<LineId>,
    /// The cycle at which the check ran.
    pub cycle: Cycle,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[cycle {}] {}", self.cycle.0, self.kind)?;
        if let Some(pu) = self.pu {
            write!(f, " {pu}")?;
        }
        if let Some(line) = self.line {
            write!(f, " line {}", line.0)?;
        }
        write!(f, ": {}", self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_site() {
        let v = InvariantViolation {
            kind: InvariantKind::StateBits,
            pu: Some(PuId(2)),
            line: Some(LineId(7)),
            cycle: Cycle(40),
            detail: "store mask 0b10 outside valid 0b01".to_string(),
        };
        let s = format!("{v}");
        assert!(s.contains("state_bits"));
        assert!(s.contains("PU2"));
        assert!(s.contains("line 7"));
        assert!(s.contains("cycle 40"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(InvariantKind::VolCycle.name(), "vol_cycle");
        assert_eq!(InvariantKind::SquashResidue.name(), "squash_residue");
        assert_eq!(InvariantKind::PresenceIndex.name(), "presence_index");
    }
}
