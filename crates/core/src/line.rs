use core::fmt;

use svc_mem::Slot;
use svc_types::{LineId, PuId, Word};

use crate::mask::SubMask;

/// The five line states of the final SVC design (paper Figure 18).
///
/// Derived from the stored bits rather than stored itself: *Active* means
/// the C bit is reset (the line was accessed by the task currently on this
/// PU), *Passive* means committed; *Dirty* means some sub-block's S bit is
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// No valid sub-block.
    Invalid,
    /// Uncommitted, no stores (V, C̄, no S).
    ActiveClean,
    /// Uncommitted with store data (V, C̄, some S) — a speculative version.
    ActiveDirty,
    /// Committed, no store data left to write back.
    PassiveClean,
    /// Committed with store data awaiting lazy writeback.
    PassiveDirty,
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LineState::Invalid => "I",
            LineState::ActiveClean => "AC",
            LineState::ActiveDirty => "AD",
            LineState::PassiveClean => "PC",
            LineState::PassiveDirty => "PD",
        };
        f.write_str(s)
    }
}

/// One line of an SVC private cache (paper Figure 16).
///
/// Carries the full final-design state: per-sub-block valid (sector bits),
/// store (`S`) and load (`L`) masks; the per-line commit (`C`), stale
/// (`T`) and architectural (`A`) bits; the Version Ordering List pointer to
/// the PU holding the next copy/version; and the data words.
///
/// Simpler designs simply leave the bits they lack at their reset values.
#[derive(Debug, Clone, Default)]
pub struct SvcLine {
    /// The address block held, if any.
    pub line: Option<LineId>,
    /// Per-sub-block valid bits (the sector-cache V bits).
    pub valid: SubMask,
    /// Per-sub-block store (dirty) bits — the `S` bits of §3.7.
    pub store: SubMask,
    /// Per-sub-block use-before-define bits — the `L` bits.
    pub load: SubMask,
    /// Commit bit: the creating task has committed (§3.4).
    pub committed: bool,
    /// Stale bit: a newer version of this line exists (§3.4.3).
    pub stale: bool,
    /// Architectural bit: this data is (a copy of) the architectural
    /// version, safe to retain across squashes (§3.5.1).
    pub arch: bool,
    /// VOL pointer: the PU with the next copy/version of this line.
    pub next: Option<PuId>,
    /// Exclusive (X) bit: this is the only cached copy of the line
    /// anywhere, so a store may proceed without a bus request (Figure 16
    /// lists the X bit; §3.1 describes the underlying SMP optimization).
    /// Set only by the VCL when a transaction leaves a sole holder;
    /// cleared whenever a snooped transaction adds another holder.
    pub exclusive: bool,
    /// Data words (length = words per line).
    pub data: Vec<Word>,
}

impl SvcLine {
    /// An invalid line sized for `words_per_line`.
    pub fn invalid(words_per_line: usize) -> SvcLine {
        SvcLine {
            data: vec![Word::ZERO; words_per_line],
            ..SvcLine::default()
        }
    }

    /// Whether any sub-block holds valid data.
    pub fn is_valid(&self) -> bool {
        self.line.is_some() && !self.valid.is_empty()
    }

    /// This line's state bits as a trace-friendly value (old→new pairs of
    /// these appear in `line`-category trace events).
    pub fn bits(&self) -> svc_sim::trace::LineBits {
        svc_sim::trace::LineBits {
            valid: self.valid.0,
            store: self.store.0,
            load: self.load.0,
            committed: self.committed,
            stale: self.stale,
            arch: self.arch,
            exclusive: self.exclusive,
        }
    }

    /// The derived five-state classification (Figure 18).
    pub fn state(&self) -> LineState {
        if !self.is_valid() {
            LineState::Invalid
        } else {
            match (self.committed, self.store.is_empty()) {
                (false, true) => LineState::ActiveClean,
                (false, false) => LineState::ActiveDirty,
                (true, true) => LineState::PassiveClean,
                (true, false) => LineState::PassiveDirty,
            }
        }
    }

    /// Fully invalidates the line, clearing every bit and zeroing the
    /// data words in place (the storage is kept, not reallocated).
    pub fn invalidate(&mut self) {
        let mut data = core::mem::take(&mut self.data);
        data.fill(Word::ZERO);
        *self = SvcLine {
            data,
            ..SvcLine::default()
        };
    }

    /// Invalidates the given sub-blocks; fully invalidates the line when no
    /// valid sub-block remains. Returns `true` if the whole line became
    /// invalid.
    pub fn invalidate_subblocks(&mut self, mask: SubMask) -> bool {
        self.valid = self.valid.minus(mask);
        self.store = self.store.minus(mask);
        self.load = self.load.minus(mask);
        if self.valid.is_empty() {
            self.invalidate();
            true
        } else {
            false
        }
    }
}

impl Slot for SvcLine {
    fn held_line(&self) -> Option<LineId> {
        if self.is_valid() {
            self.line
        } else {
            None
        }
    }
}

impl svc_types::Checkpointable for SvcLine {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.line.save_state(w);
        self.valid.save_state(w);
        self.store.save_state(w);
        self.load.save_state(w);
        self.committed.save_state(w);
        self.stale.save_state(w);
        self.arch.save_state(w);
        self.next.save_state(w);
        self.exclusive.save_state(w);
        self.data.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.line.restore_state(r)?;
        self.valid.restore_state(r)?;
        self.store.restore_state(r)?;
        self.load.restore_state(r)?;
        self.committed.restore_state(r)?;
        self.stale.restore_state(r)?;
        self.arch.restore_state(r)?;
        self.next.restore_state(r)?;
        self.exclusive.restore_state(r)?;
        self.data.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_with(valid: SubMask, store: SubMask, committed: bool) -> SvcLine {
        SvcLine {
            line: Some(LineId(1)),
            valid,
            store,
            committed,
            data: vec![Word::ZERO; 4],
            ..SvcLine::default()
        }
    }

    #[test]
    fn state_classification() {
        assert_eq!(SvcLine::invalid(4).state(), LineState::Invalid);
        assert_eq!(
            line_with(SubMask::all(1), SubMask::EMPTY, false).state(),
            LineState::ActiveClean
        );
        assert_eq!(
            line_with(SubMask::all(1), SubMask::single(0), false).state(),
            LineState::ActiveDirty
        );
        assert_eq!(
            line_with(SubMask::all(1), SubMask::EMPTY, true).state(),
            LineState::PassiveClean
        );
        assert_eq!(
            line_with(SubMask::all(1), SubMask::single(0), true).state(),
            LineState::PassiveDirty
        );
    }

    #[test]
    fn tag_without_valid_bits_is_not_held() {
        let mut l = SvcLine::invalid(2);
        l.line = Some(LineId(9));
        assert!(!l.is_valid());
        assert_eq!(l.held_line(), None);
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut l = line_with(SubMask::all(2), SubMask::single(1), true);
        l.stale = true;
        l.arch = true;
        l.next = Some(PuId(2));
        l.data[2] = Word(7);
        let storage = l.data.as_ptr();
        l.invalidate();
        assert_eq!(l.state(), LineState::Invalid);
        assert_eq!(l.next, None);
        assert!(!l.stale && !l.arch && !l.committed);
        assert_eq!(l.data, vec![Word::ZERO; 4], "data zeroed");
        assert_eq!(l.data.as_ptr(), storage, "data storage is retained");
    }

    #[test]
    fn partial_subblock_invalidation() {
        let mut l = line_with(SubMask::all(2), SubMask::single(1), false);
        l.load = SubMask::single(0);
        assert!(!l.invalidate_subblocks(SubMask::single(1)));
        assert_eq!(l.state(), LineState::ActiveClean, "store bit went away");
        assert!(l.valid.contains(0));
        assert!(!l.valid.contains(1));
        // Invalidating the rest kills the line.
        assert!(l.invalidate_subblocks(SubMask::single(0)));
        assert_eq!(l.state(), LineState::Invalid);
    }

    #[test]
    fn display_states() {
        assert_eq!(format!("{}", LineState::PassiveDirty), "PD");
        assert_eq!(format!("{}", LineState::Invalid), "I");
    }
}
