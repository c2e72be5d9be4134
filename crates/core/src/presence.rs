//! Host-side presence index over the private caches.
//!
//! The paper's VCL sees every L1's state for the snooped line at once
//! (§3.2, Figure 5); the simulated snoop still broadcasts to every cache
//! and is charged as such. This module only spares the *host* from
//! probing every cache to learn that most of them do not hold the line.
//! It is a lookup derived from the caches, not a modelled directory:
//!
//! - line → the PUs holding a valid copy of it;
//! - cache set → the PUs with a free way in that set (snarf candidates);
//! - PU → the slots of its cache holding an active line (valid, C bit
//!   clear): the speculative footprint that a commit flash-commits and a
//!   squash clears, each a single step in the modelled hardware (§3.4,
//!   §3.5).
//!
//! All three are functions of the caches, so none is checkpointed nor
//! part of the model checker's fingerprint; a restored system rebuilds
//! them ([`Presence::rebuild`]) and the watchdog cross-checks them
//! ([`Presence::mismatches`]). PU sets are bitsets of 64-PU words and
//! footprints bitsets of 64-slot words over the flat `set × ways` slot
//! index, so any PU count and cache size work.

use smallvec::SmallVec;
use svc_mem::{CacheArray, Slot};
use svc_types::{KeyMap, LineId, PuId};

use crate::line::SvcLine;

/// The set bits of one 64-bit word, offset by `base`, in increasing order.
#[derive(Debug, Clone, Copy)]
struct Bits {
    word: u64,
    base: usize,
}

impl Iterator for Bits {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let i = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + i)
    }
}

/// Line → the PUs of one 64-PU word that hold a valid copy. Only
/// non-zero words are stored, so an empty map allocates nothing.
type HolderMap = KeyMap<LineId, u64>;

/// The presence index of one SVC: which PUs hold each line, which have a
/// free way in each set, and which slots of each cache are active.
#[derive(Debug, Clone)]
pub(crate) struct Presence {
    /// 64-PU words per PU set.
    words: usize,
    /// Holders among PUs 0–63, and for each further 64-PU word its own
    /// map: one small `LineId → u64` entry per line and word.
    holders: HolderMap,
    wide_holders: Vec<HolderMap>,
    /// `set × words` → the PUs with at least one free way in that set
    /// (inline for the model checker's few-set caches, which it clones on
    /// every transition).
    free: SmallVec<u64, 4>,
    /// 64-slot words per cache.
    slot_words: usize,
    /// `pu × slot_words` → the slots of `pu`'s cache holding an active
    /// line (inline for the model checker's two 4-slot caches).
    active: SmallVec<u64, 4>,
}

impl Presence {
    /// The index of `num_pus` empty caches of `sets` sets of `ways` ways:
    /// nothing held, every set free everywhere, no active line.
    pub(crate) fn new(num_pus: usize, sets: usize, ways: usize) -> Presence {
        let words = num_pus.div_ceil(64);
        // Word `w` of the set of all PUs.
        let all = |w: usize| match num_pus - 64 * w {
            n if n >= 64 => u64::MAX,
            n => (1 << n) - 1,
        };
        let slot_words = (sets * ways).div_ceil(64);
        Presence {
            words,
            holders: HolderMap::default(),
            wide_holders: (1..words).map(|_| HolderMap::default()).collect(),
            free: (0..sets * words).map(|i| all(i % words)).collect(),
            slot_words,
            active: (0..num_pus * slot_words).map(|_| 0).collect(),
        }
    }

    /// `pu`'s 64-PU word and its bit in it.
    fn word_of(pu: PuId) -> (usize, u64) {
        (pu.index() / 64, 1 << (pu.index() % 64))
    }

    fn map(&self, w: usize) -> &HolderMap {
        match w {
            0 => &self.holders,
            _ => &self.wide_holders[w - 1],
        }
    }

    fn map_mut(&mut self, w: usize) -> &mut HolderMap {
        match w {
            0 => &mut self.holders,
            _ => &mut self.wide_holders[w - 1],
        }
    }

    /// Word `w` of `line`'s holder set.
    fn held(&self, line: LineId, w: usize) -> u64 {
        self.map(w).get(&line).copied().unwrap_or(0)
    }

    /// The PUs holding a valid copy of `line`, in increasing PU order.
    pub(crate) fn holders(&self, line: LineId) -> impl Iterator<Item = PuId> + '_ {
        (0..self.words).flat_map(move |w| {
            Bits {
                word: self.held(line, w),
                base: 64 * w,
            }
            .map(PuId)
        })
    }

    /// The PUs with a free way in `set` that do not hold `line`, in
    /// increasing PU order.
    pub(crate) fn free_non_holders(
        &self,
        set: usize,
        line: LineId,
    ) -> impl Iterator<Item = PuId> + '_ {
        (0..self.words).flat_map(move |w| {
            Bits {
                word: self.free[set * self.words + w] & !self.held(line, w),
                base: 64 * w,
            }
            .map(PuId)
        })
    }

    /// 64-slot words per cache in a footprint.
    pub(crate) fn slot_words(&self) -> usize {
        self.slot_words
    }

    /// Word `w` of `pu`'s footprint: bit `i` is slot `64 w + i`.
    pub(crate) fn active_word(&self, pu: PuId, w: usize) -> u64 {
        self.active[pu.index() * self.slot_words + w]
    }

    /// `pu`'s active slots (flat `set × ways` indices), in slot order.
    pub(crate) fn active_slots(&self, pu: PuId) -> impl Iterator<Item = usize> + '_ {
        (0..self.slot_words).flat_map(move |w| Bits {
            word: self.active_word(pu, w),
            base: 64 * w,
        })
    }

    /// Number of active lines in `pu`'s cache.
    pub(crate) fn active_count(&self, pu: PuId) -> usize {
        let words = &self.active[pu.index() * self.slot_words..][..self.slot_words];
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Records whether `pu`'s slot `slot` (flat `set × ways` index) holds
    /// an active line.
    pub(crate) fn set_active(&mut self, pu: PuId, slot: usize, active: bool) {
        let word = &mut self.active[pu.index() * self.slot_words + slot / 64];
        let bit = 1 << (slot % 64);
        if active {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Records that `pu`'s slot in `set` went from holding `before` to
    /// holding `after`; `set_free` is whether `pu`'s `set` now has a free
    /// way.
    pub(crate) fn moved(
        &mut self,
        pu: PuId,
        set: usize,
        before: Option<LineId>,
        after: Option<LineId>,
        set_free: bool,
    ) {
        let (w, bit) = Presence::word_of(pu);
        let map = self.map_mut(w);
        if let Some(line) = before {
            if let Some(bits) = map.get_mut(&line) {
                *bits &= !bit;
                if *bits == 0 {
                    map.remove(&line);
                }
            }
        }
        if let Some(line) = after {
            *map.entry(line).or_insert(0) |= bit;
        }
        let f = &mut self.free[set * self.words + w];
        if set_free {
            *f |= bit;
        } else {
            *f &= !bit;
        }
    }

    /// Recomputes the whole index from `caches` (after a checkpoint
    /// restore replaced every slot).
    pub(crate) fn rebuild(&mut self, caches: &[CacheArray<SvcLine>]) {
        self.holders.clear();
        self.wide_holders.iter_mut().for_each(HolderMap::clear);
        self.free.iter_mut().for_each(|f| *f = 0);
        self.active.iter_mut().for_each(|a| *a = 0);
        for (i, cache) in caches.iter().enumerate() {
            let pu = PuId(i);
            let (w, bit) = Presence::word_of(pu);
            let ways = cache.geometry().ways();
            for (slot, l) in cache.iter().enumerate() {
                match l.held_line() {
                    Some(line) => *self.map_mut(w).entry(line).or_insert(0) |= bit,
                    None => self.free[slot / ways * self.words + w] |= bit,
                }
                if l.is_active() {
                    self.set_active(pu, slot, true);
                }
            }
        }
    }

    /// Every way the index differs from a recomputation over `caches`:
    /// `(pu, line, what)` per disagreement, empty when the index is
    /// exact.
    pub(crate) fn mismatches(
        &self,
        caches: &[CacheArray<SvcLine>],
    ) -> Vec<(Option<PuId>, Option<LineId>, String)> {
        let mut out = Vec::new();
        let mut held = 0u64;
        for (i, cache) in caches.iter().enumerate() {
            let pu = PuId(i);
            let (w, bit) = Presence::word_of(pu);
            let g = cache.geometry();
            for set in 0..g.sets() {
                let mut set_free = false;
                for way in 0..g.ways() {
                    let l = cache.slot((set, way));
                    let slot = set * g.ways() + way;
                    let indexed = self.active_word(pu, slot / 64) & (1 << (slot % 64)) != 0;
                    if indexed != l.is_active() {
                        out.push((
                            Some(pu),
                            l.line,
                            format!(
                                "slot {slot}: footprint says active={indexed}, cache says {}",
                                !indexed
                            ),
                        ));
                    }
                    let Some(line) = l.held_line() else {
                        set_free = true;
                        continue;
                    };
                    held += 1;
                    if self.held(line, w) & bit == 0 {
                        out.push((Some(pu), Some(line), "holder missing from the index".into()));
                    }
                }
                let indexed = self.free[set * self.words + w] & bit != 0;
                if indexed != set_free {
                    out.push((
                        Some(pu),
                        None,
                        format!("set {set}: index says free={indexed}, cache says {set_free}"),
                    ));
                }
            }
        }
        let words = || (0..self.words).flat_map(|w| self.map(w).values());
        let indexed: u64 = words().map(|b| u64::from(b.count_ones())).sum();
        if indexed != held {
            out.push((
                None,
                None,
                format!("index lists {indexed} (line, PU) pairs, caches hold {held}"),
            ));
        }
        if words().any(|&b| b == 0) {
            out.push((None, None, "index keeps an empty entry".into()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use svc_mem::CacheGeometry;
    use svc_sim::rng::SplitMix64;
    use svc_types::{
        Addr, Checkpointable, CkptReader, CkptWriter, Cycle, TaskId, VersionedMemory, Word,
    };

    use super::*;
    use crate::{LineState, SvcConfig, SvcSystem};

    /// Asserts the index agrees with the caches: no invariant mismatch,
    /// every line's indexed snapshots equal a probe of every cache, and
    /// every PU's footprint equals a scan of its slots. Returns the
    /// highest PU holding anything.
    fn assert_exact(sys: &SvcSystem, lines: u64, after: &str) -> Option<usize> {
        assert_eq!(sys.presence_mismatches(), Vec::new(), "after {after}");
        for pu in (0..sys.config().num_pus).map(PuId) {
            let scanned: Vec<usize> = (sys.line_states_of(pu).into_iter().enumerate())
                .filter(|(_, s)| matches!(s, LineState::ActiveClean | LineState::ActiveDirty))
                .map(|(slot, _)| slot)
                .collect();
            let indexed: Vec<usize> = sys.presence().active_slots(pu).collect();
            assert_eq!(indexed, scanned, "{pu}'s footprint after {after}");
            assert_eq!(sys.speculative_line_count(pu), scanned.len());
        }
        let mut top = None;
        for line in (0..lines).map(LineId) {
            let brute: Vec<_> = (sys.snapshots_of(line).into_iter())
                .filter(|s| s.is_valid())
                .collect();
            assert_eq!(sys.snapshots(line).to_vec(), brute, "{line} after {after}");
            top = top.max(brute.last().map(|s| s.pu.index()));
        }
        top
    }

    /// A seeded random history on `cfg`: dispatches, loads, stores (with
    /// violation squashes), head commits, tail squashes, drains and
    /// checkpoint round trips, checking the index after every step.
    fn drive(cfg: SvcConfig, seed: u64, steps: usize) {
        let pus = cfg.num_pus;
        let words = 32u64;
        let lines = words.div_ceil(cfg.geometry.words_per_line() as u64);
        let mut rng = SplitMix64::new(seed);
        let mut sys = SvcSystem::new(cfg);
        // Running PUs oldest first, and the next task to dispatch.
        let mut running: Vec<(PuId, TaskId)> = Vec::new();
        let mut next_task = 0u64;
        let mut top = None;
        let squash_from = |sys: &mut SvcSystem, running: &mut Vec<(PuId, TaskId)>, v: TaskId| {
            while running.last().is_some_and(|&(_, t)| t >= v) {
                let (pu, _) = running.pop().expect("checked");
                sys.squash_at(pu, Cycle(0));
            }
        };
        for step in 0..steps {
            let now = Cycle(step as u64);
            let pick = rng.next_u64();
            let op = match rng.next_u64() % 16 {
                0..=2 if running.len() < pus => {
                    let free: Vec<usize> = (0..pus)
                        .filter(|&i| running.iter().all(|&(q, _)| q.index() != i))
                        .collect();
                    // Half the time the highest free PU, so the last
                    // 64-PU word is reached even when it has one PU.
                    let k = match pick % 2 {
                        0 => free.len() - 1,
                        _ => ((pick >> 1) % free.len() as u64) as usize,
                    };
                    let pu = PuId(free[k]);
                    sys.assign(pu, TaskId(next_task));
                    running.push((pu, TaskId(next_task)));
                    next_task += 1;
                    "dispatch"
                }
                3..=7 if !running.is_empty() => {
                    let (pu, _) = running[(pick % running.len() as u64) as usize];
                    let _ = sys.load(pu, Addr(rng.next_u64() % words), now);
                    "load"
                }
                8..=11 if !running.is_empty() => {
                    let (pu, _) = running[(pick % running.len() as u64) as usize];
                    let addr = Addr(rng.next_u64() % words);
                    if let Ok(out) = sys.store(pu, addr, Word(pick), now) {
                        if let Some(v) = out.violation {
                            squash_from(&mut sys, &mut running, v.victim);
                            next_task = next_task.min(v.victim.0);
                        }
                    }
                    "store"
                }
                12 if !running.is_empty() => {
                    let (pu, _) = running.remove(0);
                    sys.commit(pu, now);
                    "commit"
                }
                13 if !running.is_empty() => {
                    let victim = running[(pick % running.len() as u64) as usize].1;
                    squash_from(&mut sys, &mut running, victim);
                    next_task = victim.0;
                    "squash"
                }
                14 if running.is_empty() => {
                    sys.drain();
                    "drain"
                }
                15 => {
                    let mut w = CkptWriter::new();
                    sys.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut restored = SvcSystem::new(cfg);
                    let mut r = CkptReader::new(&bytes);
                    restored.restore_state(&mut r).expect("round trip");
                    r.finish().expect("whole checkpoint read");
                    sys = restored;
                    "checkpoint-restore"
                }
                _ => "idle",
            };
            top = top.max(assert_exact(
                &sys,
                lines,
                &format!("step {step} ({op}), {pus} PUs"),
            ));
        }
        assert!(
            top.is_some_and(|t| t / 64 == (pus - 1) / 64),
            "no PU of the last 64-PU word ever held a line ({pus} PUs, top {top:?})"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The index, footprints included, stays exact through random
        /// histories at 4, 65 and 130 PUs (so PU sets span one, two and
        /// three 64-PU words), on designs that commit lazily (final) and
        /// by flushing (base).
        #[test]
        fn index_is_exact_through_random_histories(seed in any::<u64>(), steps in 100usize..240) {
            for pus in [4, 65, 130] {
                let mut fin = SvcConfig::final_design(pus);
                fin.geometry = CacheGeometry::new(4, 2, 4, 1);
                let mut base = SvcConfig::base(pus);
                base.geometry = CacheGeometry::word_lines(4, 2);
                for cfg in [fin, base] {
                    drive(cfg, seed, steps);
                }
            }
        }
    }

    #[test]
    fn new_index_marks_every_set_free_for_exactly_the_pus() {
        for pus in [1, 4, 63, 64, 65, 130] {
            let p = Presence::new(pus, 3, 2);
            for set in 0..3 {
                let free: Vec<PuId> = p.free_non_holders(set, LineId(7)).collect();
                assert_eq!(free, (0..pus).map(PuId).collect::<Vec<_>>(), "{pus} PUs");
            }
            assert_eq!(p.holders(LineId(7)).count(), 0);
        }
    }

    #[test]
    fn moves_across_word_boundaries_keep_pu_order() {
        let mut p = Presence::new(130, 2, 2);
        for pu in [129, 3, 64, 63, 0] {
            p.moved(PuId(pu), 1, None, Some(LineId(5)), true);
        }
        let held: Vec<usize> = p.holders(LineId(5)).map(PuId::index).collect();
        assert_eq!(held, vec![0, 3, 63, 64, 129]);
        // PU 64's set fills up: it leaves the free set; holders are never
        // snarf candidates.
        p.moved(PuId(64), 1, None, Some(LineId(9)), false);
        let free: Vec<usize> = p.free_non_holders(1, LineId(5)).map(PuId::index).collect();
        assert!(!free.contains(&64) && !free.contains(&3) && free.contains(&65));
        // Dropping the last holders of a word removes its entry.
        for pu in [0, 3, 63] {
            p.moved(PuId(pu), 1, Some(LineId(5)), None, true);
        }
        assert!(!p.holders.contains_key(&LineId(5)));
        let held: Vec<usize> = p.holders(LineId(5)).map(PuId::index).collect();
        assert_eq!(held, vec![64, 129]);
    }
}
