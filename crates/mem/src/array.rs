use smallvec::SmallVec;
use svc_types::LineId;

use crate::CacheGeometry;

/// The ways of one set; inline for any associativity up to 8.
pub type WayList = SmallVec<WayRef, 8>;

/// The storage contract a protocol's line type must satisfy to live in a
/// [`CacheArray`].
///
/// A slot is either *invalid* (free) or holds versioning/coherence state for
/// one [`LineId`]. The array only needs to know which, plus whether the slot
/// may be evicted; all protocol state stays in the line type.
pub trait Slot: Default {
    /// The line held by this slot, or `None` if the slot is free.
    fn held_line(&self) -> Option<LineId>;
}

/// A generic set-associative cache array with true-LRU replacement,
/// parameterised over the protocol's line type.
///
/// Both the MRSW baseline (`svc-coherence`) and every SVC design (`svc`)
/// store their lines in one of these; the ARB's backing data cache uses a
/// direct-mapped instance.
///
/// # Example
///
/// ```
/// use svc_mem::{CacheArray, CacheGeometry, Slot};
/// use svc_types::LineId;
///
/// #[derive(Default)]
/// struct L(Option<LineId>);
/// impl Slot for L {
///     fn held_line(&self) -> Option<LineId> { self.0 }
/// }
///
/// let mut a: CacheArray<L> = CacheArray::new(CacheGeometry::word_lines(2, 2));
/// *a.slot_mut(a.victim_way(LineId(0))) = L(Some(LineId(0)));
/// assert!(a.find(LineId(0)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray<S> {
    geometry: CacheGeometry,
    slots: Vec<S>,    // sets × ways, row-major
    stamps: Vec<u64>, // LRU stamps, same layout
    tick: u64,
}

/// A `(set, way)` pair naming one slot of a [`CacheArray`].
pub type WayRef = (usize, usize);

impl<S: Slot> CacheArray<S> {
    /// Creates an array of default (invalid) slots for `geometry`.
    pub fn new(geometry: CacheGeometry) -> CacheArray<S> {
        let n = geometry.lines();
        CacheArray {
            geometry,
            slots: (0..n).map(|_| S::default()).collect(),
            stamps: vec![0; n],
            tick: 0,
        }
    }

    /// The geometry this array was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn flat(&self, (set, way): WayRef) -> usize {
        debug_assert!(set < self.geometry.sets() && way < self.geometry.ways());
        set * self.geometry.ways() + way
    }

    /// Finds the slot currently holding `line`, if any.
    pub fn find(&self, line: LineId) -> Option<WayRef> {
        let set = self.geometry.set_index(line);
        (0..self.geometry.ways())
            .map(|w| (set, w))
            .find(|&r| self.slots[self.flat(r)].held_line() == Some(line))
    }

    /// Immutable access to a slot.
    pub fn slot(&self, r: WayRef) -> &S {
        &self.slots[self.flat(r)]
    }

    /// Mutable access to a slot. Does **not** update LRU; call
    /// [`touch`](Self::touch) on a real access.
    pub fn slot_mut(&mut self, r: WayRef) -> &mut S {
        let i = self.flat(r);
        &mut self.slots[i]
    }

    /// Marks `r` as most recently used.
    pub fn touch(&mut self, r: WayRef) {
        self.tick += 1;
        let i = self.flat(r);
        self.stamps[i] = self.tick;
    }

    /// The replacement victim for `line`'s set: a free slot if one exists,
    /// otherwise the least recently used way. The caller decides whether
    /// that victim is actually evictable (speculative lines may not be,
    /// paper §3.2.5).
    pub fn victim_way(&self, line: LineId) -> WayRef {
        let set = self.geometry.set_index(line);
        // Free slot first.
        for w in 0..self.geometry.ways() {
            if self.slots[self.flat((set, w))].held_line().is_none() {
                return (set, w);
            }
        }
        // Else LRU.
        let w = (0..self.geometry.ways())
            .min_by_key(|&w| self.stamps[self.flat((set, w))])
            .expect("ways > 0");
        (set, w)
    }

    /// Whether set number `set` has a free slot.
    pub fn set_has_free_way(&self, set: usize) -> bool {
        (0..self.geometry.ways()).any(|w| self.slots[self.flat((set, w))].held_line().is_none())
    }

    /// All ways of `line`'s set, in way order. The caller can scan these to
    /// pick an alternative victim when the LRU choice is not evictable.
    pub fn ways_of_set(&self, line: LineId) -> WayList {
        let set = self.geometry.set_index(line);
        (0..self.geometry.ways()).map(|w| (set, w)).collect()
    }

    /// Ways of `line`'s set ordered least-recently-used first. Used to pick
    /// "a different replacement victim" (§3.2.5) when the LRU line cannot be
    /// replaced.
    pub fn ways_by_lru(&self, line: LineId) -> WayList {
        let set = self.geometry.set_index(line);
        let mut ways: WayList = (0..self.geometry.ways()).map(|w| (set, w)).collect();
        // Stable: equal stamps (never-touched ways) keep way order.
        ways.sort_by_key(|&(_, w)| self.stamps[self.flat((set, w))]);
        ways
    }

    /// Iterates over every slot (for flash operations like "set the C bit
    /// in all lines" on task commit, §3.4).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut S> {
        self.slots.iter_mut()
    }

    /// Iterates immutably over every slot (for snapshots and invariant
    /// checks).
    pub fn iter(&self) -> impl Iterator<Item = &S> {
        self.slots.iter()
    }

    /// Number of occupied (valid) slots.
    pub fn occupied(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.held_line().is_some())
            .count()
    }
}

impl<S: Slot + svc_types::Checkpointable> svc_types::Checkpointable for CacheArray<S> {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.slots.save_state(w);
        self.stamps.save_state(w);
        self.tick.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let lines = self.geometry.lines();
        self.slots.restore_state(r)?;
        self.stamps.restore_state(r)?;
        self.tick.restore_state(r)?;
        if self.slots.len() != lines || self.stamps.len() != lines {
            return Err(svc_types::CkptError::corrupt(format!(
                "cache array geometry holds {lines} lines, checkpoint has {}",
                self.slots.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, Clone, PartialEq)]
    struct TestLine {
        line: Option<LineId>,
    }

    impl Slot for TestLine {
        fn held_line(&self) -> Option<LineId> {
            self.line
        }
    }

    fn array(sets: usize, ways: usize) -> CacheArray<TestLine> {
        CacheArray::new(CacheGeometry::word_lines(sets, ways))
    }

    fn install(a: &mut CacheArray<TestLine>, line: LineId) -> WayRef {
        let r = a.victim_way(line);
        *a.slot_mut(r) = TestLine { line: Some(line) };
        a.touch(r);
        r
    }

    #[test]
    fn find_after_install() {
        let mut a = array(4, 2);
        let r = install(&mut a, LineId(5));
        assert_eq!(a.find(LineId(5)), Some(r));
        assert_eq!(a.find(LineId(6)), None);
        assert_eq!(a.occupied(), 1);
    }

    #[test]
    fn set_conflict_maps_to_same_set() {
        let a = array(4, 2);
        // Lines 1 and 5 conflict in a 4-set cache.
        assert_eq!(
            a.geometry().set_index(LineId(1)),
            a.geometry().set_index(LineId(5))
        );
    }

    #[test]
    fn victim_prefers_free_slot() {
        let mut a = array(1, 2);
        install(&mut a, LineId(0));
        let v = a.victim_way(LineId(1));
        assert!(a.slot(v).held_line().is_none());
        assert!(a.set_has_free_way(0));
        install(&mut a, LineId(1));
        assert!(!a.set_has_free_way(0));
    }

    #[test]
    fn victim_is_lru_when_full() {
        let mut a = array(1, 2);
        let r0 = install(&mut a, LineId(0));
        let _r1 = install(&mut a, LineId(1));
        a.touch(a.find(LineId(1)).unwrap()); // 1 is MRU
        a.touch(r0); // now 0 is MRU, 1 is LRU
        let v = a.victim_way(LineId(2));
        assert_eq!(a.slot(v).held_line(), Some(LineId(1)));
    }

    #[test]
    fn ways_by_lru_orders_oldest_first() {
        let mut a = array(1, 3);
        install(&mut a, LineId(0));
        install(&mut a, LineId(1));
        install(&mut a, LineId(2));
        a.touch(a.find(LineId(0)).unwrap()); // 0 becomes MRU
        let order: Vec<Option<LineId>> = a
            .ways_by_lru(LineId(9))
            .into_iter()
            .map(|r| a.slot(r).held_line())
            .collect();
        assert_eq!(
            order,
            vec![Some(LineId(1)), Some(LineId(2)), Some(LineId(0))]
        );
    }

    #[test]
    fn iter_mut_flash_operation() {
        let mut a = array(2, 2);
        install(&mut a, LineId(0));
        install(&mut a, LineId(1));
        for s in a.iter_mut() {
            s.line = None; // "invalidate all" flash
        }
        assert_eq!(a.occupied(), 0);
    }

    #[test]
    fn ways_of_set_count() {
        let a = array(2, 3);
        assert_eq!(a.ways_of_set(LineId(0)).len(), 3);
    }
}
