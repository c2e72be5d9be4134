//! The complete SVC memory system: private caches, snooping bus, VCL,
//! MSHRs, writeback buffers and the next level of memory.
//!
//! Every bus request is snooped by every cache, as in the paper, and is
//! timed as such. On the host, a derived presence index
//! ([`Presence`]) lists which caches hold a line and which have a free
//! way in its set, so gathering a snoop's snapshots costs time in the
//! line's holders, not in the PU count. It also keeps each PU's active
//! slots, so a commit or squash costs time in the task's lines, not in
//! the cache size. The index is a host lookup, not a modelled
//! directory: it is never checkpointed or fingerprinted, and the
//! watchdog checks it against the caches.

use smallvec::SmallVec;
use svc_mem::{Backing, Bus, CacheArray, MshrFile, Slot, WayRef, WritebackBuffer};
use svc_sim::fault::{FaultEvent, FaultSite, Faults};
use svc_sim::profile::{AccessProfile, Profiler};
use svc_sim::trace::{AccessOp, BusOp, Category, LineBits, TraceEvent, Tracer, VolOp};
use svc_types::{
    AccessError, Addr, Cycle, DataSource, InvariantViolation, LineId, LoadOutcome, MemGauges,
    MemStats, ModelCheckable, Mutation, PuId, StateHasher, StoreOutcome, TaskAssignments, TaskId,
    VersionedMemory, Violation, Word,
};

use crate::config::SvcConfig;
use crate::line::{LineState, SvcLine};
use crate::mask::SubMask;
use crate::presence::Presence;
use crate::snapshot::LineSnapshot;
use crate::vcl::{ReadPlan, SupplySource, Vcl, WritePlan};
use crate::vol::{order_vol, vol_indices, vol_trace_entries};

/// Data gathered for one fill, kept inline for paper-sized lines: per
/// filled sub-block `(index, from_cache)` metadata plus a flat word
/// buffer holding `w` words per entry in the same order.
struct GatheredFill {
    meta: SmallVec<(usize, bool), 8>,
    words: SmallVec<Word, 8>,
    w: usize,
}

impl GatheredFill {
    /// `(sub-block, its words, from_cache)` per filled sub-block.
    fn iter(&self) -> impl Iterator<Item = (usize, &[Word], bool)> {
        self.meta
            .iter()
            .enumerate()
            .map(move |(i, &(j, from_cache))| {
                (j, &self.words[i * self.w..(i + 1) * self.w], from_cache)
            })
    }

    /// Whether sub-block `j`'s data came from another cache.
    fn came_from_cache(&self, j: usize) -> Option<bool> {
        self.meta
            .iter()
            .find(|&&(fj, _)| fj == j)
            .map(|&(_, from_cache)| from_cache)
    }
}

/// The Speculative Versioning Cache memory system (paper Figure 5).
///
/// One private L1 cache per processing unit, kept consistent — and
/// speculatively versioned — by the [`Vcl`] over a snooping bus. Implements
/// [`VersionedMemory`]; see the crate docs for a usage example and the
/// paper-to-code map.
#[derive(Debug, Clone)]
pub struct SvcSystem {
    config: SvcConfig,
    vcl: Vcl,
    caches: Vec<CacheArray<SvcLine>>,
    /// Derived from `caches`; every change of a slot's held line or of
    /// whether it is active goes through [`SvcSystem::update_slot`],
    /// which keeps it exact.
    presence: Presence,
    bus: Bus,
    backing: Backing,
    mshrs: Vec<MshrFile>,
    wbufs: Vec<WritebackBuffer>,
    assignments: TaskAssignments,
    stats: MemStats,
    tracer: Tracer,
    faults: Faults,
    profiler: Profiler,
}

impl SvcSystem {
    /// Builds an SVC from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (see
    /// [`SvcConfig::validate`]).
    pub fn new(config: SvcConfig) -> SvcSystem {
        config.validate();
        let t = config.timing;
        SvcSystem {
            vcl: Vcl {
                hybrid_update: config.hybrid_update,
                snarfing: config.snarfing,
                trust_stale: config.stale_bit,
                update_limit: config.update_limit,
                retain_flushed: config.retain_flushed,
            },
            caches: (0..config.num_pus)
                .map(|_| CacheArray::new(config.geometry))
                .collect(),
            presence: Presence::new(
                config.num_pus,
                config.geometry.sets(),
                config.geometry.ways(),
            ),
            bus: Bus::pipelined(t.bus_txn_cycles, (t.bus_txn_cycles - 1).max(1)),
            backing: match config.l2 {
                Some(l2) => Backing::with_l2(l2),
                None => Backing::flat(t.memory_cycles),
            },
            mshrs: (0..config.num_pus)
                .map(|_| MshrFile::new(config.mshr_entries, config.mshr_combine))
                .collect(),
            wbufs: (0..config.num_pus)
                .map(|_| WritebackBuffer::new(config.wb_entries, t.bus_txn_cycles))
                .collect(),
            assignments: TaskAssignments::new(config.num_pus),
            stats: MemStats::default(),
            tracer: Tracer::disabled(),
            faults: Faults::disabled(),
            profiler: Profiler::disabled(),
            config,
        }
    }

    /// Attaches a cycle-accounting profiler handle. Misses report their
    /// latency decomposition (MSHR stall, arbitration wait, bus transfer,
    /// memory penalty) to it so the engine can attribute the PU's blocked
    /// cycles to the right buckets. A disabled profiler costs one branch
    /// per miss.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Attaches a tracing handle to the whole memory system: the bus, the
    /// per-PU MSHR files and writeback buffers, and the system's own
    /// line/VOL/VCL/access emitters all share it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.bus.set_tracer(tracer.clone());
        for (i, m) in self.mshrs.iter_mut().enumerate() {
            m.set_tracer(tracer.clone(), PuId(i));
        }
        for (i, w) in self.wbufs.iter_mut().enumerate() {
            w.set_tracer(tracer.clone(), PuId(i));
        }
        self.tracer = tracer;
    }

    /// Attaches a fault injector to the whole memory system: the bus, the
    /// per-PU MSHR files and writeback buffers, and the system's own
    /// eviction/VCL/fill hook sites all share it. A disabled injector
    /// costs one branch per hook site.
    pub fn set_faults(&mut self, faults: Faults) {
        self.bus.set_faults(faults.clone());
        for m in &mut self.mshrs {
            m.set_faults(faults.clone());
        }
        for w in &mut self.wbufs {
            w.set_faults(faults.clone());
        }
        self.faults = faults;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &SvcConfig {
        &self.config
    }

    /// The current task-assignment table (for inspection).
    pub fn assignments(&self) -> &TaskAssignments {
        &self.assignments
    }

    /// The derived five-state classification of `pu`'s copy of the line
    /// containing `addr` (for tests and tracing).
    pub fn line_state(&self, pu: PuId, addr: Addr) -> LineState {
        let line = self.config.geometry.line_of(addr);
        match self.caches[pu.index()].find(line) {
            Some(r) => self.caches[pu.index()].slot(r).state(),
            None => LineState::Invalid,
        }
    }

    /// The reconstructed Version Ordering List for the line containing
    /// `addr` (for tests and tracing).
    pub fn vol_of(&self, addr: Addr) -> Vec<PuId> {
        order_vol(&self.snapshots(self.config.geometry.line_of(addr))).to_vec()
    }

    /// The word at `addr` as cached by `pu`, if the holding sub-block is
    /// valid there. Read-only; used by the inspection helpers and tests.
    pub fn peek_word(&self, pu: PuId, addr: Addr) -> Option<Word> {
        let g = self.config.geometry;
        let r = self.caches[pu.index()].find(g.line_of(addr))?;
        let l = self.caches[pu.index()].slot(r);
        if l.valid.contains(g.subblock_of(addr)) {
            Some(l.data[g.offset(addr)])
        } else {
            None
        }
    }

    /// States of every slot of `pu`'s cache (for the census).
    pub(crate) fn line_states_of(&self, pu: PuId) -> Vec<LineState> {
        self.caches[pu.index()].iter().map(|l| l.state()).collect()
    }

    /// One snapshot per PU of `line`, holders or not, by probing every
    /// cache (for the inspection helpers' all-PU display).
    pub(crate) fn snapshots_of(&self, line: LineId) -> Vec<LineSnapshot> {
        (0..self.config.num_pus)
            .map(|i| self.snapshot(PuId(i), line))
            .collect()
    }

    // -----------------------------------------------------------------
    // Trace emission helpers
    // -----------------------------------------------------------------

    /// `pu`'s current bits for `line` (all-zero if not resident).
    fn line_bits(&self, pu: PuId, line: LineId) -> LineBits {
        match self.caches[pu.index()].find(line) {
            Some(r) => self.caches[pu.index()].slot(r).bits(),
            None => LineBits::default(),
        }
    }

    /// Snapshot of every PU's bits for `line`, taken only when the `line`
    /// category is traced (`None` keeps the disabled path allocation-free).
    fn capture_line_bits(&self, line: LineId) -> Option<Vec<LineBits>> {
        self.tracer.enabled(Category::Line).then(|| {
            (0..self.config.num_pus)
                .map(|i| self.line_bits(PuId(i), line))
                .collect()
        })
    }

    /// Emits one `LineTransition` per PU whose bits for `line` changed
    /// since `before` was captured.
    fn emit_line_transitions(&self, line: LineId, before: Option<Vec<LineBits>>, now: Cycle) {
        let Some(before) = before else { return };
        for (i, from) in before.into_iter().enumerate() {
            let pu = PuId(i);
            let to = self.line_bits(pu, line);
            if from != to {
                self.tracer
                    .emit(now, Category::Line, || TraceEvent::LineTransition {
                        pu,
                        line,
                        from,
                        to,
                    });
            }
        }
    }

    /// Emits the current VOL of `line` after a splice or purge.
    fn emit_vol(&self, line: LineId, op: VolOp, now: Cycle) {
        if !self.tracer.enabled(Category::Vol) {
            return;
        }
        let order = vol_trace_entries(&self.snapshots(line));
        self.tracer
            .emit(now, Category::Vol, || TraceEvent::VolReorder {
                line,
                op,
                order,
            });
    }

    /// Emits a fault-injection event for the `fault` category.
    fn emit_fault(
        &self,
        site: FaultSite,
        pu: Option<PuId>,
        line: Option<LineId>,
        penalty: u64,
        now: Cycle,
    ) {
        self.tracer.emit(now, Category::Fault, || {
            TraceEvent::Fault(FaultEvent {
                site,
                pu,
                line,
                penalty,
            })
        });
    }

    /// Emits a completed access for the `access` category.
    #[allow(clippy::too_many_arguments)]
    fn emit_access(
        &self,
        pu: PuId,
        task: TaskId,
        op: AccessOp,
        addr: Addr,
        source: &'static str,
        done_at: Cycle,
        now: Cycle,
    ) {
        self.tracer
            .emit(now, Category::Access, || TraceEvent::Access {
                pu,
                task,
                op,
                addr,
                source,
                done_at,
            });
    }

    // -----------------------------------------------------------------
    // Snapshots and plan application
    // -----------------------------------------------------------------

    /// What the VCL sees of `line`: one snapshot per holder, in
    /// increasing PU order. Non-holders contribute nothing to a plan, so
    /// the presence index skips them.
    pub(crate) fn snapshots(&self, line: LineId) -> SmallVec<LineSnapshot, 8> {
        self.presence
            .holders(line)
            .map(|pu| self.snapshot(pu, line))
            .collect()
    }

    /// `pu`'s snapshot of `line` (an all-invalid one if it holds none).
    fn snapshot(&self, pu: PuId, line: LineId) -> LineSnapshot {
        let task = self.assignments.task_of(pu);
        let cache = &self.caches[pu.index()];
        match cache.find(line) {
            Some(r) => {
                let l = cache.slot(r);
                LineSnapshot {
                    pu,
                    task,
                    valid: l.valid,
                    store: l.store,
                    load: l.load,
                    committed: l.committed,
                    stale: l.stale,
                    arch: l.arch,
                    next: l.next,
                }
            }
            None => LineSnapshot {
                pu,
                task,
                valid: SubMask::EMPTY,
                store: SubMask::EMPTY,
                load: SubMask::EMPTY,
                committed: false,
                stale: false,
                arch: false,
                next: None,
            },
        }
    }

    /// Runs `f` on `pu`'s slot `r`. Every change of a slot's held line,
    /// or of whether it is active, goes through here, which keeps the
    /// presence index exact.
    fn update_slot<R>(&mut self, pu: PuId, r: WayRef, f: impl FnOnce(&mut SvcLine) -> R) -> R {
        let cache = &mut self.caches[pu.index()];
        let slot = cache.slot_mut(r);
        let (before, was_active) = (slot.held_line(), slot.is_active());
        let out = f(slot);
        let (after, active) = (slot.held_line(), slot.is_active());
        if before != after {
            let free = cache.set_has_free_way(r.0);
            self.presence.moved(pu, r.0, before, after, free);
        }
        if was_active != active {
            let ways = self.config.geometry.ways();
            self.presence.set_active(pu, r.0 * ways + r.1, active);
        }
        out
    }

    /// Runs `f` on each active slot of `pu`'s cache in slot order,
    /// through [`update_slot`](Self::update_slot).
    fn update_active_slots(&mut self, pu: PuId, mut f: impl FnMut(&mut SvcLine)) {
        let ways = self.config.geometry.ways();
        for w in 0..self.presence.slot_words() {
            // `update_slot` changes only its own slot's bit, so the word
            // read here still lists the rest of its slots.
            let mut bits = self.presence.active_word(pu, w);
            while bits != 0 {
                let slot = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.update_slot(pu, (slot / ways, slot % ways), &mut f);
            }
        }
    }

    /// Words of sub-block `j` of `pu`'s copy of `line`.
    fn read_subblock(&self, pu: PuId, line: LineId, j: usize) -> SmallVec<Word, 8> {
        let r = self.caches[pu.index()]
            .find(line)
            .expect("supplier holds the line");
        let l = self.caches[pu.index()].slot(r);
        let w = self.config.geometry.words_per_subblock();
        l.data[j * w..(j + 1) * w].iter().copied().collect()
    }

    /// Gathers the data for a fill: `(sub-block, words, from_cache)`.
    fn gather_fill(&mut self, line: LineId, fill: &[(usize, SupplySource)]) -> GatheredFill {
        let w = self.config.geometry.words_per_subblock();
        let wpl = self.config.geometry.words_per_line();
        let mut gathered = GatheredFill {
            meta: SmallVec::new(),
            words: SmallVec::new(),
            w,
        };
        for &(j, src) in fill {
            match src {
                SupplySource::Cache(q) => {
                    let r = self.caches[q.index()]
                        .find(line)
                        .expect("supplier holds the line");
                    let l = self.caches[q.index()].slot(r);
                    gathered
                        .words
                        .extend(l.data[j * w..(j + 1) * w].iter().copied());
                    gathered.meta.push((j, true));
                }
                SupplySource::Memory => {
                    for k in 0..w {
                        gathered
                            .words
                            .push(self.backing.read(line.word(j * w + k, wpl)));
                    }
                    gathered.meta.push((j, false));
                }
            }
        }
        gathered
    }

    /// Installs a gathered fill into one cache slot. `set_load` is the
    /// sub-block whose L bit the requesting load sets; snarfers pass
    /// `None`. With `fresh`, the slot is reset first (refetch of a
    /// committed/stale line); otherwise the fill merges into a
    /// partially-valid active line, and the line stays architectural only
    /// if it already was.
    #[allow(clippy::too_many_arguments)]
    fn install_fill(
        &mut self,
        pu: PuId,
        slot: WayRef,
        line: LineId,
        data: &GatheredFill,
        arch: bool,
        set_load: Option<usize>,
        fresh: bool,
    ) {
        let w = self.config.geometry.words_per_subblock();
        let wpl = self.config.geometry.words_per_line();
        self.update_slot(pu, slot, |l| {
            if fresh {
                l.invalidate();
            }
            if l.data.len() != wpl {
                l.data = vec![Word::ZERO; wpl];
            }
            let was_arch = l.arch || !l.is_valid();
            l.line = Some(line);
            for (j, words, _) in data.iter() {
                for (k, word) in words.iter().enumerate() {
                    l.data[j * w + k] = *word;
                }
                l.valid.set(j);
            }
            l.committed = false;
            l.arch = arch && was_arch;
            if let Some(j) = set_load {
                if !l.store.contains(j) && !Mutation::LoadSkipsLBit.enabled() {
                    l.load.set(j);
                }
            }
        });
        self.caches[pu.index()].touch(slot);
    }

    /// Writes `pu`'s data for `mask` sub-blocks to memory (a committed
    /// version flush) and charges the writeback buffer.
    fn flush_to_memory(&mut self, pu: PuId, line: LineId, mask: SubMask, now: Cycle) {
        let w = self.config.geometry.words_per_subblock();
        let wpl = self.config.geometry.words_per_line();
        for j in mask.iter() {
            let words = self.read_subblock(pu, line, j);
            for (k, word) in words.into_iter().enumerate() {
                self.backing.write(line.word(j * w + k, wpl), word);
            }
        }
        self.wbufs[pu.index()].push(now);
        self.stats.writebacks += 1;
    }

    fn invalidate_line(&mut self, pu: PuId, line: LineId) {
        if let Some(r) = self.caches[pu.index()].find(line) {
            self.update_slot(pu, r, SvcLine::invalidate);
        }
    }

    /// Rewrites the VOL pointers of every copy of `line` to match `order`
    /// (members no longer valid are skipped).
    fn rewrite_pointers(&mut self, line: LineId, order: &[PuId]) {
        let mut holders: SmallVec<PuId, 8> = order
            .iter()
            .copied()
            .filter(|q| self.caches[q.index()].find(line).is_some())
            .collect();
        if Mutation::VolSpliceBackwards.enabled() {
            holders.reverse();
        }
        let sole = holders.len() == 1;
        for (i, &q) in holders.iter().enumerate() {
            let r = self.caches[q.index()].find(line).expect("holder");
            let l = self.caches[q.index()].slot_mut(r);
            l.next = holders.get(i + 1).copied();
            l.exclusive = sole;
        }
    }

    /// Re-establishes the T-bit invariant over the final membership: the
    /// most recent version and every younger copy are not stale; everything
    /// older is (§3.4.3). Also repairs T after squashes (§3.5).
    fn recompute_stale(&mut self, line: LineId) {
        if !self.config.stale_bit {
            return;
        }
        let snaps = self.snapshots(line);
        let vol = order_vol(&snaps);
        let has_store = |pu: PuId| {
            let r = self.caches[pu.index()].find(line).expect("member");
            !self.caches[pu.index()].slot(r).store.is_empty()
        };
        // With a version member present, position decides: the most recent
        // version and the copies after it (necessarily copies of it, kept
        // consistent by the invalidation walks) are fresh, everything
        // older is stale. With *no* version member — the versions were
        // flushed/purged to memory — staleness must not be cleared: a copy
        // of an older architectural value may still be around, and only a
        // refetch (which installs a fresh line) makes it current again.
        let last_version = vol.iter().rposition(|&q| has_store(q));
        let Some(k) = last_version else { return };
        for (i, &q) in vol.iter().enumerate() {
            let r = self.caches[q.index()].find(line).expect("member");
            self.caches[q.index()].slot_mut(r).stale = i < k;
        }
    }

    /// Counts purged committed versions (store data superseded without
    /// writeback) and invalidates the purge set.
    fn apply_purge(&mut self, line: LineId, purge: &[PuId], flushed: &[(PuId, SubMask)]) {
        for &q in purge {
            if let Some(r) = self.caches[q.index()].find(line) {
                let l = self.caches[q.index()].slot(r);
                let flushed_mask = flushed
                    .iter()
                    .find(|&&(p, _)| p == q)
                    .map(|&(_, m)| m)
                    .unwrap_or(SubMask::EMPTY);
                if !l.store.minus(flushed_mask).is_empty() {
                    self.stats.purged_versions += 1;
                }
            }
            self.invalidate_line(q, line);
        }
    }

    // -----------------------------------------------------------------
    // Replacement
    // -----------------------------------------------------------------

    /// Ensures `pu` has a slot for `line`, evicting a victim if necessary.
    /// Returns the slot and the cycle by which any eviction traffic is
    /// done.
    ///
    /// Victim preference (paper §3.2.5, §3.8.1): an invalid way, then a
    /// passive-clean way (free), then a passive-dirty way (BusWback), and
    /// only for the head task an active way. A speculative (non-head)
    /// cache whose set holds only active lines must stall.
    fn ensure_resident(
        &mut self,
        pu: PuId,
        line: LineId,
        now: Cycle,
    ) -> Result<(WayRef, Cycle), AccessError> {
        if let Some(r) = self.caches[pu.index()].find(line) {
            return Ok((r, now));
        }
        let is_head = self.assignments.head() == Some(pu);
        let ways = self.caches[pu.index()].ways_by_lru(line);
        let classify = |l: &SvcLine| l.state();
        let pick = |want: &[LineState]| {
            ways.iter()
                .copied()
                .find(|&r| want.contains(&classify(self.caches[pu.index()].slot(r))))
        };
        // Fault hook: a forced eviction prefers a passive-dirty victim —
        // legal (its committed data is written back), but it turns a free
        // or clean castout into bus writeback traffic.
        let forced = if self.faults.is_active() {
            self.faults
                .inject(FaultSite::ForcedEvict)
                .and_then(|penalty| pick(&[LineState::PassiveDirty]).map(|r| (r, penalty)))
        } else {
            None
        };
        if let Some((_, penalty)) = forced {
            self.emit_fault(FaultSite::ForcedEvict, Some(pu), Some(line), penalty, now);
        }
        let victim = forced
            .map(|(r, _)| r)
            .or_else(|| pick(&[LineState::Invalid]))
            .or_else(|| pick(&[LineState::PassiveClean]))
            .or_else(|| pick(&[LineState::PassiveDirty]))
            .or_else(|| {
                if is_head {
                    pick(&[LineState::ActiveClean]).or_else(|| pick(&[LineState::ActiveDirty]))
                } else {
                    None
                }
            });
        let Some(r) = victim else {
            self.stats.replacement_stalls += 1;
            return Err(AccessError::ReplacementStall {
                pu,
                addr: line.first_word(self.config.geometry.words_per_line()),
            });
        };
        let state = self.caches[pu.index()].slot(r).state();
        let mut done = now;
        match state {
            LineState::Invalid | LineState::PassiveClean | LineState::ActiveClean => {
                // Clean castout: no bus request (§3.8.1).
            }
            LineState::PassiveDirty | LineState::ActiveDirty => {
                let vline = self.caches[pu.index()]
                    .slot(r)
                    .line
                    .expect("dirty line has a tag");
                done = self.do_wback(pu, vline, now);
            }
        }
        let wpl = self.config.geometry.words_per_line();
        self.update_slot(pu, r, |slot| {
            slot.invalidate();
            if slot.data.len() != wpl {
                // Freshly-constructed slots carry no storage yet.
                slot.data = vec![Word::ZERO; wpl];
            }
            slot.line = Some(line);
        });
        Ok((r, done))
    }

    /// Executes a BusWback transaction for `pu`'s dirty copy of `line`.
    fn do_wback(&mut self, pu: PuId, line: LineId, now: Cycle) -> Cycle {
        let snaps = self.snapshots(line);
        let plan = self.vcl.plan_wback(&snaps, pu);
        self.tracer.emit(now, Category::Vcl, || {
            TraceEvent::VclPlan(plan.trace_summary(pu, self.assignments.task_of(pu), line))
        });
        let before = self.capture_line_bits(line);
        let grant = self
            .bus
            .transact_as(BusOp::Wback, Some(pu), Some(line), now, 0);
        for &(q, mask) in &plan.flush {
            self.flush_to_memory(q, line, mask, now);
        }
        // The evicted data itself.
        if !plan.write_evicted.is_empty() {
            self.flush_to_memory(pu, line, plan.write_evicted, now);
        }
        self.apply_purge(line, &plan.purge, &plan.flush);
        if !plan.purge.is_empty() {
            self.emit_vol(line, VolOp::Purge, now);
        }
        self.invalidate_line(pu, line);
        self.rewrite_pointers(line, &plan.vol_after);
        self.recompute_stale(line);
        self.emit_vol(line, VolOp::Splice, now);
        self.emit_line_transitions(line, before, now);
        grant.done
    }

    // -----------------------------------------------------------------
    // The BusRead / BusWrite miss paths
    // -----------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn apply_read_plan(
        &mut self,
        plan: &ReadPlan,
        pu: PuId,
        line: LineId,
        slot: WayRef,
        requested: usize,
        fresh: bool,
        now: Cycle,
    ) -> DataSource {
        let data = self.gather_fill(line, &plan.fill);
        for &(q, mask) in &plan.flush {
            self.flush_to_memory(q, line, mask, now);
        }
        self.apply_purge(line, &plan.purge, &plan.flush);
        // §3.8.1 optimization: flushed lines demote to architectural
        // passive-clean copies instead of leaving the cache.
        for &q in &plan.demote {
            if let Some(r) = self.caches[q.index()].find(line) {
                let l = self.caches[q.index()].slot_mut(r);
                l.store = SubMask::EMPTY;
                l.arch = true;
            }
        }
        // Install the fill in the requestor (and snarfers).
        self.install_fill(pu, slot, line, &data, plan.arch, Some(requested), fresh);
        for &q in &plan.snarfers {
            // Snarf only into a free way; never evict for a snarf.
            let r = self.caches[q.index()].victim_way(line);
            if self.caches[q.index()].slot(r).state() == LineState::Invalid {
                self.install_fill(q, r, line, &data, plan.arch, None, true);
                self.stats.snarfs += 1;
            }
        }
        self.rewrite_pointers(line, &plan.vol_after);
        self.recompute_stale(line);
        // Classify the requested sub-block's source for miss accounting.
        let from_cache = data
            .came_from_cache(requested)
            .expect("requested sub-block is in the fill");
        if from_cache {
            self.stats.cache_transfers += 1;
            DataSource::Transfer
        } else {
            self.stats.next_level_fills += 1;
            DataSource::NextLevel
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_write_plan(
        &mut self,
        plan: &WritePlan,
        pu: PuId,
        line: LineId,
        slot: WayRef,
        j: usize,
        off: usize,
        value: Word,
        fresh: bool,
        now: Cycle,
    ) -> Option<Violation> {
        let data = self.gather_fill(line, &plan.fill);
        for &(q, mask) in &plan.flush {
            self.flush_to_memory(q, line, mask, now);
        }
        self.apply_purge(line, &plan.purge, &plan.flush);
        // Invalidate stale copies in the range (partial, per sub-block).
        for &(q, mask) in &plan.invalidate {
            if q == pu || Mutation::StoreSkipsInvalidation.enabled() {
                continue;
            }
            if let Some(r) = self.caches[q.index()].find(line) {
                self.update_slot(q, r, |l| l.invalidate_subblocks(mask));
            }
        }
        // Hybrid update: push the stored word into surviving copies.
        for &q in &plan.update {
            if let Some(r) = self.caches[q.index()].find(line) {
                let l = self.caches[q.index()].slot_mut(r);
                if l.valid.contains(j) {
                    l.data[off] = value;
                    l.arch = false;
                }
            }
        }
        // Install the store in the requestor.
        let w = self.config.geometry.words_per_subblock();
        self.update_slot(pu, slot, |l| {
            if fresh {
                l.invalidate();
            }
            l.line = Some(line);
            for (fj, words, _) in data.iter() {
                for (k, word) in words.iter().enumerate() {
                    l.data[fj * w + k] = *word;
                }
                l.valid.set(fj);
            }
            l.data[off] = value;
            l.valid.set(j);
            l.store.set(j);
            // A one-word store into a wider versioning block *consumes*
            // the block's other words (the new version is built on the
            // closest previous version's content), so the dependence must
            // be recorded exactly like a load's: an older task's later
            // store to this block invalidates the consumed words and must
            // squash us, or the committed winner would carry stale words
            // (DESIGN.md §5.6).
            if w > 1 {
                l.load.set(j);
            }
            l.committed = false;
            l.arch = false;
        });
        self.caches[pu.index()].touch(slot);
        self.rewrite_pointers(line, &plan.vol_after);
        self.recompute_stale(line);
        // Report the oldest violated task, if any.
        if plan.victims.is_empty() {
            None
        } else {
            self.stats.violations += 1;
            let victim = plan
                .victims
                .iter()
                .map(|&(_, t)| t)
                .min()
                .expect("non-empty");
            Some(Violation {
                victim,
                addr: line.first_word(self.config.geometry.words_per_line()),
            })
        }
    }

    /// Head task's id, if any task is running.
    fn head_task(&self) -> Option<TaskId> {
        self.assignments
            .head()
            .and_then(|pu| self.assignments.task_of(pu))
    }

    // -----------------------------------------------------------------
    // Watchdog access and fault drills
    // -----------------------------------------------------------------

    /// Distinct tags of lines validly held by any cache, sorted (for the
    /// invariant watchdog).
    pub(crate) fn resident_lines(&self) -> Vec<LineId> {
        let mut lines: Vec<LineId> = Vec::new();
        for cache in &self.caches {
            for l in cache.iter() {
                if let Some(id) = l.line {
                    if l.is_valid() {
                        lines.push(id);
                    }
                }
            }
        }
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// Every disagreement between the presence index and the caches (for
    /// the invariant watchdog).
    pub(crate) fn presence_mismatches(&self) -> Vec<(Option<PuId>, Option<LineId>, String)> {
        self.presence.mismatches(&self.caches)
    }

    /// Whether `pu`'s copy of `line` has the exclusive (X) bit set.
    pub(crate) fn line_exclusive(&self, pu: PuId, line: LineId) -> bool {
        match self.caches[pu.index()].find(line) {
            Some(r) => self.caches[pu.index()].slot(r).exclusive,
            None => false,
        }
    }

    /// Uncommitted valid lines still in `pu`'s cache (the post-squash
    /// cleanliness check: there must be none).
    pub(crate) fn speculative_lines_of(&self, pu: PuId) -> Vec<LineId> {
        self.caches[pu.index()]
            .iter()
            .filter(|l| l.is_valid() && !l.committed)
            .map(|l| l.line.expect("valid line has a tag"))
            .collect()
    }

    /// Number of uncommitted valid lines in `pu`'s cache (the gauge the
    /// profiler samples every period — counted, not collected).
    pub(crate) fn speculative_line_count(&self, pu: PuId) -> usize {
        self.presence.active_count(pu)
    }

    /// The presence index (for its tests).
    #[cfg(test)]
    pub(crate) fn presence(&self) -> &Presence {
        &self.presence
    }

    /// Deliberately corrupts the state bits of `pu`'s copy of the line
    /// containing `addr` into an illegal combination (a store bit on an
    /// invalid sub-block, or a load bit on a committed line). Returns
    /// `false` if `pu` holds no valid copy. **Watchdog drill only** — the
    /// resulting state violates the protocol by construction.
    #[doc(hidden)]
    pub fn fault_flip_state_bit(&mut self, pu: PuId, addr: Addr) -> bool {
        let g = self.config.geometry;
        let line = g.line_of(addr);
        let j = g.subblock_of(addr);
        let Some(r) = self.caches[pu.index()].find(line) else {
            return false;
        };
        // The presence index stays exact: the drill corrupts the protocol
        // state, not the host's view of it.
        self.update_slot(pu, r, |l| {
            if !l.valid.contains(j) {
                l.store.set(j);
            } else {
                l.committed = true;
                l.load.set(j);
            }
        });
        true
    }

    /// Deliberately splices the VOL of the line containing `addr` into a
    /// cycle: the youngest member's pointer is bent back to the oldest.
    /// Returns `false` if no cache holds the line. **Watchdog drill
    /// only.**
    #[doc(hidden)]
    pub fn fault_splice_vol(&mut self, addr: Addr) -> bool {
        let line = self.config.geometry.line_of(addr);
        let vol = order_vol(&self.snapshots(line));
        let (Some(&first), Some(&last)) = (vol.first(), vol.last()) else {
            return false;
        };
        let r = self.caches[last.index()].find(line).expect("VOL member");
        self.caches[last.index()].slot_mut(r).next = Some(first);
        true
    }

    /// Caches eligible to snarf a fill of `line`: no copy, a free way, and
    /// an assigned task; in increasing PU order.
    fn snarf_candidates(&self, line: LineId, exclude: PuId) -> SmallVec<(PuId, TaskId), 8> {
        if !self.config.snarfing {
            return SmallVec::new();
        }
        let set = self.config.geometry.set_index(line);
        self.presence
            .free_non_holders(set, line)
            .filter(|&q| q != exclude)
            .filter_map(|q| Some((q, self.assignments.task_of(q)?)))
            .collect()
    }
}

impl VersionedMemory for SvcSystem {
    fn num_pus(&self) -> usize {
        self.config.num_pus
    }

    fn assign(&mut self, pu: PuId, task: TaskId) {
        self.assignments.assign(pu, task);
    }

    fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError> {
        let task = self
            .assignments
            .task_of(pu)
            .ok_or(AccessError::NoTask(pu))?;
        self.stats.loads += 1;
        let g = self.config.geometry;
        let line = g.line_of(addr);
        let j = g.subblock_of(addr);
        let off = g.offset(addr);

        // Local paths first: active hit, or non-stale passive-clean reuse.
        if let Some(r) = self.caches[pu.index()].find(line) {
            let l = self.caches[pu.index()].slot(r);
            if !l.committed && l.valid.contains(j) {
                let value = l.data[off];
                let from = l.bits();
                let l = self.caches[pu.index()].slot_mut(r);
                if !l.store.contains(j) && !Mutation::LoadSkipsLBit.enabled() {
                    l.load.set(j);
                }
                self.caches[pu.index()].touch(r);
                self.stats.local_hits += 1;
                let done_at = now + self.config.timing.hit_cycles;
                if self.tracer.enabled(Category::Line) {
                    let to = self.line_bits(pu, line);
                    if from != to {
                        self.tracer
                            .emit(now, Category::Line, || TraceEvent::LineTransition {
                                pu,
                                line,
                                from,
                                to,
                            });
                    }
                }
                self.emit_access(pu, task, AccessOp::Load, addr, "local", done_at, now);
                return Ok(LoadOutcome {
                    value,
                    done_at,
                    source: DataSource::LocalHit,
                });
            }
            if l.committed
                && self.config.stale_bit
                && !l.stale
                && l.store.is_empty()
                && l.valid.contains(j)
            {
                // §3.4.3 / §3.5.1: reuse a non-stale passive-clean copy by
                // resetting C and remembering it is architectural.
                let value = l.data[off];
                let from = l.bits();
                self.update_slot(pu, r, |l| {
                    l.committed = false;
                    l.arch = true;
                    l.load = SubMask::single(j);
                });
                self.caches[pu.index()].touch(r);
                self.stats.local_hits += 1;
                let done_at = now + self.config.timing.hit_cycles;
                if self.tracer.enabled(Category::Line) {
                    let to = self.line_bits(pu, line);
                    self.tracer
                        .emit(now, Category::Line, || TraceEvent::LineTransition {
                            pu,
                            line,
                            from,
                            to,
                        });
                }
                self.emit_access(pu, task, AccessOp::Load, addr, "local", done_at, now);
                return Ok(LoadOutcome {
                    value,
                    done_at,
                    source: DataSource::LocalHit,
                });
            }
        }

        // Miss: BusRead.
        let (slot, evict_done) = self.ensure_resident(pu, line, now)?;
        let l = self.caches[pu.index()].slot(slot);
        // A partially-valid *active* line keeps its sub-blocks; anything
        // else (fresh slot, committed or stale line) refills fully.
        let fresh = l.line != Some(line) || l.committed || l.valid.is_empty();
        let fill_mask = if fresh {
            SubMask::all(g.subblocks_per_line())
        } else {
            SubMask::all(g.subblocks_per_line()).minus(l.valid)
        };
        let snaps = self.snapshots(line);
        let candidates = self.snarf_candidates(line, pu);
        let plan = self
            .vcl
            .plan_read(&snaps, pu, task, self.head_task(), fill_mask, &candidates);
        self.tracer.emit(now, Category::Vcl, || {
            TraceEvent::VclPlan(plan.trace_summary(pu, Some(task), line))
        });
        let before = self.capture_line_bits(line);
        let extra = if plan.flush.is_empty() {
            0
        } else {
            self.config.timing.commit_flush_extra
        };
        // Fault hook: the VCL takes extra cycles to answer this snoop.
        let vcl_extra = match self.faults.inject(FaultSite::VclDelay) {
            Some(p) => {
                self.emit_fault(FaultSite::VclDelay, Some(pu), Some(line), p, now);
                p
            }
            None => 0,
        };
        // The MSHR file limits outstanding misses; a combined miss shares
        // the in-flight fill and skips the bus.
        let t = self.config.timing;
        let est = t.bus_txn_cycles + t.memory_cycles;
        let mshr = self.mshrs[pu.index()].begin_miss(line, evict_done, est);
        let source = self.apply_read_plan(&plan, pu, line, slot, j, fresh, now);
        if !plan.purge.is_empty() {
            self.emit_vol(line, VolOp::Purge, now);
        }
        self.emit_vol(line, VolOp::Splice, now);
        self.emit_line_transitions(line, before, now);
        let done = if mshr.combined {
            // A combined miss rides the outstanding fill: no new bus
            // transaction, so its whole latency profiles as memory time.
            mshr.data_ready + vcl_extra
        } else {
            let request = evict_done + mshr.stalled + vcl_extra;
            let grant = self
                .bus
                .transact_as(BusOp::Read, Some(pu), Some(line), request, extra);
            let mem_penalty = match source {
                DataSource::NextLevel => {
                    let penalty = self
                        .backing
                        .fill_penalty(line, self.config.geometry.words_per_line());
                    // Fault hook: the next level answers late.
                    let jitter = match self.faults.inject(FaultSite::MemJitter) {
                        Some(j) => {
                            self.emit_fault(FaultSite::MemJitter, Some(pu), Some(line), j, now);
                            j
                        }
                        None => 0,
                    };
                    penalty + jitter
                }
                _ => 0,
            };
            if self.profiler.is_active() {
                self.profiler.note_access(
                    pu,
                    AccessProfile {
                        mshr_stall: mshr.stalled,
                        bus_wait: grant.start.since(request),
                        bus_transfer: grant.done.since(grant.start),
                        mem_latency: mem_penalty,
                    },
                );
            }
            grant.done + mem_penalty
        };
        let value = {
            let r = self.caches[pu.index()].find(line).expect("just installed");
            self.caches[pu.index()].slot(r).data[off]
        };
        let source_name = match source {
            DataSource::Transfer => "transfer",
            DataSource::NextLevel => "next-level",
            _ => "local",
        };
        self.emit_access(pu, task, AccessOp::Load, addr, source_name, done, now);
        Ok(LoadOutcome {
            value,
            done_at: done,
            source,
        })
    }

    fn store(
        &mut self,
        pu: PuId,
        addr: Addr,
        value: Word,
        now: Cycle,
    ) -> Result<StoreOutcome, AccessError> {
        let task = self
            .assignments
            .task_of(pu)
            .ok_or(AccessError::NoTask(pu))?;
        self.stats.stores += 1;
        let g = self.config.geometry;
        let line = g.line_of(addr);
        let j = g.subblock_of(addr);
        let off = g.offset(addr);

        // Local path: this task already owns a version of this line (it
        // is Active Dirty, per the paper's FSM) AND no later task can have
        // copied it. The VOL pointer is exactly that local knowledge: a
        // non-null pointer means a successor copy or version exists, so
        // the store must be re-communicated on the bus or a successor
        // that read this line would keep stale data silently. (The
        // paper's FSM keeps Active-Dirty stores local unconditionally and
        // does not discuss this hazard; see DESIGN.md "Errata &
        // clarifications".) A sub-block the task has not touched can be
        // claimed locally only if the store covers it entirely or its
        // words are already valid.
        if let Some(r) = self.caches[pu.index()].find(line) {
            let l = self.caches[pu.index()].slot(r);
            let covers = self.config.geometry.words_per_subblock() == 1 || l.valid.contains(j);
            if !l.committed && !l.store.is_empty() && l.next.is_none() && covers {
                let wide = self.config.geometry.words_per_subblock() > 1;
                let from = l.bits();
                let l = self.caches[pu.index()].slot_mut(r);
                l.data[off] = value;
                l.valid.set(j);
                l.store.set(j);
                if wide {
                    l.load.set(j); // partial-coverage dependence (§5.6)
                }
                self.caches[pu.index()].touch(r);
                self.stats.local_hits += 1;
                let done_at = now + self.config.timing.hit_cycles;
                if self.tracer.enabled(Category::Line) {
                    let to = self.line_bits(pu, line);
                    if from != to {
                        self.tracer
                            .emit(now, Category::Line, || TraceEvent::LineTransition {
                                pu,
                                line,
                                from,
                                to,
                            });
                    }
                }
                self.emit_access(pu, task, AccessOp::Store, addr, "local", done_at, now);
                return Ok(StoreOutcome {
                    done_at,
                    violation: None,
                });
            }
            // X-bit silent store (Figure 16): the line is the only cached
            // copy anywhere, so no later task can have loaded it — no
            // violation is possible and no invalidation is needed. A
            // passive line's committed store data is pushed to the
            // writeback buffer first so the architectural version is not
            // lost if this task squashes.
            if l.exclusive && !l.stale && l.next.is_none() && covers {
                let committed = l.committed;
                let flush_mask = l.store;
                let from = l.bits();
                if committed && !flush_mask.is_empty() {
                    self.flush_to_memory(pu, line, flush_mask, now);
                }
                let wide = self.config.geometry.words_per_subblock() > 1;
                self.update_slot(pu, r, |l| {
                    if committed {
                        l.committed = false;
                        l.load = SubMask::EMPTY;
                        l.store = SubMask::EMPTY;
                    }
                    l.data[off] = value;
                    l.valid.set(j);
                    l.store.set(j);
                    if wide {
                        l.load.set(j); // partial-coverage dependence (§5.6)
                    }
                    l.arch = false;
                });
                self.caches[pu.index()].touch(r);
                self.stats.local_hits += 1;
                let done_at = now + self.config.timing.hit_cycles;
                if self.tracer.enabled(Category::Line) {
                    let to = self.line_bits(pu, line);
                    self.tracer
                        .emit(now, Category::Line, || TraceEvent::LineTransition {
                            pu,
                            line,
                            from,
                            to,
                        });
                }
                self.emit_access(pu, task, AccessOp::Store, addr, "local", done_at, now);
                return Ok(StoreOutcome {
                    done_at,
                    violation: None,
                });
            }
        }

        // Miss: BusWrite with the store mask (§3.7).
        let (slot, evict_done) = self.ensure_resident(pu, line, now)?;
        let l = self.caches[pu.index()].slot(slot);
        let fresh = l.line != Some(line) || l.committed || l.valid.is_empty();
        let store_mask = SubMask::single(j);
        let have = if fresh { SubMask::EMPTY } else { l.valid };
        // Write-allocate: fetch sub-blocks we do not hold. The stored
        // sub-block itself needs a fetch only if it is wider than the one
        // word this store writes.
        let mut fill_mask = SubMask::all(g.subblocks_per_line()).minus(have);
        if g.words_per_subblock() == 1 {
            fill_mask = fill_mask.minus(store_mask);
        }
        let snaps = self.snapshots(line);
        let plan = self.vcl.plan_write(&snaps, pu, task, store_mask, fill_mask);
        self.tracer.emit(now, Category::Vcl, || {
            TraceEvent::VclPlan(plan.trace_summary(pu, Some(task), line))
        });
        let before = self.capture_line_bits(line);
        let extra = if plan.flush.is_empty() {
            0
        } else {
            self.config.timing.commit_flush_extra
        };
        // Fault hook: the VCL takes extra cycles to answer this snoop.
        let vcl_extra = match self.faults.inject(FaultSite::VclDelay) {
            Some(p) => {
                self.emit_fault(FaultSite::VclDelay, Some(pu), Some(line), p, now);
                p
            }
            None => 0,
        };
        let t = self.config.timing;
        let mshr = self.mshrs[pu.index()].begin_miss(line, evict_done, t.bus_txn_cycles);
        let violation = self.apply_write_plan(&plan, pu, line, slot, j, off, value, fresh, now);
        if !plan.purge.is_empty() {
            self.emit_vol(line, VolOp::Purge, now);
        }
        self.emit_vol(line, VolOp::Splice, now);
        self.emit_line_transitions(line, before, now);
        let done_at = if mshr.combined {
            // An outstanding transaction to this line carries the store's
            // mask as well; no separate bus transaction.
            mshr.data_ready + vcl_extra
        } else {
            let request = evict_done + mshr.stalled + vcl_extra;
            let grant = self
                .bus
                .transact_as(BusOp::Write, Some(pu), Some(line), request, extra);
            if self.profiler.is_active() {
                self.profiler.note_access(
                    pu,
                    AccessProfile {
                        mshr_stall: mshr.stalled,
                        bus_wait: grant.start.since(request),
                        bus_transfer: grant.done.since(grant.start),
                        mem_latency: 0,
                    },
                );
            }
            grant.done
        };
        self.emit_access(pu, task, AccessOp::Store, addr, "accepted", done_at, now);
        if let Some(v) = &violation {
            let victim = v.victim;
            self.tracer
                .emit(now, Category::Task, || TraceEvent::Violation {
                    pu,
                    task,
                    victim,
                    addr,
                });
        }
        Ok(StoreOutcome { done_at, violation })
    }

    fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle {
        let trace_lines = self.tracer.enabled(Category::Line);
        let tracer = self.tracer.clone();
        let done = if self.config.lazy_commit {
            // EC (§3.4): flash-set the C bit; writebacks happen lazily.
            // Committed lines already have it, so only active ones change.
            self.update_active_slots(pu, |l| {
                let from = l.bits();
                l.committed = true;
                if !Mutation::CommitKeepsLoadBits.enabled() {
                    l.load = SubMask::EMPTY;
                }
                if trace_lines {
                    let to = l.bits();
                    let line = l.line.expect("valid line has a tag");
                    tracer.emit(now, Category::Line, || TraceEvent::LineTransition {
                        pu,
                        line,
                        from,
                        to,
                    });
                }
            });
            now + 1
        } else {
            // Base (§3.2.4): write back every dirty line immediately and
            // invalidate the cache — the commit-serialization bottleneck.
            // Without lazy commits no line is ever committed, so the
            // active lines are all the valid ones.
            let cache = &self.caches[pu.index()];
            let ways = self.config.geometry.ways();
            let lines: Vec<LineId> = self
                .presence
                .active_slots(pu)
                .map(|slot| cache.slot((slot / ways, slot % ways)))
                .filter(|l| !l.store.is_empty())
                .map(|l| l.line.expect("valid line has a tag"))
                .collect();
            let mut done = now + 1;
            for line in lines {
                let mask = {
                    let r = self.caches[pu.index()].find(line).expect("listed");
                    self.caches[pu.index()].slot(r).store
                };
                let grant = self
                    .bus
                    .transact_as(BusOp::Commit, Some(pu), Some(line), done, 0);
                self.flush_to_memory(pu, line, mask, done);
                done = grant.done;
            }
            self.update_active_slots(pu, |l| {
                if trace_lines {
                    let from = l.bits();
                    let line = l.line.expect("valid line has a tag");
                    l.invalidate();
                    let to = l.bits();
                    tracer.emit(now, Category::Line, || TraceEvent::LineTransition {
                        pu,
                        line,
                        from,
                        to,
                    });
                } else {
                    l.invalidate();
                }
            });
            done
        };
        self.assignments.release(pu);
        done
    }

    fn squash(&mut self, pu: PuId) {
        self.squash_at(pu, Cycle::ZERO);
    }

    fn squash_at(&mut self, pu: PuId, now: Cycle) {
        let arch_bit = self.config.arch_bit;
        let trace_lines = self.tracer.enabled(Category::Line);
        let tracer = self.tracer.clone();
        let mut invalidated = 0;
        let mut retained = 0;
        // Committed state survives squashes; only active lines change.
        self.update_active_slots(pu, |l| {
            let before = trace_lines.then(|| (l.bits(), l.line.expect("valid line has a tag")));
            if arch_bit && l.arch && l.store.is_empty() {
                // §3.5.1: architectural copies survive; they become
                // passive-clean so the next task re-validates via C.
                l.committed = true;
                l.load = SubMask::EMPTY;
                retained += 1;
            } else if Mutation::SquashKeepsLine.enabled() {
                retained += 1;
            } else {
                l.invalidate();
                invalidated += 1;
            }
            if let Some((from, line)) = before {
                let to = l.bits();
                if from != to {
                    tracer.emit(now, Category::Line, || TraceEvent::LineTransition {
                        pu,
                        line,
                        from,
                        to,
                    });
                }
            }
        });
        self.stats.squash_invalidations += invalidated;
        self.stats.squash_retained += retained;
        self.assignments.release(pu);
    }

    fn profile_gauges(&self, now: Cycle) -> MemGauges {
        MemGauges {
            outstanding_misses: self
                .mshrs
                .iter()
                .map(|m| m.outstanding_at(now) as u64)
                .sum(),
            live_versions: (0..self.config.num_pus)
                .map(|i| self.speculative_line_count(PuId(i)) as u64)
                .sum(),
        }
    }

    fn check_invariants(&self, now: Cycle) -> Vec<InvariantViolation> {
        crate::watchdog::check_system(self, now)
    }

    fn check_post_squash(&self, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
        crate::watchdog::check_post_squash(self, pu, now)
    }

    fn drain(&mut self) {
        // Push every committed version to memory, most recent committed
        // winner per sub-block, in VOL order.
        let mut lines: Vec<LineId> = Vec::new();
        for cache in &self.caches {
            for l in cache.iter() {
                if l.is_valid() && l.committed && !l.store.is_empty() {
                    let id = l.line.expect("valid line has a tag");
                    if !lines.contains(&id) {
                        lines.push(id);
                    }
                }
            }
        }
        for line in lines {
            let snaps = self.snapshots(line);
            let committed: Vec<&LineSnapshot> = vol_indices(&snaps)
                .into_iter()
                .map(|i| &snaps[i])
                .filter(|s| s.committed)
                .collect();
            let subblocks = self.config.geometry.subblocks_per_line();
            let mut flushes: Vec<(PuId, SubMask)> = Vec::new();
            for j in 0..subblocks {
                if let Some(s) = committed.iter().rev().find(|s| s.store.contains(j)) {
                    match flushes.iter_mut().find(|(q, _)| *q == s.pu) {
                        Some((_, m)) => m.set(j),
                        None => flushes.push((s.pu, SubMask::single(j))),
                    }
                }
            }
            for (q, mask) in flushes {
                self.flush_to_memory(q, line, mask, Cycle::ZERO);
                if let Some(r) = self.caches[q.index()].find(line) {
                    let l = self.caches[q.index()].slot_mut(r);
                    l.store = l.store.minus(mask);
                }
            }
        }
    }

    fn architectural(&self, addr: Addr) -> Word {
        self.backing.peek(addr)
    }

    fn stats(&self) -> MemStats {
        let mut s = self.stats;
        s.bus_transactions = self.bus.transactions();
        s.bus_busy_cycles = self.bus.busy_cycles();
        s.bus_wait_cycles = self.bus.total_wait_cycles();
        let (l2_hits, l2_misses, _) = self.backing.l2_stats();
        s.l2_hits = l2_hits;
        s.l2_misses = l2_misses;
        for m in &self.mshrs {
            s.mshr_misses += m.primary_misses();
            s.mshr_combines += m.total_combines();
            s.mshr_stall_cycles += m.total_stall_cycles();
        }
        for w in &self.wbufs {
            s.wb_stall_cycles += w.stall_cycles();
        }
        s
    }

    fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.bus.reset_stats();
        self.backing.reset_stats();
        for m in &mut self.mshrs {
            m.reset_stats();
        }
        for w in &mut self.wbufs {
            w.reset_stats();
        }
    }
}

impl ModelCheckable for SvcSystem {
    fn fingerprint(&self, addrs: &[Addr], h: &mut StateHasher) {
        let w = self.config.geometry.words_per_subblock();
        for pu in 0..self.config.num_pus {
            h.write_opt_u64(self.assignments.task_of(PuId(pu)).map(|t| t.0));
        }
        // Every slot of every cache in flat (set-major) order: the full
        // protocol state plus the data of valid sub-blocks. Invalid
        // sub-blocks' words are unreadable garbage and are skipped so
        // they cannot split otherwise-identical states. LRU stamps,
        // MSHR timestamps and writeback drain queues are timing-only
        // and deliberately excluded.
        for cache in &self.caches {
            for l in cache.iter() {
                if !l.is_valid() {
                    h.write_u8(0);
                    continue;
                }
                h.write_u8(1);
                h.write_u64(l.line.expect("valid line has a tag").0);
                h.write_u64(l.valid.0);
                h.write_u64(l.store.0);
                h.write_u64(l.load.0);
                h.write_bool(l.committed);
                h.write_bool(l.stale);
                h.write_bool(l.arch);
                h.write_bool(l.exclusive);
                h.write_opt_u64(l.next.map(|p| p.0 as u64));
                for j in l.valid.iter() {
                    for k in 0..w {
                        h.write_u64(l.data[j * w + k].0);
                    }
                }
            }
        }
        // The committed image at the next level, over the checker's
        // bounded address alphabet.
        for &addr in addrs {
            h.write_u64(self.backing.peek(addr).0);
        }
    }
}

/// Checkpoints the complete mutable state of the memory system: every
/// cache line (state bits, VOL pointers, data), the bus and backing
/// store, MSHRs, writeback buffers, task assignments, accumulated stats
/// and fault-injection streams. Unlike [`ModelCheckable::fingerprint`],
/// timing state (LRU stamps, drain queues, busy-until) is included — a
/// restored system must continue cycle-for-cycle identically.
///
/// Configuration (geometry, capacities, design knobs) is *not* stored;
/// restore targets a freshly built system with the same [`SvcConfig`] and
/// cross-checks the structural facts it can (PU count, lines per cache,
/// fault thresholds). Nor is the presence index, a function of the
/// caches: a successful restore rebuilds it.
impl svc_types::Checkpointable for SvcSystem {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        w.put_usize(self.caches.len());
        for c in &self.caches {
            c.save_state(w);
        }
        self.bus.save_state(w);
        self.backing.save_state(w);
        for m in &self.mshrs {
            m.save_state(w);
        }
        for b in &self.wbufs {
            b.save_state(w);
        }
        self.assignments.save_state(w);
        self.stats.save_state(w);
        self.faults.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let n = r.take_usize()?;
        if n != self.caches.len() {
            return Err(svc_types::CkptError::corrupt(format!(
                "system built with {} PUs, checkpoint has {n}",
                self.caches.len()
            )));
        }
        for c in &mut self.caches {
            c.restore_state(r)?;
        }
        self.bus.restore_state(r)?;
        self.backing.restore_state(r)?;
        for m in &mut self.mshrs {
            m.restore_state(r)?;
        }
        for b in &mut self.wbufs {
            b.restore_state(r)?;
        }
        self.assignments.restore_state(r)?;
        self.stats.restore_state(r)?;
        self.faults.restore_state(r)?;
        self.presence.rebuild(&self.caches);
        Ok(())
    }
}
