//! The ARB proper: rows of per-stage load/store bits and values, an
//! architectural stage, and the shared backing cache.
//!
//! Besides the modelled rows, the host keeps structures derived from
//! them, so that each operation costs time in the rows and stages it
//! touches: per row, the number of stages holding bits; a mask of the
//! speculative rows, whose lowest clear bit is the row a reclaim takes;
//! and per PU, the rows where its stage holds bits, which its commit or
//! squash visits. None is checkpointed or fingerprinted; a restore
//! rebuilds them and the watchdog checks them against the rows.

use svc_mem::{CacheGeometry, MainMemory};
use svc_sim::profile::{AccessProfile, Profiler};
use svc_sim::trace::{AccessOp, Category, TraceEvent, Tracer};
use svc_types::{
    AccessError, Addr, Cycle, DataSource, InvariantKind, InvariantViolation, KeyMap, LoadOutcome,
    MemGauges, MemStats, ModelCheckable, Mutation, PuId, StateHasher, StoreOutcome,
    TaskAssignments, TaskId, VersionedMemory, Violation, Word,
};

/// Configuration of an [`ArbSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbConfig {
    /// Number of processing units (= speculative stages).
    pub num_pus: usize,
    /// Fully-associative row capacity (the paper uses 256).
    pub rows: usize,
    /// Latency of every ARB/data-cache access, in cycles — the cost of
    /// crossing the interconnect to the shared structure. The paper
    /// evaluates 1 to 4.
    pub hit_cycles: u64,
    /// Additional penalty when the backing cache misses to the next level
    /// (the paper uses 10).
    pub memory_cycles: u64,
    /// Geometry of the shared backing data cache.
    pub cache_geometry: CacheGeometry,
}

impl ArbConfig {
    /// The paper's configuration: 256 rows, a direct-mapped backing cache
    /// of `cache_kb` KB in 16-byte lines, `hit_cycles` access latency and
    /// a 10-cycle next-level penalty.
    ///
    /// # Panics
    ///
    /// Panics if `cache_kb` does not give a power-of-two number of lines.
    pub fn paper(num_pus: usize, hit_cycles: u64, cache_kb: usize) -> ArbConfig {
        let lines = cache_kb * 1024 / 16;
        ArbConfig {
            num_pus,
            rows: 256,
            hit_cycles,
            memory_cycles: 10,
            cache_geometry: CacheGeometry::new(lines, 1, 4, 4),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stage {
    loaded: bool,
    stored: bool,
    value: Word,
}

impl Stage {
    fn holds_bits(&self) -> bool {
        self.loaded || self.stored
    }
}

#[derive(Debug, Clone)]
struct Row {
    addr: Addr,
    arch: Option<Word>,
    /// Stages holding load or store bits (derived).
    live: usize,
}

/// The Address Resolution Buffer memory system. See the crate docs.
#[derive(Debug, Clone)]
pub struct ArbSystem {
    config: ArbConfig,
    rows: Vec<Row>,
    /// Every row's stages, `rows × num_pus`, row-major.
    stages: Vec<Stage>,
    /// Row address → row. Holds at most `config.rows` entries.
    index: KeyMap<Addr, usize>,
    /// Bit `i` set when row `i` holds speculative state (derived).
    speculative: Vec<u64>,
    /// Per PU, the rows where its stage holds bits (derived).
    rows_of: Vec<Vec<usize>>,
    assignments: TaskAssignments,
    cache: crate::SharedCache,
    memory: MainMemory,
    stats: MemStats,
    tracer: Tracer,
    profiler: Profiler,
}

impl ArbSystem {
    /// Builds an ARB from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_pus` or `rows` is zero.
    pub fn new(config: ArbConfig) -> ArbSystem {
        assert!(config.num_pus > 0 && config.rows > 0);
        ArbSystem {
            rows: Vec::with_capacity(config.rows),
            stages: Vec::with_capacity(config.rows * config.num_pus),
            index: KeyMap::default(),
            speculative: vec![0; config.rows.div_ceil(64)],
            rows_of: vec![Vec::new(); config.num_pus],
            assignments: TaskAssignments::new(config.num_pus),
            cache: crate::SharedCache::new(config.cache_geometry),
            memory: MainMemory::new(),
            stats: MemStats::default(),
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
            config,
        }
    }

    /// Attaches a cycle-accounting profiler handle. The ARB has no
    /// snooping bus, so only next-level fill penalties are reported; the
    /// shared-structure access latency profiles as generic memory time.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &ArbConfig {
        &self.config
    }

    /// Attaches `tracer` to this system. Loads and stores appear as
    /// `access`-category events; detected dependence violations as
    /// `task`-category [`TraceEvent::Violation`] events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of rows currently tracking speculative state (for tests).
    pub fn speculative_rows(&self) -> usize {
        self.speculative
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    fn task_of(&self, pu: PuId) -> Result<TaskId, AccessError> {
        self.assignments.task_of(pu).ok_or(AccessError::NoTask(pu))
    }

    /// Finds or allocates the row for `addr`.
    ///
    /// # Errors
    ///
    /// `Structural` if every row holds speculative state (the requesting
    /// PU must stall and retry, as in the original ARB).
    fn row_for(&mut self, addr: Addr) -> Result<usize, AccessError> {
        if let Some(&i) = self.index.get(&addr) {
            return Ok(i);
        }
        if self.rows.len() < self.config.rows {
            self.rows.push(Row {
                addr,
                arch: None,
                live: 0,
            });
            self.stages
                .resize(self.stages.len() + self.config.num_pus, Stage::default());
            self.index.insert(addr, self.rows.len() - 1);
            return Ok(self.rows.len() - 1);
        }
        // Reclaim the lowest non-speculative row, flushing its
        // architectural version to the data cache.
        let Some(i) = self.lowest_non_speculative() else {
            self.stats.replacement_stalls += 1;
            return Err(AccessError::Structural("all ARB rows are speculative"));
        };
        let old = &mut self.rows[i];
        if let Some(v) = old.arch.take() {
            let addr = old.addr;
            self.cache.write(addr, v, &mut self.memory);
            self.stats.writebacks += 1;
        }
        self.index.remove(&self.rows[i].addr);
        self.rows[i].addr = addr;
        let n = self.config.num_pus;
        self.stages[i * n..(i + 1) * n].fill(Stage::default());
        self.index.insert(addr, i);
        Ok(i)
    }

    /// The lowest-index row holding no speculative state, if any.
    fn lowest_non_speculative(&self) -> Option<usize> {
        let rows = self.config.rows;
        (0..self.speculative.len())
            .map(|w| (w, !self.speculative[w]))
            .find(|&(_, free)| free != 0)
            .map(|(w, free)| 64 * w + free.trailing_zeros() as usize)
            .filter(|&i| i < rows)
    }

    /// `pu`'s stage of row `row`.
    fn stage(&self, row: usize, pu: PuId) -> &Stage {
        &self.stages[row * self.config.num_pus + pu.index()]
    }

    /// `pu`'s stage of row `row`, about to take a load or store bit: a
    /// stage that held none is counted live in its row, the row marked
    /// speculative and listed among `pu`'s rows.
    fn claim_stage(&mut self, row: usize, pu: PuId) -> &mut Stage {
        let i = row * self.config.num_pus + pu.index();
        if !self.stages[i].holds_bits() {
            self.rows[row].live += 1;
            self.speculative[row / 64] |= 1 << (row % 64);
            self.rows_of[pu.index()].push(row);
        }
        &mut self.stages[i]
    }

    /// Empties every stage `pu` holds bits in, calling `f` with each row
    /// and the stage's old contents; the rows left with no live stage
    /// stop being speculative.
    fn clear_stages(&mut self, pu: PuId, mut f: impl FnMut(&mut Row, Stage)) {
        let mut rows = std::mem::take(&mut self.rows_of[pu.index()]);
        for &row in &rows {
            let stage = std::mem::take(&mut self.stages[row * self.config.num_pus + pu.index()]);
            let r = &mut self.rows[row];
            r.live -= 1;
            if r.live == 0 {
                self.speculative[row / 64] &= !(1 << (row % 64));
            }
            f(r, stage);
        }
        rows.clear();
        self.rows_of[pu.index()] = rows;
    }

    /// The derived state recomputed from the stages: each row's live
    /// count, the speculative mask, and each PU's rows in increasing
    /// order.
    fn derived(&self) -> (Vec<usize>, Vec<u64>, Vec<Vec<usize>>) {
        let n = self.config.num_pus;
        let mut mask = vec![0; self.speculative.len()];
        let mut rows_of = vec![Vec::new(); n];
        let live = (0..self.rows.len())
            .map(|i| {
                let mut live = 0;
                for (p, stage) in self.stages[i * n..(i + 1) * n].iter().enumerate() {
                    if stage.holds_bits() {
                        live += 1;
                        rows_of[p].push(i);
                    }
                }
                if live > 0 {
                    mask[i / 64] |= 1 << (i % 64);
                }
                live
            })
            .collect();
        (live, mask, rows_of)
    }

    /// Deliberately corrupts the ARB row tracking `addr`: its recorded
    /// address is flipped so the index no longer agrees with the row.
    /// Returns `false` if no row tracks `addr`. **Watchdog drill only.**
    #[doc(hidden)]
    pub fn fault_corrupt_row(&mut self, addr: Addr) -> bool {
        let Some(&i) = self.index.get(&addr) else {
            return false;
        };
        self.rows[i].addr = Addr(addr.0 ^ 1);
        true
    }
}

impl VersionedMemory for ArbSystem {
    fn num_pus(&self) -> usize {
        self.config.num_pus
    }

    fn assign(&mut self, pu: PuId, task: TaskId) {
        self.assignments.assign(pu, task);
    }

    fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError> {
        let task = self.task_of(pu)?;
        let row_idx = self.row_for(addr)?;
        self.stats.loads += 1;

        // Own version first (a load after the task's own store).
        let own = *self.stage(row_idx, pu);
        if own.stored {
            self.stats.local_hits += 1;
            let done = now + self.config.hit_cycles;
            self.tracer
                .emit(now, Category::Access, || TraceEvent::Access {
                    pu,
                    task,
                    op: AccessOp::Load,
                    addr,
                    source: "local",
                    done_at: done,
                });
            return Ok(LoadOutcome {
                value: own.value,
                done_at: done,
                source: DataSource::LocalHit,
            });
        }
        // The disambiguation search: closest previous stage with a store
        // (the ARB's backward stage walk).
        let asg = &self.assignments;
        let bypass = (asg.program_order().iter().rev())
            .filter(|&&q| {
                asg.task_of(q)
                    .expect("ordered PUs run tasks")
                    .is_older_than(task)
            })
            .map(|&q| self.stage(row_idx, q))
            .find(|s| s.stored)
            .map(|s| s.value);
        self.claim_stage(row_idx, pu).loaded = true;
        let (value, done, source) = match bypass.or(self.rows[row_idx].arch) {
            Some(v) => {
                self.stats.local_hits += 1;
                (v, now + self.config.hit_cycles, DataSource::LocalHit)
            }
            None => {
                // Fall through to the shared data cache.
                let access = self.cache.read(addr, &mut self.memory);
                if access.missed {
                    self.stats.next_level_fills += 1;
                    if self.profiler.is_active() {
                        self.profiler.note_access(
                            pu,
                            AccessProfile {
                                mem_latency: self.config.memory_cycles,
                                ..AccessProfile::default()
                            },
                        );
                    }
                    (
                        access.value,
                        now + self.config.hit_cycles + self.config.memory_cycles,
                        DataSource::NextLevel,
                    )
                } else {
                    self.stats.local_hits += 1;
                    (
                        access.value,
                        now + self.config.hit_cycles,
                        DataSource::LocalHit,
                    )
                }
            }
        };
        let source_name = match source {
            DataSource::LocalHit => "local",
            DataSource::Transfer => "transfer",
            DataSource::NextLevel => "next-level",
        };
        self.tracer
            .emit(now, Category::Access, || TraceEvent::Access {
                pu,
                task,
                op: AccessOp::Load,
                addr,
                source: source_name,
                done_at: done,
            });
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
        let task = self.task_of(pu)?;
        let row_idx = self.row_for(addr)?;
        self.stats.stores += 1;
        self.stats.local_hits += 1;
        let stage = self.claim_stage(row_idx, pu);
        stage.stored = true;
        stage.value = value;

        // Forward walk: the oldest younger stage with an exposed load, not
        // shadowed by an intervening store, is violated.
        let mut victim: Option<TaskId> = None;
        for &q in self.assignments.program_order() {
            let t = self.assignments.task_of(q).expect("ordered PUs run tasks");
            if !task.is_older_than(t) {
                continue;
            }
            let stage = self.stage(row_idx, q);
            if stage.loaded {
                victim = Some(t);
                break;
            }
            if stage.stored && !Mutation::ArbIgnoresShadow.enabled() {
                break; // the next version shadows everything younger
            }
        }
        let done = now + self.config.hit_cycles;
        self.tracer
            .emit(now, Category::Access, || TraceEvent::Access {
                pu,
                task,
                op: AccessOp::Store,
                addr,
                source: "accepted",
                done_at: done,
            });
        if let Some(victim) = victim {
            self.stats.violations += 1;
            self.tracer
                .emit(now, Category::Task, || TraceEvent::Violation {
                    pu,
                    task,
                    victim,
                    addr,
                });
        }
        Ok(StoreOutcome {
            done_at: done,
            violation: victim.map(|victim| Violation { victim, addr }),
        })
    }

    fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle {
        // Copy the stage's stores into the architectural stage. The extra
        // stage plus the assumed high-bandwidth commit path make this a
        // single ARB operation (paper §4.4).
        self.clear_stages(pu, |row, stage| {
            if stage.stored {
                row.arch = Some(stage.value);
            }
        });
        self.assignments.release(pu);
        now + self.config.hit_cycles
    }

    fn squash(&mut self, pu: PuId) {
        let mut cleared = 0;
        self.clear_stages(pu, |_, _| cleared += 1);
        self.stats.squash_invalidations += cleared;
        self.assignments.release(pu);
    }

    fn profile_gauges(&self, _now: Cycle) -> MemGauges {
        MemGauges {
            outstanding_misses: 0,
            live_versions: self.speculative_rows() as u64,
        }
    }

    fn check_invariants(&self, now: Cycle) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        let structure = |detail: String| InvariantViolation {
            kind: InvariantKind::Structure,
            pu: None,
            line: None,
            cycle: now,
            detail,
        };
        // The address index and the row table must agree exactly.
        for (&addr, &i) in &self.index {
            if i >= self.rows.len() || self.rows[i].addr != addr {
                out.push(structure(format!(
                    "index maps {addr} to row {i}, which does not track it"
                )));
            }
        }
        let n = self.config.num_pus;
        for (i, row) in self.rows.iter().enumerate() {
            if self.index.get(&row.addr) != Some(&i) {
                out.push(structure(format!(
                    "row {i} tracking {} is not indexed",
                    row.addr
                )));
            }
            // A stage with load/store bits must belong to a running task.
            for (p, stage) in self.stages[i * n..(i + 1) * n].iter().enumerate() {
                if stage.holds_bits() && self.assignments.task_of(PuId(p)).is_none() {
                    out.push(InvariantViolation {
                        kind: InvariantKind::Orphan,
                        pu: Some(PuId(p)),
                        line: None,
                        cycle: now,
                        detail: format!(
                            "stage bits for {} in the row tracking {} but no task assigned",
                            PuId(p),
                            row.addr
                        ),
                    });
                }
            }
        }
        // The derived state must equal a recomputation from the stages.
        let (live, mask, rows_of) = self.derived();
        if !self.rows.iter().map(|r| r.live).eq(live.iter().copied()) {
            out.push(structure(format!(
                "rows hold {live:?} live stages, derived counts differ"
            )));
        }
        if self.speculative != mask {
            out.push(structure(format!(
                "speculative mask {:x?}, rows holding bits {mask:x?}",
                self.speculative
            )));
        }
        for (p, expected) in rows_of.iter().enumerate() {
            let mut listed = self.rows_of[p].clone();
            listed.sort_unstable();
            if listed != *expected {
                out.push(structure(format!(
                    "{} lists rows {listed:?}, its stage holds bits in {expected:?}",
                    PuId(p)
                )));
            }
        }
        out
    }

    fn check_post_squash(&self, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
        self.rows
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.stage(i, pu).holds_bits())
            .map(|(_, row)| InvariantViolation {
                kind: InvariantKind::SquashResidue,
                pu: Some(pu),
                line: None,
                cycle: now,
                detail: format!("stage bits for {} survived the squash", row.addr),
            })
            .collect()
    }

    fn drain(&mut self) {
        for row in &mut self.rows {
            if let Some(v) = row.arch.take() {
                self.cache.write(row.addr, v, &mut self.memory);
                self.stats.writebacks += 1;
            }
        }
        self.cache.flush_all(&mut self.memory);
    }

    fn architectural(&self, addr: Addr) -> Word {
        if let Some(&i) = self.index.get(&addr) {
            if let Some(v) = self.rows[i].arch {
                return v;
            }
        }
        self.cache.peek(addr, &self.memory)
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }
}

impl ModelCheckable for ArbSystem {
    fn fingerprint(&self, addrs: &[Addr], h: &mut StateHasher) {
        for pu in 0..self.config.num_pus {
            h.write_opt_u64(self.assignments.task_of(PuId(pu)).map(|t| t.0));
        }
        for &addr in addrs {
            match self.index.get(&addr) {
                None => h.write_u8(0),
                Some(&i) => {
                    h.write_u8(1);
                    let n = self.config.num_pus;
                    for s in &self.stages[i * n..(i + 1) * n] {
                        h.write_bool(s.loaded);
                        h.write_bool(s.stored);
                        h.write_u64(s.value.0);
                    }
                    h.write_opt_u64(self.rows[i].arch.map(|v| v.0));
                }
            }
            // The committed image under the row: backing cache + memory.
            h.write_u64(self.cache.peek(addr, &self.memory).0);
        }
    }
}

impl svc_types::Checkpointable for Stage {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.loaded.save_state(w);
        self.stored.save_state(w);
        self.value.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.loaded.restore_state(r)?;
        self.stored.restore_state(r)?;
        self.value.restore_state(r)
    }
}

/// Checkpoints the complete mutable ARB state: every row's stage bits,
/// values and architectural version, the address index, task
/// assignments, the shared backing cache (including LRU stamps) and main
/// memory, plus accumulated stats. Configuration is not stored; restore
/// targets a freshly built system with the same [`ArbConfig`]. Nor are
/// the live counts, the speculative mask and the per-PU row lists,
/// functions of the stages: a successful restore rebuilds them.
///
/// An empty list follows the index: a slot of the checkpoint layout that
/// no state fills. Restore rejects a non-empty one as corrupt.
impl svc_types::Checkpointable for ArbSystem {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        let n = self.config.num_pus;
        w.put_usize(self.rows.len());
        for (i, row) in self.rows.iter().enumerate() {
            row.addr.save_state(w);
            w.put_usize(n);
            for stage in &self.stages[i * n..(i + 1) * n] {
                stage.save_state(w);
            }
            row.arch.save_state(w);
        }
        self.index.save_state(w);
        w.put_usize(0);
        self.assignments.save_state(w);
        self.cache.save_state(w);
        self.memory.save_state(w);
        self.stats.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let rows = r.take_usize()?;
        if rows > self.config.rows {
            return Err(svc_types::CkptError::corrupt(format!(
                "{rows} ARB rows exceed the configured capacity {}",
                self.config.rows
            )));
        }
        let n = self.config.num_pus;
        self.rows.clear();
        self.stages.clear();
        for _ in 0..rows {
            let addr = r.take::<Addr>()?;
            let stages = r.take_usize()?;
            if stages != n {
                return Err(svc_types::CkptError::corrupt(format!(
                    "ARB row with {stages} stages, system has {n} PUs"
                )));
            }
            for _ in 0..n {
                self.stages.push(r.take::<Stage>()?);
            }
            let arch = r.take::<Option<Word>>()?;
            self.rows.push(Row {
                addr,
                arch,
                live: 0,
            });
        }
        self.index.restore_state(r)?;
        if r.take_usize()? != 0 {
            return Err(svc_types::CkptError::corrupt(
                "ARB checkpoint lists entries after the index",
            ));
        }
        for (&addr, &i) in &self.index {
            if i >= self.rows.len() || self.rows[i].addr != addr {
                return Err(svc_types::CkptError::corrupt(
                    "ARB index disagrees with the restored rows",
                ));
            }
        }
        self.assignments.restore_state(r)?;
        self.cache.restore_state(r)?;
        self.memory.restore_state(r)?;
        self.stats.restore_state(r)?;
        let (live, mask, rows_of) = self.derived();
        for (row, live) in self.rows.iter_mut().zip(live) {
            row.live = live;
        }
        self.speculative = mask;
        self.rows_of = rows_of;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use svc_sim::rng::SplitMix64;
    use svc_types::{Checkpointable, CkptReader, CkptWriter};

    use super::*;

    fn arb() -> ArbSystem {
        let mut a = ArbSystem::new(ArbConfig::paper(4, 1, 32));
        for i in 0..4 {
            a.assign(PuId(i), TaskId(i as u64));
        }
        a
    }

    #[test]
    fn bypass_from_closest_previous_stage() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(10), Cycle(0)).unwrap();
        a.store(PuId(2), Addr(4), Word(30), Cycle(0)).unwrap();
        assert_eq!(a.load(PuId(1), Addr(4), Cycle(1)).unwrap().value, Word(10));
        assert_eq!(a.load(PuId(3), Addr(4), Cycle(1)).unwrap().value, Word(30));
    }

    #[test]
    fn violation_detection_matches_walk_semantics() {
        let mut a = arb();
        a.load(PuId(2), Addr(4), Cycle(0)).unwrap();
        let st = a.store(PuId(0), Addr(4), Word(1), Cycle(1)).unwrap();
        assert_eq!(st.violation.unwrap().victim, TaskId(2));
        // A version in between shadows the load.
        let mut a = arb();
        a.store(PuId(1), Addr(4), Word(1), Cycle(0)).unwrap();
        a.load(PuId(2), Addr(4), Cycle(1)).unwrap();
        let st = a.store(PuId(0), Addr(4), Word(2), Cycle(2)).unwrap();
        assert!(st.violation.is_none());
    }

    #[test]
    fn own_store_then_load_is_not_exposed() {
        let mut a = arb();
        a.store(PuId(2), Addr(4), Word(9), Cycle(0)).unwrap();
        assert_eq!(a.load(PuId(2), Addr(4), Cycle(1)).unwrap().value, Word(9));
        let st = a.store(PuId(0), Addr(4), Word(1), Cycle(2)).unwrap();
        assert!(st.violation.is_none());
    }

    #[test]
    fn commit_moves_version_to_arch_stage_and_drain_to_memory() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(5), Cycle(0)).unwrap();
        a.commit(PuId(0), Cycle(1));
        assert_eq!(a.architectural(Addr(4)), Word(5));
        // A later task's load reads the arch stage.
        let out = a.load(PuId(1), Addr(4), Cycle(2)).unwrap();
        assert_eq!(out.value, Word(5));
        assert_eq!(out.source, DataSource::LocalHit);
        a.drain();
        assert_eq!(a.architectural(Addr(4)), Word(5));
        assert_eq!(a.memory.peek(Addr(4)), Word(5));
    }

    #[test]
    fn squash_clears_stage() {
        let mut a = arb();
        a.store(PuId(2), Addr(4), Word(9), Cycle(0)).unwrap();
        a.load(PuId(3), Addr(8), Cycle(0)).unwrap();
        a.squash(PuId(2));
        a.squash(PuId(3));
        a.assign(PuId(2), TaskId(2));
        a.assign(PuId(3), TaskId(3));
        assert_eq!(
            a.load(PuId(2), Addr(4), Cycle(1)).unwrap().value,
            Word::ZERO
        );
        let st = a.store(PuId(0), Addr(8), Word(1), Cycle(2)).unwrap();
        assert!(st.violation.is_none());
        assert_eq!(a.stats().squash_invalidations, 2);
    }

    #[test]
    fn hit_latency_is_charged_on_every_access() {
        let mut a = ArbSystem::new(ArbConfig::paper(4, 3, 32));
        a.assign(PuId(0), TaskId(0));
        a.store(PuId(0), Addr(4), Word(1), Cycle(0)).unwrap();
        let out = a.load(PuId(0), Addr(4), Cycle(10)).unwrap();
        assert_eq!(out.done_at, Cycle(13), "3-cycle shared-structure latency");
    }

    #[test]
    fn cache_miss_adds_memory_penalty() {
        let mut a = ArbSystem::new(ArbConfig::paper(4, 1, 32));
        a.assign(PuId(0), TaskId(0));
        let out = a.load(PuId(0), Addr(4), Cycle(0)).unwrap();
        assert_eq!(out.source, DataSource::NextLevel);
        assert_eq!(out.done_at, Cycle(11));
        assert_eq!(a.stats().next_level_fills, 1);
        // Same line now hits in the shared cache for any PU.
        a.assign(PuId(1), TaskId(1));
        let out = a.load(PuId(1), Addr(5), Cycle(20)).unwrap();
        assert_eq!(out.source, DataSource::LocalHit);
    }

    #[test]
    fn rows_exhaust_into_structural_stall() {
        let mut cfg = ArbConfig::paper(2, 1, 32);
        cfg.rows = 2;
        let mut a = ArbSystem::new(cfg);
        a.assign(PuId(0), TaskId(0));
        a.assign(PuId(1), TaskId(1));
        a.store(PuId(1), Addr(0), Word(1), Cycle(0)).unwrap();
        a.store(PuId(1), Addr(4), Word(2), Cycle(0)).unwrap();
        let err = a.store(PuId(1), Addr(8), Word(3), Cycle(0)).unwrap_err();
        assert!(matches!(err, AccessError::Structural(_)));
        // Committing task 0 does not help (rows belong to task 1), but
        // committing task 1 frees them.
        a.commit(PuId(1), Cycle(1));
        a.assign(PuId(1), TaskId(2));
        a.store(PuId(1), Addr(8), Word(3), Cycle(2)).unwrap();
    }

    #[test]
    fn watchdog_clean_then_catches_corruption() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(5), Cycle(0)).unwrap();
        a.load(PuId(1), Addr(4), Cycle(1)).unwrap();
        assert_eq!(a.check_invariants(Cycle(2)), Vec::new());
        a.squash(PuId(1));
        assert_eq!(a.check_post_squash(PuId(1), Cycle(3)), Vec::new());
        assert_eq!(a.check_invariants(Cycle(3)), Vec::new());
        assert!(a.fault_corrupt_row(Addr(4)));
        let found = a.check_invariants(Cycle(4));
        assert!(
            found.iter().any(|v| v.kind == InvariantKind::Structure),
            "got {found:?}"
        );
    }

    #[test]
    fn row_reclaim_flushes_arch_value() {
        let mut cfg = ArbConfig::paper(2, 1, 32);
        cfg.rows = 1;
        let mut a = ArbSystem::new(cfg);
        a.assign(PuId(0), TaskId(0));
        a.store(PuId(0), Addr(0), Word(7), Cycle(0)).unwrap();
        a.commit(PuId(0), Cycle(1));
        a.assign(PuId(0), TaskId(1));
        // New address forces reclaiming the (non-speculative) row.
        a.store(PuId(0), Addr(4), Word(8), Cycle(2)).unwrap();
        assert_eq!(a.architectural(Addr(0)), Word(7), "flushed to the cache");
    }

    /// The row a reclaim must take: the first whose stages hold no bits,
    /// the rule a scan of every row's stages once applied.
    fn reference_reclaim(a: &ArbSystem) -> Option<usize> {
        let n = a.config.num_pus;
        (0..a.rows.len()).position(|i| !a.stages[i * n..(i + 1) * n].iter().any(Stage::holds_bits))
    }

    fn saved(a: &ArbSystem) -> Vec<u8> {
        let mut w = CkptWriter::new();
        a.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn entries_after_the_index_are_corrupt() {
        let cfg = ArbConfig::paper(2, 1, 32);
        let mut bytes = saved(&ArbSystem::new(cfg));
        // An empty ARB writes its row count, its index's length and then
        // the empty list's length.
        assert_eq!(bytes[16..24], 0u64.to_le_bytes());
        bytes[16..24].copy_from_slice(&1u64.to_le_bytes());
        let err = ArbSystem::new(cfg).restore_state(&mut CkptReader::new(&bytes));
        assert!(
            matches!(err, Err(svc_types::CkptError::Corrupt(_))),
            "{err:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// With 2 to 8 rows, so that rows are reclaimed constantly,
        /// random loads, stores, commits, squashes and checkpoint round
        /// trips keep the live counts, the mask and the per-PU row lists
        /// equal to a recomputation; every reclaim takes the reference
        /// row; and a restored system re-saves the bytes it was restored
        /// from.
        #[test]
        fn derived_state_tracks_the_rows_through_reclaims(
            seed in any::<u64>(),
            rows in 2usize..9,
            pus in 1usize..5,
            steps in 50usize..300,
        ) {
            let mut cfg = ArbConfig::paper(pus, 1, 32);
            cfg.rows = rows;
            let mut a = ArbSystem::new(cfg);
            let mut rng = SplitMix64::new(seed);
            // Running PUs oldest first, and the next task to dispatch.
            let mut running: Vec<(PuId, TaskId)> = Vec::new();
            let mut next_task = 0u64;
            let squash_from = |a: &mut ArbSystem, running: &mut Vec<(PuId, TaskId)>, v: TaskId| {
                while running.last().is_some_and(|&(_, t)| t >= v) {
                    a.squash(running.pop().expect("checked").0);
                }
            };
            for step in 0..steps {
                let now = Cycle(step as u64);
                let pick = rng.next_u64();
                match rng.next_u64() % 8 {
                    0 if running.len() < pus => {
                        let pu = (0..pus)
                            .map(PuId)
                            .find(|&q| running.iter().all(|&(r, _)| r != q))
                            .expect("a PU is free");
                        a.assign(pu, TaskId(next_task));
                        running.push((pu, TaskId(next_task)));
                        next_task += 1;
                    }
                    1..=4 if !running.is_empty() => {
                        let (pu, _) = running[(pick % running.len() as u64) as usize];
                        let addr = Addr(rng.next_u64() % 16);
                        let reclaims = !a.index.contains_key(&addr) && a.rows.len() == rows;
                        let expected = reference_reclaim(&a);
                        let failed = if pick.is_multiple_of(2) {
                            a.load(pu, addr, now).err()
                        } else {
                            match a.store(pu, addr, Word(pick), now) {
                                Ok(out) => {
                                    if let Some(v) = out.violation {
                                        squash_from(&mut a, &mut running, v.victim);
                                        next_task = v.victim.0;
                                    }
                                    None
                                }
                                Err(e) => Some(e),
                            }
                        };
                        if reclaims {
                            match expected {
                                Some(i) => prop_assert_eq!(a.index.get(&addr), Some(&i)),
                                None => prop_assert!(failed.is_some(), "no row to reclaim"),
                            }
                        }
                    }
                    5 if !running.is_empty() => {
                        let (pu, _) = running.remove(0);
                        a.commit(pu, now);
                    }
                    6 if !running.is_empty() => {
                        let victim = running[(pick % running.len() as u64) as usize].1;
                        squash_from(&mut a, &mut running, victim);
                        next_task = victim.0;
                    }
                    7 => {
                        let bytes = saved(&a);
                        let mut restored = ArbSystem::new(cfg);
                        let mut r = CkptReader::new(&bytes);
                        restored.restore_state(&mut r).expect("round trip");
                        r.finish().expect("whole checkpoint read");
                        prop_assert_eq!(saved(&restored), bytes);
                        a = restored;
                    }
                    _ => {}
                }
                let (live, mask, rows_of) = a.derived();
                prop_assert_eq!(a.rows.iter().map(|r| r.live).collect::<Vec<_>>(), live);
                prop_assert_eq!(&a.speculative, &mask);
                let mut listed = a.rows_of.clone();
                listed.iter_mut().for_each(|l| l.sort_unstable());
                prop_assert_eq!(listed, rows_of);
                prop_assert_eq!(a.check_invariants(now), Vec::new());
            }
        }
    }
}
