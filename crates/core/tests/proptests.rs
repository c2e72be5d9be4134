//! Property-based tests for the SVC core: DESIGN.md invariants 1–3 under
//! proptest-generated workloads and schedules, plus algebraic laws of the
//! small building blocks.

use proptest::prelude::*;
use svc::conformance::{run_lockstep, Op, Workload};
use svc::{order_vol, LineSnapshot, SubMask, SvcConfig, SvcSystem, Vcl};
use svc_types::{Addr, PuId, TaskId, Word};

// ---------------------------------------------------------------------
// SubMask algebra
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn submask_algebra(a in any::<u64>(), b in any::<u64>(), i in 0usize..64) {
        let (ma, mb) = (SubMask(a), SubMask(b));
        // De Morgan, intersection/difference consistency.
        prop_assert_eq!((ma | mb).0, a | b);
        prop_assert_eq!((ma & mb).0, a & b);
        prop_assert_eq!(ma.minus(mb) | (ma & mb), ma);
        prop_assert_eq!(ma.intersects(mb), (a & b) != 0);
        prop_assert_eq!(ma.contains(i), (a >> i) & 1 == 1);
        prop_assert_eq!(ma.count(), a.count_ones() as usize);
        // iter() enumerates exactly the set bits.
        let bits: Vec<usize> = ma.iter().collect();
        prop_assert_eq!(bits.len(), ma.count());
        for &j in &bits {
            prop_assert!(ma.contains(j));
        }
        // set/clear round-trip.
        let mut m = ma;
        m.set(i);
        prop_assert!(m.contains(i));
        m.clear(i);
        prop_assert!(!m.contains(i));
    }
}

// ---------------------------------------------------------------------
// VOL reconstruction (DESIGN.md invariant 2)
// ---------------------------------------------------------------------

/// Random snapshots: a subset of 4 PUs hold the line, committed or not,
/// with arbitrary (possibly dangling) pointers.
fn snapshots_strategy() -> impl Strategy<Value = Vec<LineSnapshot>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            any::<bool>(),
            0u64..16,
            proptest::option::of(0usize..4),
        ),
        4,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (valid, committed, task, next))| LineSnapshot {
                pu: PuId(i),
                task: Some(TaskId(task * 4 + i as u64)), // unique per PU
                valid: if valid {
                    SubMask::all(1)
                } else {
                    SubMask::EMPTY
                },
                store: SubMask::EMPTY,
                load: SubMask::EMPTY,
                committed,
                stale: false,
                arch: false,
                next: next.map(PuId),
            })
            .collect()
    })
}

proptest! {
    /// order_vol always returns a permutation of the valid members, with
    /// every committed member before every uncommitted member, and the
    /// uncommitted suffix sorted by task — for ANY pointer contents
    /// (including dangling pointers and cycles).
    #[test]
    fn order_vol_is_total_and_stable(snaps in snapshots_strategy()) {
        let vol = order_vol(&snaps);
        let valid: Vec<PuId> = snaps.iter().filter(|s| s.is_valid()).map(|s| s.pu).collect();
        prop_assert_eq!(vol.len(), valid.len());
        for pu in &valid {
            prop_assert!(vol.contains(pu));
        }
        let member = |pu: PuId| snaps.iter().find(|s| s.pu == pu).expect("member");
        // Committed prefix property.
        let first_uncommitted = vol.iter().position(|&q| !member(q).committed);
        if let Some(k) = first_uncommitted {
            for &q in &vol[k..] {
                prop_assert!(!member(q).committed, "no committed after an uncommitted");
            }
            // Uncommitted suffix sorted by task.
            let tasks: Vec<TaskId> = vol[k..].iter().map(|&q| member(q).task.expect("set")).collect();
            let mut sorted = tasks.clone();
            sorted.sort();
            prop_assert_eq!(tasks, sorted);
        }
    }
}

/// The VOL reconstruction as first written: a committed-chain walk with
/// linear `contains`/`find` lookups, quadratic in the holder count. Kept
/// here as the reference the O(h log h) [`order_vol`] must reproduce
/// exactly, tie-breaks included.
fn reference_order_vol(snapshots: &[LineSnapshot]) -> Vec<PuId> {
    let committed: Vec<&LineSnapshot> = snapshots
        .iter()
        .filter(|s| s.is_valid() && s.committed)
        .collect();
    let mut chain: Vec<PuId> = Vec::new();
    if !committed.is_empty() {
        let is_committed_member = |pu: PuId| committed.iter().any(|s| s.pu == pu);
        let mut heads: Vec<&LineSnapshot> = committed
            .iter()
            .copied()
            .filter(|s| {
                !committed
                    .iter()
                    .any(|o| o.pu != s.pu && o.next == Some(s.pu))
            })
            .collect();
        heads.sort_unstable_by_key(|s| s.pu.index());
        let lookup = |pu: PuId| committed.iter().copied().find(|s| s.pu == pu);
        for head in &heads {
            let mut cur = Some(head.pu);
            while let Some(pu) = cur {
                if !is_committed_member(pu) || chain.contains(&pu) {
                    break;
                }
                chain.push(pu);
                cur = lookup(pu).and_then(|s| s.next);
            }
        }
        for s in &committed {
            if !chain.contains(&s.pu) {
                chain.push(s.pu);
            }
        }
    }
    let mut uncommitted: Vec<&LineSnapshot> = snapshots
        .iter()
        .filter(|s| s.is_valid() && !s.committed)
        .collect();
    uncommitted.sort_by_key(|s| s.ordering_task().expect("uncommitted lines have tasks"));
    chain.extend(uncommitted.iter().map(|s| s.pu));
    chain
}

/// `n` snapshots of distinct PUs (drawn from 0..160, in shuffled order)
/// for the reference comparison: copies valid or not, committed or not;
/// tasks from a small range, so ties occur; `next` pointers absent,
/// dangling (to a PU outside the set) or aimed at a random member,
/// itself included, so chains fork, merge and cycle.
fn wide_snapshots(n: usize, seed: u64) -> Vec<LineSnapshot> {
    let mut rng = svc_sim::rng::SplitMix64::new(seed);
    let mut pool: Vec<usize> = (0..160).collect();
    for i in (1..pool.len()).rev() {
        pool.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let pus = &pool[..n];
    pus.iter()
        .map(|&pu| {
            let committed = rng.next_u64().is_multiple_of(2);
            let next = match rng.next_u64() % 4 {
                0 => None,
                1 => Some(PuId(160 + (rng.next_u64() % 8) as usize)),
                _ => Some(PuId(pus[(rng.next_u64() % n as u64) as usize])),
            };
            LineSnapshot {
                pu: PuId(pu),
                task: (!committed || rng.next_u64().is_multiple_of(2))
                    .then(|| TaskId(rng.next_u64() % 12)),
                valid: if rng.next_u64().is_multiple_of(8) {
                    SubMask::EMPTY
                } else {
                    SubMask::all(1)
                },
                store: SubMask::EMPTY,
                load: SubMask::EMPTY,
                committed,
                stale: false,
                arch: false,
                next,
            }
        })
        .collect()
}

proptest! {
    /// The O(h log h) reconstruction equals the quadratic reference on
    /// random sets of up to 130 holders, sizes drawn in three bands (to
    /// 8, to 64, beyond 64): unsorted PUs, dangling and cyclic committed
    /// pointers, tied tasks.
    #[test]
    fn order_vol_equals_the_quadratic_reference(
        n in prop_oneof![0usize..9, 9usize..65, 65usize..131],
        seed in any::<u64>(),
    ) {
        let snaps = wide_snapshots(n, seed);
        prop_assert_eq!(order_vol(&snaps).to_vec(), reference_order_vol(&snaps));
    }
}

// ---------------------------------------------------------------------
// Full-system differential properties (invariants 1 and 5)
// ---------------------------------------------------------------------

/// Strategy for a small speculative workload.
fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u64..24, 0u64..1000, any::<bool>()), 1..7),
            2..24,
        ),
        2usize..5,
    )
        .prop_map(|(raw, num_pus)| Workload {
            tasks: raw
                .into_iter()
                .enumerate()
                .map(|(t, ops)| {
                    ops.into_iter()
                        .enumerate()
                        .map(|(k, (addr, _, is_store))| {
                            if is_store {
                                Op::Store(Addr(addr), Word(((t as u64) << 16) | (k as u64 + 1)))
                            } else {
                                Op::Load(Addr(addr))
                            }
                        })
                        .collect()
                })
                .collect(),
            num_pus,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every SVC design agrees with the oracle on every load value, every
    /// violation victim, and the final architectural memory, for
    /// arbitrary workloads and schedules.
    #[test]
    fn svc_matches_oracle(wl in workload_strategy(), seed in 0u64..1_000_000) {
        let n = wl.num_pus;
        for cfg in [SvcConfig::base(n), SvcConfig::ecs(n), SvcConfig::final_design(n)] {
            run_lockstep(&wl, SvcSystem::new(cfg), seed);
        }
    }

    /// Sequential-semantics check without the oracle: running the tasks
    /// through the engine-less lockstep must leave memory identical to a
    /// serial interpretation of the task sequence.
    #[test]
    fn final_memory_is_serial(wl in workload_strategy(), seed in 0u64..1_000_000) {
        // Serial model.
        let mut serial = std::collections::HashMap::new();
        for task in &wl.tasks {
            for op in task {
                if let Op::Store(a, v) = op {
                    serial.insert(*a, *v);
                }
            }
        }
        // run_lockstep already asserts DUT == oracle; the oracle's final
        // memory must equal the serial model too.
        let mut svc = SvcSystem::new(SvcConfig::final_design(wl.num_pus));
        run_lockstep(&wl, svc.clone(), seed);
        // Run again retaining the system to inspect memory.
        use svc_types::VersionedMemory;
        run_lockstep(&wl, SvcSystem::new(SvcConfig::final_design(wl.num_pus)), seed);
        // Drive the serial schedule directly through one PU to cross-check.
        let mut now = svc_types::Cycle(0);
        for (t, task) in wl.tasks.iter().enumerate() {
            svc.assign(PuId(0), TaskId(t as u64));
            for op in task {
                now += 1;
                match *op {
                    Op::Load(a) => {
                        let out = loop {
                            match svc.load(PuId(0), a, now) {
                                Ok(out) => break out,
                                Err(_) => now += 1,
                            }
                        };
                        let _ = out;
                    }
                    Op::Store(a, v) => {
                        loop {
                            match svc.store(PuId(0), a, v, now) {
                                Ok(st) => {
                                    prop_assert!(st.violation.is_none(), "serial run cannot violate");
                                    break;
                                }
                                Err(_) => now += 1,
                            }
                        }
                    }
                }
            }
            now = svc.commit(PuId(0), now).max(now);
        }
        svc.drain();
        for (a, v) in serial {
            prop_assert_eq!(svc.architectural(a), v, "serial SVC at {}", a);
        }
    }
}

// ---------------------------------------------------------------------
// Randomized-workload conformance (varying PUs, address-space size and
// squash/replay density)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Workload::random_with_density` sweeps the conflict-pressure axes
    /// the hand-built strategy above cannot: PU count, address-space
    /// size (small spaces force write-write conflicts and replays) and
    /// store density. Every SVC design generation must still agree with
    /// the oracle on every load, victim and final memory image.
    #[test]
    fn svc_survives_randomized_conflict_densities(
        seed in 0u64..1_000_000,
        tasks in 2usize..28,
        addr_space in 4u64..48,
        pus in 2usize..6,
        store_pct in 10u64..86,
    ) {
        let wl = Workload::random_with_density(
            seed, tasks, addr_space, pus, store_pct as f64 / 100.0,
        );
        for cfg in [SvcConfig::base(pus), SvcConfig::final_design(pus)] {
            run_lockstep(&wl, SvcSystem::new(cfg), seed);
        }
    }
}

// ---------------------------------------------------------------------
// VCL plan invariants over arbitrary line states
// ---------------------------------------------------------------------

/// Richer snapshots than `snapshots_strategy`: 4 PUs over 4 sub-blocks,
/// arbitrary valid/store/load masks (store and load forced into valid),
/// arbitrary committed flags and arbitrary (possibly cyclic) pointers.
fn rich_snapshots_strategy() -> impl Strategy<Value = Vec<LineSnapshot>> {
    proptest::collection::vec(
        (
            0u64..16,                        // valid mask (4 sub-blocks)
            any::<u64>(),                    // store-mask entropy
            any::<u64>(),                    // load-mask entropy
            any::<bool>(),                   // committed
            0u64..8,                         // task entropy
            proptest::option::of(0usize..4), // next pointer (may dangle/cycle)
        ),
        4,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(
                |(i, (valid, smask, lmask, committed, task, next))| LineSnapshot {
                    pu: PuId(i),
                    task: Some(TaskId(task * 4 + i as u64)), // unique per PU
                    valid: SubMask(valid),
                    store: SubMask(valid & smask & 0xF),
                    load: SubMask(valid & lmask & 0xF),
                    committed,
                    stale: false,
                    arch: false,
                    next: next.map(PuId),
                },
            )
            .collect()
    })
}

fn vcl_all_features() -> Vcl {
    Vcl {
        hybrid_update: true,
        snarfing: true,
        trust_stale: true,
        update_limit: 2,
        retain_flushed: true,
    }
}

/// No PU may appear twice: the version order list is a simple chain, so
/// any duplicate would be a cycle.
fn assert_vol_acyclic(vol: &[PuId]) {
    for (i, a) in vol.iter().enumerate() {
        for b in &vol[i + 1..] {
            assert!(a != b, "PU {a:?} appears twice in the VOL: {vol:?}");
        }
    }
}

/// Each sub-block has at most one flush winner across all PUs — the
/// single most recent committed version of a chain supplies each block.
fn assert_unique_winners(flush: &[(PuId, SubMask)]) {
    for j in 0..4usize {
        let holders = flush.iter().filter(|(_, m)| m.contains(j)).count();
        assert!(
            holders <= 1,
            "sub-block {j} has {holders} flush winners: {flush:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `plan_read` invariants for ANY line state: the resulting VOL is
    /// acyclic, flush winners are unique per sub-block, purge/demote
    /// target distinct committed lines, fill covers exactly the request,
    /// and the requestor always ends up in the VOL.
    #[test]
    fn plan_read_invariants(
        snaps in rich_snapshots_strategy(),
        requestor in 0usize..4,
        task in 100u64..108,
        fill_bits in 1u64..16,
    ) {
        let fill_mask = SubMask(fill_bits);
        // Snarf candidates must hold NO copy of the line (the documented
        // precondition: "caches with a free slot and no copy").
        let candidates: Vec<(PuId, TaskId)> = (0..4)
            .filter(|&q| q != requestor && snaps[q].valid.is_empty())
            .map(|q| (PuId(q), TaskId(200 + q as u64)))
            .collect();
        let plan = vcl_all_features().plan_read(
            &snaps, PuId(requestor), TaskId(task), Some(TaskId(0)), fill_mask, &candidates,
        );
        assert_vol_acyclic(&plan.vol_after);
        assert_unique_winners(&plan.flush);
        prop_assert!(
            plan.vol_after.contains(&PuId(requestor)),
            "the requestor joins the VOL"
        );
        // Fill covers exactly the requested sub-blocks, each once.
        let mut filled: Vec<usize> = plan.fill.iter().map(|&(j, _)| j).collect();
        filled.sort_unstable();
        let expected: Vec<usize> = fill_mask.iter().collect();
        prop_assert_eq!(filled, expected);
        // Purge and demote are disjoint and committed-only.
        for pu in &plan.purge {
            prop_assert!(!plan.demote.contains(pu), "purge ∩ demote = ∅");
            prop_assert!(snaps[pu.index()].committed, "only committed lines purge");
        }
        for pu in &plan.demote {
            prop_assert!(snaps[pu.index()].committed, "only committed lines demote");
        }
        // Snarfers come from the candidate list.
        for pu in &plan.snarfers {
            prop_assert!(candidates.iter().any(|&(q, _)| q == *pu));
        }
    }

    /// `plan_write` invariants: acyclic VOL containing the requestor,
    /// unique flush winners, victims only among younger tasks that
    /// recorded a use of the stored sub-blocks, and committed-only
    /// purges.
    #[test]
    fn plan_write_invariants(
        snaps in rich_snapshots_strategy(),
        requestor in 0usize..4,
        task in 0u64..40,
        store_bits in 1u64..16,
    ) {
        let store_mask = SubMask(store_bits);
        let plan = vcl_all_features().plan_write(
            &snaps, PuId(requestor), TaskId(task), store_mask, SubMask::EMPTY,
        );
        assert_vol_acyclic(&plan.vol_after);
        assert_unique_winners(&plan.flush);
        prop_assert!(plan.vol_after.contains(&PuId(requestor)));
        for &(pu, vtask) in &plan.victims {
            let s = &snaps[pu.index()];
            prop_assert!(!s.committed, "victims are uncommitted");
            prop_assert!(
                s.load.intersects(store_mask),
                "a victim recorded a use of a stored sub-block"
            );
            prop_assert!(
                TaskId(task).is_older_than(vtask),
                "victims are strictly younger than the storer"
            );
        }
        for pu in &plan.purge {
            prop_assert!(snaps[pu.index()].committed);
        }
        // A PU is never both updated and invalidated.
        for pu in &plan.update {
            prop_assert!(
                !plan.invalidate.iter().any(|&(q, _)| q == *pu),
                "update ∩ invalidate = ∅"
            );
        }
    }

    /// `plan_wback` invariants: the evictor leaves the VOL, every
    /// committed line purges, flush winners stay unique and never
    /// overlap the evicted write (the castout supersedes them).
    #[test]
    fn plan_wback_invariants(
        snaps in rich_snapshots_strategy(),
        evictor in 0usize..4,
    ) {
        // The evictor must actually hold the line.
        let mut snaps = snaps;
        if snaps[evictor].valid.is_empty() {
            snaps[evictor].valid = SubMask(1);
        }
        let plan = vcl_all_features().plan_wback(&snaps, PuId(evictor));
        assert_vol_acyclic(&plan.vol_after);
        assert_unique_winners(&plan.flush);
        prop_assert!(
            !plan.vol_after.contains(&PuId(evictor)),
            "the evictor leaves the VOL"
        );
        prop_assert!(
            plan.purge.contains(&PuId(evictor)),
            "the evictor's own line is always purged by its castout"
        );
        for &(pu, mask) in &plan.flush {
            prop_assert!(pu != PuId(evictor), "the castout is not also flushed");
            if !snaps[evictor].committed {
                prop_assert!(
                    !mask.intersects(plan.write_evicted),
                    "active castout supersedes committed sub-blocks"
                );
            }
        }
    }
}
