//! Cross-crate integration: the full stack (workload model → multiscalar
//! engine → memory system) must preserve sequential semantics on every
//! memory system, and the three memory systems must agree with each
//! other.

use svc_repro::arb::{ArbConfig, ArbSystem};
use svc_repro::multiscalar::{Engine, EngineConfig, TaskSource};
use svc_repro::svc::conformance::{run_lockstep, Workload};
use svc_repro::svc::{IdealMemory, SvcConfig, SvcSystem};
use svc_repro::types::{Addr, TaskId, VersionedMemory, Word};
use svc_repro::workloads::{kernels, Spec95, SyntheticWorkload, WorkloadProfile};

/// Runs a full engine execution and returns the drained memory system.
fn run_engine<M: VersionedMemory>(mem: M, src: &dyn TaskSource, seed: u64) -> M {
    let profile = WorkloadProfile::demo();
    let cfg = EngineConfig {
        num_pus: mem.num_pus(),
        predictor: profile.predictor(seed),
        seed,
        garbage_addr_space: 128,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(cfg, mem);
    let report = engine.run(src);
    assert!(!report.hit_cycle_limit, "engine converged");
    let mut mem = engine.into_memory();
    mem.drain();
    mem
}

/// The set of addresses a workload's tasks can touch (collected from the
/// task descriptions themselves).
fn touched(src: &dyn TaskSource) -> Vec<Addr> {
    use svc_repro::multiscalar::Instr;
    let mut addrs = Vec::new();
    let mut id = 0;
    while let Some(task) = src.task(TaskId(id)) {
        for ins in task {
            match ins {
                Instr::Load(a) | Instr::Store(a, _) => {
                    if !addrs.contains(&a) {
                        addrs.push(a);
                    }
                }
                Instr::Compute(_) => {}
            }
        }
        id += 1;
    }
    addrs
}

#[test]
fn all_memory_systems_commit_identical_state_on_synthetic_workload() {
    let mut profile = WorkloadProfile::demo();
    profile.num_tasks = 400;
    profile.mispredict_rate = 0.03;
    let wl = SyntheticWorkload::new(profile, 11);

    let ideal = run_engine(IdealMemory::new(4, 1), &wl, 11);
    let svc = run_engine(SvcSystem::new(SvcConfig::final_design(4)), &wl, 11);
    let base = run_engine(SvcSystem::new(SvcConfig::base(4)), &wl, 11);
    let arb = run_engine(ArbSystem::new(ArbConfig::paper(4, 2, 32)), &wl, 11);

    for a in touched(&wl) {
        let want = ideal.architectural(a);
        assert_eq!(svc.architectural(a), want, "svc-final at {a}");
        assert_eq!(base.architectural(a), want, "svc-base at {a}");
        assert_eq!(arb.architectural(a), want, "arb at {a}");
    }
}

#[test]
fn spec95_models_run_on_both_memory_systems() {
    // A quick run of each benchmark model on both systems: no panics, all
    // metrics in range. (The full-budget runs are the `paper` binary's.)
    use svc_repro::bench::{run_spec95_with, MemoryKind, RunOptions};
    let opts = RunOptions::default();
    for b in Spec95::ALL {
        let svc = run_spec95_with(b, MemoryKind::Svc { kb_per_cache: 8 }, 8_000, 3, &opts);
        let arb = run_spec95_with(
            b,
            MemoryKind::Arb {
                hit_cycles: 2,
                cache_kb: 32,
            },
            8_000,
            3,
            &opts,
        );
        for r in [&svc, &arb] {
            assert!(r.ipc > 0.1 && r.ipc < 8.0, "{b}: ipc {}", r.ipc);
            assert!(r.miss_ratio < 0.5, "{b}: miss {}", r.miss_ratio);
            assert!(!r.report.hit_cycle_limit, "{b} converged");
        }
        assert!(svc.bus_utilization > 0.0 && svc.bus_utilization < 1.0);
    }
}

#[test]
fn kernels_preserve_sequential_semantics_under_heavy_speculation() {
    for (name, src) in [
        ("producer_consumer", kernels::producer_consumer(120, 4)),
        ("reduction", kernels::reduction(120, 2)),
        ("false_sharing", kernels::false_sharing(120, 2)),
    ] {
        let ideal = run_engine(IdealMemory::new(4, 1), &src, 5);
        let svc = run_engine(SvcSystem::new(SvcConfig::final_design(4)), &src, 5);
        for a in touched(&src) {
            assert_eq!(
                svc.architectural(a),
                ideal.architectural(a),
                "{name} at {a}"
            );
        }
    }
}

#[test]
fn coherence_baseline_agrees_with_flat_memory_under_engine_free_use() {
    // The MRSW substrate is not speculative, but it must agree with a
    // flat-memory model when driven sequentially (see svc-coherence's own
    // suite for concurrent cases).
    use svc_repro::coherence::{SmpConfig, SmpSystem};
    use svc_repro::types::{Cycle, PuId};
    let mut smp = SmpSystem::new(SmpConfig::small_for_tests());
    let mut model = std::collections::HashMap::new();
    let mut now = Cycle(0);
    for i in 0..500u64 {
        let a = Addr(i % 64);
        if i % 3 == 0 {
            now = smp.store(PuId((i % 4) as usize), a, Word(i), now);
            model.insert(a, Word(i));
        } else {
            let out = smp.load(PuId((i % 4) as usize), a, now);
            now = out.done_at;
            assert_eq!(out.value, model.get(&a).copied().unwrap_or(Word::ZERO));
        }
    }
    smp.assert_coherent();
}

#[test]
fn arb_and_svc_conform_on_the_same_random_workloads() {
    for seed in 0..6 {
        let wl = Workload::random(seed, 20, 24, 4);
        run_lockstep(&wl, SvcSystem::new(SvcConfig::final_design(4)), seed);
        run_lockstep(&wl, ArbSystem::new(ArbConfig::paper(4, 1, 32)), seed);
    }
}

#[test]
fn smp_versioned_shim_stays_coherent_under_concurrent_interleavings() {
    // Concurrent complement to the sequential test above: all four PUs
    // hold live tasks at once and their loads/stores interleave. The MRSW
    // substrate is non-speculative, so every store is immediately part of
    // the coherent image — a flat map is the exact oracle (the same one
    // the model checker pins for the `smp` design). The snooped caches
    // must agree with it at every load AND stay mutually coherent.
    use svc_repro::coherence::{SmpConfig, SmpVersioned};
    use svc_repro::types::{Cycle, PuId};
    let mut smp = SmpVersioned::new(SmpConfig::small_for_tests());
    let pus = smp.num_pus();
    let mut model = std::collections::HashMap::new();
    let mut now = Cycle(0);
    let mut next_task = 0u64;
    for pu in 0..pus {
        smp.assign(PuId(pu), TaskId(next_task));
        next_task += 1;
    }
    // Deterministic xorshift mix so consecutive ops hop PUs and addresses
    // (sharing, invalidation, and write-back traffic all occur).
    let mut rng = 0x5EED_u64;
    for _ in 0..2_000 {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let pu = PuId((rng % pus as u64) as usize);
        let a = Addr((rng >> 8) % 16);
        now += 1;
        match (rng >> 16) % 8 {
            0..=2 => {
                let st = smp.store(pu, a, Word(rng >> 24), now).unwrap();
                assert!(st.violation.is_none(), "MRSW never detects violations");
                model.insert(a, Word(rng >> 24));
            }
            3 => {
                // Retire and redispatch, so task ids keep advancing.
                smp.commit(pu, now);
                smp.assign(pu, TaskId(next_task));
                next_task += 1;
            }
            _ => {
                let out = smp.load(pu, a, now).unwrap();
                assert_eq!(
                    out.value,
                    model.get(&a).copied().unwrap_or(Word::ZERO),
                    "stale copy readable at {a} on {pu:?}"
                );
            }
        }
        smp.system().assert_coherent();
    }
    for a in (0..16).map(Addr) {
        assert_eq!(
            smp.architectural(a),
            model.get(&a).copied().unwrap_or(Word::ZERO),
            "final image diverged at {a}"
        );
    }
    assert!(smp.check_invariants(now).is_empty());

    // Deep random walks through the model checker's bounded alphabet must
    // replay clean too (the checker's flat oracle makes the same claim
    // exhaustively for short runs; the walks probe far past its horizon).
    use svc_repro::check::{random_walk, replay_design, DesignId};
    for seed in 0..8 {
        let script = random_walk(DesignId::Smp, seed, 64);
        let out = replay_design(DesignId::Smp, &script.actions).unwrap();
        assert!(
            out.failure.is_none(),
            "{:?}\n{}",
            out.failure,
            script.render()
        );
    }
}

#[test]
fn lsq_baseline_conforms_to_the_ideal_oracle() {
    use svc_repro::lsq::{LsqConfig, LsqMemory};
    // Lockstep conformance: loads, violation victims and squash recovery
    // must match IdealMemory step for step.
    for seed in 0..4 {
        let wl = Workload::random(seed, 16, 24, 4);
        run_lockstep(&wl, LsqMemory::new(LsqConfig::default()), seed);
    }
    // And a full engine run (dispatch, mispredicts, violations, squashes)
    // must commit exactly the ideal architectural state.
    let mut profile = WorkloadProfile::demo();
    profile.num_tasks = 200;
    profile.mispredict_rate = 0.03;
    let wl = SyntheticWorkload::new(profile, 23);
    let ideal = run_engine(IdealMemory::new(4, 1), &wl, 23);
    let lsq = run_engine(LsqMemory::new(LsqConfig::default()), &wl, 23);
    for a in touched(&wl) {
        assert_eq!(lsq.architectural(a), ideal.architectural(a), "lsq at {a}");
    }
}
