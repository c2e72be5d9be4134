//! Criterion benches, one group per paper artifact.
//!
//! `table_2` / `table_3` / `figure_19` / `figure_20` benchmark the
//! *simulation runs* behind each artifact (at a reduced instruction
//! budget — the printed tables come from the `paper` binary, which runs
//! the full budget). `protocol` micro-benchmarks the SVC's hot paths
//! (local hits, bus transactions with VCL planning,
//! commits and squashes) and `baselines` the ARB and ideal-memory
//! equivalents — these are the numbers that matter for using this crate
//! as a research simulator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use svc::{IdealMemory, SvcConfig, SvcSystem};
use svc_arb::{ArbConfig, ArbSystem};
use svc_bench::{run_spec95_with, MemoryKind};
use svc_types::{Addr, Cycle, PuId, TaskId, VersionedMemory, Word};
use svc_workloads::Spec95;

const BENCH_BUDGET: u64 = 8_000;

fn table_2(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_miss_ratios");
    g.sample_size(10);
    for b in [Spec95::Compress, Spec95::Mgrid] {
        g.bench_function(format!("svc_4x8KB/{b}"), |bench| {
            bench.iter(|| {
                black_box(run_spec95_with(
                    b,
                    MemoryKind::Svc { kb_per_cache: 8 },
                    BENCH_BUDGET,
                    42,
                ))
            })
        });
        g.bench_function(format!("arb_32KB/{b}"), |bench| {
            bench.iter(|| {
                black_box(run_spec95_with(
                    b,
                    MemoryKind::Arb {
                        hit_cycles: 1,
                        cache_kb: 32,
                    },
                    BENCH_BUDGET,
                    42,
                ))
            })
        });
    }
    g.finish();
}

fn table_3(c: &mut Criterion) {
    let mut g = c.benchmark_group("table3_bus_utilization");
    g.sample_size(10);
    for kb in [8usize, 16] {
        g.bench_function(format!("svc_4x{kb}KB/gcc"), |bench| {
            bench.iter(|| {
                black_box(run_spec95_with(
                    Spec95::Gcc,
                    MemoryKind::Svc { kb_per_cache: kb },
                    BENCH_BUDGET,
                    42,
                ))
            })
        });
    }
    g.finish();
}

fn figure_19(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig19_ipc_32KB");
    g.sample_size(10);
    for hit in [1u64, 4] {
        g.bench_function(format!("arb_{hit}c/gcc"), |bench| {
            bench.iter(|| {
                black_box(run_spec95_with(
                    Spec95::Gcc,
                    MemoryKind::Arb {
                        hit_cycles: hit,
                        cache_kb: 32,
                    },
                    BENCH_BUDGET,
                    42,
                ))
            })
        });
    }
    g.bench_function("svc_1c/gcc", |bench| {
        bench.iter(|| {
            black_box(run_spec95_with(
                Spec95::Gcc,
                MemoryKind::Svc { kb_per_cache: 8 },
                BENCH_BUDGET,
                42,
            ))
        })
    });
    g.finish();
}

fn figure_20(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig20_ipc_64KB");
    g.sample_size(10);
    g.bench_function("arb_2c_64KB/mgrid", |bench| {
        bench.iter(|| {
            black_box(run_spec95_with(
                Spec95::Mgrid,
                MemoryKind::Arb {
                    hit_cycles: 2,
                    cache_kb: 64,
                },
                BENCH_BUDGET,
                42,
            ))
        })
    });
    g.bench_function("svc_4x16KB/mgrid", |bench| {
        bench.iter(|| {
            black_box(run_spec95_with(
                Spec95::Mgrid,
                MemoryKind::Svc { kb_per_cache: 16 },
                BENCH_BUDGET,
                42,
            ))
        })
    });
    g.finish();
}

/// SVC protocol hot paths.
fn protocol(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol");

    g.bench_function("svc_local_load_hit", |bench| {
        let mut svc = SvcSystem::new(SvcConfig::final_design(4));
        svc.assign(PuId(0), TaskId(0));
        svc.store(PuId(0), Addr(0), Word(1), Cycle(0))
            .expect("warm");
        let mut now = Cycle(10);
        bench.iter(|| {
            now += 1;
            black_box(svc.load(PuId(0), Addr(0), now).expect("hit"))
        })
    });

    g.bench_function("svc_local_store_hit", |bench| {
        let mut svc = SvcSystem::new(SvcConfig::final_design(4));
        svc.assign(PuId(0), TaskId(0));
        svc.store(PuId(0), Addr(0), Word(1), Cycle(0))
            .expect("warm");
        let mut now = Cycle(10);
        bench.iter(|| {
            now += 1;
            black_box(svc.store(PuId(0), Addr(0), Word(now.0), now).expect("hit"))
        })
    });

    g.bench_function("svc_bus_transfer_with_vcl", |bench| {
        // Repeatedly bounce a line between two tasks' caches: every access
        // is a bus transaction planned by the VCL.
        bench.iter_batched(
            || {
                let mut svc = SvcSystem::new(SvcConfig::final_design(4));
                svc.assign(PuId(0), TaskId(0));
                svc.assign(PuId(1), TaskId(1));
                svc.store(PuId(0), Addr(0), Word(1), Cycle(0))
                    .expect("seed");
                svc
            },
            |mut svc| {
                for i in 0..32u64 {
                    black_box(svc.load(PuId(1), Addr(0), Cycle(10 + i)).expect("xfer"));
                    black_box(
                        svc.store(PuId(0), Addr(0), Word(i), Cycle(11 + i))
                            .expect("inval"),
                    );
                }
                svc
            },
            BatchSize::SmallInput,
        )
    });

    g.bench_function("svc_commit_squash_cycle", |bench| {
        bench.iter_batched(
            || {
                let mut svc = SvcSystem::new(SvcConfig::final_design(4));
                svc.assign(PuId(0), TaskId(0));
                for a in 0..64u64 {
                    svc.store(PuId(0), Addr(a * 4), Word(a), Cycle(a))
                        .expect("fill");
                }
                svc
            },
            |mut svc| {
                svc.commit(PuId(0), Cycle(1000));
                svc.assign(PuId(0), TaskId(1));
                svc.squash(PuId(0));
                svc
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

/// ARB and ideal-memory equivalents, for speed comparison.
fn baselines(c: &mut Criterion) {
    let mut g = c.benchmark_group("baselines");

    g.bench_function("arb_store_load_pair", |bench| {
        let mut arb = ArbSystem::new(ArbConfig::paper(4, 1, 32));
        arb.assign(PuId(0), TaskId(0));
        arb.assign(PuId(1), TaskId(1));
        let mut now = Cycle(0);
        bench.iter(|| {
            now += 1;
            arb.store(PuId(0), Addr(0), Word(now.0), now)
                .expect("store");
            black_box(arb.load(PuId(1), Addr(0), now).expect("load"))
        })
    });

    g.bench_function("ideal_store_load_pair", |bench| {
        let mut m = IdealMemory::new(4, 1);
        m.assign(PuId(0), TaskId(0));
        m.assign(PuId(1), TaskId(1));
        let mut now = Cycle(0);
        bench.iter(|| {
            now += 1;
            m.store(PuId(0), Addr(0), Word(now.0), now).expect("store");
            black_box(m.load(PuId(1), Addr(0), now).expect("load"))
        })
    });
    g.finish();
}

criterion_group!(benches, table_2, table_3, figure_19, figure_20, protocol, baselines);
criterion_main!(benches);
