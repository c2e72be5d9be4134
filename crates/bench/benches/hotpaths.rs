//! Micro-benchmarks for the simulator's per-transaction hot paths — the
//! allocation-free layers the throughput work targets: pure VCL
//! planning (`plan_read`/`plan_write`), VOL reconstruction from snooped
//! snapshots, cache-array lookup and victim selection, snooping-bus
//! arbitration, an SVC commit, an ARB access that reclaims a row, and
//! the ARB row index's hasher. Each runs thousands of times per
//! simulated kilocycle, so these are the numbers that move
//! `sim_cycles_per_sec`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, RandomState};

use criterion::{criterion_group, criterion_main, BatchSize, Bencher, Criterion};
use std::hint::black_box;

use svc::{order_vol, LineSnapshot, SubMask, SvcConfig, SvcSystem, Vcl};
use svc_arb::{ArbConfig, ArbSystem};
use svc_mem::{Bus, CacheArray, CacheGeometry, Slot};
use svc_multiscalar::{Instr, TaskSource};
use svc_types::{Addr, Cycle, KeyHasher, LineId, PuId, TaskId, VersionedMemory, Word};
use svc_workloads::Spec95;

/// A realistic snooped line: two committed copies (one the head of the
/// committed chain) and two uncommitted versions in task order, linked
/// by their VOL pointers.
fn snapshots() -> [LineSnapshot; 4] {
    let snap = |i: usize, task, valid: u64, store: u64, committed, next| LineSnapshot {
        pu: PuId(i),
        task,
        valid: SubMask(valid),
        store: SubMask(store),
        load: SubMask::EMPTY,
        committed,
        stale: false,
        arch: false,
        next,
    };
    [
        snap(0, Some(TaskId(4)), 0b1111, 0b0011, true, Some(PuId(1))),
        snap(1, Some(TaskId(5)), 0b1111, 0b0100, true, Some(PuId(2))),
        snap(2, Some(TaskId(6)), 0b1111, 0b1000, false, Some(PuId(3))),
        snap(3, Some(TaskId(7)), 0b0011, 0b0001, false, None),
    ]
}

/// A line held by 64 PUs, the wide-machine worst case: a 48-copy
/// committed chain threaded through the PUs out of index order (PU `i`
/// points at `i + 7 mod 48`, PU 0 heads it, PU 41 ends it; PU 3 holds a
/// committed version), then 16 uncommitted copies whose tasks run
/// against PU order, the youngest (PU 48) holding a version.
fn snapshots_64() -> Vec<LineSnapshot> {
    (0..64)
        .map(|i| {
            let committed = i < 48;
            LineSnapshot {
                pu: PuId(i),
                task: Some(TaskId(200 - i as u64)),
                valid: SubMask(0b1111),
                store: SubMask(if i == 48 || i == 3 { 0b0001 } else { 0 }),
                load: SubMask::EMPTY,
                committed,
                stale: false,
                arch: false,
                next: committed.then(|| PuId((i + 7) % 48)).filter(|_| i != 41),
            }
        })
        .collect()
}

fn vcl(c: &mut Criterion) {
    let mut g = c.benchmark_group("vcl");
    let vcl = Vcl {
        hybrid_update: true,
        snarfing: true,
        trust_stale: true,
        update_limit: 4,
        retain_flushed: true,
    };
    let snaps = snapshots();
    let snarf = [(PuId(1), TaskId(5))];
    let wide = snapshots_64();

    g.bench_function("plan_read", |bench| {
        bench.iter(|| {
            black_box(vcl.plan_read(
                black_box(&snaps),
                PuId(3),
                TaskId(7),
                Some(TaskId(4)),
                SubMask(0b1100),
                &snarf,
            ))
        })
    });

    g.bench_function("plan_read_64_holders", |bench| {
        bench.iter(|| {
            black_box(vcl.plan_read(
                black_box(&wide),
                PuId(5),
                TaskId(195),
                Some(TaskId(137)),
                SubMask(0b1111),
                &[],
            ))
        })
    });

    g.bench_function("plan_write", |bench| {
        bench.iter(|| {
            black_box(vcl.plan_write(
                black_box(&snaps),
                PuId(3),
                TaskId(7),
                SubMask(0b0100),
                SubMask(0b1000),
            ))
        })
    });
    g.finish();
}

fn vol(c: &mut Criterion) {
    let mut g = c.benchmark_group("vol");
    let snaps = snapshots();
    g.bench_function("order_vol_splice", |bench| {
        bench.iter(|| black_box(order_vol(black_box(&snaps))))
    });
    let wide = snapshots_64();
    g.bench_function("order_vol_64_holders", |bench| {
        bench.iter(|| black_box(order_vol(black_box(&wide))))
    });
    g.finish();
}

/// Minimal slot for exercising the tag array alone.
#[derive(Debug, Clone, Default)]
struct TagSlot {
    line: Option<LineId>,
}

impl Slot for TagSlot {
    fn held_line(&self) -> Option<LineId> {
        self.line
    }
}

fn cache_array(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_array");
    // The paper's 8KB 4-way point: 32 sets of 16-byte lines.
    let geometry = CacheGeometry::new(32, 4, 4, 4);
    let mut array: CacheArray<TagSlot> = CacheArray::new(geometry);
    for i in 0..96u64 {
        let line = LineId(i);
        let r = array.victim_way(line);
        array.slot_mut(r).line = Some(line);
        array.touch(r);
    }

    g.bench_function("find_hit", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 1) % 96;
            black_box(array.find(black_box(LineId(i))))
        })
    });

    g.bench_function("find_miss", |bench| {
        bench.iter(|| black_box(array.find(black_box(LineId(4096)))))
    });

    g.bench_function("victim_way", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 1) % 128;
            black_box(array.victim_way(black_box(LineId(i))))
        })
    });
    g.finish();
}

fn bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus");
    g.bench_function("arbitration", |bench| {
        // The paper's pipelined bus; contended grants back to back.
        let mut bus = Bus::pipelined(4, 2);
        let mut now = Cycle(0);
        bench.iter(|| {
            now += 1;
            black_box(bus.transact(now, 1))
        })
    });
    g.finish();
}

/// Times `op` on a fresh clone of `system` per call. Clones are made and
/// dropped outside the timed region.
fn on_clone<T: Clone, O>(b: &mut Bencher, system: &T, mut op: impl FnMut(&mut T) -> O) {
    let spent = RefCell::new(None);
    b.iter_batched(
        || {
            spent.borrow_mut().take();
            system.clone()
        },
        |mut s| {
            let out = op(&mut s);
            *spent.borrow_mut() = Some(s);
            out
        },
        BatchSize::LargeInput,
    );
}

/// Lines a gcc task touches: 18 instructions on average, 40% of them
/// memory accesses.
const GCC_FOOTPRINT: u64 = 7;

/// A 4-PU final-design SVC at the paper's 8 KB point, just before PU 0
/// commits: an earlier task filled all 512 lines of its cache and
/// committed, and the current one has loaded five of them and stored to
/// two.
fn svc_before_commit() -> SvcSystem {
    let mut sys = SvcSystem::new(SvcConfig::final_design(4));
    let g = sys.config().geometry;
    let (lines, wpl) = (g.lines() as u64, g.words_per_line() as u64);
    sys.assign(PuId(0), TaskId(0));
    for line in 0..lines {
        sys.load(PuId(0), Addr(line * wpl), Cycle(line))
            .expect("a free way");
    }
    sys.commit(PuId(0), Cycle(lines));
    sys.assign(PuId(0), TaskId(1));
    for k in 0..GCC_FOOTPRINT {
        let addr = Addr(k * 61 % lines * wpl);
        let now = Cycle(lines + 1 + k);
        if k < 5 {
            sys.load(PuId(0), addr, now).expect("a local reuse");
        } else {
            sys.store(PuId(0), addr, Word(k), now)
                .expect("a silent store");
        }
    }
    assert_eq!(sys.profile_gauges(Cycle(0)).live_versions, GCC_FOOTPRINT);
    sys
}

fn svc(c: &mut Criterion) {
    let mut g = c.benchmark_group("svc");
    let sys = svc_before_commit();
    g.bench_function("commit_8kb", |b| {
        on_clone(b, &sys, |s| s.commit(PuId(0), Cycle(1 << 20)))
    });
    g.finish();
}

/// The paper's 4-PU ARB with all 256 rows in use and none speculative:
/// PU 0's task loaded 256 addresses and committed, and PU 1 runs the
/// next task.
fn arb_rows_full() -> ArbSystem {
    let mut arb = ArbSystem::new(ArbConfig::paper(4, 1, 32));
    arb.assign(PuId(0), TaskId(0));
    for a in 0..256 {
        arb.load(PuId(0), Addr(a), Cycle(a)).expect("a free row");
    }
    arb.commit(PuId(0), Cycle(256));
    arb.assign(PuId(1), TaskId(1));
    arb
}

fn arb(c: &mut Criterion) {
    let mut g = c.benchmark_group("arb");
    let arb = arb_rows_full();
    let mut addr = 1 << 20;
    g.bench_function("load_reclaim_full", |b| {
        on_clone(b, &arb, |a| {
            addr += 1;
            a.load(PuId(1), Addr(addr), Cycle(300))
        })
    });
    g.finish();
}

/// The word addresses of gcc's first tasks, in program order.
fn gcc_addresses() -> Vec<Addr> {
    let gcc = Spec95::Gcc.workload(42);
    (0..2_000)
        .flat_map(|t| gcc.task(TaskId(t)).expect("gcc has 2,000 tasks"))
        .filter_map(|i| match i {
            Instr::Load(a) | Instr::Store(a, _) => Some(a),
            Instr::Compute(_) => None,
        })
        .collect()
}

/// The ARB row index's work over an address trace: at most 256
/// resident addresses, replaced first in first out; a lookup per
/// access, and an insert and a removal per miss. Returns the hits.
fn index_trace<S: BuildHasher + Default>(trace: &[Addr]) -> usize {
    let mut index: HashMap<Addr, usize, S> = HashMap::with_capacity_and_hasher(256, S::default());
    let mut resident = [None; 256];
    let (mut hits, mut misses) = (0, 0);
    for &a in trace {
        if index.contains_key(&a) {
            hits += 1;
            continue;
        }
        let row = misses % 256;
        misses += 1;
        if let Some(old) = resident[row].replace(a) {
            index.remove(&old);
        }
        index.insert(a, row);
    }
    hits
}

fn index(c: &mut Criterion) {
    let mut g = c.benchmark_group("index");
    let trace = gcc_addresses();
    g.bench_function("siphash_gcc_trace", |b| {
        b.iter(|| index_trace::<RandomState>(black_box(&trace)))
    });
    g.bench_function("keyhasher_gcc_trace", |b| {
        b.iter(|| index_trace::<BuildHasherDefault<KeyHasher>>(black_box(&trace)))
    });
    g.finish();
}

criterion_group!(benches, vcl, vol, cache_array, bus, svc, arb, index);
criterion_main!(benches);
