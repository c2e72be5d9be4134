//! Micro-benchmarks for the simulator's per-transaction hot paths — the
//! allocation-free layers the throughput work targets: pure VCL
//! planning (`plan_read`/`plan_write`), VOL reconstruction from snooped
//! snapshots, cache-array lookup and victim selection, and snooping-bus
//! arbitration. Each runs thousands of times per simulated kilocycle,
//! so these are the numbers that move `sim_cycles_per_sec`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use svc::{order_vol, LineSnapshot, SubMask, Vcl};
use svc_mem::{Bus, CacheArray, CacheGeometry, Slot};
use svc_types::{Cycle, LineId, PuId, TaskId};

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

criterion_group!(benches, vcl, vol, cache_array, bus);
criterion_main!(benches);
