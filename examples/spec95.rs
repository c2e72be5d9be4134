//! Run one SPEC95 benchmark model end-to-end on the multiscalar engine,
//! with the SVC and the ARB side by side, and print the paper's metrics.
//!
//! Usage: `cargo run --release --example spec95 [benchmark] [budget]`
//! where `benchmark` is one of compress, gcc, vortex, perl, ijpeg, mgrid,
//! apsi (default: gcc) and `budget` is the committed-instruction budget
//! (default: 200000).

use svc_repro::bench::{run_spec95_with, MemoryKind, RunOptions};
use svc_repro::workloads::Spec95;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("gcc");
    let budget: u64 = args.get(2).and_then(|v| v.parse().ok()).unwrap_or(200_000);
    let bench = Spec95::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark {name:?}; use one of:");
            for b in Spec95::ALL {
                eprintln!("  {b}");
            }
            std::process::exit(2);
        });

    println!("benchmark {bench}, {budget} committed instructions\n");
    for memory in [
        MemoryKind::Svc { kb_per_cache: 8 },
        MemoryKind::Arb {
            hit_cycles: 1,
            cache_kb: 32,
        },
        MemoryKind::Arb {
            hit_cycles: 2,
            cache_kb: 32,
        },
    ] {
        let r = run_spec95_with(bench, memory, budget, 42, &RunOptions::default());
        println!("{}:", r.memory);
        println!("  IPC              {:.2}", r.ipc);
        println!("  miss ratio       {:.3}", r.miss_ratio);
        if r.bus_utilization > 0.0 {
            println!("  bus utilization  {:.3}", r.bus_utilization);
        }
        println!(
            "  tasks committed  {} ({} squashes, {} mispredictions)",
            r.report.committed_tasks, r.report.squashes, r.report.mispredictions
        );
        println!(
            "  memory events    {} loads, {} stores, {} fills, {} transfers, {} writebacks\n",
            r.report.mem.loads,
            r.report.mem.stores,
            r.report.mem.next_level_fills,
            r.report.mem.cache_transfers,
            r.report.mem.writebacks
        );
    }
}
