//! Export a generated workload as a text trace, re-import it, and run
//! both through the simulator — external traces are first-class inputs.
//!
//! Run with: `cargo run --release --example trace_roundtrip`

use svc_repro::bench::{run_source, MemoryKind, RunOptions};
use svc_repro::multiscalar::{EngineConfig, TaskSource};
use svc_repro::types::TaskId;
use svc_repro::workloads::{kernels, parse_trace, render_trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Any TaskSource can be exported; here, the false-sharing kernel.
    let original = kernels::false_sharing(400, 2);
    let text = render_trace(&original);
    println!(
        "rendered {} tasks to a {}-line trace; first lines:\n",
        400,
        text.lines().count()
    );
    for line in text.lines().take(8) {
        println!("  {line}");
    }

    // Parse it back and verify the round trip.
    let imported = parse_trace(&text)?;
    for i in 0..400 {
        assert_eq!(original.task(TaskId(i)), imported.task(TaskId(i)));
    }
    println!("\nround trip verified for all tasks ✓");

    // Run both; the simulation is deterministic, so results must match.
    let (cfg, opts) = (EngineConfig::default(), RunOptions::default());
    let a = run_source(&original, MemoryKind::Svc { kb_per_cache: 8 }, cfg, &opts);
    let b = run_source(&imported, MemoryKind::Svc { kb_per_cache: 8 }, cfg, &opts);
    println!("original IPC {:.3}, imported IPC {:.3}", a.ipc, b.ipc);
    assert_eq!(a.report, b.report);
    println!("identical runs ✓ (use `svc-sim run --trace FILE` for your own traces)");
    Ok(())
}
