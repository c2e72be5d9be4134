//! Property-based tests for the shared vocabulary types.

use proptest::prelude::*;
use svc_types::{
    Addr, Checkpointable, CkptReader, CkptWriter, Cycle, PuId, TaskAssignments, TaskId,
};

proptest! {
    /// Line/offset slicing round-trips for any address and line size.
    #[test]
    fn addr_line_roundtrip(raw in 0u64..1_000_000, wpl in 1usize..64) {
        let a = Addr(raw);
        let line = a.line(wpl);
        let off = a.offset_in_line(wpl);
        prop_assert!(off < wpl);
        prop_assert_eq!(line.word(off, wpl), a);
        prop_assert_eq!(line.first_word(wpl), line.word(0, wpl));
    }

    /// Cycle::max agrees with u64 max; since() saturates.
    #[test]
    fn cycle_laws(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        prop_assert_eq!(Cycle(a).max(Cycle(b)).0, a.max(b));
        prop_assert_eq!(Cycle(a).since(Cycle(b)), a.saturating_sub(b));
        prop_assert_eq!((Cycle(a) + b) - Cycle(a), b);
    }

    /// TaskId order mirrors u64 order and is a strict total order.
    #[test]
    fn task_order_strict(a in 0u64..10_000, b in 0u64..10_000) {
        let (ta, tb) = (TaskId(a), TaskId(b));
        prop_assert_eq!(ta.is_older_than(tb), a < b);
        prop_assert!(!(ta.is_older_than(tb) && tb.is_older_than(ta)));
        if a != b {
            prop_assert!(ta.is_older_than(tb) || tb.is_older_than(ta));
        }
    }
}

/// A random sequence of assignment operations.
fn assignment_ops() -> impl Strategy<Value = Vec<(u8, u8, u16)>> {
    // (op, pu, task): op 0 = assign, 1 = release, 2 = checkpoint round
    // trip into a fresh table
    proptest::collection::vec((0u8..3, 0u8..6, 0u16..64), 0..40)
}

proptest! {
    /// After any operation sequence: program_order is sorted by task id,
    /// contains exactly the occupied PUs, head/tail are its endpoints, and
    /// `precedes` is consistent with the order.
    #[test]
    fn assignments_invariants(ops in assignment_ops()) {
        let mut asg = TaskAssignments::new(6);
        let mut model: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (op, pu, task) in ops {
            let pu = pu as usize;
            let task = task as u64;
            match op {
                0 => {
                    // Skip assignments that would duplicate a live task.
                    let dup = model.iter().any(|(&p, &t)| t == task && p != pu);
                    if !dup {
                        asg.assign(PuId(pu), TaskId(task));
                        model.insert(pu, task);
                    }
                }
                1 => {
                    asg.release(PuId(pu));
                    model.remove(&pu);
                }
                _ => {
                    let mut w = CkptWriter::new();
                    asg.save_state(&mut w);
                    let bytes = w.into_bytes();
                    let mut restored = TaskAssignments::new(6);
                    restored.restore_state(&mut CkptReader::new(&bytes)).expect("round trip");
                    prop_assert_eq!(&restored, &asg);
                    asg = restored;
                }
            }
        }
        let order = asg.program_order();
        prop_assert_eq!(order.len(), model.len());
        let tasks: Vec<u64> = order
            .iter()
            .map(|&pu| model[&pu.index()])
            .collect();
        let mut sorted = tasks.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&tasks, &sorted, "program order sorted by task");
        prop_assert_eq!(asg.head(), order.first().copied());
        prop_assert_eq!(asg.tail(), order.last().copied());
        for w in order.windows(2) {
            prop_assert!(asg.precedes(w[0], w[1]));
            prop_assert!(!asg.precedes(w[1], w[0]));
        }
    }
}
