use smallvec::SmallVec;

use crate::{PuId, TaskId};

/// Occupied PUs in task order; inline for up to 8 PUs (every paper
/// configuration).
type PuOrder = SmallVec<PuId, 8>;

/// The task-assignment table: which task each processing unit is currently
/// executing, if any.
///
/// The sequence of tasks assigned to the PUs "enforces an implicit total
/// order among the PUs" (paper §2.1, Figure 1). The SVC asks for the head
/// on every miss, and the ARB walks the order on every access to map PUs
/// to stages. Both memory systems receive assignment updates through
/// [`crate::VersionedMemory::assign`].
///
/// The order is cached: [`assign`](Self::assign) and
/// [`release`](Self::release) move the one PU they change and a
/// checkpoint restore rebuilds it, so
/// [`program_order`](Self::program_order), [`head`](Self::head) and
/// [`tail`](Self::tail) cost nothing per call. It is derived from the
/// assignments and never checkpointed.
///
/// # Example
///
/// ```
/// use svc_types::{PuId, TaskId, TaskAssignments};
/// let mut asg = TaskAssignments::new(4);
/// asg.assign(PuId(1), TaskId(10));
/// asg.assign(PuId(3), TaskId(11));
/// asg.assign(PuId(0), TaskId(12));
/// assert_eq!(asg.head(), Some(PuId(1)));
/// assert_eq!(asg.program_order(), vec![PuId(1), PuId(3), PuId(0)]);
/// assert!(asg.precedes(PuId(1), PuId(0)));
/// asg.release(PuId(1));
/// assert_eq!(asg.head(), Some(PuId(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskAssignments {
    task_of: Vec<Option<TaskId>>,
    /// The occupied PUs, oldest task first.
    order: PuOrder,
}

impl TaskAssignments {
    /// Creates an empty table for `num_pus` processing units.
    ///
    /// # Panics
    ///
    /// Panics if `num_pus` is zero.
    pub fn new(num_pus: usize) -> TaskAssignments {
        assert!(num_pus > 0, "need at least one PU");
        TaskAssignments {
            task_of: vec![None; num_pus],
            order: PuOrder::new(),
        }
    }

    /// Number of processing units this table covers.
    pub fn num_pus(&self) -> usize {
        self.task_of.len()
    }

    /// Records that `pu` now executes `task`. Overwrites any previous
    /// assignment of `pu` (the PU was re-allocated).
    ///
    /// # Panics
    ///
    /// Panics if `pu` is out of range, or if `task` is already assigned to a
    /// different PU (two PUs can never run the same dynamic task).
    pub fn assign(&mut self, pu: PuId, task: TaskId) {
        for (i, t) in self.task_of.iter().enumerate() {
            assert!(
                *t != Some(task) || i == pu.index(),
                "{task} already assigned to PU{i}"
            );
        }
        self.task_of[pu.index()] = Some(task);
        self.place(pu);
    }

    /// Clears the assignment of `pu` (its task committed or was squashed).
    ///
    /// # Panics
    ///
    /// Panics if `pu` is out of range.
    pub fn release(&mut self, pu: PuId) {
        self.task_of[pu.index()] = None;
        self.place(pu);
    }

    /// Moves `pu` to its place in the cached program order: out of it
    /// if it runs no task, else just after every older task.
    fn place(&mut self, pu: PuId) {
        self.order.retain(|&q| q != pu);
        let Some(task) = self.task_of[pu.index()] else {
            return;
        };
        // Tasks are mostly dispatched youngest, so search from the tail.
        let task_of = &self.task_of;
        let at = (self.order.iter())
            .rposition(|q| task_of[q.index()] < Some(task))
            .map_or(0, |i| i + 1);
        self.order.push(pu);
        self.order.as_mut_slice()[at..].rotate_right(1);
    }

    /// The task currently executing on `pu`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `pu` is out of range.
    pub fn task_of(&self, pu: PuId) -> Option<TaskId> {
        self.task_of[pu.index()]
    }

    /// The PU currently executing `task`, if any.
    pub fn pu_of(&self, task: TaskId) -> Option<PuId> {
        self.task_of.iter().position(|t| *t == Some(task)).map(PuId)
    }

    /// The *head* PU: the one executing the oldest (non-speculative) task.
    /// `None` if no PU has an assignment.
    pub fn head(&self) -> Option<PuId> {
        self.order.first().copied()
    }

    /// The PU executing the youngest (most speculative) task, if any.
    pub fn tail(&self) -> Option<PuId> {
        self.order.last().copied()
    }

    /// All occupied PUs ordered oldest task first — the implicit total order
    /// of paper §2.1 (the solid arrowheads in the paper's figures).
    pub fn program_order(&self) -> &[PuId] {
        &self.order
    }

    /// Whether `a`'s task is older than `b`'s task. Unassigned PUs follow all
    /// assigned ones and compare by index among themselves, so the order is
    /// still total.
    pub fn precedes(&self, a: PuId, b: PuId) -> bool {
        match (self.task_of(a), self.task_of(b)) {
            (Some(ta), Some(tb)) => ta.is_older_than(tb),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => a.index() < b.index(),
        }
    }
}

impl crate::Checkpointable for TaskAssignments {
    fn save_state(&self, w: &mut crate::CkptWriter) {
        self.task_of.save_state(w);
    }
    fn restore_state(&mut self, r: &mut crate::CkptReader<'_>) -> Result<(), crate::CkptError> {
        let before = self.task_of.len();
        self.task_of.restore_state(r)?;
        if self.task_of.len() != before {
            return Err(crate::CkptError::corrupt(format!(
                "assignment table for {} PUs, checkpoint has {}",
                before,
                self.task_of.len()
            )));
        }
        self.order.clear();
        for i in 0..self.task_of.len() {
            self.place(PuId(i));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TaskAssignments {
        // Mirrors the paper's Figure 13 snapshot: tasks need not be assigned
        // to PUs in circular order.
        let mut asg = TaskAssignments::new(4);
        asg.assign(PuId(0), TaskId(5)); // X/5
        asg.assign(PuId(1), TaskId(3)); // Y/3
        asg.assign(PuId(2), TaskId(4)); // Z/4
        asg.assign(PuId(3), TaskId(2)); // W/2
        asg
    }

    #[test]
    fn head_and_tail() {
        let asg = table();
        assert_eq!(asg.head(), Some(PuId(3)));
        assert_eq!(asg.tail(), Some(PuId(0)));
    }

    #[test]
    fn program_order_sorts_by_task() {
        assert_eq!(
            table().program_order(),
            vec![PuId(3), PuId(1), PuId(2), PuId(0)]
        );
    }

    #[test]
    fn precedes_total_order() {
        let mut asg = table();
        assert!(asg.precedes(PuId(3), PuId(1)));
        assert!(!asg.precedes(PuId(1), PuId(3)));
        asg.release(PuId(0));
        // Unassigned PU follows all assigned PUs.
        assert!(asg.precedes(PuId(1), PuId(0)));
        assert!(!asg.precedes(PuId(0), PuId(1)));
    }

    #[test]
    fn release_updates_head() {
        let mut asg = table();
        asg.release(PuId(3));
        assert_eq!(asg.head(), Some(PuId(1)));
        assert_eq!(asg.task_of(PuId(3)), None);
    }

    #[test]
    fn pu_of_lookup() {
        let asg = table();
        assert_eq!(asg.pu_of(TaskId(4)), Some(PuId(2)));
        assert_eq!(asg.pu_of(TaskId(99)), None);
    }

    #[test]
    fn reassigning_same_pu_is_allowed() {
        let mut asg = table();
        asg.assign(PuId(0), TaskId(9));
        assert_eq!(asg.task_of(PuId(0)), Some(TaskId(9)));
    }

    #[test]
    #[should_panic(expected = "already assigned")]
    fn duplicate_task_panics() {
        let mut asg = table();
        asg.assign(PuId(0), TaskId(3)); // T3 is on PU1
    }

    #[test]
    fn empty_table() {
        let asg = TaskAssignments::new(2);
        assert_eq!(asg.head(), None);
        assert_eq!(asg.tail(), None);
        assert!(asg.program_order().is_empty());
    }
}
