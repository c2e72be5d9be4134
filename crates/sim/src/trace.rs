//! Cycle-stamped event tracing for the simulator.
//!
//! Every subsystem (bus, MSHRs, writeback buffers, the SVC line arrays,
//! the VCL, the execution engine) can emit [`TraceEvent`]s through a
//! shared [`Tracer`] handle. Events are stamped with the simulated cycle
//! and a monotonically-increasing sequence number, filtered by a
//! [`Category`] bitmask, and recorded into a bounded ring buffer.
//!
//! Design constraints:
//!
//! * **Zero cost when disabled.** A disabled tracer is a single branch on
//!   an enabled-categories bitmask ([`Tracer::enabled`]); event payloads
//!   are built inside a closure that never runs, so the fast path does no
//!   allocation and no formatting.
//! * **Deterministic.** Emission order is the simulation's execution
//!   order; the sinks ([`render_text`], [`render_jsonl`],
//!   [`render_chrome`]) are pure functions of the recorded events, so a
//!   trace of the same cell at the same seed is byte-identical regardless
//!   of harness thread count.
//! * **Bounded.** The ring keeps the most recent `capacity` events and
//!   counts what it had to drop ([`Tracer::dropped`]).
//!
//! The handle is a cheap clone (`Rc` internally): the engine and every
//! layer of the memory system share one buffer, and the creator keeps a
//! clone to drain records from afterwards. Handles are single-threaded by
//! construction — each harness grid cell builds its own tracer, which is
//! exactly what keeps per-cell traces deterministic under a parallel
//! harness.
//!
//! # Example
//!
//! ```
//! use svc_sim::trace::{Category, TraceEvent, Tracer};
//! use svc_types::{Cycle, PuId, TaskId};
//!
//! let t = Tracer::new(Category::ALL, 1024);
//! t.emit(Cycle(5), Category::Task, || TraceEvent::TaskCommit {
//!     pu: PuId(0),
//!     task: TaskId(3),
//!     instrs: 17,
//! });
//! let records = t.records();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].cycle, 5);
//! ```

use core::fmt;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use svc_types::{Addr, Cycle, LineId, PuId, TaskId};

/// Default ring-buffer capacity (events) when none is configured.
pub const DEFAULT_CAPACITY: usize = 65_536;

// ---------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------

/// Event categories, each one bit of the enabled mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Bus arbitration and transactions.
    Bus,
    /// MSHR allocate / combine / retire.
    Mshr,
    /// Writeback-buffer pushes and stalls.
    Writeback,
    /// Cache-line state-bit transitions (V/S/L/C/T/A masks).
    Line,
    /// Version Ordering List splices and purges.
    Vol,
    /// VCL plan decisions.
    Vcl,
    /// Individual loads and stores with their data source.
    Access,
    /// Task lifecycle: dispatch, commit, squash, violations.
    Task,
    /// Injected faults and watchdog-detected invariant violations.
    Fault,
}

impl Category {
    /// All categories, in emission-stable order.
    pub const EVERY: [Category; 9] = [
        Category::Bus,
        Category::Mshr,
        Category::Writeback,
        Category::Line,
        Category::Vol,
        Category::Vcl,
        Category::Access,
        Category::Task,
        Category::Fault,
    ];

    /// Mask with every category enabled.
    pub const ALL: u32 = (1 << 9) - 1;

    /// This category's bit.
    #[inline]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// The short name used in filters and the JSONL `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            Category::Bus => "bus",
            Category::Mshr => "mshr",
            Category::Writeback => "wb",
            Category::Line => "line",
            Category::Vol => "vol",
            Category::Vcl => "vcl",
            Category::Access => "access",
            Category::Task => "task",
            Category::Fault => "fault",
        }
    }

    /// The inverse of [`name`](Category::name), for JSONL re-parsers.
    pub fn from_name(name: &str) -> Option<Category> {
        Category::EVERY.into_iter().find(|c| c.name() == name)
    }
}

/// Parses a comma-separated category filter (`"bus,vol,task"`) into a
/// mask. `"all"`, `"*"` and `"1"` enable everything; an empty string
/// enables nothing.
pub fn parse_filter(spec: &str) -> Result<u32, String> {
    let spec = spec.trim();
    if spec.is_empty() {
        return Ok(0);
    }
    if matches!(spec, "all" | "*" | "1") {
        return Ok(Category::ALL);
    }
    let mut mask = 0;
    for token in spec.split(',') {
        let token = token.trim();
        if token.is_empty() {
            continue;
        }
        let cat = Category::EVERY
            .into_iter()
            .find(|c| c.name() == token || (token == "writeback" && *c == Category::Writeback))
            .ok_or_else(|| {
                format!(
                    "unknown trace category {token:?} (known: {})",
                    Category::EVERY.map(Category::name).join(", ")
                )
            })?;
        mask |= cat.bit();
    }
    Ok(mask)
}

// ---------------------------------------------------------------------
// Event payloads
// ---------------------------------------------------------------------

/// The kind of bus transaction (who asked and why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// A load miss (BusRead).
    Read,
    /// A store miss (BusWrite).
    Write,
    /// A dirty replacement (BusWback).
    Wback,
    /// A commit-time flush burst (base design).
    Commit,
    /// Anything else (coherence baseline traffic, upgrades).
    Other,
}

impl BusOp {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            BusOp::Read => "BusRead",
            BusOp::Write => "BusWrite",
            BusOp::Wback => "BusWback",
            BusOp::Commit => "BusCommit",
            BusOp::Other => "BusOther",
        }
    }

    /// The inverse of [`name`](BusOp::name), for JSONL re-parsers.
    pub fn from_name(name: &str) -> Option<BusOp> {
        [
            BusOp::Read,
            BusOp::Write,
            BusOp::Wback,
            BusOp::Commit,
            BusOp::Other,
        ]
        .into_iter()
        .find(|op| op.name() == name)
    }
}

/// A load or a store, for [`TraceEvent::Access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOp {
    /// A load.
    Load,
    /// A store.
    Store,
}

impl AccessOp {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AccessOp::Load => "load",
            AccessOp::Store => "store",
        }
    }

    /// The inverse of [`name`](AccessOp::name), for JSONL re-parsers.
    pub fn from_name(name: &str) -> Option<AccessOp> {
        match name {
            "load" => Some(AccessOp::Load),
            "store" => Some(AccessOp::Store),
            _ => None,
        }
    }
}

/// Why a task was squashed, for [`TraceEvent::TaskSquash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SquashCause {
    /// The task (or an ancestor) was a wrong task prediction.
    Misprediction,
    /// The fault injector forced a spurious squash (robustness drill).
    Fault,
    /// A memory-dependence violation was detected.
    Violation,
    /// Squashed to free speculative resources for a stalled head.
    Resource,
}

impl SquashCause {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SquashCause::Misprediction => "misprediction",
            SquashCause::Fault => "fault",
            SquashCause::Violation => "violation",
            SquashCause::Resource => "resource",
        }
    }

    /// The inverse of [`name`](SquashCause::name), for JSONL re-parsers.
    pub fn from_name(name: &str) -> Option<SquashCause> {
        [
            SquashCause::Misprediction,
            SquashCause::Fault,
            SquashCause::Violation,
            SquashCause::Resource,
        ]
        .into_iter()
        .find(|c| c.name() == name)
    }
}

/// A compact copy of one SVC line's state bits, for before/after diffs in
/// [`TraceEvent::LineTransition`]. Masks are raw bit sets over sub-blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LineBits {
    /// Per-sub-block valid (V) bits.
    pub valid: u64,
    /// Per-sub-block store (S) bits.
    pub store: u64,
    /// Per-sub-block load (L) bits.
    pub load: u64,
    /// The commit (C) bit.
    pub committed: bool,
    /// The stale (T) bit.
    pub stale: bool,
    /// The architectural (A) bit.
    pub arch: bool,
    /// The exclusive (X) bit.
    pub exclusive: bool,
}

impl LineBits {
    /// The derived five-state name (paper Figure 18): `I`, `AC`, `AD`,
    /// `PC` or `PD`.
    pub fn state_name(&self) -> &'static str {
        if self.valid == 0 {
            "I"
        } else {
            match (self.committed, self.store == 0) {
                (false, true) => "AC",
                (false, false) => "AD",
                (true, true) => "PC",
                (true, false) => "PD",
            }
        }
    }
}

impl fmt::Display for LineBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}(V={:b} S={:b} L={:b} C={} T={} A={} X={})",
            self.state_name(),
            self.valid,
            self.store,
            self.load,
            u8::from(self.committed),
            u8::from(self.stale),
            u8::from(self.arch),
            u8::from(self.exclusive),
        )
    }
}

/// One member of a recorded Version Ordering List.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolEntry {
    /// The PU holding the copy/version.
    pub pu: PuId,
    /// The task currently on that PU, if any.
    pub task: Option<TaskId>,
    /// Whether the member is a *version* (has store data) rather than a
    /// pure copy.
    pub version: bool,
}

/// What changed the VOL, for [`TraceEvent::VolReorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VolOp {
    /// Pointers rewritten after a transaction (insert and splice).
    Splice,
    /// Committed members purged from the list.
    Purge,
}

impl VolOp {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            VolOp::Splice => "splice",
            VolOp::Purge => "purge",
        }
    }

    /// The inverse of [`name`](VolOp::name), for JSONL re-parsers.
    pub fn from_name(name: &str) -> Option<VolOp> {
        match name {
            "splice" => Some(VolOp::Splice),
            "purge" => Some(VolOp::Purge),
            _ => None,
        }
    }
}

/// Which VCL planner produced a [`TraceEvent::VclPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// `plan_read` (a BusRead).
    Read,
    /// `plan_write` (a BusWrite).
    Write,
    /// `plan_wback` (a dirty replacement).
    Wback,
}

impl PlanKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PlanKind::Read => "read",
            PlanKind::Write => "write",
            PlanKind::Wback => "wback",
        }
    }

    /// The inverse of [`name`](PlanKind::name), for JSONL re-parsers.
    pub fn from_name(name: &str) -> Option<PlanKind> {
        match name {
            "read" => Some(PlanKind::Read),
            "write" => Some(PlanKind::Write),
            "wback" => Some(PlanKind::Wback),
            _ => None,
        }
    }
}

/// Interns an [`TraceEvent::Access`] `source` string back to the
/// `&'static str` the simulator emits, for JSONL re-parsers. Unknown
/// values intern as `"?"` rather than failing, so a trace from a newer
/// writer still loads.
pub fn intern_access_source(source: &str) -> &'static str {
    match source {
        "local" => "local",
        "transfer" => "transfer",
        "next-level" => "next-level",
        "accepted" => "accepted",
        _ => "?",
    }
}

/// A compressed description of one VCL plan decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSummary {
    /// Which planner ran.
    pub kind: PlanKind,
    /// The requesting PU.
    pub pu: PuId,
    /// The requesting task, if one is assigned.
    pub task: Option<TaskId>,
    /// The line the plan is about.
    pub line: LineId,
    /// Sub-blocks supplied by another cache (cache-to-cache transfer).
    pub fill_from_cache: u32,
    /// Sub-blocks supplied by the next level of memory.
    pub fill_from_memory: u32,
    /// Committed winners flushed to memory.
    pub flush: u32,
    /// Committed lines purged.
    pub purge: u32,
    /// Copies (partially) invalidated.
    pub invalidate: u32,
    /// Copies updated in place (hybrid protocol).
    pub update: u32,
    /// Caches snarfing the fill.
    pub snarfers: u32,
    /// Tasks whose use-before-define this plan exposed (to be squashed).
    pub victims: Vec<TaskId>,
    /// Whether the requestor receives (a copy of) the architectural
    /// version.
    pub arch: bool,
}

/// One traced simulator event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A bus transaction won arbitration.
    BusTransaction {
        /// Transaction kind.
        op: BusOp,
        /// Requesting PU, if attributable.
        pu: Option<PuId>,
        /// Line involved, if attributable.
        line: Option<LineId>,
        /// Cycle the transaction won arbitration.
        start: Cycle,
        /// Cycle the transaction completes.
        done: Cycle,
        /// Extra occupancy beats (e.g. committed-version flush).
        extra: u64,
    },
    /// An MSHR was allocated for a primary miss.
    MshrAllocate {
        /// The missing PU.
        pu: PuId,
        /// The missing line.
        line: LineId,
        /// When the fill data arrives.
        data_ready: Cycle,
        /// Cycles stalled waiting for a free register.
        stalled: u64,
    },
    /// A secondary miss combined into an outstanding register.
    MshrCombine {
        /// The missing PU.
        pu: PuId,
        /// The missing line.
        line: LineId,
        /// When the shared fill arrives.
        data_ready: Cycle,
    },
    /// An MSHR's fill returned and the register retired.
    MshrRetire {
        /// The owning PU.
        pu: PuId,
        /// The filled line.
        line: LineId,
    },
    /// A castout entered (or stalled on) the writeback buffer.
    WritebackPush {
        /// The pushing PU.
        pu: PuId,
        /// Cycle the buffer accepted the entry.
        accepted: Cycle,
        /// Cycles the pusher stalled on a full buffer.
        stalled: u64,
        /// Buffer occupancy after the push.
        occupancy: usize,
    },
    /// One cache line's state bits changed.
    LineTransition {
        /// The cache/PU.
        pu: PuId,
        /// The line.
        line: LineId,
        /// Bits before.
        from: LineBits,
        /// Bits after.
        to: LineBits,
    },
    /// A coherence-baseline (MESI-style) line state change.
    CoherenceTransition {
        /// The cache/PU.
        pu: PuId,
        /// The line.
        line: LineId,
        /// State before.
        from: &'static str,
        /// State after.
        to: &'static str,
    },
    /// The Version Ordering List of a line was rewritten.
    VolReorder {
        /// The line.
        line: LineId,
        /// What kind of rewrite.
        op: VolOp,
        /// The list after the rewrite, oldest first.
        order: Vec<VolEntry>,
    },
    /// The VCL produced a plan.
    VclPlan(PlanSummary),
    /// A load or store completed (or was accepted).
    Access {
        /// The accessing PU.
        pu: PuId,
        /// The accessing task.
        task: TaskId,
        /// Load or store.
        op: AccessOp,
        /// Word address.
        addr: Addr,
        /// Where the data came from (`local`, `transfer`, `next-level`,
        /// `accepted` for stores).
        source: &'static str,
        /// When the access completes.
        done_at: Cycle,
    },
    /// A store exposed a use-before-define in a younger task.
    Violation {
        /// The storing PU.
        pu: PuId,
        /// The storing task.
        task: TaskId,
        /// The oldest violated task (it and everything younger squash).
        victim: TaskId,
        /// The conflicting word address.
        addr: Addr,
    },
    /// The sequencer dispatched a task to a PU.
    TaskDispatch {
        /// The PU.
        pu: PuId,
        /// The task position.
        task: TaskId,
        /// How many times this position has been squashed before.
        attempt: u32,
        /// Whether this dispatch is a (not yet detected) misprediction.
        wrong_path: bool,
    },
    /// The head task committed.
    TaskCommit {
        /// The PU.
        pu: PuId,
        /// The task.
        task: TaskId,
        /// Instructions the task retired.
        instrs: u64,
    },
    /// A task was squashed.
    TaskSquash {
        /// The PU it was running on.
        pu: PuId,
        /// The squashed task.
        task: TaskId,
        /// Why the squash walk started.
        cause: SquashCause,
        /// The oldest position being re-dispatched (the walk's root).
        restart: TaskId,
        /// When the PU unblocks: it stays stalled on the latency of the
        /// access it was torn down under (the squash-recovery window).
        until: Cycle,
    },
    /// The fault injector fired at one of its sites.
    Fault(crate::fault::FaultEvent),
    /// The invariant watchdog detected a violation.
    InvariantViolation {
        /// The violated invariant's short name.
        kind: &'static str,
        /// The PU involved, if attributable.
        pu: Option<PuId>,
        /// The line involved, if attributable.
        line: Option<LineId>,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl TraceEvent {
    /// The category this event belongs to.
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::BusTransaction { .. } => Category::Bus,
            TraceEvent::MshrAllocate { .. }
            | TraceEvent::MshrCombine { .. }
            | TraceEvent::MshrRetire { .. } => Category::Mshr,
            TraceEvent::WritebackPush { .. } => Category::Writeback,
            TraceEvent::LineTransition { .. } | TraceEvent::CoherenceTransition { .. } => {
                Category::Line
            }
            TraceEvent::VolReorder { .. } => Category::Vol,
            TraceEvent::VclPlan(_) => Category::Vcl,
            TraceEvent::Access { .. } => Category::Access,
            TraceEvent::Violation { .. }
            | TraceEvent::TaskDispatch { .. }
            | TraceEvent::TaskCommit { .. }
            | TraceEvent::TaskSquash { .. } => Category::Task,
            TraceEvent::Fault(_) | TraceEvent::InvariantViolation { .. } => Category::Fault,
        }
    }
}

/// One recorded event: cycle stamp, global sequence number, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Simulated cycle of the event.
    pub cycle: u64,
    /// Emission sequence number (total order within a trace).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

// ---------------------------------------------------------------------
// The tracer
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Ring {
    capacity: usize,
    records: Vec<Record>,
    head: usize,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, cycle: Cycle, event: TraceEvent) {
        let record = Record {
            cycle: cycle.0,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        if self.records.len() < self.capacity {
            self.records.push(record);
        } else {
            self.records[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn in_order(&self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.records.len());
        out.extend_from_slice(&self.records[self.head..]);
        out.extend_from_slice(&self.records[..self.head]);
        out
    }
}

/// A cheap-to-clone tracing handle. All clones share one ring buffer; a
/// default-constructed tracer is disabled and costs one branch per
/// [`emit`](Tracer::emit).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    mask: u32,
    ring: Option<Rc<RefCell<Ring>>>,
}

/// Tracers compare by enabled mask only; buffer contents are deliberately
/// not part of equality so that simulator components keep their derived
/// `PartialEq` implementations.
impl PartialEq for Tracer {
    fn eq(&self, other: &Tracer) -> bool {
        self.mask == other.mask
    }
}

impl Eq for Tracer {}

impl Tracer {
    /// A disabled tracer (same as `Tracer::default()`).
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer recording the categories in `mask` into a ring of
    /// `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero while `mask` is non-empty.
    pub fn new(mask: u32, capacity: usize) -> Tracer {
        if mask == 0 {
            return Tracer::disabled();
        }
        assert!(capacity > 0, "an enabled tracer needs a non-empty ring");
        Tracer {
            mask,
            ring: Some(Rc::new(RefCell::new(Ring {
                capacity,
                records: Vec::new(),
                head: 0,
                next_seq: 0,
                dropped: 0,
            }))),
        }
    }

    /// Whether `cat` is being recorded — the single branch on the fast
    /// path.
    #[inline]
    pub fn enabled(&self, cat: Category) -> bool {
        self.mask & cat.bit() != 0
    }

    /// Whether any category is being recorded.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.mask != 0
    }

    /// Records the event built by `build` if `cat` is enabled. The
    /// closure only runs (and only allocates) when the category is on.
    #[inline]
    pub fn emit(&self, cycle: Cycle, cat: Category, build: impl FnOnce() -> TraceEvent) {
        if !self.enabled(cat) {
            return;
        }
        if let Some(ring) = &self.ring {
            let event = build();
            ring.borrow_mut().push(cycle, event);
        }
    }

    /// The recorded events, oldest first.
    pub fn records(&self) -> Vec<Record> {
        match &self.ring {
            Some(ring) => ring.borrow().in_order(),
            None => Vec::new(),
        }
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.borrow().dropped)
    }
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {:<6} ",
            self.cycle,
            self.event.category().name()
        )?;
        match &self.event {
            TraceEvent::BusTransaction {
                op,
                pu,
                line,
                start,
                done,
                extra,
            } => {
                write!(f, "{}", op.name())?;
                if let Some(pu) = pu {
                    write!(f, " {pu}")?;
                }
                if let Some(line) = line {
                    write!(f, " line {}", line.0)?;
                }
                write!(f, " start={} done={}", start.0, done.0)?;
                if *extra > 0 {
                    write!(f, " extra={extra}")?;
                }
                Ok(())
            }
            TraceEvent::MshrAllocate {
                pu,
                line,
                data_ready,
                stalled,
            } => {
                write!(f, "alloc {pu} line {} ready={}", line.0, data_ready.0)?;
                if *stalled > 0 {
                    write!(f, " stalled={stalled}")?;
                }
                Ok(())
            }
            TraceEvent::MshrCombine {
                pu,
                line,
                data_ready,
            } => write!(f, "combine {pu} line {} ready={}", line.0, data_ready.0),
            TraceEvent::MshrRetire { pu, line } => write!(f, "retire {pu} line {}", line.0),
            TraceEvent::WritebackPush {
                pu,
                accepted,
                stalled,
                occupancy,
            } => {
                write!(f, "push {pu} accepted={} occ={occupancy}", accepted.0)?;
                if *stalled > 0 {
                    write!(f, " stalled={stalled}")?;
                }
                Ok(())
            }
            TraceEvent::LineTransition { pu, line, from, to } => {
                write!(f, "{pu} line {} {from} -> {to}", line.0)
            }
            TraceEvent::CoherenceTransition { pu, line, from, to } => {
                write!(f, "{pu} line {} {from} -> {to}", line.0)
            }
            TraceEvent::VolReorder { line, op, order } => {
                write!(f, "{} line {} [", op.name(), line.0)?;
                for (i, e) in order.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{}", e.pu)?;
                    if let Some(t) = e.task {
                        write!(f, "/T{}", t.0)?;
                    }
                    if e.version {
                        write!(f, "*")?;
                    }
                }
                write!(f, "]")
            }
            TraceEvent::VclPlan(p) => {
                write!(
                    f,
                    "plan_{} {} line {} fill(cache={} mem={}) flush={} purge={} inval={} \
                     update={} snarf={} arch={}",
                    p.kind.name(),
                    p.pu,
                    p.line.0,
                    p.fill_from_cache,
                    p.fill_from_memory,
                    p.flush,
                    p.purge,
                    p.invalidate,
                    p.update,
                    p.snarfers,
                    u8::from(p.arch),
                )?;
                if !p.victims.is_empty() {
                    write!(f, " victims=")?;
                    for (i, v) in p.victims.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "T{}", v.0)?;
                    }
                }
                Ok(())
            }
            TraceEvent::Access {
                pu,
                task,
                op,
                addr,
                source,
                done_at,
            } => write!(
                f,
                "{} {pu}/T{} addr {} src={source} done={}",
                op.name(),
                task.0,
                addr.0,
                done_at.0
            ),
            TraceEvent::Violation {
                pu,
                task,
                victim,
                addr,
            } => write!(
                f,
                "VIOLATION store by {pu}/T{} at addr {} squashes T{}",
                task.0, addr.0, victim.0
            ),
            TraceEvent::TaskDispatch {
                pu,
                task,
                attempt,
                wrong_path,
            } => {
                write!(f, "dispatch T{} -> {pu} attempt={attempt}", task.0)?;
                if *wrong_path {
                    write!(f, " (wrong-path)")?;
                }
                Ok(())
            }
            TraceEvent::TaskCommit { pu, task, instrs } => {
                write!(f, "commit T{} on {pu} ({instrs} instrs)", task.0)
            }
            TraceEvent::TaskSquash {
                pu,
                task,
                cause,
                restart,
                until,
            } => write!(
                f,
                "squash T{} on {pu} cause={} restart=T{} until={}",
                task.0,
                cause.name(),
                restart.0,
                until.0
            ),
            TraceEvent::Fault(e) => {
                write!(f, "FAULT {}", e.site.name())?;
                if let Some(pu) = e.pu {
                    write!(f, " {pu}")?;
                }
                if let Some(line) = e.line {
                    write!(f, " line {}", line.0)?;
                }
                write!(f, " penalty={}", e.penalty)
            }
            TraceEvent::InvariantViolation {
                kind,
                pu,
                line,
                detail,
            } => {
                write!(f, "INVARIANT {kind}")?;
                if let Some(pu) = pu {
                    write!(f, " {pu}")?;
                }
                if let Some(line) = line {
                    write!(f, " line {}", line.0)?;
                }
                write!(f, ": {detail}")
            }
        }
    }
}

/// Renders records as a human-readable log, one line per event.
pub fn render_text(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, "{r}");
    }
    out
}

fn escape_json_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Escapes `s` as a JSON string literal (with the surrounding quotes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_json_into(&mut out, s);
    out
}

fn line_bits_json(out: &mut String, b: &LineBits) {
    let _ = write!(
        out,
        "{{\"state\":\"{}\",\"v\":{},\"s\":{},\"l\":{},\"c\":{},\"t\":{},\"a\":{},\"x\":{}}}",
        b.state_name(),
        b.valid,
        b.store,
        b.load,
        u8::from(b.committed),
        u8::from(b.stale),
        u8::from(b.arch),
        u8::from(b.exclusive),
    );
}

fn event_fields_json(out: &mut String, event: &TraceEvent) {
    match event {
        TraceEvent::BusTransaction {
            op,
            pu,
            line,
            start,
            done,
            extra,
        } => {
            let _ = write!(out, "\"ev\":\"bus\",\"op\":\"{}\"", op.name());
            if let Some(pu) = pu {
                let _ = write!(out, ",\"pu\":{}", pu.0);
            }
            if let Some(line) = line {
                let _ = write!(out, ",\"line\":{}", line.0);
            }
            let _ = write!(
                out,
                ",\"start\":{},\"done\":{},\"extra\":{extra}",
                start.0, done.0
            );
        }
        TraceEvent::MshrAllocate {
            pu,
            line,
            data_ready,
            stalled,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"mshr_alloc\",\"pu\":{},\"line\":{},\"ready\":{},\"stalled\":{stalled}",
                pu.0, line.0, data_ready.0
            );
        }
        TraceEvent::MshrCombine {
            pu,
            line,
            data_ready,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"mshr_combine\",\"pu\":{},\"line\":{},\"ready\":{}",
                pu.0, line.0, data_ready.0
            );
        }
        TraceEvent::MshrRetire { pu, line } => {
            let _ = write!(
                out,
                "\"ev\":\"mshr_retire\",\"pu\":{},\"line\":{}",
                pu.0, line.0
            );
        }
        TraceEvent::WritebackPush {
            pu,
            accepted,
            stalled,
            occupancy,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"wb_push\",\"pu\":{},\"accepted\":{},\"stalled\":{stalled},\"occ\":{occupancy}",
                pu.0, accepted.0
            );
        }
        TraceEvent::LineTransition { pu, line, from, to } => {
            let _ = write!(
                out,
                "\"ev\":\"line\",\"pu\":{},\"line\":{},\"from\":",
                pu.0, line.0
            );
            line_bits_json(out, from);
            out.push_str(",\"to\":");
            line_bits_json(out, to);
        }
        TraceEvent::CoherenceTransition { pu, line, from, to } => {
            let _ = write!(
                out,
                "\"ev\":\"smp_line\",\"pu\":{},\"line\":{},\"from\":\"{from}\",\"to\":\"{to}\"",
                pu.0, line.0
            );
        }
        TraceEvent::VolReorder { line, op, order } => {
            let _ = write!(
                out,
                "\"ev\":\"vol\",\"line\":{},\"op\":\"{}\",\"order\":[",
                line.0,
                op.name()
            );
            for (i, e) in order.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"pu\":{}", e.pu.0);
                if let Some(t) = e.task {
                    let _ = write!(out, ",\"task\":{}", t.0);
                }
                let _ = write!(out, ",\"ver\":{}}}", e.version);
            }
            out.push(']');
        }
        TraceEvent::VclPlan(p) => {
            let _ = write!(
                out,
                "\"ev\":\"plan\",\"kind\":\"{}\",\"pu\":{}",
                p.kind.name(),
                p.pu.0
            );
            if let Some(t) = p.task {
                let _ = write!(out, ",\"task\":{}", t.0);
            }
            let _ = write!(
                out,
                ",\"line\":{},\"fill_cache\":{},\"fill_mem\":{},\"flush\":{},\"purge\":{},\
                 \"inval\":{},\"update\":{},\"snarf\":{},\"arch\":{},\"victims\":[",
                p.line.0,
                p.fill_from_cache,
                p.fill_from_memory,
                p.flush,
                p.purge,
                p.invalidate,
                p.update,
                p.snarfers,
                p.arch,
            );
            for (i, v) in p.victims.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", v.0);
            }
            out.push(']');
        }
        TraceEvent::Access {
            pu,
            task,
            op,
            addr,
            source,
            done_at,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"access\",\"op\":\"{}\",\"pu\":{},\"task\":{},\"addr\":{},\
                 \"src\":\"{source}\",\"done\":{}",
                op.name(),
                pu.0,
                task.0,
                addr.0,
                done_at.0
            );
        }
        TraceEvent::Violation {
            pu,
            task,
            victim,
            addr,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"violation\",\"pu\":{},\"task\":{},\"victim\":{},\"addr\":{}",
                pu.0, task.0, victim.0, addr.0
            );
        }
        TraceEvent::TaskDispatch {
            pu,
            task,
            attempt,
            wrong_path,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"dispatch\",\"pu\":{},\"task\":{},\"attempt\":{attempt},\"wrong\":{wrong_path}",
                pu.0, task.0
            );
        }
        TraceEvent::TaskCommit { pu, task, instrs } => {
            let _ = write!(
                out,
                "\"ev\":\"commit\",\"pu\":{},\"task\":{},\"instrs\":{instrs}",
                pu.0, task.0
            );
        }
        TraceEvent::TaskSquash {
            pu,
            task,
            cause,
            restart,
            until,
        } => {
            let _ = write!(
                out,
                "\"ev\":\"squash\",\"pu\":{},\"task\":{},\"cause\":\"{}\",\"restart\":{},\"until\":{}",
                pu.0,
                task.0,
                cause.name(),
                restart.0,
                until.0
            );
        }
        TraceEvent::Fault(e) => {
            let _ = write!(out, "\"ev\":\"fault\",\"site\":\"{}\"", e.site.name());
            if let Some(pu) = e.pu {
                let _ = write!(out, ",\"pu\":{}", pu.0);
            }
            if let Some(line) = e.line {
                let _ = write!(out, ",\"line\":{}", line.0);
            }
            let _ = write!(out, ",\"penalty\":{}", e.penalty);
        }
        TraceEvent::InvariantViolation {
            kind,
            pu,
            line,
            detail,
        } => {
            let _ = write!(out, "\"ev\":\"invariant\",\"kind\":\"{kind}\"");
            if let Some(pu) = pu {
                let _ = write!(out, ",\"pu\":{}", pu.0);
            }
            if let Some(line) = line {
                let _ = write!(out, ",\"line\":{}", line.0);
            }
            out.push_str(",\"detail\":");
            escape_json_into(out, detail);
        }
    }
}

/// Renders records as JSONL: one compact JSON object per line, stable
/// field order, byte-deterministic for equal inputs.
pub fn render_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(
            out,
            "{{\"cycle\":{},\"seq\":{},\"cat\":\"{}\",",
            r.cycle,
            r.seq,
            r.event.category().name()
        );
        event_fields_json(&mut out, &r.event);
        out.push_str("}\n");
    }
    out
}

/// Renders records as a Chrome trace-event JSON document (loadable in
/// Perfetto / `chrome://tracing`). Cycles map to microseconds; bus
/// transactions become duration (`X`) events on their PU's track, all
/// other events become instants (`i`). `title` names the process.
pub fn render_chrome(records: &[Record], title: &str) -> String {
    render_chrome_with_counters(records, title, &[])
}

/// [`render_chrome`] plus counter tracks: each `(name, series)` pair
/// becomes a Perfetto counter track (`ph:"C"`) with one value per
/// `(cycle, value)` point — the profiler's interval time series (IPC,
/// bus utilization, outstanding misses, …) rendered alongside the
/// events.
pub fn render_chrome_with_counters(
    records: &[Record],
    title: &str,
    counters: &[(String, Vec<(u64, f64)>)],
) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&s);
    };
    // Process-name metadata record (title is caller-supplied: escape it).
    push(
        format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
            escape_json(title)
        ),
        &mut out,
        &mut first,
    );
    for r in records {
        let (tid, name): (u64, &str) = match &r.event {
            TraceEvent::BusTransaction { op, pu, .. } => (pu.map_or(0, |p| p.0 as u64), op.name()),
            TraceEvent::MshrAllocate { pu, .. } => (pu.0 as u64, "mshr_alloc"),
            TraceEvent::MshrCombine { pu, .. } => (pu.0 as u64, "mshr_combine"),
            TraceEvent::MshrRetire { pu, .. } => (pu.0 as u64, "mshr_retire"),
            TraceEvent::WritebackPush { pu, .. } => (pu.0 as u64, "wb_push"),
            TraceEvent::LineTransition { pu, .. } => (pu.0 as u64, "line"),
            TraceEvent::CoherenceTransition { pu, .. } => (pu.0 as u64, "smp_line"),
            TraceEvent::VolReorder { .. } => (99, "vol"),
            TraceEvent::VclPlan(p) => (p.pu.0 as u64, "vcl_plan"),
            TraceEvent::Access { pu, op, .. } => (pu.0 as u64, op.name()),
            TraceEvent::Violation { pu, .. } => (pu.0 as u64, "violation"),
            TraceEvent::TaskDispatch { pu, .. } => (pu.0 as u64, "dispatch"),
            TraceEvent::TaskCommit { pu, .. } => (pu.0 as u64, "commit"),
            TraceEvent::TaskSquash { pu, .. } => (pu.0 as u64, "squash"),
            TraceEvent::Fault(e) => (e.pu.map_or(98, |p| p.0 as u64), "fault"),
            TraceEvent::InvariantViolation { pu, .. } => {
                (pu.map_or(98, |p| p.0 as u64), "invariant")
            }
        };
        let mut args = String::new();
        event_fields_json(&mut args, &r.event);
        let body = match &r.event {
            TraceEvent::BusTransaction { start, done, .. } => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}",
                r.event.category().name(),
                start.0,
                done.0.saturating_sub(start.0).max(1),
            ),
            _ => format!(
                "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
                 \"pid\":0,\"tid\":{tid},\"args\":{{{args}}}}}",
                r.event.category().name(),
                r.cycle,
            ),
        };
        push(body, &mut out, &mut first);
    }
    for (name, series) in counters {
        let escaped = escape_json(name);
        for &(cycle, value) in series {
            // Perfetto rejects NaN/inf; clamp to 0 like the JSON writer.
            let v = if value.is_finite() { value } else { 0.0 };
            push(
                format!(
                    "{{\"name\":{escaped},\"ph\":\"C\",\"ts\":{cycle},\"pid\":0,\
                     \"args\":{{\"value\":{v}}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_event(task: u64) -> TraceEvent {
        TraceEvent::TaskCommit {
            pu: PuId(0),
            task: TaskId(task),
            instrs: 10,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_active());
        t.emit(Cycle(1), Category::Task, || unreachable!("must not build"));
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn category_filtering() {
        let t = Tracer::new(Category::Task.bit() | Category::Bus.bit(), 16);
        assert!(t.enabled(Category::Task));
        assert!(t.enabled(Category::Bus));
        assert!(!t.enabled(Category::Vol));
        t.emit(Cycle(1), Category::Task, || commit_event(1));
        t.emit(Cycle(2), Category::Vol, || unreachable!("vol is filtered"));
        let records = t.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].event.category(), Category::Task);
    }

    #[test]
    fn clones_share_the_ring() {
        let a = Tracer::new(Category::ALL, 16);
        let b = a.clone();
        a.emit(Cycle(1), Category::Task, || commit_event(1));
        b.emit(Cycle(2), Category::Task, || commit_event(2));
        assert_eq!(a.records().len(), 2);
        assert_eq!(b.records().len(), 2);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::new(Category::ALL, 4);
        for i in 0..10 {
            t.emit(Cycle(i), Category::Task, || commit_event(i));
        }
        let records = t.records();
        assert_eq!(records.len(), 4, "bounded to capacity");
        assert_eq!(t.dropped(), 6);
        // Oldest-first order across the wrap point, with intact seq stamps.
        let cycles: Vec<u64> = records.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn filter_parsing() {
        assert_eq!(parse_filter("all").unwrap(), Category::ALL);
        assert_eq!(parse_filter("*").unwrap(), Category::ALL);
        assert_eq!(parse_filter("1").unwrap(), Category::ALL);
        assert_eq!(parse_filter("").unwrap(), 0);
        assert_eq!(
            parse_filter("bus,vol").unwrap(),
            Category::Bus.bit() | Category::Vol.bit()
        );
        assert_eq!(
            parse_filter("writeback").unwrap(),
            Category::Writeback.bit()
        );
        assert!(parse_filter("bogus").is_err());
    }

    #[test]
    fn jsonl_lines_have_stable_shape() {
        let t = Tracer::new(Category::ALL, 16);
        t.emit(Cycle(3), Category::Bus, || TraceEvent::BusTransaction {
            op: BusOp::Read,
            pu: Some(PuId(1)),
            line: Some(LineId(7)),
            start: Cycle(3),
            done: Cycle(6),
            extra: 0,
        });
        t.emit(Cycle(4), Category::Vol, || TraceEvent::VolReorder {
            line: LineId(7),
            op: VolOp::Splice,
            order: vec![VolEntry {
                pu: PuId(1),
                task: Some(TaskId(2)),
                version: true,
            }],
        });
        let jsonl = render_jsonl(&t.records());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"op\":\"BusRead\""));
        assert!(lines[0].contains("\"cycle\":3"));
        assert!(lines[1].contains("\"order\":[{\"pu\":1,\"task\":2,\"ver\":true}]"));
        // Deterministic: same records, same bytes.
        assert_eq!(jsonl, render_jsonl(&t.records()));
    }

    #[test]
    fn chrome_trace_escapes_titles() {
        let t = Tracer::new(Category::ALL, 4);
        t.emit(Cycle(1), Category::Task, || commit_event(1));
        let doc = render_chrome(&t.records(), "weird \"title\"\nwith\tcontrol\u{1}chars");
        assert!(doc.contains(r#"\"title\""#));
        assert!(doc.contains("\\n"));
        assert!(doc.contains("\\t"));
        assert!(doc.contains("\\u0001"));
        assert!(!doc.contains('\u{1}'), "raw control characters escaped");
    }

    #[test]
    fn text_sink_mentions_every_event() {
        let t = Tracer::new(Category::ALL, 16);
        t.emit(Cycle(1), Category::Task, || TraceEvent::TaskSquash {
            pu: PuId(2),
            task: TaskId(5),
            cause: SquashCause::Violation,
            restart: TaskId(4),
            until: Cycle(9),
        });
        let text = render_text(&t.records());
        assert!(text.contains("squash T5"));
        assert!(text.contains("cause=violation"));
        assert!(text.contains("until=9"));
    }

    #[test]
    fn fault_events_render_in_every_sink() {
        use crate::fault::{FaultEvent, FaultSite};
        let t = Tracer::new(Category::Fault.bit(), 16);
        t.emit(Cycle(7), Category::Fault, || {
            TraceEvent::Fault(FaultEvent {
                site: FaultSite::BusDrop,
                pu: Some(PuId(1)),
                line: Some(LineId(3)),
                penalty: 4,
            })
        });
        t.emit(Cycle(8), Category::Fault, || {
            TraceEvent::InvariantViolation {
                kind: "state_bits",
                pu: Some(PuId(2)),
                line: None,
                detail: "store bits outside valid \"mask\"".to_string(),
            }
        });
        let text = render_text(&t.records());
        assert!(text.contains("FAULT bus_drop PU1 line 3 penalty=4"));
        assert!(text.contains("INVARIANT state_bits PU2:"));
        let jsonl = render_jsonl(&t.records());
        assert!(jsonl.contains("\"ev\":\"fault\",\"site\":\"bus_drop\""));
        assert!(jsonl.contains("\"ev\":\"invariant\",\"kind\":\"state_bits\""));
        assert!(jsonl.contains("\\\"mask\\\""), "detail is escaped");
        assert_eq!(parse_filter("fault").unwrap(), Category::Fault.bit());
        let chrome = render_chrome(&t.records(), "faults");
        assert!(chrome.contains("\"name\":\"invariant\""));
    }

    #[test]
    fn line_bits_state_names() {
        let mut b = LineBits::default();
        assert_eq!(b.state_name(), "I");
        b.valid = 0b11;
        assert_eq!(b.state_name(), "AC");
        b.store = 0b01;
        assert_eq!(b.state_name(), "AD");
        b.committed = true;
        assert_eq!(b.state_name(), "PD");
        b.store = 0;
        assert_eq!(b.state_name(), "PC");
        assert!(format!("{b}").contains("PC"));
    }
}
