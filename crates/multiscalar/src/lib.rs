//! The hierarchical (multiscalar-style) execution engine.
//!
//! Implements the execution model of paper §2.1: the dynamic instruction
//! stream is partitioned into *tasks*; a sequencer predicts the next task
//! in the sequence and assigns it to a free processing unit (PU); the
//! predicted tasks execute speculatively in parallel, buffering their
//! memory state in a [`VersionedMemory`](svc_types::VersionedMemory) (the
//! SVC, the ARB, or the ideal memory); tasks commit head-first, and
//! squash on task mispredictions and memory-dependence violations.
//!
//! The engine is generic over the memory system — this is what lets one
//! harness regenerate every figure of the paper's evaluation with both
//! the SVC and the ARB.
//!
//! Modelling notes (substitutions from the paper's cycle-accurate
//! multiscalar simulator are listed in DESIGN.md §2):
//!
//! * PUs retire up to `issue_width` instructions per cycle, in order;
//!   loads stall the PU for their latency minus a small overlap credit
//!   (standing in for the paper's 2-issue out-of-order PUs); stores are
//!   non-blocking.
//! * The task predictor is a configurable-accuracy model: a mispredicted
//!   position executes deterministic garbage work (including wrong-path
//!   memory traffic) until the misprediction is detected, then everything
//!   from that position squashes and restarts — §2.1's squash model.
//! * Violations reported by the memory system squash the victim task and
//!   everything younger, which then re-execute.
//!
//! # Example
//!
//! ```
//! use svc_multiscalar::{Engine, EngineConfig, Instr, VecTaskSource};
//! use svc::IdealMemory;
//! use svc_types::{Addr, Word};
//!
//! // Two tiny tasks: task 1 speculatively reads what task 0 wrote.
//! let tasks = vec![
//!     vec![Instr::Store(Addr(0), Word(7)), Instr::Compute(1)],
//!     vec![Instr::Load(Addr(0)), Instr::Compute(1)],
//! ];
//! let source = VecTaskSource::new(tasks);
//! let mut engine = Engine::new(EngineConfig::default(), IdealMemory::new(4, 1));
//! let report = engine.run(&source);
//! assert_eq!(report.committed_tasks, 2);
//! assert!(report.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod predictor;
mod task;

pub use engine::{Engine, EngineConfig, EpochSink, EpochSnapshot, RunReport};
pub use predictor::PredictorModel;
pub use task::{Instr, TaskSource, VecTaskSource};
