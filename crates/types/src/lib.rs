//! Shared vocabulary types for the Speculative Versioning Cache (SVC)
//! reproduction.
//!
//! This crate defines the types that every subsystem of the reproduction
//! speaks: word [`Addr`]esses and [`Word`] values, [`PuId`]/[`TaskId`]
//! identifiers, the [`Cycle`] clock, the [`TaskAssignments`] table that
//! captures the *implicit total order among processing units* (paper §2.1),
//! the [`VersionedMemory`] trait implemented by every speculative memory
//! system (the SVC, the ARB baseline, and the ideal memory), and the
//! [`MemStats`] block each of them reports.
//!
//! Keeping these in a leaf crate lets the execution engine
//! (`svc-multiscalar`) stay generic over the memory system, which is what
//! allows a single experiment harness to regenerate every table and figure
//! of the paper.
//!
//! # Example
//!
//! ```
//! use svc_types::{Addr, PuId, TaskId, TaskAssignments};
//!
//! let mut asg = TaskAssignments::new(4);
//! asg.assign(PuId(0), TaskId(7));
//! asg.assign(PuId(2), TaskId(5));
//! // PU 2 runs the older task, so it precedes PU 0 in program order.
//! assert_eq!(asg.program_order(), vec![PuId(2), PuId(0)]);
//! assert_eq!(asg.head(), Some(PuId(2)));
//! let a = Addr(0x40);
//! assert_eq!(a.line(4).first_word(4), Addr(0x40));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod assignment;
mod checkable;
pub mod ckpt;
mod fingerprint;
mod hash;
mod ids;
mod invariant;
pub mod mutate;
mod stats;
mod time;
mod versioned;
mod word;

pub use addr::{Addr, LineId};
pub use assignment::TaskAssignments;
pub use checkable::ModelCheckable;
pub use ckpt::{Checkpointable, CkptError, CkptReader, CkptWriter};
pub use fingerprint::StateHasher;
pub use hash::{KeyHasher, KeyMap};
pub use ids::{PuId, TaskId};
pub use invariant::{InvariantKind, InvariantViolation};
pub use mutate::Mutation;
pub use stats::MemStats;
pub use time::Cycle;
pub use versioned::{
    AccessError, DataSource, LoadOutcome, MemGauges, StoreOutcome, VersionedMemory, Violation,
};
pub use word::Word;
