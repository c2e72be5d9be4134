//! # Speculative Versioning Cache (SVC)
//!
//! A from-scratch implementation of the memory system proposed in
//! *"Speculative Versioning Cache"* (Gopal, Vijaykumar, Smith, Sohi; HPCA
//! 1998): a private-cache, snooping-bus memory system that conceptually
//! unifies cache coherence and memory-dependence speculation for processors
//! with hierarchical execution models (multiscalar processors, speculative
//! chip multiprocessors).
//!
//! Each processing unit (PU) has a private L1 cache. Lines carry, beyond
//! the usual valid/dirty state, the paper's speculative-versioning bits —
//! **L**oad (use-before-define), **C**ommit, s**T**ale, and
//! **A**rchitectural — plus a pointer linking the copies and versions of
//! each line into a **Version Ordering List (VOL)**. On every bus request
//! the **Version Control Logic (VCL)** reconstructs the VOL, supplies the
//! correct version to loads, invalidates the right range of copies on
//! stores (detecting memory-dependence violations), writes back committed
//! versions lazily and in order, and repairs the VOL after task squashes.
//!
//! The paper presents the SVC as a progression of designs; all of them are
//! runnable here through [`SvcConfig`] presets:
//!
//! | Preset | Paper § | Adds |
//! |---|---|---|
//! | [`SvcConfig::base`] | §3.2 | V/S/L bits + VOL pointer, flush-on-commit, invalidate-all on squash |
//! | [`SvcConfig::ec`] | §3.4 | C and T bits: one-cycle commits, lazy writeback, stale-copy reuse |
//! | [`SvcConfig::ecs`] | §3.5 | A bit: architectural copies survive squashes; VOL repair |
//! | [`SvcConfig::hr`] | §3.6 | snarfing against reference spreading |
//! | [`SvcConfig::rl`] | §3.7 | multi-word lines with per-sub-block L/S/V bits and store masks |
//! | [`SvcConfig::final_design`] | §3.8 | hybrid update–invalidate protocol |
//!
//! # Quick start
//!
//! ```
//! use svc::{SvcConfig, SvcSystem};
//! use svc_types::{Addr, Cycle, PuId, TaskId, VersionedMemory, Word};
//!
//! let mut svc = SvcSystem::new(SvcConfig::final_design(4));
//! // Task 0 on PU0 stores; task 1 on PU1 loads the value speculatively.
//! svc.assign(PuId(0), TaskId(0));
//! svc.assign(PuId(1), TaskId(1));
//! svc.store(PuId(0), Addr(64), Word(42), Cycle(0))?;
//! let out = svc.load(PuId(1), Addr(64), Cycle(10))?;
//! assert_eq!(out.value, Word(42)); // closest previous version
//! // Commit in program order; the speculative state becomes architectural.
//! svc.commit(PuId(0), Cycle(20));
//! svc.commit(PuId(1), Cycle(21));
//! svc.drain();
//! assert_eq!(svc.architectural(Addr(64)), Word(42));
//! # Ok::<(), svc_types::AccessError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod conformance;
mod ideal;
mod inspect;
mod line;
mod mask;
mod snapshot;
mod system;
mod vcl;
mod vol;
pub mod watchdog;

pub use config::{SvcConfig, SvcDesign};
pub use ideal::IdealMemory;
pub use inspect::StateCensus;
pub use line::{LineState, SvcLine};
pub use mask::SubMask;
pub use snapshot::LineSnapshot;
pub use vcl::{ReadPlan, SupplySource, Vcl, WbackPlan, WritePlan};
pub use vol::order_vol;

pub use system::SvcSystem;
