//! Simulation kernel utilities for the SVC reproduction.
//!
//! Everything in this crate is deliberately dependency-free and
//! deterministic:
//!
//! * [`rng`] — seedable pseudo-random number generators (SplitMix64 and
//!   xoshiro256\*\*) implemented from the public-domain reference
//!   algorithms, so that every workload and every experiment is exactly
//!   reproducible from a seed;
//! * [`stats`] — counters, running means, and histograms used for
//!   simulator-side measurements;
//! * [`table`] — plain-text table rendering used by the experiment harness
//!   to print the paper's tables and figure series;
//! * [`trace`] — cycle-stamped, category-filtered event tracing with a
//!   bounded ring buffer and text/JSONL/Chrome-trace sinks;
//! * [`metrics`] — a unified registry of named counter/gauge/histogram
//!   metrics that subsystems export into;
//! * [`forensics`] — causal squash-chain and line-history reconstruction
//!   over recorded traces;
//! * [`fault`] — deterministic fault injection: per-site SplitMix64
//!   streams derived from the run seed, threaded through the memory
//!   system and engine as a zero-cost-when-disabled handle;
//! * [`profile`] — the cycle-accounting profiler: per-PU stall
//!   attribution into conservation-checked buckets, wasted-work
//!   metering, and an interval time-series sampler;
//! * [`checkpoint`] — crash-safe checkpoint files: a versioned,
//!   checksummed container, atomic tmp+fsync+rename writes, and a bounded
//!   on-disk ring with newest-valid recovery;
//! * [`telemetry`] — a tiny `std::net`-only HTTP server exporting live
//!   soak-run state: `/metrics` (Prometheus text exposition),
//!   `/profile` (rolling interval JSON), `/healthz`.
//!
//! # Example
//!
//! ```
//! use svc_sim::rng::Xoshiro256;
//! let mut a = Xoshiro256::seed_from(42);
//! let mut b = Xoshiro256::seed_from(42);
//! assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
//! let x = a.gen_range(0..10);
//! assert!(x < 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod forensics;
pub mod metrics;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod table;
pub mod telemetry;
pub mod trace;
