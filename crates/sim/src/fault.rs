//! Deterministic fault injection for the simulator.
//!
//! A [`Faults`] handle is threaded through the memory system and the
//! execution engine the same way a [`Tracer`](crate::trace::Tracer) is:
//! it is a cheap clone (`Rc` internally), every component holds one, and
//! a disabled handle costs a single branch per potential injection site.
//!
//! Faults are injected from **per-site [`SplitMix64`] streams** derived
//! from the run seed (`seed ^ SITE_SALT`), so the same seed reproduces the
//! exact same fault schedule — which draws fire, which are absorbed, and
//! the penalty cycles attached to each. Components that consult
//! [`Faults::inject`] do so in simulation execution order, so a campaign
//! run (`svc-sim faults --seed S`) is byte-for-byte reproducible.
//!
//! Every site models a *recoverable* disturbance — dropped or delayed bus
//! grants, late memory responses, transient structural-hazard refusals,
//! spurious squashes, forced (but legal) victim evictions. The injected
//! penalty only perturbs *timing*; architectural results must not change,
//! and the fault campaign asserts exactly that. Corruption-style faults
//! (flipped state bits, spliced VOLs) are injected through dedicated
//! `fault_*` methods on the memory systems and must be caught by the
//! invariant watchdog instead.
//!
//! # Example
//!
//! ```
//! use svc_sim::fault::{FaultConfig, FaultSite, Faults};
//!
//! let cfg = FaultConfig::parse("bus_delay=1.0").unwrap();
//! let f = Faults::new(&cfg, 42);
//! assert!(f.is_active());
//! assert!(f.inject(FaultSite::BusDelay).is_some(), "rate 1.0 always fires");
//! assert!(f.inject(FaultSite::MemJitter).is_none(), "rate 0 never fires");
//! // Same seed, same schedule:
//! let g = Faults::new(&cfg, 42);
//! assert_eq!(g.inject(FaultSite::BusDelay), Faults::new(&cfg, 42).inject(FaultSite::BusDelay));
//! ```

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use svc_types::{LineId, PuId};

use crate::rng::SplitMix64;

/// Number of distinct fault-injection sites.
pub const NUM_SITES: usize = 8;

/// Default upper bound (cycles) for an injected delay penalty.
pub const DEFAULT_MAX_PENALTY: u64 = 8;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A bus transaction loses its grant and must re-arbitrate.
    BusDrop,
    /// A bus transaction wins arbitration late.
    BusDelay,
    /// The next level of memory answers late (response jitter).
    MemJitter,
    /// MSHR allocation transiently fails (structural hazard).
    MshrFail,
    /// The writeback buffer transiently refuses a push (overflow).
    WbOverflow,
    /// The sequencer squashes a task that did nothing wrong.
    SpuriousSquash,
    /// A replacement victimizes a committed line that could have stayed.
    ForcedEvict,
    /// The VCL answers a snooped request late.
    VclDelay,
}

impl FaultSite {
    /// All sites, in stable order (indexes match the internal streams).
    pub const EVERY: [FaultSite; NUM_SITES] = [
        FaultSite::BusDrop,
        FaultSite::BusDelay,
        FaultSite::MemJitter,
        FaultSite::MshrFail,
        FaultSite::WbOverflow,
        FaultSite::SpuriousSquash,
        FaultSite::ForcedEvict,
        FaultSite::VclDelay,
    ];

    /// The name used in `SVC_FAULTS` specs, traces and campaign reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::BusDrop => "bus_drop",
            FaultSite::BusDelay => "bus_delay",
            FaultSite::MemJitter => "mem_jitter",
            FaultSite::MshrFail => "mshr_fail",
            FaultSite::WbOverflow => "wb_overflow",
            FaultSite::SpuriousSquash => "spurious_squash",
            FaultSite::ForcedEvict => "forced_evict",
            FaultSite::VclDelay => "vcl_delay",
        }
    }

    /// Per-site stream salt: the run seed is XORed with this before
    /// seeding the site's SplitMix64 stream, so sites draw from
    /// independent deterministic sequences.
    fn salt(self) -> u64 {
        // Odd multiples of the golden-ratio constant (distinct, fixed).
        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2 * (self as u64) + 1)
    }
}

/// A typed description of one injected fault, surfaced through the tracer
/// as [`TraceEvent::Fault`](crate::trace::TraceEvent::Fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The site that fired.
    pub site: FaultSite,
    /// The PU involved, if attributable.
    pub pu: Option<PuId>,
    /// The line involved, if attributable.
    pub line: Option<LineId>,
    /// Extra cycles charged by the fault.
    pub penalty: u64,
}

/// Per-site fault rates plus the penalty bound; parsed from `SVC_FAULTS`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability, per consultation, that each site fires (indexed as
    /// [`FaultSite::EVERY`]).
    pub rates: [f64; NUM_SITES],
    /// Upper bound (cycles) on an injected delay penalty.
    pub max_penalty: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            rates: [0.0; NUM_SITES],
            max_penalty: DEFAULT_MAX_PENALTY,
        }
    }
}

impl FaultConfig {
    /// Whether every rate is zero (nothing will ever fire).
    pub fn is_empty(&self) -> bool {
        self.rates.iter().all(|&r| r <= 0.0)
    }

    /// A config with every site firing at `rate`.
    pub fn uniform(rate: f64) -> FaultConfig {
        FaultConfig {
            rates: [rate; NUM_SITES],
            ..FaultConfig::default()
        }
    }

    /// Parses a spec like `"bus_drop=0.01,mshr_fail=0.005"`. The pseudo
    /// site `all` sets every rate at once; `penalty=N` bounds injected
    /// delays. An empty spec parses to the empty (disabled) config.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("fault spec token {token:?} is not key=value"))?;
            let key = key.trim();
            let value = value.trim();
            if key == "penalty" {
                cfg.max_penalty = value
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("fault penalty {value:?} is not a positive integer"))?;
                continue;
            }
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("fault rate {value:?} is not a number"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("fault rate {rate} for {key:?} is outside [0, 1]"));
            }
            if key == "all" {
                cfg.rates = [rate; NUM_SITES];
                continue;
            }
            let site = FaultSite::EVERY
                .into_iter()
                .find(|s| s.name() == key)
                .ok_or_else(|| {
                    format!(
                        "unknown fault site {key:?} (known: all, penalty, {})",
                        FaultSite::EVERY.map(FaultSite::name).join(", ")
                    )
                })?;
            cfg.rates[site as usize] = rate;
        }
        Ok(cfg)
    }
}

/// The spec [`FaultConfig::parse`] reads back as this config: each
/// firing site's `name=rate`, then `penalty=N`.
impl fmt::Display for FaultConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for site in FaultSite::EVERY {
            let rate = self.rates[site as usize];
            if rate > 0.0 {
                write!(f, "{}={rate},", site.name())?;
            }
        }
        write!(f, "penalty={}", self.max_penalty)
    }
}

/// A periodic fault-storm schedule for soak runs: every `period` ticks
/// of the soak clock, faults rain uniformly at `rate` for the final
/// `duration` ticks of the period (so each period opens calm and closes
/// stormy — recovery is observable in between). Deterministic: whether a
/// tick is stormy is a pure function of the tick number.
#[derive(Debug, Clone, PartialEq)]
pub struct StormSchedule {
    /// Ticks per storm cycle.
    pub period: u64,
    /// Stormy ticks at the end of each period (`1..=period`).
    pub duration: u64,
    /// Per-site fault rate while the storm is active.
    pub rate: f64,
    /// Upper bound (cycles) on injected delay penalties.
    pub penalty: u64,
}

impl Default for StormSchedule {
    fn default() -> StormSchedule {
        StormSchedule {
            period: 8,
            duration: 2,
            rate: 0.02,
            penalty: DEFAULT_MAX_PENALTY,
        }
    }
}

impl StormSchedule {
    /// Parses a spec like `"period=8,duration=2,rate=0.02,penalty=6"`;
    /// omitted keys keep their defaults. `duration` must stay within
    /// `1..=period` and `rate` within `[0, 1]`.
    pub fn parse(spec: &str) -> Result<StormSchedule, String> {
        let mut s = StormSchedule::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("storm spec token {token:?} is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "period" => {
                    s.period = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("storm period {value:?} is not a positive integer")
                        })?;
                }
                "duration" => {
                    s.duration = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("storm duration {value:?} is not a positive integer")
                        })?;
                }
                "rate" => {
                    let rate: f64 = value
                        .parse()
                        .map_err(|_| format!("storm rate {value:?} is not a number"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("storm rate {rate} is outside [0, 1]"));
                    }
                    s.rate = rate;
                }
                "penalty" => {
                    s.penalty = value
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| {
                            format!("storm penalty {value:?} is not a positive integer")
                        })?;
                }
                other => {
                    return Err(format!(
                        "unknown storm key {other:?} (known: period, duration, rate, penalty)"
                    ));
                }
            }
        }
        if s.duration > s.period {
            return Err(format!(
                "storm duration {} exceeds period {}",
                s.duration, s.period
            ));
        }
        Ok(s)
    }

    /// Whether `tick` falls inside a storm (the last `duration` ticks of
    /// each period).
    pub fn active(&self, tick: u64) -> bool {
        tick % self.period >= self.period - self.duration
    }

    /// Which storm `tick` belongs to (the period index); meaningful only
    /// when [`active`](StormSchedule::active).
    pub fn storm_index(&self, tick: u64) -> u64 {
        tick / self.period
    }

    /// The uniform fault config a storm tick runs under.
    pub fn config(&self) -> FaultConfig {
        FaultConfig {
            rates: [self.rate; NUM_SITES],
            max_penalty: self.penalty,
        }
    }

    /// Renders the canonical spec string (re-parseable by
    /// [`parse`](StormSchedule::parse)).
    pub fn spec(&self) -> String {
        format!(
            "period={},duration={},rate={},penalty={}",
            self.period, self.duration, self.rate, self.penalty
        )
    }
}

fn threshold(rate: f64) -> u64 {
    if rate <= 0.0 {
        0
    } else if rate >= 1.0 {
        u64::MAX
    } else {
        (rate * (u64::MAX as f64)) as u64
    }
}

#[derive(Debug)]
struct State {
    thresholds: [u64; NUM_SITES],
    max_penalty: u64,
    streams: [SplitMix64; NUM_SITES],
    injected: [u64; NUM_SITES],
}

/// A cheap-to-clone fault-injection handle. All clones share one set of
/// per-site streams and counters; a default-constructed handle is
/// disabled and costs one branch per [`inject`](Faults::inject).
#[derive(Debug, Clone, Default)]
pub struct Faults {
    inner: Option<Rc<RefCell<State>>>,
}

/// Handles compare by enabled-ness only, so simulator components keep
/// their derived `PartialEq` implementations (mirrors `Tracer`).
impl PartialEq for Faults {
    fn eq(&self, other: &Faults) -> bool {
        self.is_active() == other.is_active()
    }
}

impl Eq for Faults {}

impl Faults {
    /// A disabled injector (same as `Faults::default()`).
    pub fn disabled() -> Faults {
        Faults::default()
    }

    /// An injector drawing each site's schedule from `seed ^ site-salt`.
    /// An all-zero config yields a disabled handle.
    pub fn new(config: &FaultConfig, seed: u64) -> Faults {
        if config.is_empty() {
            return Faults::disabled();
        }
        let mut thresholds = [0u64; NUM_SITES];
        for site in FaultSite::EVERY {
            thresholds[site as usize] = threshold(config.rates[site as usize]);
        }
        Faults {
            inner: Some(Rc::new(RefCell::new(State {
                thresholds,
                max_penalty: config.max_penalty.max(1),
                streams: FaultSite::EVERY.map(|s| SplitMix64::new(seed ^ s.salt())),
                injected: [0; NUM_SITES],
            }))),
        }
    }

    /// Whether any site can fire — the single branch on the fast path.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Consults `site`'s stream. Returns the penalty (at least one
    /// cycle) when the fault fires, `None` otherwise. Disabled handles
    /// return `None` after one branch and never touch any stream.
    #[inline]
    pub fn inject(&self, site: FaultSite) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let mut st = inner.borrow_mut();
        let i = site as usize;
        if st.thresholds[i] == 0 {
            return None;
        }
        if st.streams[i].next_u64() >= st.thresholds[i] {
            return None;
        }
        st.injected[i] += 1;
        let max = st.max_penalty;
        let penalty = 1 + st.streams[i].next_u64() % max;
        Some(penalty)
    }

    /// How many times `site` has fired.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.borrow().injected[site as usize])
    }

    /// Total faults injected across every site.
    pub fn total_injected(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |s| s.borrow().injected.iter().sum())
    }

    /// Per-site injection counts, in [`FaultSite::EVERY`] order.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        FaultSite::EVERY
            .into_iter()
            .map(|s| (s.name(), self.injected(s)))
            .collect()
    }
}

/// A checkpoint captures every per-site stream position and injected
/// counter, so a resumed faulted run draws the exact same schedule the
/// uninterrupted run would have. The handle itself must already be
/// attached (built from the same `FaultConfig` and seed) before restore;
/// thresholds are saved only to cross-check that configuration.
impl svc_types::Checkpointable for Faults {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        match &self.inner {
            None => w.put_bool(false),
            Some(inner) => {
                w.put_bool(true);
                let st = inner.borrow();
                st.thresholds.save_state(w);
                st.max_penalty.save_state(w);
                st.streams.save_state(w);
                st.injected.save_state(w);
            }
        }
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let active = r.take_bool()?;
        if active != self.is_active() {
            return Err(svc_types::CkptError::corrupt(
                "fault-injector attachment disagrees with the checkpoint",
            ));
        }
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut st = inner.borrow_mut();
        let expected = st.thresholds;
        st.thresholds.restore_state(r)?;
        if st.thresholds != expected {
            return Err(svc_types::CkptError::corrupt(
                "fault thresholds disagree with the configured rates",
            ));
        }
        st.max_penalty.restore_state(r)?;
        st.streams.restore_state(r)?;
        st.injected.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_display() {
        for spec in [
            "",
            "all=0.01, penalty=5",
            "bus_drop=0.3,vcl_delay=1",
            "mem_jitter=1e-7",
        ] {
            let cfg = FaultConfig::parse(spec).unwrap();
            assert_eq!(FaultConfig::parse(&cfg.to_string()), Ok(cfg), "{spec:?}");
        }
    }

    #[test]
    fn disabled_injector_never_fires() {
        let f = Faults::disabled();
        assert!(!f.is_active());
        for site in FaultSite::EVERY {
            assert_eq!(f.inject(site), None);
        }
        assert_eq!(f.total_injected(), 0);
    }

    #[test]
    fn empty_config_is_disabled() {
        assert!(!Faults::new(&FaultConfig::default(), 1).is_active());
        let cfg = FaultConfig::parse("").unwrap();
        assert!(cfg.is_empty());
    }

    #[test]
    fn spec_parsing() {
        let cfg = FaultConfig::parse("bus_drop=0.5, mshr_fail=0.25, penalty=3").unwrap();
        assert_eq!(cfg.rates[FaultSite::BusDrop as usize], 0.5);
        assert_eq!(cfg.rates[FaultSite::MshrFail as usize], 0.25);
        assert_eq!(cfg.rates[FaultSite::BusDelay as usize], 0.0);
        assert_eq!(cfg.max_penalty, 3);
        let all = FaultConfig::parse("all=0.01").unwrap();
        assert!(all.rates.iter().all(|&r| r == 0.01));
        assert!(FaultConfig::parse("bogus=0.1").is_err());
        assert!(FaultConfig::parse("bus_drop=2.0").is_err());
        assert!(FaultConfig::parse("bus_drop").is_err());
        assert!(FaultConfig::parse("penalty=0").is_err());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig::parse("all=0.3").unwrap();
        let a = Faults::new(&cfg, 99);
        let b = Faults::new(&cfg, 99);
        for _ in 0..2000 {
            for site in FaultSite::EVERY {
                assert_eq!(a.inject(site), b.inject(site));
            }
        }
        assert_eq!(a.total_injected(), b.total_injected());
        assert!(a.total_injected() > 0, "rate 0.3 fires within 2000 draws");
    }

    #[test]
    fn sites_draw_independent_streams() {
        let cfg = FaultConfig::parse("all=1.0").unwrap();
        let f = Faults::new(&cfg, 7);
        // Every site fires at rate 1.0 and counts independently.
        for site in FaultSite::EVERY {
            assert!(f.inject(site).is_some());
            assert_eq!(f.injected(site), 1);
        }
        assert_eq!(f.total_injected(), NUM_SITES as u64);
    }

    #[test]
    fn penalties_are_bounded_and_positive() {
        let cfg = FaultConfig::parse("all=1.0,penalty=5").unwrap();
        let f = Faults::new(&cfg, 3);
        for _ in 0..100 {
            for site in FaultSite::EVERY {
                let p = f.inject(site).unwrap();
                assert!((1..=5).contains(&p));
            }
        }
    }

    #[test]
    fn clones_share_streams_and_counters() {
        let cfg = FaultConfig::parse("bus_delay=1.0").unwrap();
        let a = Faults::new(&cfg, 1);
        let b = a.clone();
        a.inject(FaultSite::BusDelay);
        b.inject(FaultSite::BusDelay);
        assert_eq!(a.injected(FaultSite::BusDelay), 2);
        assert_eq!(b.injected(FaultSite::BusDelay), 2);
    }

    #[test]
    fn counts_are_labelled_in_stable_order() {
        let f = Faults::new(&FaultConfig::uniform(1.0), 2);
        f.inject(FaultSite::VclDelay);
        let counts = f.counts();
        assert_eq!(counts.len(), NUM_SITES);
        assert_eq!(counts[0].0, "bus_drop");
        assert_eq!(counts[NUM_SITES - 1], ("vcl_delay", 1));
    }

    #[test]
    fn storm_schedule_phases() {
        let s = StormSchedule::parse("period=8,duration=2,rate=0.5,penalty=6").unwrap();
        // Stormy ticks are the last `duration` of each period.
        for t in [6, 7, 14, 15] {
            assert!(s.active(t), "tick {t} should be stormy");
        }
        for t in [0, 1, 5, 8, 13] {
            assert!(!s.active(t), "tick {t} should be calm");
        }
        assert_eq!(s.storm_index(6), 0);
        assert_eq!(s.storm_index(14), 1);
        assert_eq!(s.config().max_penalty, 6);
        assert!(!s.config().is_empty());
        assert_eq!(StormSchedule::parse(&s.spec()).unwrap(), s);
    }

    #[test]
    fn storm_schedule_rejects_bad_specs() {
        assert!(StormSchedule::parse("period=0").is_err());
        assert!(StormSchedule::parse("duration=9,period=4").is_err());
        assert!(StormSchedule::parse("rate=1.5").is_err());
        assert!(StormSchedule::parse("bogus=1").is_err());
        assert_eq!(StormSchedule::parse("").unwrap(), StormSchedule::default());
    }
}
