//! Run options: every knob that shapes a run, resolved once at a
//! binary's edge and passed down as one [`RunOptions`] value. Library
//! code reads no environment variable.
//!
//! [`RunOptions::parse`] resolves each knob through a `lookup(name)`
//! closure. A binary's `main` hands it [`env()`] with its flags layered in
//! front: the experiment binaries' `--profile` answers `SVC_PROFILE`,
//! `svc-sim`'s tracing flags answer `SVC_TRACE`, and `svc-sim resume`
//! answers the [`ATTACHMENT_KNOBS`] from the checkpoint header. An unset
//! or empty variable takes its default; a value that does not parse is a
//! usage error naming the variable.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use svc_sim::fault::FaultConfig;
use svc_sim::profile::{Profiler, DEFAULT_EPOCH};
use svc_sim::trace::{parse_filter, DEFAULT_CAPACITY};

use crate::cli::CliError;

/// The knobs that decide what a run attaches to its engine besides the
/// tracer: the profiler, the watchdog and the fault injector. A run
/// checkpoint records their values so a resumed run rebuilds the same
/// attachments whatever the resuming shell exports.
pub const ATTACHMENT_KNOBS: [&str; 5] = [
    "SVC_PROFILE",
    "SVC_PROFILE_EPOCH",
    "SVC_PROFILE_WINDOW",
    "SVC_WATCHDOG",
    "SVC_FAULTS",
];

/// Every run-time knob of the experiment harness and `svc-sim`, with the
/// variable that sets it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// `SVC_EXPERIMENT_BUDGET`: committed instructions per cell, in place
    /// of the binary's default.
    pub budget: Option<u64>,
    /// `SVC_EXPERIMENT_THREADS`: harness workers (default: all cores).
    pub threads: usize,
    /// `SVC_TRACE`: trace categories (`all` or e.g. `bus,task`; 0: off).
    pub trace: u32,
    /// `SVC_TRACE_CAP`: trace ring capacity in events.
    pub trace_capacity: usize,
    /// `SVC_TRACE_OUT`: directory for each traced cell's three sinks.
    pub trace_out: Option<PathBuf>,
    /// `SVC_PROFILE`: attach the profiler (any value but `0`).
    pub profile: bool,
    /// `SVC_PROFILE_EPOCH`: profiler sampling epoch in cycles (0: none).
    pub profile_epoch: u64,
    /// `SVC_PROFILE_WINDOW`: profiler interval retention (0: unbounded).
    pub profile_window: usize,
    /// `SVC_FAULTS`: fault-injection rates (empty: none).
    pub faults: FaultConfig,
    /// `SVC_WATCHDOG`: sweep cadence in cycles (0: off; `1` selects 256).
    pub watchdog: u64,
    /// `SVC_GRID_JOURNAL`: directory journaling the grids' finished cells.
    pub grid_journal: Option<PathBuf>,
    /// `SVC_RESULTS_DIR`: where `results/*.json` documents go.
    pub results_dir: PathBuf,
    /// Step every cycle instead of jumping idle ones: the fast-forward
    /// differential test's reference. No variable sets it.
    pub step_every_cycle: bool,
}

/// The process environment as a [`RunOptions::parse`] lookup.
pub fn env(name: &str) -> Option<String> {
    std::env::var_os(name).map(|v| v.to_string_lossy().into_owned())
}

impl Default for RunOptions {
    /// The options of an empty environment.
    fn default() -> RunOptions {
        RunOptions::parse(|_| None).expect("the defaults parse")
    }
}

fn int<T: FromStr<Err: Display>>(v: &str) -> Result<T, String> {
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn positive(v: &str) -> Result<usize, String> {
    match int(v)? {
        0 => Err("must be positive".into()),
        n => Ok(n),
    }
}

fn path(v: &str) -> Result<PathBuf, String> {
    Ok(v.into())
}

impl RunOptions {
    /// Resolves every knob through `lookup`; a malformed value is a
    /// [`CliError::Usage`] naming its variable.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<RunOptions, CliError> {
        fn knob<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            name: &str,
            parse: impl FnOnce(&str) -> Result<T, String>,
        ) -> Result<Option<T>, CliError> {
            let Some(v) = lookup(name).filter(|v| !v.is_empty()) else {
                return Ok(None);
            };
            parse(&v)
                .map(Some)
                .map_err(|e| CliError::Usage(format!("{name}={v:?}: {e}")))
        }
        let cores = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let l = &lookup;
        Ok(RunOptions {
            budget: knob(l, "SVC_EXPERIMENT_BUDGET", int)?,
            threads: knob(l, "SVC_EXPERIMENT_THREADS", positive)?.unwrap_or_else(cores),
            trace: knob(l, "SVC_TRACE", parse_filter)?.unwrap_or(0),
            trace_capacity: knob(l, "SVC_TRACE_CAP", positive)?.unwrap_or(DEFAULT_CAPACITY),
            trace_out: knob(l, "SVC_TRACE_OUT", path)?,
            profile: knob(l, "SVC_PROFILE", |v| Ok(v != "0"))?.unwrap_or(false),
            profile_epoch: knob(l, "SVC_PROFILE_EPOCH", int)?.unwrap_or(DEFAULT_EPOCH),
            profile_window: knob(l, "SVC_PROFILE_WINDOW", int)?.unwrap_or(0),
            faults: knob(l, "SVC_FAULTS", FaultConfig::parse)?.unwrap_or_default(),
            watchdog: match knob(l, "SVC_WATCHDOG", int)? {
                Some(1) => 256,
                n => n.unwrap_or(0),
            },
            grid_journal: knob(l, "SVC_GRID_JOURNAL", path)?,
            results_dir: knob(l, "SVC_RESULTS_DIR", path)?.unwrap_or_else(|| "results".into()),
            step_every_cycle: false,
        })
    }

    /// A fresh profiler for one run over `num_pus` PUs (disabled when
    /// profiling is off).
    pub fn profiler(&self, num_pus: usize) -> Profiler {
        if !self.profile {
            return Profiler::disabled();
        }
        let p = Profiler::new(num_pus, self.profile_epoch);
        p.set_window(self.profile_window);
        p
    }

    /// Values of the [`ATTACHMENT_KNOBS`] that [`RunOptions::parse`]
    /// maps back to these options' attachments (`None`: unset).
    pub fn attachment_values(&self) -> [Option<String>; 5] {
        [
            self.profile.then(|| "1".to_string()),
            (self.profile_epoch != DEFAULT_EPOCH).then(|| self.profile_epoch.to_string()),
            (self.profile_window != 0).then(|| self.profile_window.to_string()),
            (self.watchdog != 0).then(|| self.watchdog.to_string()),
            (!self.faults.is_empty()).then(|| self.faults.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses options from `name=value` pairs, as a binary's lookup
    /// closure would see them.
    fn parse(vars: &[(&str, &str)]) -> Result<RunOptions, CliError> {
        RunOptions::parse(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn empty_lookup_gives_the_defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o, RunOptions::default());
        assert_eq!(o.budget, None);
        assert!(o.threads >= 1);
        assert_eq!(o.trace, 0);
        assert!(!o.profiler(4).is_active());
        assert!(o.faults.is_empty());
        assert_eq!(o.watchdog, 0);
        assert_eq!(o.results_dir, PathBuf::from("results"));
        assert!(!o.step_every_cycle);
        assert_eq!(o.attachment_values(), [None, None, None, None, None]);
    }

    #[test]
    fn empty_values_are_unset() {
        let all: Vec<(&str, &str)> = [
            "SVC_EXPERIMENT_BUDGET",
            "SVC_EXPERIMENT_THREADS",
            "SVC_TRACE",
            "SVC_TRACE_CAP",
            "SVC_TRACE_OUT",
            "SVC_GRID_JOURNAL",
            "SVC_RESULTS_DIR",
        ]
        .into_iter()
        .chain(ATTACHMENT_KNOBS)
        .map(|k| (k, ""))
        .collect();
        assert_eq!(parse(&all).unwrap(), RunOptions::default());
    }

    #[test]
    fn accepted_values_keep_their_meaning() {
        let o = parse(&[
            ("SVC_EXPERIMENT_BUDGET", "60000"),
            ("SVC_EXPERIMENT_THREADS", "3"),
            ("SVC_TRACE", "bus,task"),
            ("SVC_TRACE_CAP", "128"),
            ("SVC_TRACE_OUT", "/tmp/t"),
            ("SVC_PROFILE", "yes"),
            ("SVC_PROFILE_EPOCH", "0"),
            ("SVC_PROFILE_WINDOW", "16"),
            ("SVC_FAULTS", "all=0.01, penalty=5"),
            ("SVC_WATCHDOG", "1"),
            ("SVC_GRID_JOURNAL", "/tmp/j"),
            ("SVC_RESULTS_DIR", "/tmp/r"),
        ])
        .unwrap();
        assert_eq!(o.budget, Some(60_000));
        assert_eq!(o.threads, 3);
        assert_eq!(o.trace, parse_filter("bus,task").unwrap());
        assert_eq!(o.trace_capacity, 128);
        assert_eq!(o.trace_out, Some(PathBuf::from("/tmp/t")));
        assert!(o.profile && o.profiler(4).is_active());
        assert_eq!((o.profile_epoch, o.profile_window), (0, 16));
        assert_eq!(o.faults, FaultConfig::parse("all=0.01,penalty=5").unwrap());
        assert_eq!(o.watchdog, 256, "1 selects the default cadence");
        assert_eq!(o.grid_journal, Some(PathBuf::from("/tmp/j")));
        assert_eq!(o.results_dir, PathBuf::from("/tmp/r"));

        // `0` switches the profiler and the watchdog off; other
        // cadences are taken as given.
        let o = parse(&[("SVC_PROFILE", "0"), ("SVC_WATCHDOG", "0")]).unwrap();
        assert!(!o.profile);
        assert_eq!(o.watchdog, 0);
        assert_eq!(parse(&[("SVC_WATCHDOG", "64")]).unwrap().watchdog, 64);
        assert_eq!(
            parse(&[("SVC_EXPERIMENT_BUDGET", "0")]).unwrap().budget,
            Some(0)
        );
    }

    #[test]
    fn malformed_values_are_usage_errors_naming_the_variable() {
        for (name, value) in [
            ("SVC_EXPERIMENT_BUDGET", "60k"),
            ("SVC_EXPERIMENT_BUDGET", "-1"),
            ("SVC_EXPERIMENT_THREADS", "many"),
            ("SVC_EXPERIMENT_THREADS", "0"),
            ("SVC_TRACE", "bus,nonsense"),
            ("SVC_TRACE_CAP", "big"),
            ("SVC_TRACE_CAP", "0"),
            ("SVC_PROFILE_EPOCH", "1k"),
            ("SVC_PROFILE_WINDOW", "-3"),
            ("SVC_FAULTS", "bus_drop=2"),
            ("SVC_FAULTS", "bogus=0.1"),
            ("SVC_WATCHDOG", "yes"),
        ] {
            match parse(&[(name, value)]) {
                Err(CliError::Usage(msg)) => {
                    assert!(msg.contains(name), "{name}={value}: {msg}")
                }
                other => panic!("{name}={value} must be a usage error, got {other:?}"),
            }
        }
    }

    #[test]
    fn attachment_values_parse_back_to_the_same_attachments() {
        let attachments = |o: &RunOptions| {
            (
                o.profile,
                o.profile_epoch,
                o.profile_window,
                o.watchdog,
                o.faults.clone(),
            )
        };
        for vars in [
            &[][..],
            &[("SVC_PROFILE", "on"), ("SVC_PROFILE_WINDOW", "4")][..],
            &[("SVC_PROFILE_EPOCH", "500"), ("SVC_WATCHDOG", "1")][..],
            &[("SVC_WATCHDOG", "77"), ("SVC_FAULTS", "bus_delay=0.05")][..],
            &[("SVC_FAULTS", "all=0.02, penalty=3")][..],
        ] {
            let o = parse(vars).unwrap();
            let values = o.attachment_values();
            let back = RunOptions::parse(|name| {
                let i = ATTACHMENT_KNOBS.iter().position(|&k| k == name)?;
                values[i].clone()
            })
            .unwrap();
            assert_eq!(attachments(&back), attachments(&o), "{vars:?}");
        }
    }
}
