//! Typed CLI errors and stable exit codes, shared by `svc-sim` and the
//! experiment binaries.
//!
//! Every binary maps its failure modes onto three codes so scripts and
//! CI can tell them apart without parsing stderr:
//!
//! | code | meaning |
//! |---|---|
//! | [`EXIT_USAGE`] (2) | bad flags / arguments |
//! | [`EXIT_IO`] (3) | filesystem or baseline I/O failure |
//! | [`EXIT_INVARIANT`] (4) | an invariant violation or silent-corruption finding |

use std::fmt;
use std::process::ExitCode;

use crate::RunOptions;

/// Exit code for usage errors (bad flags, unknown subcommands).
pub const EXIT_USAGE: u8 = 2;
/// Exit code for I/O errors (results dir, baselines, trace sinks).
pub const EXIT_IO: u8 = 3;
/// Exit code for invariant violations / silent corruption findings.
pub const EXIT_INVARIANT: u8 = 4;

/// A typed CLI failure carrying its message and exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line was malformed; the payload is the complaint
    /// (callers usually print usage alongside).
    Usage(String),
    /// An I/O operation failed; the payload names the path/operation.
    Io(String),
    /// An invariant violation (or an unrecovered fault) was detected.
    Invariant(String),
}

impl CliError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Io(_) => EXIT_IO,
            CliError::Invariant(_) => EXIT_INVARIANT,
        }
    }

    /// Wraps an [`std::io::Error`] with the path/operation context.
    pub fn io(context: impl fmt::Display, err: std::io::Error) -> CliError {
        CliError::Io(format!("{context}: {err}"))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
            CliError::Invariant(msg) => write!(f, "invariant violation: {msg}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(err: std::io::Error) -> CliError {
        CliError::Io(err.to_string())
    }
}

/// Unwraps an I/O result or prints the typed error and exits with
/// [`EXIT_IO`]. For experiment binaries whose `main` ends in
/// `process::exit` rather than returning a `Result`.
pub fn check_io<T>(context: impl fmt::Display, result: std::io::Result<T>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{}", CliError::io(context, e));
            std::process::exit(i32::from(EXIT_IO));
        }
    }
}

/// Resolves an experiment binary's [`RunOptions`] from its command line
/// and the environment ([`options::env`](crate::options::env)). The one
/// flag is `--profile`, which answers `SVC_PROFILE=1`: it enables the
/// cycle-accounting profiler and makes the binary write
/// `results/<name>.profile.json` next to each experiment document. Any
/// other argument, or a malformed variable, exits with [`EXIT_USAGE`]
/// rather than being silently ignored.
pub fn experiment_options(name: &str) -> RunOptions {
    let mut profile = false;
    for arg in std::env::args().skip(1) {
        if arg == "--profile" {
            profile = true;
        } else {
            eprintln!(
                "usage error: {name} takes only --profile (got {arg:?}); \
                 configure it via SVC_EXPERIMENT_BUDGET / SVC_EXPERIMENT_THREADS / SVC_PROFILE"
            );
            std::process::exit(i32::from(EXIT_USAGE));
        }
    }
    let lookup = |knob: &str| match knob {
        "SVC_PROFILE" if profile => Some("1".to_string()),
        _ => crate::options::env(knob),
    };
    RunOptions::parse(lookup).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(i32::from(EXIT_USAGE));
    })
}

/// Standard `main` tail: prints the error to stderr and converts it to
/// its exit code; `Ok` becomes success.
pub fn exit_report(result: Result<(), CliError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Io("x".into()).exit_code(), 3);
        assert_eq!(CliError::Invariant("x".into()).exit_code(), 4);
    }

    #[test]
    fn io_wrapper_keeps_context() {
        let e = CliError::io(
            "results/fig19.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let s = format!("{e}");
        assert!(s.contains("results/fig19.json") && s.contains("gone"));
    }
}
