//! `svc-check` — the explicit-state model checker's command line.
//!
//! Subcommands:
//!
//! * `explore [--design NAME ...] [--max-states N] [--expect-violation]
//!   [--write-counterexample FILE]` — exhaustively explore the bounded
//!   state space of one or more designs (default: all). Exits
//!   [`EXIT_INVARIANT`](svc_bench::cli::EXIT_INVARIANT) on a property violation or a truncated run;
//!   `--expect-violation` inverts that (used by the mutation campaign).
//! * `replay FILE [--emit-test FILE] [--provenance NAME]` — replay a
//!   counterexample script; optionally render it as a standalone
//!   regression `#[test]`.
//! * `mutations [--emit-tests DIR]` — for every seeded mutation site,
//!   re-run the checker in a child process with `SVC_MUTATE=<site>` and
//!   verify the mutation is caught; the minimized counterexample must
//!   then replay cleanly against the unmutated implementation.
//! * `report` — run all designs and write `results/check.json`
//!   (`svc-check/v1`), the document the `regress` gate pins.
//!
//! Exit codes follow the repo convention: 0 success, 2 usage, 3 I/O,
//! 4 property violation / uncaught mutation.

use std::process::ExitCode;

use svc_bench::cli::CliError;
use svc_bench::options::{self, RunOptions};
use svc_bench::report;
use svc_check::{
    design_for_mutation, explore_design, replay_design, DesignId, Limits, Script, ALL_DESIGNS,
};
use svc_types::Mutation;

const USAGE: &str = "usage: svc-check <explore|replay|mutations|report> [options]
  explore [--design NAME ...] [--max-states N] [--expect-violation] [--write-counterexample FILE]
  replay FILE [--emit-test FILE] [--provenance NAME]
  mutations [--emit-tests DIR]
  report";

fn parse_designs(args: &mut Vec<String>) -> Result<Vec<DesignId>, CliError> {
    let mut designs = Vec::new();
    while let Some(i) = args.iter().position(|a| a == "--design") {
        if i + 1 >= args.len() {
            return Err(CliError::Usage("--design needs a value".into()));
        }
        let name = args.remove(i + 1);
        args.remove(i);
        designs.push(
            DesignId::from_name(&name)
                .ok_or_else(|| CliError::Usage(format!("unknown design {name:?}")))?,
        );
    }
    if designs.is_empty() {
        designs.extend(ALL_DESIGNS);
    }
    Ok(designs)
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() {
            return Err(CliError::Usage(format!("{flag} needs a value")));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn reject_leftovers(args: &[String]) -> Result<(), CliError> {
    if let Some(extra) = args.first() {
        return Err(CliError::Usage(format!(
            "unknown argument {extra:?}\n{USAGE}"
        )));
    }
    Ok(())
}

fn cmd_explore(mut args: Vec<String>) -> Result<(), CliError> {
    let designs = parse_designs(&mut args)?;
    let max_states = take_value(&mut args, "--max-states")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("bad --max-states {v:?}")))
        })
        .transpose()?;
    let expect_violation = take_flag(&mut args, "--expect-violation");
    let ce_path = take_value(&mut args, "--write-counterexample")?;
    reject_leftovers(&args)?;

    let mut limits = Limits::default();
    if let Some(n) = max_states {
        limits.max_states = n;
    }
    let mut bad = 0;
    for design in designs {
        let out = explore_design(design, &limits);
        println!(
            "{:10} states={} transitions={} max_depth={} truncated={} violation={}",
            design.name(),
            out.states,
            out.transitions,
            out.max_depth,
            out.truncated,
            out.violation.is_some(),
        );
        match &out.violation {
            Some(cx) => {
                println!("{}: {}", design.name(), cx.failure);
                print!("{}", cx.script.render());
                if let Some(path) = &ce_path {
                    std::fs::write(path, cx.script.render()).map_err(|e| CliError::io(path, e))?;
                    println!("counterexample written: {path}");
                }
                if !expect_violation {
                    bad += 1;
                }
            }
            None => {
                if out.truncated {
                    println!(
                        "{}: truncated at {} states — not an exhaustive result",
                        design.name(),
                        out.states
                    );
                    bad += 1;
                } else if expect_violation {
                    println!("{}: expected a violation, found none", design.name());
                    bad += 1;
                }
            }
        }
    }
    if bad > 0 {
        return Err(CliError::Invariant(format!("{bad} design(s) failed")));
    }
    Ok(())
}

fn cmd_replay(mut args: Vec<String>) -> Result<(), CliError> {
    let emit_test = take_value(&mut args, "--emit-test")?;
    let provenance = take_value(&mut args, "--provenance")?;
    if args.len() != 1 {
        return Err(CliError::Usage(format!(
            "replay takes one script file\n{USAGE}"
        )));
    }
    let path = args.remove(0);
    let text = std::fs::read_to_string(&path).map_err(|e| CliError::io(&path, e))?;
    let script = Script::parse(&text).map_err(CliError::Usage)?;
    let outcome = replay_design(script.design, &script.actions).map_err(CliError::Usage)?;
    match &outcome.failure {
        Some(failure) => println!(
            "replay: {} failed at action {} of {}: {}",
            script.design.name(),
            outcome.executed,
            script.actions.len(),
            failure
        ),
        None => println!(
            "replay: {} clean ({} actions)",
            script.design.name(),
            outcome.executed
        ),
    }
    if let Some(test_path) = emit_test {
        let provenance = provenance.unwrap_or_else(|| "manual".to_string());
        let src = svc_check::emit::emit_test(&script, &provenance);
        std::fs::write(&test_path, src).map_err(|e| CliError::io(&test_path, e))?;
        println!("test written: {test_path}");
    }
    if outcome.failure.is_some() {
        return Err(CliError::Invariant("replay failed".into()));
    }
    Ok(())
}

fn cmd_mutations(mut args: Vec<String>) -> Result<(), CliError> {
    let emit_dir = take_value(&mut args, "--emit-tests")?;
    reject_leftovers(&args)?;
    if Mutation::active().is_some() {
        return Err(CliError::Usage(
            "run `svc-check mutations` without SVC_MUTATE set; it spawns mutated children itself"
                .into(),
        ));
    }
    let exe = std::env::current_exe().map_err(|e| CliError::io("current_exe", e))?;
    let mut uncaught = Vec::new();
    for site in Mutation::ALL {
        let design = design_for_mutation(site);
        let ce_path = std::env::temp_dir().join(format!(
            "svc-check-ce-{}-{}.trace",
            std::process::id(),
            site.key()
        ));
        let status = std::process::Command::new(&exe)
            .args([
                "explore",
                "--design",
                design.name(),
                "--expect-violation",
                "--write-counterexample",
            ])
            .arg(&ce_path)
            .env("SVC_MUTATE", site.key())
            .status()
            .map_err(|e| CliError::io("spawning mutated child", e))?;
        if !status.success() {
            println!("UNCAUGHT {} (design {})", site.key(), design.name());
            uncaught.push(site.key());
            continue;
        }
        // The minimized counterexample must replay cleanly unmutated:
        // that is exactly the regression test it becomes.
        let text =
            std::fs::read_to_string(&ce_path).map_err(|e| CliError::io(ce_path.display(), e))?;
        let script = Script::parse(&text).map_err(CliError::Usage)?;
        let clean = replay_design(script.design, &script.actions).map_err(CliError::Usage)?;
        if let Some(failure) = clean.failure {
            return Err(CliError::Invariant(format!(
                "{}: counterexample also fails unmutated ({failure}) — real bug, not a kill",
                site.key()
            )));
        }
        println!(
            "KILLED {} (design {}, {} actions)",
            site.key(),
            design.name(),
            script.actions.len()
        );
        if let Some(dir) = &emit_dir {
            let dir = std::path::Path::new(dir);
            std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir.display(), e))?;
            let path = dir.join(format!("{}.rs", site.key().replace('-', "_")));
            let src = svc_check::emit::emit_test(&script, site.key());
            std::fs::write(&path, src).map_err(|e| CliError::io(path.display(), e))?;
            println!("test written: {}", path.display());
        }
        let _ = std::fs::remove_file(&ce_path);
    }
    if !uncaught.is_empty() {
        return Err(CliError::Invariant(format!(
            "{} mutation site(s) not caught: {}",
            uncaught.len(),
            uncaught.join(", ")
        )));
    }
    println!("mutations: all {} sites killed", Mutation::ALL.len());
    Ok(())
}

fn cmd_report(args: Vec<String>, opts: &RunOptions) -> Result<(), CliError> {
    reject_leftovers(&args)?;
    let doc = svc_bench::checkgate::fresh_check_doc().map_err(CliError::Invariant)?;
    let path = report::write_experiment(&opts.results_dir, "check", &doc)
        .map_err(|e| CliError::io("results/check.json", e))?;
    println!("check document written: {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(svc_bench::cli::EXIT_USAGE);
    }
    let cmd = args.remove(0);
    let result = RunOptions::parse(options::env).and_then(|opts| match cmd.as_str() {
        "explore" => cmd_explore(args),
        "replay" => cmd_replay(args),
        "mutations" => cmd_mutations(args),
        "report" => cmd_report(args, &opts),
        other => Err(CliError::Usage(format!(
            "unknown subcommand {other:?}\n{USAGE}"
        ))),
    });
    svc_bench::cli::exit_report(result)
}
