//! Kill-and-recover campaign against the real binary: SIGKILL a
//! checkpointing soak (and a checkpointing `run`) at varied points —
//! including during a fault storm and immediately after a ring write,
//! when a torn tmp file may still be in flight — then resume from the
//! newest valid checkpoint and assert the finished artifact is
//! byte-identical to a never-killed reference. Torn/truncated
//! checkpoints must be detected by checksum and skipped, and the
//! recovery must be invariant under `SVC_EXPERIMENT_THREADS`.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use svc_repro::bench::report::parse;

mod common;
use common::Scratch;

const BIN: &str = env!("CARGO_BIN_EXE_svc-sim");

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Shared soak shape: storms run ticks 4-5 and 8-9, so a kill after the
/// 4th checkpoint lands inside a fault storm.
const TICKS: &str = "10";
const SEED: &str = "11";
const SLICE: &str = "4000";
const STORM: &str = "period=4,duration=2,rate=0.05";

/// Runs the uninterrupted 10-tick reference soak and returns the
/// snapshot bytes.
fn reference_soak(out: &Path) -> Vec<u8> {
    let status = Command::new(BIN)
        .args([
            "serve",
            "--ticks",
            TICKS,
            "--seed",
            SEED,
            "--slice-budget",
            SLICE,
            "--storm",
            STORM,
            "--out",
        ])
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run reference soak");
    assert!(status.success(), "reference soak exited nonzero");
    std::fs::read(out).expect("reference snapshot")
}

/// Number of checkpoints written so far = highest sequence number + 1.
/// (Counting files would cap out at the ring's keep limit.)
fn count_checkpoints(ring: &Path) -> usize {
    std::fs::read_dir(ring)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy().into_owned();
                    n.strip_prefix("ckpt-")?
                        .strip_suffix(".svc")?
                        .parse::<usize>()
                        .ok()
                })
                .max()
                .map_or(0, |seq| seq + 1)
        })
        .unwrap_or(0)
}

/// Spawns an *unbounded* checkpointing soak, waits until the ring holds
/// at least `kill_after` checkpoints, then SIGKILLs it mid-flight.
fn killed_soak(ring: &Path, out: &Path, kill_after: usize) {
    std::fs::create_dir_all(ring).expect("ring dir");
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--ticks",
            "0",
            "--seed",
            SEED,
            "--slice-budget",
            SLICE,
            "--storm",
            STORM,
        ])
        .arg("--checkpoint-dir")
        .arg(ring)
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim soak");
    let start = Instant::now();
    while count_checkpoints(ring) < kill_after {
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "victim never wrote {kill_after} checkpoints"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // No grace, no flush: the process dies wherever it happens to be,
    // possibly halfway through the next ring write.
    unsafe {
        assert_eq!(kill(child.id() as i32, SIGKILL), 0, "kill(SIGKILL)");
    }
    child.wait().expect("reap victim");
}

/// Resumes the ring to the bounded tick count and returns the finished
/// snapshot bytes.
fn resume_soak(ring: &Path, out: &Path, threads: &str) -> Vec<u8> {
    let _ = std::fs::remove_file(out);
    let status = Command::new(BIN)
        .args(["resume"])
        .arg(ring)
        .args(["--ticks", TICKS, "--out"])
        .arg(out)
        .env("SVC_EXPERIMENT_THREADS", threads)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("resume soak");
    assert!(status.success(), "resume exited nonzero");
    std::fs::read(out).expect("resumed snapshot")
}

#[test]
fn sigkilled_soaks_resume_byte_identical_at_varied_kill_points() {
    let scratch = Scratch::new("crash-recover-kill-points");
    let reference = reference_soak(&scratch.path("ref.json"));

    // Kill after 2 checkpoints (quiet phase), after 5 (inside the first
    // fault storm), and after 8 (post-storm) — the resumed snapshot
    // must match the never-killed reference bit-for-bit every time.
    for (i, kill_after) in [2usize, 5, 8].into_iter().enumerate() {
        let ring = scratch.path(&format!("ring-{i}"));
        killed_soak(
            &ring,
            &scratch.path(&format!("killed-{i}.json")),
            kill_after,
        );
        let resumed = resume_soak(&ring, &scratch.path(&format!("resumed-{i}.json")), "1");
        assert_eq!(
            resumed, reference,
            "kill after {kill_after} checkpoints: resumed snapshot diverged"
        );
    }
}

#[test]
fn resume_is_invariant_under_harness_thread_count() {
    let scratch = Scratch::new("crash-recover-threads");
    let reference = reference_soak(&scratch.path("t-ref.json"));
    let ring = scratch.path("t-ring");
    killed_soak(&ring, &scratch.path("t-killed.json"), 3);
    for threads in ["1", "2", "8"] {
        let resumed = resume_soak(&ring, &scratch.path("t-resumed.json"), threads);
        assert_eq!(
            resumed, reference,
            "resume with SVC_EXPERIMENT_THREADS={threads} diverged"
        );
    }
}

#[test]
fn torn_newest_checkpoint_is_skipped_for_the_previous_one() {
    let scratch = Scratch::new("crash-recover-torn");
    let reference = reference_soak(&scratch.path("torn-ref.json"));
    let ring = scratch.path("torn-ring");
    killed_soak(&ring, &scratch.path("torn-killed.json"), 4);

    // Tear the newest checkpoint mid-"write": keep the magic so it
    // looks like a checkpoint, but cut the payload so the trailing
    // checksum can't match.
    let mut files: Vec<PathBuf> = std::fs::read_dir(&ring)
        .expect("ring dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "svc"))
        .collect();
    files.sort();
    let newest = files.last().expect("at least one checkpoint").clone();
    let bytes = std::fs::read(&newest).expect("read newest");
    assert!(bytes.len() > 24, "checkpoint implausibly small");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate newest");

    let resumed = resume_soak(&ring, &scratch.path("torn-resumed.json"), "1");
    assert_eq!(
        resumed, reference,
        "resume after torn newest checkpoint diverged"
    );
}

#[test]
fn every_checkpoint_is_garbage_fails_typed() {
    let scratch = Scratch::new("crash-recover-garbage");
    let ring = scratch.path("garbage-ring");
    std::fs::create_dir_all(&ring).expect("ring dir");
    for i in 0..3 {
        std::fs::write(ring.join(format!("ckpt-{i:06}.svc")), b"not a checkpoint")
            .expect("write garbage");
    }
    let output = Command::new(BIN)
        .args(["resume"])
        .arg(&ring)
        .output()
        .expect("resume garbage ring");
    assert_eq!(
        output.status.code(),
        Some(4),
        "all-torn ring should fail with the invariant exit code"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("no valid checkpoint"),
        "unexpected diagnostic: {stderr}"
    );
}

#[test]
fn unwritable_destinations_fail_typed_at_startup() {
    let scratch = Scratch::new("crash-recover-unwritable");
    // A plain file where a directory is needed: both `--out` and
    // `--checkpoint-dir` must be probed *before* the soak starts and
    // fail with the typed I/O exit code, not a mid-soak panic.
    let blocker = scratch.path("blocker-file");
    std::fs::write(&blocker, b"x").expect("write blocker");

    let out = Command::new(BIN)
        .args(["serve", "--ticks", "1", "--out"])
        .arg(blocker.join("soak.json"))
        .output()
        .expect("serve with unwritable --out");
    assert_eq!(out.status.code(), Some(3), "unwritable --out should exit 3");

    let out = Command::new(BIN)
        .args(["serve", "--ticks", "1", "--checkpoint-dir"])
        .arg(blocker.join("ring"))
        .output()
        .expect("serve with unwritable --checkpoint-dir");
    assert_eq!(
        out.status.code(),
        Some(3),
        "unwritable --checkpoint-dir should exit 3"
    );
}

#[test]
fn healthz_reports_checkpoint_freshness() {
    let scratch = Scratch::new("crash-recover-healthz");
    use std::io::{Read, Write};
    let addr_file = scratch.path("hz.addr");
    let ring = scratch.path("hz-ring");
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--ticks",
            "0",
            "--seed",
            "3",
            "--slice-budget",
            SLICE,
        ])
        .arg("--checkpoint-dir")
        .arg(&ring)
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--out")
        .arg(scratch.path("hz.json"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");

    let start = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&addr_file) {
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "addr file never appeared"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    let healthz = loop {
        let mut stream = std::net::TcpStream::connect(addr.trim()).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut body = String::new();
        stream.read_to_string(&mut body).expect("read");
        if body.contains("\"checkpoint\"") {
            break body;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "healthz never reported checkpoint status: {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(healthz.contains("\"seq\""), "{healthz}");
    assert!(healthz.contains("\"age_ticks\""), "{healthz}");
    assert!(healthz.contains("\"valid\""), "{healthz}");

    unsafe {
        assert_eq!(kill(child.id() as i32, SIGKILL), 0, "kill(SIGKILL)");
    }
    child.wait().expect("reap serve");
}

/// Normalizes a `run --json` document: wall-clock self-measurement is
/// never stable, and the `artifacts` map (the checkpointed side
/// advertises its `--checkpoint-out` path; the reference has none) is
/// checked separately — everything else must be byte-stable.
fn normalized(text: &[u8]) -> String {
    let doc = parse(std::str::from_utf8(text).expect("utf8")).expect("json parses");
    let doc = match doc
        .set("wall_s", 0.0.into())
        .set("sim_cycles_per_sec", 0.0.into())
    {
        svc_repro::bench::report::Json::Obj(fields) => svc_repro::bench::report::Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "artifacts")
                .collect(),
        ),
        other => other,
    };
    doc.render()
}

#[test]
fn sigkilled_run_resumes_byte_identical() {
    let scratch = Scratch::new("crash-recover-run");
    let args = [
        "run", "--bench", "gcc", "--budget", "400000", "--seed", "7", "--json",
    ];
    let reference = Command::new(BIN)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .expect("reference run");
    assert!(reference.status.success(), "reference run exited nonzero");

    let ckpt = scratch.path("run.svc");
    let mut child = Command::new(BIN)
        .args(args)
        .arg("--checkpoint-out")
        .arg(&ckpt)
        .args(["--checkpoint-every", "20000"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim run");
    // Kill as soon as the first checkpoint lands. If the run finishes
    // first (fast machine), that's fine — the checkpoint file still
    // holds a mid-run state to resume from.
    let start = Instant::now();
    while !ckpt.exists() {
        if child.try_wait().expect("try_wait").is_some() {
            break;
        }
        assert!(
            start.elapsed() < Duration::from_secs(120),
            "victim never wrote a checkpoint"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    if child.try_wait().expect("try_wait").is_none() {
        unsafe {
            assert_eq!(kill(child.id() as i32, SIGKILL), 0, "kill(SIGKILL)");
        }
    }
    child.wait().expect("reap victim");
    assert!(ckpt.exists(), "no checkpoint to resume from");

    let resumed = Command::new(BIN)
        .args(["resume"])
        .arg(&ckpt)
        .args(["--json"])
        .stderr(Stdio::null())
        .output()
        .expect("resume run");
    assert!(resumed.status.success(), "resume exited nonzero");
    // The resumed run keeps checkpointing into the same file and
    // advertises it; the uninterrupted reference ran without
    // checkpoint flags and must advertise nothing.
    let resumed_doc =
        parse(std::str::from_utf8(&resumed.stdout).expect("utf8")).expect("json parses");
    assert_eq!(
        resumed_doc
            .get("artifacts")
            .and_then(|a| a.get("checkpoint"))
            .and_then(svc_repro::bench::report::Json::as_str),
        Some(ckpt.display().to_string().as_str()),
        "resumed run must advertise its checkpoint artifact"
    );
    let reference_doc =
        parse(std::str::from_utf8(&reference.stdout).expect("utf8")).expect("json parses");
    assert!(reference_doc.get("artifacts").is_none());
    assert_eq!(
        normalized(&resumed.stdout),
        normalized(&reference.stdout),
        "resumed run diverged from the uninterrupted reference"
    );
}

/// The checkpoint header, not the resuming shell, decides a resumed
/// run's attachments: a run checkpointed under the profiler, the
/// watchdog and fault injection resumes to the uninterrupted run's
/// `--json` and profile document whether the resuming shell exports
/// none of those knobs or different values for each.
#[test]
fn checkpoint_header_decides_resumed_attachments() {
    let scratch = Scratch::new("crash-recover-attached");
    let knobs = [
        "SVC_PROFILE",
        "SVC_PROFILE_EPOCH",
        "SVC_PROFILE_WINDOW",
        "SVC_WATCHDOG",
        "SVC_FAULTS",
    ];
    let attached = [
        ("SVC_PROFILE", "1"),
        ("SVC_WATCHDOG", "1"),
        ("SVC_FAULTS", "all=0.01,penalty=4"),
    ];
    let svc_sim = |args: &[&str], profile_out: &Path, env: &[(&str, &str)]| {
        let mut cmd = Command::new(BIN);
        cmd.args(args).arg("--profile-out").arg(profile_out);
        for knob in knobs {
            cmd.env_remove(knob);
        }
        let out = cmd
            .envs(env.iter().copied())
            .stderr(Stdio::null())
            .output()
            .expect("svc-sim");
        assert!(out.status.success(), "svc-sim {args:?} exited nonzero");
        let profile = std::fs::read(profile_out).expect("profile document");
        (normalized(&out.stdout), profile)
    };
    let run = [
        "run", "--bench", "gcc", "--budget", "30000", "--seed", "5", "--json",
    ];
    let reference = svc_sim(&run, &scratch.path("attached-ref.profile.json"), &attached);

    // The file keeps the last checkpoint before the run finished.
    let ckpt = scratch.path("attached.svc");
    let ckpt_arg = ckpt.to_str().expect("utf8 path");
    let checkpointed = [
        &run[..],
        &["--checkpoint-out", ckpt_arg, "--checkpoint-every", "8000"],
    ]
    .concat();
    let profile_out = scratch.path("attached.profile.json");
    assert_eq!(
        svc_sim(&checkpointed, &profile_out, &attached),
        reference,
        "checkpointing perturbed the run"
    );

    let different = [
        ("SVC_PROFILE", "0"),
        ("SVC_PROFILE_EPOCH", "512"),
        ("SVC_PROFILE_WINDOW", "3"),
        ("SVC_WATCHDOG", "0"),
        ("SVC_FAULTS", "bus_delay=0.5"),
    ];
    for env in [&[][..], &different[..]] {
        let _ = std::fs::remove_file(&profile_out);
        let resumed = svc_sim(&["resume", ckpt_arg, "--json"], &profile_out, env);
        assert_eq!(resumed, reference, "resume under {env:?} diverged");
    }
}
