//! Full-stack `svc-sim serve` checks against the real binary: bounded
//! soaks are byte-identical across invocations and harness-thread
//! settings, the snapshot parses as `svc-soak/v1`, and an unbounded
//! serve answers HTTP on all three endpoints then shuts down cleanly
//! on SIGTERM with a valid final snapshot.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use svc_repro::bench::report::{parse, SCHEMA_SOAK};

mod common;
use common::Scratch;

const BIN: &str = env!("CARGO_BIN_EXE_svc-sim");

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// Runs a bounded soak and returns (stdout, snapshot bytes).
fn bounded_soak(out: &PathBuf, threads: &str) -> (Vec<u8>, Vec<u8>) {
    let output = Command::new(BIN)
        .args([
            "serve",
            "--ticks",
            "8",
            "--seed",
            "5",
            "--slice-budget",
            "4000",
            "--storm",
            "period=4,duration=1,rate=0.05",
            "--out",
        ])
        .arg(out)
        .env("SVC_EXPERIMENT_THREADS", threads)
        .stderr(Stdio::null())
        .output()
        .expect("run svc-sim serve");
    assert!(output.status.success(), "serve exited nonzero");
    let snapshot = std::fs::read(out).expect("snapshot written");
    (output.stdout, snapshot)
}

#[test]
fn bounded_serve_is_byte_identical_across_invocations_and_threads() {
    let scratch = Scratch::new("soak-serve-bounded");
    let out = scratch.path("bounded.json");
    let (stdout_a, snap_a) = bounded_soak(&out, "1");
    let (stdout_b, snap_b) = bounded_soak(&out, "2");
    let (stdout_c, snap_c) = bounded_soak(&out, "8");
    assert_eq!(stdout_a, stdout_b, "stdout diverged across invocations");
    assert_eq!(stdout_b, stdout_c, "stdout diverged across thread counts");
    assert_eq!(snap_a, snap_b, "snapshot diverged across invocations");
    assert_eq!(snap_b, snap_c, "snapshot diverged across thread counts");

    let doc = parse(&String::from_utf8(snap_a).expect("utf8")).expect("snapshot parses");
    assert_eq!(
        doc.get("schema").and_then(|j| j.as_str()),
        Some(SCHEMA_SOAK)
    );
    assert_eq!(doc.get("ticks").and_then(|j| j.as_f64()), Some(8.0));
}

/// Polls `path` until it is non-empty or the deadline passes.
fn wait_for_file(path: &PathBuf, deadline: Duration) -> String {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.is_empty() {
                return text;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{} never appeared", path.display());
}

fn http_get(addr: &str, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read response");
    body
}

/// SIGTERMs `child` and waits for it, panicking on a dirty exit.
fn terminate(mut child: Child) {
    unsafe {
        assert_eq!(kill(child.id() as i32, SIGTERM), 0, "kill(SIGTERM)");
    }
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "serve did not exit cleanly: {status:?}");
            return;
        }
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "serve ignored SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn unbounded_serve_answers_http_and_dies_cleanly_on_sigterm() {
    let scratch = Scratch::new("soak-serve-unbounded");
    let addr_file = scratch.path("serve.addr");
    let out = scratch.path("unbounded.json");
    let child = Command::new(BIN)
        .args([
            "serve",
            "--ticks",
            "0",
            "--seed",
            "1",
            "--slice-budget",
            "4000",
        ])
        .arg("--addr-file")
        .arg(&addr_file)
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn svc-sim serve");

    let addr = wait_for_file(&addr_file, Duration::from_secs(30));

    // The first tick's telemetry may not be published the instant the
    // socket opens — poll until the metrics body appears.
    let start = Instant::now();
    while !http_get(&addr, "/metrics").contains("soak_ticks") {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "first tick never published telemetry"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let healthz = http_get(&addr, "/healthz");
    assert!(healthz.starts_with("HTTP/1.1 200 OK"), "{healthz}");
    assert!(healthz.contains("\"status\""), "{healthz}");

    let metrics = http_get(&addr, "/metrics");
    assert!(
        metrics.contains("text/plain; version=0.0.4"),
        "exposition content type: {metrics}"
    );
    assert!(metrics.contains("soak_ticks"), "{metrics}");

    let profile = http_get(&addr, "/profile");
    assert!(profile.contains("application/json"), "{profile}");
    assert!(profile.contains("svc-profile/v1"), "{profile}");

    terminate(child);

    let snapshot = std::fs::read_to_string(&out).expect("final snapshot flushed");
    let doc = parse(&snapshot).expect("snapshot parses");
    assert_eq!(
        doc.get("schema").and_then(|j| j.as_str()),
        Some(SCHEMA_SOAK)
    );
    assert!(doc.get("ticks").and_then(|j| j.as_f64()).unwrap_or(0.0) > 0.0);
}
