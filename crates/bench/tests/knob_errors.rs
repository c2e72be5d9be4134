//! A malformed knob stops a binary before it runs anything: exit 2 with
//! the variable named, no document written.

use std::process::Command;

#[test]
fn malformed_budget_is_a_usage_error_before_any_run() {
    let dir = std::env::temp_dir().join(format!("svc-knob-errors-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_motivation"))
        .env("SVC_EXPERIMENT_BUDGET", "60k")
        .env("SVC_RESULTS_DIR", &dir)
        .output()
        .expect("run motivation");
    assert_eq!(out.status.code(), Some(2), "exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SVC_EXPERIMENT_BUDGET"), "{stderr}");
    assert!(out.stdout.is_empty(), "the grid ran");
    assert!(!dir.exists(), "a document was written");
}
