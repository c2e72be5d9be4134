//! Facts about the host and the process: recorded next to every result
//! so that figures from different machines, compilers or revisions, or
//! from a preempted run, are never compared silently.

use std::path::Path;

/// Peak resident set size of this process, in KiB (`VmHWM`).
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// CPU time this process has used so far, in nanoseconds.
pub fn cpu_ns() -> Result<u64, String> {
    // First field of schedstat: time spent running, in nanoseconds.
    let schedstat = std::fs::read_to_string("/proc/self/schedstat")
        .map_err(|e| format!("/proc/self/schedstat: {e}"))?;
    schedstat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "unreadable /proc/self/schedstat".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The git revision when the checkout is a repository; otherwise an
/// FNV-1a digest of the sources the benchmark builds from.
pub fn revision() -> String {
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
            }
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path
            .to_string_lossy()
            .as_bytes()
            .iter()
            .chain(&[0])
            .chain(&bytes)
        {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("source-fnv64:{hash:016x}")
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if path
            .file_name()
            .is_some_and(|n| n == "target" || n == "out")
        {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect_sources(&entry.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}
