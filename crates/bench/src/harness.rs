//! The parallel experiment harness: a deterministic fan-out runner.
//!
//! Experiment grids (benchmark × memory-system × configuration) are
//! embarrassingly parallel: every cell is an independent simulation.
//! [`run_grid`] executes a grid across scoped worker threads
//! ([`std::thread::scope`]) while keeping the output *bit-for-bit
//! independent of the thread count and of scheduling:
//!
//! * each job's seed is derived from the grid seed and the job's *index*
//!   (a [`SplitMix64`] stream), never from execution order;
//! * results land in a slot vector indexed by job, so collection order
//!   is the grid order regardless of completion order;
//! * the harness measures no wall-clock time, so nothing host-dependent
//!   can reach the deterministic `results/*.json` artifacts. Simulator
//!   speed is measured by the repository benchmark (`perfbench/`).
//!
//! The caller passes the thread count (binaries take it from
//! [`RunOptions::threads`](crate::RunOptions::threads),
//! `SVC_EXPERIMENT_THREADS`); one thread reproduces the serial seed-repo
//! behavior exactly.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use svc_sim::rng::SplitMix64;

/// The per-job seed stream: job `i` gets the `i+1`-th output of a
/// [`SplitMix64`] seeded with `grid_seed`. A pure function of
/// `(grid_seed, i)`, so any thread count yields identical seeds.
pub fn job_seeds(grid_seed: u64, n: usize) -> Vec<u64> {
    let mut g = SplitMix64::new(grid_seed);
    (0..n).map(|_| g.next_u64()).collect()
}

/// Runs `run(job, derived_seed)` for every job across `threads` worker
/// threads and returns the results in grid (submission) order. Each job
/// runs with its index-derived seed and lands in its own slot, so the
/// results are byte-identical for any `threads >= 1`.
///
/// # Panics
///
/// A panicking job panics the harness (via scope join), so a failing
/// experiment still fails its binary.
pub fn run_grid<J, R, F>(jobs: &[J], grid_seed: u64, threads: usize, run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J, u64) -> R + Sync,
{
    let seeds = job_seeds(grid_seed, jobs.len());
    unwrap_slots(fan_out(jobs.len(), threads, |i| run(&jobs[i], seeds[i])))
}

/// Runs `f(i)` for every `i < n` on up to `threads` scoped workers that
/// claim indices from a shared counter (dynamic load balancing — grid
/// cells vary widely in simulation time). Returns each index's result in
/// index order (`None` where a worker died before storing one).
fn fan_out<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<Option<R>> {
    let workers = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(i);
                // Poison-tolerant: a panic elsewhere must not discard a
                // finished result.
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

/// Every slot's result, in order.
///
/// # Panics
///
/// Panics naming the first job whose worker died before storing one.
fn unwrap_slots<R>(slots: Vec<Option<R>>) -> Vec<R> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| panic!("job {i}: worker thread died before storing a result"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Failsafe (graceful-degradation) runner
// ---------------------------------------------------------------------

/// Why one grid cell failed in [`run_grid_failsafe`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job panicked; the payload is the panic message.
    Panic(String),
    /// The job exceeded its deterministic cycle budget (reported by the
    /// job itself — the harness never uses wall-clock deadlines, which
    /// would break reproducibility).
    Timeout,
    /// The worker thread died before storing any result for this job
    /// (only possible if the panic escaped [`std::panic::catch_unwind`],
    /// e.g. an abort-on-drop; recorded rather than lost).
    WorkerDied,
}

impl JobError {
    /// Stable short tag (`panic` / `timeout` / `worker_died`) used in
    /// the `svc-experiments/v2` failure records.
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panic(_) => "panic",
            JobError::Timeout => "timeout",
            JobError::WorkerDied => "worker_died",
        }
    }

    /// Human-readable detail (the panic message; empty otherwise).
    pub fn detail(&self) -> &str {
        match self {
            JobError::Panic(msg) => msg,
            JobError::Timeout | JobError::WorkerDied => "",
        }
    }
}

/// A structured record of one failed grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The cell's index in the grid (submission order).
    pub index: usize,
    /// The derived seed the cell ran under.
    pub seed: u64,
    /// The final error, after retries.
    pub error: JobError,
    /// Total attempts made (1 = no retry).
    pub attempts: u32,
}

/// The results of one failsafe grid run: every cell either succeeded
/// (`results[i]` is `Some`) or has a matching [`JobFailure`].
#[derive(Debug)]
pub struct FailsafeOutcome<R> {
    /// Per-job results in grid order; `None` where the cell failed.
    pub results: Vec<Option<R>>,
    /// Structured failure records, in grid order.
    pub failures: Vec<JobFailure>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`run_grid`] that completes the grid even when cells fail.
///
/// Each cell runs under [`std::panic::catch_unwind`]; a panicking or
/// `Err`-returning cell is retried up to `retries` more times with the
/// *same* derived seed (so a flaky pass is still reproducible), then
/// recorded as a [`JobFailure`] instead of killing the harness. Worker
/// threads that die anyway (panics that escape `catch_unwind`) poison
/// nothing: finished results are drained poison-tolerantly and the dead
/// worker's unfinished cell is reported as [`JobError::WorkerDied`].
///
/// `results` and `failures` are byte-identical for any `threads >= 1`:
/// both are indexed by grid order and seeds derive from the grid seed
/// and cell index only.
pub fn run_grid_failsafe<J, R, F>(
    jobs: &[J],
    grid_seed: u64,
    threads: usize,
    retries: u32,
    run: F,
) -> FailsafeOutcome<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J, u64) -> Result<R, JobError> + Sync,
{
    let seeds = job_seeds(grid_seed, jobs.len());
    let slots = fan_out(jobs.len(), threads, |i| {
        let mut outcome = Err((JobError::WorkerDied, 0));
        for attempt in 1..=retries.saturating_add(1) {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| run(&jobs[i], seeds[i])));
            match caught {
                Ok(Ok(result)) => {
                    outcome = Ok((result, attempt));
                    break;
                }
                Ok(Err(e)) => outcome = Err((e, attempt)),
                Err(payload) => outcome = Err((JobError::Panic(panic_message(payload)), attempt)),
            }
        }
        outcome
    });
    let mut results = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot.unwrap_or(Err((JobError::WorkerDied, 0))) {
            Ok((result, _)) => results.push(Some(result)),
            Err((error, attempts)) => {
                results.push(None);
                failures.push(JobFailure {
                    index: i,
                    seed: seeds[i],
                    error,
                    attempts,
                });
            }
        }
    }
    FailsafeOutcome { results, failures }
}

// ---------------------------------------------------------------------
// Resumable grids: the cell journal
// ---------------------------------------------------------------------

/// Kind tag of one journaled grid cell.
pub const GRID_CELL_KIND: &str = "svc-grid-cell/v1";

/// A directory of finished grid-cell results, one checkpoint file per
/// cell, written atomically as each cell completes.
///
/// An interrupted grid leaves the journal holding every cell that
/// finished before the crash; rerunning the same grid against the same
/// journal loads those cells instead of re-simulating them. Every load
/// is validated — kind tag, content checksum, grid seed, cell index,
/// per-cell seed and the caller's cell label must all match — so a
/// stale or foreign journal degrades to a plain re-run, never to wrong
/// results.
pub struct GridJournal {
    dir: std::path::PathBuf,
    grid_seed: u64,
}

impl GridJournal {
    /// Opens (creating if needed) a journal directory for a grid with
    /// the given seed.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        grid_seed: u64,
    ) -> std::io::Result<GridJournal> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(GridJournal { dir, grid_seed })
    }

    /// The journal's directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn cell_path(&self, index: usize) -> std::path::PathBuf {
        self.dir.join(format!("cell-{index:04}.svc"))
    }

    /// Loads cell `index` if a journaled result exists and survives
    /// every validation; `None` (= re-run the cell) otherwise.
    pub fn load<R: svc_types::Checkpointable + Default>(
        &self,
        index: usize,
        seed: u64,
        label: &str,
    ) -> Option<R> {
        let bytes = std::fs::read(self.cell_path(index)).ok()?;
        let (kind, payload) = svc_sim::checkpoint::decode(&bytes).ok()?;
        if kind != GRID_CELL_KIND {
            return None;
        }
        let mut r = svc_types::CkptReader::new(&payload);
        let matches = (|| {
            Some(
                r.take_u64().ok()? == self.grid_seed
                    && r.take_usize().ok()? == index
                    && r.take_u64().ok()? == seed
                    && r.take_str().ok()? == label,
            )
        })()
        .unwrap_or(false);
        if !matches {
            return None;
        }
        let mut out = R::default();
        out.restore_state(&mut r).ok()?;
        r.finish().ok()?;
        Some(out)
    }

    /// Journals a finished cell (atomic tmp + fsync + rename).
    pub fn store<R: svc_types::Checkpointable>(
        &self,
        index: usize,
        seed: u64,
        label: &str,
        result: &R,
    ) -> std::io::Result<()> {
        let mut w = svc_types::CkptWriter::new();
        w.put_u64(self.grid_seed);
        w.put_usize(index);
        w.put_u64(seed);
        w.put_str(label);
        result.save_state(&mut w);
        let blob = svc_sim::checkpoint::encode(GRID_CELL_KIND, &w.into_bytes());
        svc_sim::checkpoint::write_atomic(&self.cell_path(index), &blob)
    }
}

/// [`run_grid`] with a cell journal: cells already in the
/// journal are loaded instead of run, and every freshly-run cell is
/// journaled the moment it finishes. `label` names a cell for
/// validation (e.g. `"gcc/SVC 8KB"`), guarding against a journal left
/// behind by a *different* grid that happens to share seed and shape.
///
/// Results are byte-identical to an un-journaled run at any thread
/// count — a journal hit returns exactly the bytes the cell persisted,
/// and the persistence round-trip is itself checkpoint-validated.
pub fn run_grid_resumable<J, R, F, L>(
    jobs: &[J],
    grid_seed: u64,
    threads: usize,
    journal: &GridJournal,
    label: L,
    run: F,
) -> Vec<R>
where
    J: Sync,
    R: Send + svc_types::Checkpointable + Default,
    F: Fn(&J, u64) -> R + Sync,
    L: Fn(&J) -> String + Sync,
{
    let seeds = job_seeds(grid_seed, jobs.len());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    let mut pending: Vec<usize> = Vec::new();
    for i in 0..jobs.len() {
        let cached = journal.load::<R>(i, seeds[i], &label(&jobs[i]));
        if cached.is_none() {
            pending.push(i);
        }
        slots.push(cached);
    }
    let recovered = jobs.len() - pending.len();
    if recovered > 0 {
        eprintln!(
            "grid journal {}: {recovered}/{} cell(s) recovered, {} to run",
            journal.dir().display(),
            jobs.len(),
            pending.len()
        );
    }
    let fresh = fan_out(pending.len(), threads, |k| {
        let i = pending[k];
        let result = run(&jobs[i], seeds[i]);
        // Journal first, then publish: a cell is only "done" once it
        // would survive a crash. A full disk degrades resumability, not
        // the run itself.
        if let Err(e) = journal.store(i, seeds[i], &label(&jobs[i]), &result) {
            eprintln!("grid journal: cell {i} not saved (continuing): {e}");
        }
        result
    });
    for (&i, result) in pending.iter().zip(fresh) {
        slots[i] = result;
    }
    unwrap_slots(slots)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn seeds_are_a_pure_function_of_grid_seed_and_index() {
        assert_eq!(job_seeds(7, 5), job_seeds(7, 5));
        assert_eq!(job_seeds(7, 5)[..3], job_seeds(7, 3)[..]);
        assert_ne!(job_seeds(7, 2), job_seeds(8, 2));
    }

    #[test]
    fn grid_results_keep_submission_order_at_any_thread_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let run = |j: &u64, seed: u64| (*j, seed, j * j);
        let serial = run_grid(&jobs, 99, 1, run);
        for threads in [2, 3, 8, 64] {
            assert_eq!(serial, run_grid(&jobs, 99, threads, run));
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_grid(&[] as &[u64], 0, 4, |j, _| *j).is_empty());
    }

    /// A grid mixing healthy, panicking, and timed-out cells completes,
    /// with every failure recorded as a structured entry.
    #[test]
    fn failsafe_grid_survives_panics_and_timeouts() {
        let jobs: Vec<u64> = (0..12).collect();
        let out = run_grid_failsafe(&jobs, 5, 4, 0, |j, seed| match j % 4 {
            1 => panic!("cell {j} exploded"),
            2 => Err(JobError::Timeout),
            _ => Ok((*j, seed)),
        });
        assert_eq!(out.results.len(), 12);
        assert_eq!(out.failures.len(), 6);
        for f in &out.failures {
            assert!(out.results[f.index].is_none());
            match f.index % 4 {
                1 => {
                    assert_eq!(f.error.kind(), "panic");
                    assert_eq!(f.error.detail(), format!("cell {} exploded", f.index));
                }
                2 => assert_eq!(f.error, JobError::Timeout),
                _ => unreachable!("healthy cell {} reported as failed", f.index),
            }
            assert_eq!(f.attempts, 1);
        }
        for (i, r) in out.results.iter().enumerate() {
            if i % 4 != 1 && i % 4 != 2 {
                assert!(r.is_some(), "healthy cell {i} lost its result");
            }
        }
    }

    /// Failure records (index, seed, error, attempts) are identical at
    /// any worker count, like the results themselves.
    #[test]
    fn failsafe_failures_are_thread_count_invariant() {
        let jobs: Vec<u64> = (0..23).collect();
        let run = |j: &u64, seed: u64| {
            if j.is_multiple_of(3) {
                panic!("boom {j}");
            }
            if j.is_multiple_of(5) {
                return Err(JobError::Timeout);
            }
            Ok((*j, seed))
        };
        let serial = run_grid_failsafe(&jobs, 77, 1, 1, run);
        for threads in [2, 8] {
            let parallel = run_grid_failsafe(&jobs, 77, threads, 1, run);
            assert_eq!(serial.results, parallel.results);
            assert_eq!(serial.failures, parallel.failures);
        }
    }

    /// A bounded same-seed retry re-runs the cell; a cell that succeeds
    /// on a later attempt produces a result and no failure record.
    #[test]
    fn failsafe_retry_recovers_flaky_cells() {
        use std::sync::atomic::AtomicU32;
        let attempts = AtomicU32::new(0);
        let jobs = [0u64];
        let out = run_grid_failsafe(&jobs, 1, 1, 2, |_, seed| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            Ok(seed)
        });
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        assert!(out.failures.is_empty());
        assert_eq!(out.results[0], Some(job_seeds(1, 1)[0]));

        // And a permanently failing cell records the attempt count.
        let out = run_grid_failsafe(&jobs, 1, 1, 2, |_, _| -> Result<u64, JobError> {
            panic!("always")
        });
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].attempts, 3);
    }

    /// A test's scratch directory, `svc-<name>-<pid>` under the system
    /// temp dir: empty when the test starts, removed when it ends, pass
    /// or fail.
    pub(crate) struct Scratch(pub(crate) std::path::PathBuf);

    impl Scratch {
        pub(crate) fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("svc-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// An interrupted grid (journal holding a strict subset of cells)
    /// restarts from the completed cells: only the missing ones run,
    /// and the results match an uninterrupted run exactly.
    #[test]
    fn journaled_grid_resumes_from_completed_cells() {
        let scratch = Scratch::new("grid-journal-resume");
        let dir = &scratch.0;
        let jobs: Vec<u64> = (0..9).collect();
        let label = |j: &u64| format!("job-{j}");
        let ran = AtomicUsize::new(0);
        let run = |j: &u64, seed: u64| {
            ran.fetch_add(1, Ordering::Relaxed);
            j.wrapping_mul(31) ^ seed
        };

        let journal = GridJournal::open(dir, 42).expect("open journal");
        let full = run_grid_resumable(&jobs, 42, 4, &journal, label, run);
        assert_eq!(ran.swap(0, Ordering::Relaxed), 9);
        let plain = run_grid(&jobs, 42, 1, run);
        assert_eq!(full, plain, "journal changed the results");
        ran.store(0, Ordering::Relaxed);

        // Simulate the interruption: drop three cells from the journal.
        for i in [1usize, 4, 7] {
            std::fs::remove_file(dir.join(format!("cell-{i:04}.svc"))).expect("drop cell");
        }
        let resumed = run_grid_resumable(&jobs, 42, 4, &journal, label, run);
        assert_eq!(ran.load(Ordering::Relaxed), 3, "only missing cells re-run");
        assert_eq!(resumed, full);

        // A fully-journaled grid re-runs nothing at all.
        ran.store(0, Ordering::Relaxed);
        let warm = run_grid_resumable(&jobs, 42, 4, &journal, label, run);
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(warm, full);
    }

    /// Torn cell files, foreign grid seeds and mismatched labels are
    /// all rejected at load — the cell silently re-runs instead of
    /// poisoning the grid with stale results.
    #[test]
    fn journal_rejects_torn_and_foreign_cells() {
        let scratch = Scratch::new("grid-journal-reject");
        let dir = &scratch.0;
        let jobs: Vec<u64> = (0..4).collect();
        let run = |j: &u64, seed: u64| *j ^ seed;
        let journal = GridJournal::open(dir, 7).expect("open journal");
        let label = |j: &u64| format!("job-{j}");
        let full = run_grid_resumable(&jobs, 7, 2, &journal, label, run);

        // Tear cell 0 mid-file: checksum mismatch.
        let cell0 = dir.join("cell-0000.svc");
        let bytes = std::fs::read(&cell0).expect("cell 0");
        std::fs::write(&cell0, &bytes[..bytes.len() / 2]).expect("truncate");
        assert!(journal
            .load::<u64>(0, job_seeds(7, 4)[0], "job-0")
            .is_none());

        // A journal opened under a different grid seed rejects cell 1.
        let foreign = GridJournal::open(dir, 8).expect("open foreign");
        assert!(foreign
            .load::<u64>(1, job_seeds(7, 4)[1], "job-1")
            .is_none());

        // A mismatched label rejects cell 2.
        assert!(journal
            .load::<u64>(2, job_seeds(7, 4)[2], "job-other")
            .is_none());

        // And the grid still heals: the torn cell re-runs to the same
        // result.
        let healed = run_grid_resumable(&jobs, 7, 2, &journal, label, run);
        assert_eq!(healed, full);
    }
}
