//! The workloads: which cells each one runs, how a cell is built through
//! the library's public constructors, and how its output is checked
//! against the committed artifact it reproduces.

use svc::{SvcConfig, SvcSystem};
use svc_arb::{ArbConfig, ArbSystem};
use svc_bench::report::{self, Json};
use svc_bench::ExperimentResult;
use svc_check::ExploreOutcome;
use svc_multiscalar::{EngineConfig, RunReport};
use svc_workloads::{Spec95, SyntheticWorkload};

/// The simulation seed of every committed artifact. The benchmark's own
/// `--seed` only orders the cells, so every output stays checkable.
pub const ARTIFACT_SEED: u64 = 42;

/// Distinct states in the timed prefix of the `svc-final` exploration:
/// about 0.15 s of host time, where the whole exploration takes 4–5 s.
pub const CHECK_PREFIX_STATES: u64 = 12_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// fig19's two 4-PU memory systems on the seven SPEC95 models.
    Paper4pu,
    /// scaling-xl's 64-PU cells: a saturated snooping bus.
    Wide64pu,
    /// Exhaustive model check of the final SVC design.
    CheckSvc,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Paper4pu, Workload::Wide64pu, Workload::CheckSvc];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper4pu => "paper-4pu",
            Workload::Wide64pu => "wide-64pu",
            Workload::CheckSvc => "check-svc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The committed artifact the workload's outputs must reproduce.
    pub fn artifact(self) -> &'static str {
        match self {
            Workload::Paper4pu => "results/fig19.json",
            Workload::Wide64pu => "results/scaling-xl.json",
            Workload::CheckSvc => "results/check.json",
        }
    }

    /// The simulation cells (none for the model check).
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::Paper4pu => Spec95::ALL
                .into_iter()
                .flat_map(|bench| {
                    [
                        Cell::paper(bench, Memory::Svc { kb: 8 }),
                        Cell::paper(
                            bench,
                            Memory::Arb {
                                hit_cycles: 2,
                                kb: 32,
                            },
                        ),
                    ]
                })
                .collect(),
            Workload::Wide64pu => [Spec95::Gcc, Spec95::Ijpeg, Spec95::Mgrid]
                .into_iter()
                .map(|bench| Cell {
                    bench,
                    memory: Memory::Svc { kb: 8 },
                    pus: 64,
                    // As in scaling-xl: a 64-PU machine on one bus needs
                    // far more cycles than the default safety stop.
                    max_cycles: Some(u64::MAX / 4),
                    slice: 1_500,
                })
                .collect(),
            Workload::CheckSvc => Vec::new(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Memory {
    Svc { kb: usize },
    Arb { hit_cycles: u64, kb: usize },
}

/// One simulated grid cell: a SPEC95 model on one memory system.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub bench: Spec95,
    pub memory: Memory,
    pub pus: usize,
    pub max_cycles: Option<u64>,
    /// Simulated cycles per timed slice: about 10 ms of host time.
    pub slice: u64,
}

/// A built memory system of either kind. One exists per cell run and is
/// moved into its engine at once, so boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Mem {
    Svc(SvcSystem),
    Arb(ArbSystem),
}

impl Cell {
    fn paper(bench: Spec95, memory: Memory) -> Cell {
        Cell {
            bench,
            memory,
            pus: 4,
            max_cycles: None,
            slice: 20_000,
        }
    }

    /// The memory label the artifacts use, e.g. `SVC-4x8KB`.
    pub fn label(&self) -> String {
        match self.memory {
            Memory::Svc { kb } => format!("SVC-{}x{kb}KB", self.pus),
            Memory::Arb { hit_cycles, kb } => format!("ARB-{hit_cycles}c-{kb}KB"),
        }
    }

    pub fn workload(&self) -> SyntheticWorkload {
        self.bench.workload(ARTIFACT_SEED)
    }

    pub fn engine_config(&self, wl: &SyntheticWorkload, budget: u64) -> EngineConfig {
        let profile = wl.profile();
        let cfg = EngineConfig {
            num_pus: self.pus,
            predictor: profile.predictor(ARTIFACT_SEED),
            max_instructions: budget,
            seed: ARTIFACT_SEED,
            // Wrong-path work touches the hot region, as in the harness.
            garbage_addr_space: profile.hot_set.max(64),
            load_dep_frac: profile.load_dep_frac,
            ..EngineConfig::default()
        };
        match self.max_cycles {
            Some(max_cycles) => EngineConfig { max_cycles, ..cfg },
            None => cfg,
        }
    }

    pub fn memory(&self) -> Mem {
        match self.memory {
            Memory::Svc { kb } => {
                let mut cfg = SvcConfig::final_design(self.pus);
                cfg.geometry = SvcConfig::paper_geometry(kb);
                Mem::Svc(SvcSystem::new(cfg))
            }
            Memory::Arb { hit_cycles, kb } => {
                Mem::Arb(ArbSystem::new(ArbConfig::paper(self.pus, hit_cycles, kb)))
            }
        }
    }

    /// The cell as the experiment binaries write it into `results/`.
    pub fn render(&self, workload: &str, run: RunReport) -> Json {
        let result = ExperimentResult {
            workload: workload.to_string(),
            memory: self.label(),
            ipc: run.ipc(),
            miss_ratio: run.mem.miss_ratio(),
            bus_utilization: run.bus_utilization(),
            report: run,
            profile: None,
        };
        report::experiment_result_json(&result, ARTIFACT_SEED)
    }
}

/// A parsed committed artifact.
pub struct Artifact {
    doc: Json,
}

impl Artifact {
    pub fn parse(text: &str) -> Result<Artifact, String> {
        Ok(Artifact {
            doc: report::parse(text)?,
        })
    }

    /// The instruction budget the artifact was generated at.
    pub fn budget(&self) -> Result<u64, String> {
        self.doc
            .get("budget")
            .and_then(Json::as_f64)
            .map(|b| b as u64)
            .ok_or_else(|| "artifact has no budget".to_string())
    }

    /// The committed cell for `cell`, rendered as it would be written.
    pub fn expected_cell(&self, cell: &Cell) -> Result<String, String> {
        let (name, label) = (cell.bench.name(), cell.label());
        self.doc
            .get("runs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|r| {
                r.get("workload").and_then(Json::as_str) == Some(name)
                    && r.get("memory").and_then(Json::as_str) == Some(label.as_str())
            })
            .map(Json::render)
            .ok_or_else(|| format!("no committed cell {name}/{label}"))
    }

    /// The committed `svc-final` entry of the model-check pin.
    pub fn expected_check(&self) -> Result<String, String> {
        self.doc
            .get("designs")
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|d| d.get("design").and_then(Json::as_str) == Some("svc-final"))
            .map(Json::render)
            .ok_or_else(|| "no committed svc-final design".to_string())
    }
}

/// An exploration as the model-check pin records it. A violation or a
/// truncated run can never match the pin, which records none.
pub fn render_check(out: &ExploreOutcome) -> Json {
    let violations = u64::from(out.violation.is_some() || out.truncated);
    Json::obj()
        .set("design", out.design.name().into())
        .set("states", out.states.into())
        .set("transitions", out.transitions.into())
        .set("max_depth", out.max_depth.into())
        .set("violations", violations.into())
}

/// `expected` with one pinned counter changed, for the negative
/// self-test: the checker must reject it.
pub fn altered(expected: &str, field: &str) -> Result<String, String> {
    let doc = report::parse(expected)?;
    let value = doc
        .get(field)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("committed output has no numeric {field}"))?;
    Ok(doc.set(field, (value + 1.0).into()).render())
}
