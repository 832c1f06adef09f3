//! The seeded trials and the two pipelines (batch and streaming) that
//! carry a trial from its `SystemConfig` to a `DiagnosisReport`, through
//! the public API only.

use mscope_core::{scenarios, DiagnoseOptions, DiagnosisReport, MilliScope, RootCause};
use mscope_db::Value;
use mscope_monitors::MonitorSuite;
use mscope_ntier::{RunOutput, Simulator, SystemConfig};
use mscope_sim::SimDuration;
use mscope_transform::TransformReport;
use std::time::Instant;

/// Closed-loop RUBBoS users in every workload's trial.
pub const USERS: u32 = 2000;
/// Measured seconds of simulated time per trial.
pub const TRIAL_SECS: u64 = 120;
/// Records per streaming chunk.
pub const CHUNK: usize = 4096;
/// Parse workers of the streaming consumer (the producer is the only
/// other thread, so the process never runs more than two).
pub const STREAM_WORKERS: usize = 1;
/// Commit-log flush period and stall of the incident trial.
pub const INCIDENT_PERIOD_S: f64 = 3.5;
/// See [`INCIDENT_PERIOD_S`].
pub const INCIDENT_STALL_MS: f64 = 300.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch render + transform of a steady RUBBoS trial, then diagnosis.
    BatchSteady,
    /// The same trial through the streaming spine, then diagnosis.
    StreamSteady,
    /// A disk-I/O incident: diagnosis and an interactive SQL session over
    /// a warehouse loaded in set-up.
    IncidentDbio,
}

/// How a pipeline takes a run's records into the warehouse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// `MonitorSuite::render` then `MilliScope::from_parts`.
    Batch,
    /// `MilliScope::run_streaming`.
    Stream,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchSteady,
        Workload::StreamSteady,
        Workload::IncidentDbio,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchSteady => "batch_steady",
            Workload::StreamSteady => "stream_steady",
            Workload::IncidentDbio => "incident_dbio",
        }
    }

    /// The scenario constructor the trial starts from.
    pub fn scenario(self) -> &'static str {
        match self {
            Workload::BatchSteady | Workload::StreamSteady => "rubbos_baseline",
            Workload::IncidentDbio => "calibrated_db_io(period 3.5 s, stall 300 ms)",
        }
    }

    /// Why the workload exists.
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchSteady => {
                "transform dominates the wall and analysis is light, so transform and render changes show here"
            }
            Workload::StreamSteady => {
                "the same trial through the incremental spine, so a change that trades batch against streaming shows"
            }
            Workload::IncidentDbio => {
                "the read side: about 35 VLRT episodes and a SQL session over a warehouse loaded in set-up"
            }
        }
    }

    /// The path the workload's pipelines ingest through.
    pub fn ingest(self) -> Ingest {
        match self {
            Workload::StreamSteady => Ingest::Stream,
            Workload::BatchSteady | Workload::IncidentDbio => Ingest::Batch,
        }
    }

    /// The seeded trial: the only thing the program sees of the seed.
    pub fn config(self, users: u32, seed: u64) -> SystemConfig {
        let base = match self {
            Workload::BatchSteady | Workload::StreamSteady => SystemConfig::rubbos_baseline(users),
            Workload::IncidentDbio => {
                scenarios::calibrated_db_io(users, INCIDENT_PERIOD_S, INCIDENT_STALL_MS)
            }
        };
        let mut cfg = scenarios::shorten(base, SimDuration::from_secs(TRIAL_SECS));
        cfg.seed = seed;
        cfg
    }
}

/// What a pipeline computed; two pipelines over one trial must agree on
/// all of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The transformer's report.
    pub report: TransformReport,
    /// The diagnosis.
    pub diagnosis: DiagnosisReport,
    /// Reconstructed request flows.
    pub flows: usize,
}

/// One pipeline run: the loaded handle, what it computed, and its timings.
#[derive(Debug)]
pub struct Pipeline {
    /// The loaded handle (kept for the SQL session).
    pub ms: MilliScope,
    /// What the pipeline computed.
    pub outcome: Outcome,
    /// Simulator records (lifecycle + message + sample).
    pub records: usize,
    /// Rendered log bytes, as registered in `log_files`.
    pub log_bytes: u64,
    /// `RunOutput` to loaded handle.
    pub ingest_s: f64,
    /// `flows` + `diagnose`.
    pub diagnose_s: f64,
    /// Seeded config to `DiagnosisReport`.
    pub total_s: f64,
}

/// Runs the simulator.
pub fn simulate(cfg: &SystemConfig) -> Result<RunOutput, String> {
    Ok(Simulator::new(cfg.clone())?.run())
}

/// Records the simulator emitted.
pub fn records(run: &RunOutput) -> usize {
    run.lifecycle.len() + run.messages.len() + run.samples.len()
}

/// Takes a run's records into a loaded handle.
pub fn ingest(kind: Ingest, run: &RunOutput) -> Result<MilliScope, String> {
    match kind {
        Ingest::Batch => {
            let art = MonitorSuite::standard(&run.config).render(run);
            MilliScope::from_parts(run.config.clone(), &art.store, &art.manifest, art.sysviz)
                .map_err(|e| e.to_string())
        }
        Ingest::Stream => {
            MilliScope::run_streaming(run, CHUNK, STREAM_WORKERS).map_err(|e| e.to_string())
        }
    }
}

/// Flow reconstruction and diagnosis on a loaded handle.
pub fn analyse(ms: &MilliScope) -> Result<Outcome, String> {
    let flows = ms.flows().map_err(|e| e.to_string())?.len();
    let diagnosis = ms
        .diagnose(&DiagnoseOptions::default())
        .map_err(|e| e.to_string())?;
    Ok(Outcome {
        report: ms.transform_report().clone(),
        diagnosis,
        flows,
    })
}

/// One untraced pipeline from the seeded config to the diagnosis.
pub fn run_pipeline(kind: Ingest, cfg: &SystemConfig) -> Result<Pipeline, String> {
    let t0 = Instant::now();
    let run = simulate(cfg)?;
    let t1 = Instant::now();
    let records = records(&run);
    let ms = ingest(kind, &run)?;
    drop(run);
    let t2 = Instant::now();
    let outcome = analyse(&ms)?;
    let t3 = Instant::now();
    let log_bytes = log_bytes(&ms);
    Ok(Pipeline {
        ms,
        outcome,
        records,
        log_bytes,
        ingest_s: (t2 - t1).as_secs_f64(),
        diagnose_s: (t3 - t2).as_secs_f64(),
        total_s: (t3 - t0).as_secs_f64(),
    })
}

/// Rendered log bytes, summed from the `log_files` metadata table.
pub fn log_bytes(ms: &MilliScope) -> u64 {
    ms.db()
        .table("log_files")
        .and_then(|t| t.column("bytes"))
        .map_or(0, |col| {
            col.iter()
                .map(|v| match v {
                    Value::Int(b) => u64::try_from(*b).unwrap_or(0),
                    _ => 0,
                })
                .sum()
        })
}

/// Checks the incident trial's diagnosis: at least one episode, each
/// attributed to disk I/O on the database node.
pub fn check_incident(d: &DiagnosisReport) -> Result<(), String> {
    if d.episodes.is_empty() {
        return Err("incident_dbio: no VLRT episode found".into());
    }
    for (i, ep) in d.episodes.iter().enumerate() {
        match &ep.root_cause {
            RootCause::DiskIo { node, .. } if node == "tier3-0" => {}
            other => {
                return Err(format!(
                    "incident_dbio: episode {i} attributed to {}, not disk I/O on tier3-0",
                    other.describe()
                ))
            }
        }
    }
    Ok(())
}

/// One field of `/proc/self/status` in KiB (`VmRSS`, `VmHWM`, …).
pub fn vm_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}
