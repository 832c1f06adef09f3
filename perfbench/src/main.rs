//! The milliScope end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_steady|stream_steady|incident_dbio> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --sweep [--seed <n>]
//! ```
//!
//! Every run first checks the program's outputs (the correctness gates),
//! then measures for `--seconds`. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it records spans around each layer
//! call and reports the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Details (parameters, input sizes, sample counts) come on the lines
//! before it. Any gate mismatch exits non-zero.

mod ledger;
mod session;
mod trial;

use mscope_perfbench::stats::{self, median};
use mscope_perfbench::trace::{self, Span, Tracer};
use mscope_serdes::Json;
use session::{Query, SessionStats};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trial::{Ingest, Outcome, Pipeline, Workload, CHUNK, STREAM_WORKERS, TRIAL_SECS, USERS};

/// Queries a session runs at least.
const SESSION_QUERIES: usize = 1000;
/// Queries between two diagnoses in the incident session.
const INCIDENT_BLOCK: usize = 800;
/// Queries after each pipeline of a steady run.
const STEADY_BLOCK: usize = 400;
/// Generated session length: enough distinct queries that no run repeats
/// one.
const SESSION_LEN: usize = 40 * SESSION_QUERIES;
/// Pipelines a steady run times even when `--seconds` is short.
const MIN_PIPELINES: usize = 3;
/// Untraced/traced pipeline pairs a traced run times at least.
const MIN_PAIRS: usize = 3;
/// Set-up builds of the incident warehouse.
const INCIDENT_BUILDS: usize = 3;
/// Queries per class that the correctness gate checks.
const GATE_PER_CLASS: usize = 2;
/// Queries per class in each traced session.
const TRACED_PER_CLASS: usize = 40;
/// Users of the one-off scale sweep.
const SWEEP_USERS: [u32; 3] = [500, 2000, 8000];

const USAGE: &str = "usage: perfbench --workload <batch_steady|stream_steady|incident_dbio> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --sweep [--seed <n>]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    sweep: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        sweep: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--sweep" {
            args.sweep = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for {flag}")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !args.sweep && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        _ if args.sweep => sweep(args.seed),
        Some(w) if args.trace => traced(w, &args),
        Some(w) => untraced(w, &args),
        None => Err("--workload is required".into()),
    };
    match result {
        Ok(r) => {
            println!("{}", r.details.pretty());
            println!("{}", mscope_serdes::to_string(&r.line()));
            if r.correct && r.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} operations failed",
                    r.failed, r.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A finished run: the result line plus details.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    details: Json,
}

impl Report {
    fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct && self.failed == 0)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            ("failed", Json::Int(i128::from(self.failed))),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Float(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn peak_rss_mb() -> f64 {
    trial::vm_kib("VmHWM").unwrap_or(0) as f64 / 1024.0
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

fn int(n: impl TryInto<i128>) -> Json {
    Json::Int(n.try_into().unwrap_or(i128::MAX))
}

/// Workload parameters for the details block.
fn params(w: Workload, args: &Args) -> Json {
    let (chunk, workers) = match w.ingest() {
        Ingest::Stream => (int(CHUNK), int(STREAM_WORKERS)),
        Ingest::Batch => (Json::Null, Json::Str("auto".into())),
    };
    Json::obj([
        ("workload", Json::Str(w.name().into())),
        ("scenario", Json::Str(w.scenario().into())),
        ("users", int(USERS)),
        ("trial_seconds", int(TRIAL_SECS)),
        ("measure_seconds", int(args.seconds)),
        ("seed", int(args.seed)),
        ("chunk", chunk),
        ("workers", workers),
        ("host_cores", int(host_cores())),
        ("why", Json::Str(w.why().into())),
    ])
}

/// Input sizes of the trial.
fn sizes(p: &Pipeline) -> Json {
    Json::obj([
        ("log_bytes", int(p.log_bytes)),
        ("records", int(p.records)),
        ("rows", int(p.ms.db().total_rows())),
    ])
}

/// A metric's samples in the details block.
fn samples(xs: &[f64]) -> Json {
    let q = stats::quartiles(xs);
    Json::obj([
        ("n", int(xs.len())),
        ("median", Json::Float(med(xs))),
        ("q1", q.map_or(Json::Null, |q| Json::Float(q[0]))),
        ("q3", q.map_or(Json::Null, |q| Json::Float(q[2]))),
        (
            "values",
            Json::Arr(xs.iter().map(|&x| Json::Float(x)).collect()),
        ),
    ])
}

/// Query latency percentiles with the samples beyond each.
fn latency_detail(xs: &[f64]) -> Json {
    let pct = |p| {
        stats::percentile(xs, p).map_or(Json::Null, |q| {
            Json::obj([
                ("value_ms", Json::Float(q.value)),
                ("beyond", int(q.beyond)),
            ])
        })
    };
    let top = stats::highest_supported(xs, 10).map_or(Json::Null, |q| {
        Json::obj([
            ("p", Json::Float(q.p)),
            ("value_ms", Json::Float(q.value)),
            ("beyond", int(q.beyond)),
        ])
    });
    Json::obj([
        ("samples", int(xs.len())),
        ("p50", pct(50.0)),
        ("p99", pct(99.0)),
        ("highest_supported", top),
    ])
}

/// Walls of one set-up build.
struct BuildTimes {
    total_s: f64,
    ingest_s: f64,
}

/// What set-up hands to the measuring loop.
struct Setup {
    /// The outcome every later pipeline must reproduce.
    expected: Outcome,
    /// The seeded query session, checked across planner options.
    queries: Vec<Query>,
    /// The last set-up build: the gate's batch build, or the incident
    /// warehouse the session reads.
    last: Pipeline,
    /// Incident set-up builds, for `pipeline_s` and `ingest_mb_per_s`.
    builds: Vec<BuildTimes>,
    /// VmRSS growth across the first warehouse load ÷ its rows.
    rss_per_row_b: f64,
    /// Wall from the start of the run to the first timed operation.
    setup_s: f64,
}

/// Correctness gates and set-up. Steady workloads: one batch and one
/// streaming build of the trial must agree on the transform report and
/// the diagnosis. Incident: every build must find episodes, each on
/// `tier3-0`'s disk, and agree with the first. Both: every query class
/// must return identical results with the planner off and at one and two
/// workers. `queries` is the session length to generate.
fn setup(
    w: Workload,
    cfg: &mscope_ntier::SystemConfig,
    seed: u64,
    builds: usize,
    queries: usize,
) -> Result<Setup, String> {
    let start = Instant::now();
    let out = trial::simulate(cfg)?;
    // The first load in the process: its VmRSS growth is the warehouse's
    // resident cost per row.
    let art = mscope_monitors::MonitorSuite::standard(&out.config).render(&out);
    let rss0 = trial::vm_kib("VmRSS").unwrap_or(0);
    let ms =
        mscope_core::MilliScope::from_parts(out.config.clone(), &art.store, &art.manifest, None)
            .map_err(|e| e.to_string())?;
    let rss1 = trial::vm_kib("VmRSS").unwrap_or(0);
    let rss_per_row_b =
        rss1.saturating_sub(rss0) as f64 * 1024.0 / ms.db().total_rows().max(1) as f64;
    drop((ms, art));

    let mut times = Vec::new();
    let (expected, last) = match w {
        Workload::BatchSteady | Workload::StreamSteady => {
            let stream = trial::ingest(Ingest::Stream, &out)?;
            let streamed = trial::analyse(&stream)?;
            drop((stream, out));
            let batch = trial::run_pipeline(Ingest::Batch, cfg)?;
            if batch.outcome.report != streamed.report {
                return Err("gate: batch and streaming transform reports differ".into());
            }
            if batch.outcome.diagnosis != streamed.diagnosis {
                return Err("gate: batch and streaming diagnoses differ".into());
            }
            (batch.outcome.clone(), batch)
        }
        Workload::IncidentDbio => {
            drop(out);
            let mut last: Option<Pipeline> = None;
            for _ in 0..builds.max(1) {
                let previous = last.take().map(|p| p.outcome);
                let p = trial::run_pipeline(Ingest::Batch, cfg)?;
                trial::check_incident(&p.outcome.diagnosis)?;
                if previous.is_some_and(|o| o != p.outcome) {
                    return Err("gate: incident builds of one trial disagree".into());
                }
                times.push(BuildTimes {
                    total_s: p.total_s,
                    ingest_s: p.ingest_s,
                });
                last = Some(p);
            }
            let last = last.ok_or("no incident build")?;
            (last.outcome.clone(), last)
        }
    };
    let queries = session::generate(&last.ms, seed, queries)?;
    session::check(last.ms.db(), &queries, GATE_PER_CLASS).map_err(|e| format!("gate: {e}"))?;
    Ok(Setup {
        expected,
        queries,
        last,
        builds: times,
        rss_per_row_b,
        setup_s: start.elapsed().as_secs_f64(),
    })
}

/// Untraced run: the end-to-end metrics.
fn untraced(w: Workload, args: &Args) -> Result<Report, String> {
    let cfg = w.config(USERS, args.seed);
    let setup = setup(w, &cfg, args.seed, INCIDENT_BUILDS, SESSION_LEN)?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut session = SessionStats::default();
    let (mut totals, mut ingests, mut diags) = (Vec::new(), Vec::new(), Vec::new());
    let sizes_of;
    let log_bytes;
    match w {
        Workload::BatchSteady | Workload::StreamSteady => {
            let Setup {
                last,
                queries,
                expected,
                ..
            } = &setup;
            sizes_of = sizes(last);
            let mut next = 0;
            let mut newest: Option<Pipeline> = None;
            while (attempted as usize) < MIN_PIPELINES || Instant::now() < deadline {
                drop(newest.take());
                attempted += 1;
                match trial::run_pipeline(w.ingest(), &cfg) {
                    Ok(p) => {
                        if p.outcome != *expected {
                            eprintln!("perfbench: pipeline {attempted} disagrees with the gate");
                            failed += 1;
                        }
                        totals.push(p.total_s);
                        ingests.push(p.ingest_s);
                        diags.push(p.diagnose_s);
                        // The session's queries run between pipelines, on
                        // the handle each pipeline loaded.
                        next = session::run(p.ms.db(), queries, next, STEADY_BLOCK, &mut session);
                        newest = Some(p);
                    }
                    Err(e) => {
                        eprintln!("perfbench: pipeline {attempted}: {e}");
                        failed += 1;
                    }
                }
            }
            let newest = newest.ok_or("no pipeline completed")?;
            log_bytes = newest.log_bytes;
            while session.latency_ms.len() < SESSION_QUERIES {
                next = session::run(newest.ms.db(), queries, next, STEADY_BLOCK, &mut session);
            }
        }
        Workload::IncidentDbio => {
            let Setup {
                last,
                queries,
                expected,
                builds,
                ..
            } = &setup;
            sizes_of = sizes(last);
            log_bytes = last.log_bytes;
            totals = builds.iter().map(|b| b.total_s).collect();
            ingests = builds.iter().map(|b| b.ingest_s).collect();
            let mut next = 0;
            while attempted == 0
                || session.latency_ms.len() < SESSION_QUERIES
                || Instant::now() < deadline
            {
                attempted += 1;
                let t = Instant::now();
                match trial::analyse(&last.ms) {
                    Ok(o) if o == *expected => diags.push(t.elapsed().as_secs_f64()),
                    Ok(_) => failed += 1,
                    Err(e) => {
                        eprintln!("perfbench: diagnosis {attempted}: {e}");
                        failed += 1;
                    }
                }
                next = session::run(last.ms.db(), queries, next, INCIDENT_BLOCK, &mut session);
            }
        }
    }
    attempted += session.latency_ms.len() as u64;
    failed += session.failed;
    let lat = &session.latency_ms;
    let p50 = stats::percentile(lat, 50.0).ok_or("no query ran")?;
    let p99 = stats::percentile(lat, 99.0).ok_or("no query ran")?;
    if p99.beyond < 10 {
        return Err(format!("p99 has only {} samples beyond it", p99.beyond));
    }
    let metrics = vec![
        ("setup_s", setup.setup_s, "s"),
        ("pipeline_s", med(&totals), "s"),
        (
            "ingest_mb_per_s",
            log_bytes as f64 / 1e6 / med(&ingests),
            "MB/s",
        ),
        ("diagnose_s", med(&diags), "s"),
        ("query_p50_ms", p50.value, "ms"),
        ("query_p99_ms", p99.value, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    let details = Json::obj([
        ("params", params(w, args)),
        ("inputs", sizes_of),
        (
            "samples",
            Json::obj([
                ("pipeline_s", samples(&totals)),
                ("ingest_s", samples(&ingests)),
                ("diagnose_s", samples(&diags)),
                ("query_ms", latency_detail(lat)),
                ("rows_returned", int(session.rows_returned)),
            ]),
        ),
        (
            "failure_share",
            Json::Float(stats::failure_share(failed, attempted)),
        ),
    ]);
    Ok(Report {
        correct: true,
        attempted,
        failed,
        metrics,
        details,
    })
}

/// Durations (s) of every span called `name` in run `run`.
fn durations(spans: &[Span], name: &str, run: u64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.run == run)
        .map(Span::duration)
        .collect()
}

/// The per-layer metrics of one ledger run.
fn ledger_metrics(
    spans: &[Span],
    run: u64,
    c: &ledger::Counts,
    rss_per_row_b: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let t = |name: &str| trace::total(spans, name, run);
    let ms_median = |name: &str| med(&durations(spans, name, run)) * 1e3;
    let parse_s = t("transform.parse");
    vec![
        ("ntier.simulate_s", t("ntier.simulate"), "s"),
        ("ntier.records", c.records as f64, "count"),
        ("monitors.render_s", t("monitors.render"), "s"),
        ("monitors.log_bytes", c.log_bytes as f64, "B"),
        ("monitors.merge_s", t("monitors.merge"), "s"),
        ("monitors.observe_s", t("monitors.observe"), "s"),
        ("transform.declare_s", t("transform.declare"), "s"),
        ("transform.parse_s", parse_s, "s"),
        ("transform.convert_s", t("transform.convert"), "s"),
        (
            "transform.load_s",
            t("transform.load") + t("transform.register"),
            "s",
        ),
        (
            "transform.parse_mb_per_s",
            c.parsed_bytes as f64 / 1e6 / parse_s,
            "MB/s",
        ),
        ("transform.entries", c.entries as f64, "count"),
        (
            "transform.largest_group_share",
            largest_share(spans, "transform.group", run),
            "ratio",
        ),
        ("transform.poll_s", t("transform.poll"), "s"),
        (
            "transform.polls",
            trace::count(spans, "transform.poll", run) as f64,
            "count",
        ),
        ("transform.finish_s", t("transform.finish"), "s"),
        ("sim.stream.send_blocked_s", t("sim.stream.send"), "s"),
        ("sim.stream.recv_wait_s", t("sim.stream.recv"), "s"),
        ("sim.stream.chunks", c.chunks as f64, "count"),
        ("warehouse.rows", c.rows as f64, "count"),
        ("warehouse.tables", c.tables as f64, "count"),
        ("warehouse.rss_per_row_b", rss_per_row_b, "B"),
        ("warehouse.plan_ms", ms_median("warehouse.plan"), "ms"),
        (
            "warehouse.query.window_agg_ms",
            ms_median("warehouse.query.window_agg"),
            "ms",
        ),
        (
            "warehouse.query.rid_join_ms",
            ms_median("warehouse.query.rid_join"),
            "ms",
        ),
        (
            "warehouse.query.group_having_ms",
            ms_median("warehouse.query.group_having"),
            "ms",
        ),
        (
            "warehouse.query.point_lookup_ms",
            ms_median("warehouse.query.point_lookup"),
            "ms",
        ),
        (
            "warehouse.query.slowest_ms",
            ms_median("warehouse.query.slowest"),
            "ms",
        ),
        ("warehouse.rows_returned", c.rows_returned as f64, "count"),
        ("analysis.pit_s", t("analysis.pit"), "s"),
        ("analysis.queues_s", t("analysis.queues"), "s"),
        ("analysis.flows_s", t("analysis.flows"), "s"),
        ("analysis.flows", c.flows as f64, "count"),
        ("core.diagnose_s", t("core.diagnose"), "s"),
        ("core.episodes", c.episodes as f64, "count"),
    ]
}

/// The longest span called `name` in run `run` as a share of all of them
/// (for table groups: what limits their fan-out).
fn largest_share(spans: &[Span], name: &str, run: u64) -> f64 {
    let d = durations(spans, name, run);
    let summed: f64 = d.iter().sum();
    let largest = d.iter().copied().fold(0.0, f64::max);
    if summed > 0.0 {
        largest / summed
    } else {
        0.0
    }
}

/// Medians, metric by metric, over the ledger runs.
fn median_metrics(
    per_run: &[Vec<(&'static str, f64, &'static str)>],
) -> Vec<(&'static str, f64, &'static str)> {
    let Some(first) = per_run.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let xs: Vec<f64> = per_run.iter().map(|m| m[i].1).collect();
            (name, med(&xs), unit)
        })
        .collect()
}

/// Writes the spans next to the benchmark, under `out/`.
fn write_spans(tag: &str, spans: &[Span]) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/spans-{tag}.json");
    std::fs::write(&path, trace::to_json(spans).pretty()).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Traced run: the per-layer metrics. The first half of the measuring
/// time alternates untraced pipelines with traced ones, for span coverage
/// and tracing overhead; the second half runs ledgers on the handle of one
/// more untraced pipeline.
fn traced(w: Workload, args: &Args) -> Result<Report, String> {
    let cfg = w.config(USERS, args.seed);
    let setup = setup(w, &cfg, args.seed, 1, SESSION_QUERIES)?;
    let queries = ledger::traced_queries(&setup.queries, TRACED_PER_CLASS);
    let Setup {
        expected,
        last,
        rss_per_row_b,
        ..
    } = setup;
    drop(last);
    let start = Instant::now();
    let half = start + Duration::from_secs(args.seconds) / 2;
    let deadline = start + Duration::from_secs(args.seconds);
    let tr = Tracer::new();
    let mut run = 0u64;
    let mut attempted = 0u64;

    let mut pairs: Vec<(u64, f64)> = Vec::new();
    while pairs.len() < MIN_PAIRS || Instant::now() < half {
        // Alternate which side of a pair runs first, so a drift in the
        // host's speed does not favour one side; each side's handle is
        // dropped before the other side runs.
        let traced_first = pairs.len() % 2 == 1;
        if traced_first {
            drop(ledger::traced_pipeline(&tr, run, w.ingest(), &cfg)?);
        }
        let untraced = trial::run_pipeline(w.ingest(), &cfg)?;
        if untraced.outcome != expected {
            return Err("traced run: untraced pipeline disagrees with the gate".into());
        }
        pairs.push((run, untraced.total_s));
        drop(untraced);
        if !traced_first {
            drop(ledger::traced_pipeline(&tr, run, w.ingest(), &cfg)?);
        }
        attempted += 2;
        run += 1;
    }
    // The ledgers' analysis and session read one more handle of the trial.
    let ms = trial::run_pipeline(w.ingest(), &cfg)?.ms;
    attempted += 1;
    let mut ledgers = Vec::new();
    while ledgers.is_empty() || Instant::now() < deadline {
        ledgers.push((
            run,
            ledger::ledger(&tr, run, &cfg, &ms, &expected.report, &queries)?,
        ));
        run += 1;
    }
    drop(ms);
    let spans = tr.into_spans();

    // Coverage: top-level spans of each traced pipeline against the
    // untraced wall of its pair; overhead: traced minus untraced wall.
    let (mut coverage, mut overhead) = (Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for &(run, wall) in &pairs {
        let root = spans
            .iter()
            .find(|s| s.run == run && s.name == "pipeline")
            .ok_or("traced pipeline left no root span")?;
        coverage.push(trace::child_coverage(&spans, root.id) / wall);
        overhead.push(root.duration() - wall);
        untraced_s.push(wall);
        traced_s.push(root.duration());
    }
    let cover = med(&coverage);
    if (cover - 1.0).abs() > 0.05 {
        eprintln!(
            "perfbench: top-level spans cover {:.1} % of the untraced wall",
            cover * 100.0
        );
    }
    let per_run: Vec<_> = ledgers
        .iter()
        .map(|(run, c)| ledger_metrics(&spans, *run, c, rss_per_row_b))
        .collect();
    let mut metrics = median_metrics(&per_run);
    metrics.extend([
        ("trace.coverage", cover, "ratio"),
        ("trace.overhead_s", med(&overhead), "s"),
        ("trace.spans", spans.len() as f64, "count"),
    ]);
    let path = write_spans(&format!("{}-seed{}", w.name(), args.seed), &spans)?;
    attempted += ledgers.iter().map(|(_, c)| c.attempted + 4).sum::<u64>();
    let failed = ledgers.iter().map(|(_, c)| c.failed).sum();
    let details = Json::obj([
        ("params", params(w, args)),
        ("pairs", int(pairs.len())),
        ("ledgers", int(ledgers.len())),
        ("untraced_s", samples(&untraced_s)),
        ("traced_s", samples(&traced_s)),
        ("coverage", samples(&coverage)),
        ("spans_file", Json::Str(path)),
    ]);
    Ok(Report {
        correct: true,
        attempted,
        failed,
        metrics,
        details,
    })
}

/// The one-off scale sweep of `batch_steady`: per user count, one
/// untraced pipeline and one ledger on its handle, reported as each
/// layer's share of the untraced wall.
fn sweep(seed: u64) -> Result<Report, String> {
    const LAYERS: [&str; 11] = [
        "ntier.simulate",
        "monitors.render",
        "transform",
        "transform.declare",
        "transform.parse",
        "transform.convert",
        "transform.load",
        "analysis.pit",
        "analysis.queues",
        "analysis.flows",
        "core.diagnose",
    ];
    let mut metrics = Vec::new();
    let mut rows = Vec::new();
    for users in SWEEP_USERS {
        let cfg = Workload::BatchSteady.config(users, seed);
        let base = trial::run_pipeline(Ingest::Batch, &cfg)?;
        let queries = session::generate(&base.ms, seed, 5)?;
        let tr = Tracer::new();
        let c = ledger::ledger(&tr, 0, &cfg, &base.ms, &base.outcome.report, &queries)?;
        let spans = tr.into_spans();
        let mut shares = Vec::new();
        for layer in LAYERS {
            let share = trace::total(&spans, layer, 0) / base.total_s;
            shares.push((layer, Json::Float(share)));
            metrics.push((leak(format!("users_{users}.{layer}_share")), share, "ratio"));
        }
        rows.push(Json::obj([
            ("users", int(users)),
            ("pipeline_s", Json::Float(base.total_s)),
            ("log_bytes", int(base.log_bytes)),
            ("records", int(base.records)),
            ("rows", int(c.rows)),
            ("shares", Json::obj(shares)),
        ]));
        eprintln!("perfbench: sweep at {users} users done");
    }
    Ok(Report {
        correct: true,
        attempted: 2 * SWEEP_USERS.len() as u64,
        failed: 0,
        metrics,
        details: Json::obj([
            ("host_cores", int(host_cores())),
            ("seed", int(seed)),
            ("sweep", Json::Arr(rows)),
        ]),
    })
}

/// Metric names built at run time live for the whole (short) process.
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}
