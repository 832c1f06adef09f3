//! The traced run. Spans are recorded only here, around the benchmark's
//! own calls into each public layer:
//!
//! * [`traced_pipeline`] is an ordinary pipeline with one top-level span
//!   per layer call; against an untraced pipeline run alongside it, it
//!   gives span coverage and tracing overhead.
//! * [`ledger`] splits the layers that one public call hides. The batch
//!   transform is re-run through its stage functions in `run_with`'s
//!   table-group order, the streaming spine is re-driven from
//!   `MonitorSuite::stream` / `DataTransformer::stream` / `run_piped`, and
//!   both must reproduce the pipeline's `TransformReport`. Analysis and
//!   the SQL session run on the traced pipeline's handle.

use crate::session::{Query, CLASSES};
use crate::trial::{self, Ingest, CHUNK, STREAM_WORKERS};
use mscope_core::{DiagnoseOptions, MilliScope};
use mscope_db::Database;
use mscope_monitors::{merge_records, LogFileMeta, LogStore, MonitorSuite};
use mscope_ntier::SystemConfig;
use mscope_perfbench::trace::Tracer;
use mscope_sim::{run_piped, WorkQueue};
use mscope_transform::{
    convert_xml, import_rows, ConvertedTable, DataTransformer, ParsingDeclaration, TransformError,
    TransformReport,
};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Capacity of the streaming channel, as `MilliScope::run_streaming` uses.
const STREAM_CAPACITY: usize = 8;

/// Below this much declared input `run_with` converts serially.
const AUTO_PARALLEL_MIN_BYTES: u64 = 4 << 20;

/// Counts the ledger reads off the data (not off the clock).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Simulator records.
    pub records: usize,
    /// Rendered log bytes.
    pub log_bytes: usize,
    /// Declared log bytes parsed by the batch split.
    pub parsed_bytes: u64,
    /// Transform entries.
    pub entries: usize,
    /// Chunks through the streaming channel.
    pub chunks: usize,
    /// Warehouse rows and tables of the traced pipeline's handle.
    pub rows: usize,
    /// See [`Counts::rows`].
    pub tables: usize,
    /// Flows and diagnosed episodes.
    pub flows: usize,
    /// See [`Counts::flows`].
    pub episodes: usize,
    /// Rows the traced session returned.
    pub rows_returned: u64,
    /// Operations that failed inside the ledger.
    pub failed: u64,
    /// Operations the ledger attempted.
    pub attempted: u64,
}

/// One pipeline with a top-level span per layer call under a root span
/// named `pipeline`. Returns the handle.
pub fn traced_pipeline(
    tr: &Tracer,
    run: u64,
    kind: Ingest,
    cfg: &SystemConfig,
) -> Result<MilliScope, String> {
    tr.span("pipeline", None, run, |root| {
        let p = Some(root);
        let out = tr.span("ntier.simulate", p, run, |_| trial::simulate(cfg))?;
        let ms = match kind {
            Ingest::Batch => {
                let art = tr.span("monitors.render", p, run, |_| {
                    MonitorSuite::standard(&out.config).render(&out)
                });
                tr.span("transform.from_parts", p, run, |_| {
                    let ms = MilliScope::from_parts(
                        out.config.clone(),
                        &art.store,
                        &art.manifest,
                        art.sysviz,
                    );
                    drop(art.store);
                    drop(out);
                    ms.map_err(|e| e.to_string())
                })?
            }
            Ingest::Stream => tr.span("spine.run_streaming", p, run, |_| {
                let ms = MilliScope::run_streaming(&out, CHUNK, STREAM_WORKERS);
                drop(out);
                ms.map_err(|e| e.to_string())
            })?,
        };
        // The flows are dropped inside the span, as in the untraced
        // pipeline.
        tr.span("analysis.flows", p, run, |_| ms.flows().map(|f| f.len()))
            .map_err(|e| e.to_string())?;
        tr.span("core.diagnose", p, run, |_| {
            ms.diagnose(&DiagnoseOptions::default())
        })
        .map_err(|e| e.to_string())?;
        Ok(ms)
    })
}

/// The layer split for one run id. `ms` is the traced pipeline's handle;
/// `expected` is the report every ingest path must reproduce.
pub fn ledger(
    tr: &Tracer,
    run: u64,
    cfg: &SystemConfig,
    ms: &MilliScope,
    expected: &TransformReport,
    queries: &[Query],
) -> Result<Counts, String> {
    tr.span("ledger", None, run, |root| {
        let p = Some(root);
        let mut counts = Counts::default();
        let out = tr.span("ntier.simulate", p, run, |_| trial::simulate(cfg))?;
        counts.records = trial::records(&out);

        // Batch: render, then the transform through its stage functions.
        let art = tr.span("monitors.render", p, run, |_| {
            MonitorSuite::standard(&out.config).render(&out)
        });
        counts.log_bytes = art.store.total_bytes();
        let mut db = Database::new();
        let split = tr.span("transform", p, run, |t| {
            split_transform(tr, run, t, &art.manifest, &art.store, &mut db)
        });
        drop((art, db));
        let split = split.map_err(|e| format!("batch transform split: {e}"))?;
        if &split.report != expected {
            return Err("batch transform split: report differs from run_with's".into());
        }
        counts.parsed_bytes = split.declared_bytes;
        counts.entries = split.report.entries;

        // Streaming: the spine re-driven from its public parts.
        let (report, chunks) = tr.span("spine", p, run, |s| redrive_spine(tr, run, s, &out))?;
        if &report != expected {
            return Err("streaming re-drive: report differs from run_streaming's".into());
        }
        counts.chunks = chunks;
        drop(out);

        // Analysis on the traced pipeline's handle.
        let opts = DiagnoseOptions::default();
        tr.span("analysis.pit", p, run, |_| ms.pit(opts.pit_window))
            .map_err(|e| e.to_string())?;
        tr.span("analysis.queues", p, run, |_| {
            ms.all_queues(opts.pit_window)
        })
        .map_err(|e| e.to_string())?;
        counts.flows = tr
            .span("analysis.flows", p, run, |_| ms.flows())
            .map_err(|e| e.to_string())?
            .len();
        counts.episodes = tr
            .span("core.diagnose", p, run, |_| ms.diagnose(&opts))
            .map_err(|e| e.to_string())?
            .episodes
            .len();
        counts.rows = ms.db().total_rows();
        counts.tables = ms.db().table_names().len();

        // The SQL session: plan (EXPLAIN) and execution of every query.
        tr.span("warehouse.session", p, run, |s| {
            for q in queries {
                counts.attempted += 1;
                let explain = format!("EXPLAIN {}", q.sql);
                let planned = tr.span("warehouse.plan", Some(s), run, |_| ms.db().query(&explain));
                let name = format!("warehouse.query.{}", CLASSES[q.class]);
                match (
                    planned,
                    tr.span(&name, Some(s), run, |_| ms.db().query(&q.sql)),
                ) {
                    (Ok(_), Ok(t)) => counts.rows_returned += t.row_count() as u64,
                    _ => counts.failed += 1,
                }
            }
        });
        Ok(counts)
    })
}

/// What the batch split produced.
struct Split {
    report: TransformReport,
    declared_bytes: u64,
}

/// `DataTransformer::run_with` (default options) through its public stage
/// functions, one span per stage call: declarations, per-group parse and
/// convert fanned out as `run_with` does, then loads in table order and
/// the metadata registration.
fn split_transform(
    tr: &Tracer,
    run: u64,
    parent: usize,
    manifest: &[LogFileMeta],
    store: &LogStore,
    db: &mut Database,
) -> Result<Split, TransformError> {
    let p = Some(parent);
    let transformer = tr.span("transform.declare", p, run, |_| {
        let transformer = DataTransformer::from_manifest(manifest);
        transformer.validate().map(|()| transformer)
    })?;
    let mut by_table: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
    for d in transformer.declarations() {
        by_table.entry(&d.table).or_default().push(d);
    }
    let groups: Vec<(&str, Vec<&ParsingDeclaration>)> = by_table.into_iter().collect();
    let declared_bytes: u64 = transformer
        .declarations()
        .iter()
        .filter_map(|d| store.size(&d.path))
        .map(|b| b as u64)
        .sum();
    let workers = if declared_bytes < AUTO_PARALLEL_MIN_BYTES {
        1
    } else {
        std::thread::available_parallelism().map_or(4, usize::from)
    }
    .min(groups.len())
    .max(1);

    // Parse + convert per group, claimed from a shared queue.
    let convert_group = |i: usize| -> Result<ConvertedTable, TransformError> {
        tr.span("transform.group", p, run, |g| {
            let mut docs = Vec::with_capacity(groups[i].1.len());
            for d in &groups[i].1 {
                let content = store
                    .read(&d.path)
                    .ok_or_else(|| TransformError::MissingFile(d.path.clone()))?;
                docs.push(tr.span("transform.parse", Some(g), run, |_| d.execute(content))?);
            }
            tr.span("transform.convert", Some(g), run, |_| convert_xml(&docs))
        })
    };
    let queue = WorkQueue::new(groups.len());
    let slots: Mutex<Vec<Option<Result<ConvertedTable, TransformError>>>> =
        Mutex::new((0..groups.len()).map(|_| None).collect());
    let work = || {
        while let Some(i) = queue.take() {
            let out = convert_group(i);
            if out.is_err() {
                queue.poison();
            }
            slots.lock().expect("group slots poisoned")[i] = Some(out);
        }
    };
    if workers <= 1 {
        work();
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(work);
            }
        });
    }
    let mut results = slots.into_inner().expect("group slots poisoned");

    // Serial loads in table order, then metadata.
    let mut report = TransformReport::default();
    for (i, (table, decls)) in groups.iter().enumerate() {
        let converted = results[i].take().ok_or_else(|| {
            TransformError::SchemaInference(format!("group `{table}` left unconverted"))
        })??;
        report.files += decls.len();
        report.entries += converted.row_count();
        let ConvertedTable { schema, rows } = converted;
        let loaded = tr.span("transform.load", p, run, |_| {
            import_rows(db, table, &schema, rows)
        })?;
        report.tables.push((table.to_string(), loaded));
    }
    tr.span("transform.register", p, run, |_| {
        register_metadata(&transformer, store, db)
    })?;

    Ok(Split {
        report,
        declared_bytes,
    })
}

/// The `monitors` / `log_files` rows `run_with` registers after loading.
fn register_metadata(
    transformer: &DataTransformer,
    store: &LogStore,
    db: &mut Database,
) -> Result<(), TransformError> {
    for m in transformer.manifest_entries() {
        let kind = match m.kind {
            mscope_monitors::MonitorKind::Event => "event",
            mscope_monitors::MonitorKind::Resource => "resource",
        };
        let node = m.node.to_string();
        db.register_monitor(&m.monitor_id, &node, &m.tool, kind, m.period_ms as i64)
            .map_err(TransformError::Db)?;
        let bytes = store
            .size(&m.path)
            .ok_or_else(|| TransformError::MissingFile(m.path.clone()))? as i64;
        db.register_log_file(&m.path, &node, &m.monitor_id, &m.format, bytes)
            .map_err(TransformError::Db)?;
    }
    Ok(())
}

/// `MilliScope::run_streaming` re-driven from the spine's public parts,
/// with spans around the merge, every channel send and receive, every
/// chunk observed and polled, and the two finishes. Returns the report
/// and the number of chunks that crossed the channel.
fn redrive_spine(
    tr: &Tracer,
    run: u64,
    parent: usize,
    out: &mscope_ntier::RunOutput,
) -> Result<(TransformReport, usize), String> {
    let p = Some(parent);
    let cfg = &out.config;
    let suite = MonitorSuite::standard(cfg);
    let manifest = suite.manifest(cfg);
    let mut ingester = tr
        .span("transform.stream", p, run, |_| {
            DataTransformer::from_manifest(&manifest).stream()
        })
        .map_err(|e| e.to_string())?;
    let records = tr.span("monitors.merge", p, run, |_| merge_records(out));
    let mut db = Database::new();
    let (report, chunks) = run_piped(
        STREAM_CAPACITY,
        |tx| {
            tr.span("sim.stream.produce", p, run, |s| {
                for c in records.chunks(CHUNK) {
                    let chunk = c.to_vec();
                    let t = Instant::now();
                    let sent = tx.send(chunk);
                    tr.record("sim.stream.send", Some(s), run, t, Instant::now());
                    if sent.is_err() {
                        break;
                    }
                }
            });
        },
        |rx| -> Result<_, String> {
            tr.span("sim.stream.consume", p, run, |s| {
                let s = Some(s);
                let mut monitors = suite.stream(cfg);
                let mut chunks = 0usize;
                loop {
                    let t = Instant::now();
                    let next = rx.recv();
                    tr.record("sim.stream.recv", s, run, t, Instant::now());
                    let Some(c) = next else { break };
                    chunks += 1;
                    tr.span("monitors.observe", s, run, |_| monitors.observe_chunk(&c));
                    tr.span("transform.poll", s, run, |_| {
                        ingester.poll_with(monitors.store(), &mut db, STREAM_WORKERS)
                    })
                    .map_err(|e| e.to_string())?;
                }
                let artifacts = tr.span("monitors.finish", s, run, |_| monitors.finish());
                let report = tr
                    .span("transform.finish", s, run, |_| {
                        ingester.finish(&artifacts.store, &mut db)
                    })
                    .map_err(|e| e.to_string())?;
                Ok((report, chunks))
            })
        },
    )?;
    Ok((report, chunks))
}

/// The queries of the traced session: the first `per_class` of each class.
pub fn traced_queries(queries: &[Query], per_class: usize) -> Vec<Query> {
    let mut seen = [0usize; 5];
    queries
        .iter()
        .filter(|q| {
            seen[q.class] += 1;
            seen[q.class] <= per_class
        })
        .cloned()
        .collect()
}
