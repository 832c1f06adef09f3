//! The end-to-end mScopeDataTransformer pipeline (paper Fig. 3):
//! parsing declarations → mScopeParsers → schema inference → Data
//! Importer → mScopeDB. The paper's annotated-XML stage is an export view
//! ([`ParsingDeclaration::execute`], [`convert_xml`](crate::convert_xml))
//! that reproduces this pipeline's converted tables exactly.
//!
//! The CPU-heavy front of the pipeline — log read → parse → typed rows —
//! is embarrassingly parallel across destination tables, so
//! [`DataTransformer::run`] fans the table groups out over scoped worker
//! threads fed by a small in-tree work queue, then loads the converted
//! groups into the warehouse serially in deterministic table order. The
//! report and the warehouse contents are byte-identical whether the run
//! used one worker or many.

use crate::convert::{convert_entries, ConvertedTable};
use crate::declare::{self, ParseState, ParsingDeclaration};
use crate::error::TransformError;
use crate::import::{import_csv, import_rows};
use crate::parsers::declaration_for;
use mscope_db::Database;
use mscope_monitors::{LogFileMeta, LogStore, MonitorKind};
use mscope_sim::WorkQueue;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// What one pipeline run produced.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TransformReport {
    /// Files parsed.
    pub files: usize,
    /// Entries extracted across all files.
    pub entries: usize,
    /// `(table, rows-loaded)` per destination table.
    pub tables: Vec<(String, usize)>,
}
mscope_serdes::json_struct!(TransformReport {
    files,
    entries,
    tables
});

/// Below this much declared log input, `workers: 0` (auto) runs the
/// convert stage serially: thread spawn and lock traffic cost more than
/// they save on small runs (the bench history shows parallel at ~1 MiB
/// *slower* than serial; the crossover is comfortably above that).
const AUTO_PARALLEL_MIN_BYTES: u64 = 4 << 20;

/// How a pipeline run executes: worker fan-out and load path. The default
/// (`workers: 0`, direct load) sizes the fan-out to the work: the
/// machine's parallelism for large runs, serial below
/// 4 MiB of declared input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunOptions {
    /// Worker threads for the convert stage; `0` picks automatically —
    /// the machine's available parallelism (capped at the number of table
    /// groups), falling back to serial when the declared input is too
    /// small for the fan-out to pay for itself.
    pub workers: usize,
    /// Load through a CSV serialize→reparse round-trip instead of the
    /// direct typed-row path. The results are identical; this exists for
    /// benchmarking the historical interchange format and validating the
    /// CSV export.
    pub csv_round_trip: bool,
}

impl RunOptions {
    /// One worker, direct typed-row load.
    pub fn serial() -> RunOptions {
        RunOptions {
            workers: 1,
            csv_round_trip: false,
        }
    }

    /// One worker, CSV round-trip load — the historical pipeline shape,
    /// kept as the benchmark baseline.
    pub fn serial_csv() -> RunOptions {
        RunOptions {
            workers: 1,
            csv_round_trip: true,
        }
    }
}

/// One table group's converted output, waiting to be loaded.
struct GroupOutput {
    files: usize,
    converted: ConvertedTable,
}

/// Runs the parse→convert front for one table group: each file through
/// the parser core in one call, then the group's entries through schema
/// inference together.
fn convert_group(
    decls: &[&ParsingDeclaration],
    store: &LogStore,
) -> Result<GroupOutput, TransformError> {
    let mut files = Vec::with_capacity(decls.len());
    for d in decls {
        let content = store
            .read(&d.path)
            .ok_or_else(|| TransformError::MissingFile(d.path.clone()))?;
        let entries = d.advance(&mut ParseState::default(), content, true)?;
        files.push((d.path.as_str(), entries));
    }
    let converted = convert_entries(&files)?;
    Ok(GroupOutput {
        files: decls.len(),
        converted,
    })
}

/// Registers every manifest file's monitor and log-file metadata, in
/// manifest order — the last step of a batch run and of a streaming
/// finish. A file that was declared but is absent from the store is an
/// error, not a healthy zero-byte log.
pub(crate) fn register_metadata(
    manifest: &[LogFileMeta],
    store: &LogStore,
    db: &mut Database,
) -> Result<(), TransformError> {
    for m in manifest {
        let kind = match m.kind {
            MonitorKind::Event => "event",
            MonitorKind::Resource => "resource",
        };
        // perf: one rendered node name per manifest entry, shared by both
        // registrations below.
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

/// Locks a mutex, ignoring poisoning — a worker panic already propagates
/// through the thread scope, so a poisoned guard's data is never observed.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The transformer: a set of parsing declarations derived from the monitor
/// manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct DataTransformer {
    declarations: Vec<ParsingDeclaration>,
    manifest: Vec<LogFileMeta>,
}

impl DataTransformer {
    /// Builds declarations for every file in a monitor manifest — the
    /// "parsing declaration" stage.
    pub fn from_manifest(manifest: &[LogFileMeta]) -> DataTransformer {
        DataTransformer {
            declarations: manifest.iter().map(declaration_for).collect(),
            manifest: manifest.to_vec(),
        }
    }

    /// The declarations (file → parser mapping), for inspection.
    pub fn declarations(&self) -> &[ParsingDeclaration] {
        &self.declarations
    }

    /// The manifest this transformer was seeded from (drives the metadata
    /// tables at the end of a run, batch or streaming).
    pub fn manifest_entries(&self) -> &[LogFileMeta] {
        &self.manifest
    }

    /// Statically validates the declaration set without running anything —
    /// the check [`run`](DataTransformer::run) applies before touching the
    /// log store.
    ///
    /// # Errors
    ///
    /// [`TransformError::BadDeclaration`] for the first deny-level issue
    /// found by [`declare::check`].
    pub fn validate(&self) -> Result<(), TransformError> {
        declare::validate(&self.declarations)
    }

    /// Runs the full pipeline with default options: parallel convert
    /// stage, direct typed-row load. See [`DataTransformer::run_with`].
    ///
    /// # Errors
    ///
    /// The first error from any stage, in deterministic table order;
    /// nothing is half-loaded on error for the failing table, but
    /// previously completed tables remain.
    pub fn run(
        &self,
        store: &LogStore,
        db: &mut Database,
    ) -> Result<TransformReport, TransformError> {
        self.run_with(store, db, RunOptions::default())
    }

    /// Runs the full pipeline: every declared file is parsed to entries;
    /// entries destined for the same table are converted together
    /// (so schema inference unions across replicas) into typed rows; rows
    /// are batch-loaded into the warehouse; and the static metadata tables
    /// (`monitors`, `log_files`) are populated.
    ///
    /// The convert stage fans out across `opts.workers` scoped threads
    /// (one table group per job); the load stage is serial and iterates
    /// groups in table order, so the warehouse contents and the report are
    /// identical for any worker count.
    ///
    /// # Errors
    ///
    /// The first error from any stage, in deterministic table order;
    /// nothing is half-loaded on error for the failing table, but
    /// previously completed tables remain.
    pub fn run_with(
        &self,
        store: &LogStore,
        db: &mut Database,
        opts: RunOptions,
    ) -> Result<TransformReport, TransformError> {
        // Pre-validate: a malformed declaration fails here, with a rule ID
        // and reason, instead of deep inside a parse or import stage.
        self.validate()?;
        // Group declarations by destination table, in deterministic order.
        let mut by_table: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
        for d in &self.declarations {
            by_table.entry(&d.table).or_default().push(d);
        }
        let groups: Vec<(&str, Vec<&ParsingDeclaration>)> = by_table.into_iter().collect();

        // Convert stage: fan the groups out, or run inline for one worker.
        let declared_bytes: u64 = self
            .declarations
            .iter()
            .filter_map(|d| store.size(&d.path))
            .map(|b| b as u64)
            .sum();
        let workers = self.worker_count(opts, groups.len(), declared_bytes);
        let mut results: Vec<Option<Result<GroupOutput, TransformError>>> =
            if workers <= 1 || groups.len() <= 1 {
                groups
                    .iter()
                    .map(|(_, decls)| Some(convert_group(decls, store)))
                    .collect()
            } else {
                let queue = WorkQueue::new(groups.len());
                let slots = Mutex::new((0..groups.len()).map(|_| None).collect::<Vec<_>>());
                std::thread::scope(|s| {
                    for _ in 0..workers {
                        s.spawn(|| {
                            // A claimed job always runs to completion, so
                            // dispensed indices always yield a result and
                            // unconverted groups form a strict suffix
                            // behind the first error.
                            while let Some(i) = queue.take() {
                                let out = convert_group(&groups[i].1, store);
                                if out.is_err() {
                                    queue.poison();
                                }
                                lock(&slots)[i] = Some(out);
                            }
                        });
                    }
                });
                slots
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            };

        // Load stage: serial, in table order — this is what makes reports
        // and warehouse state deterministic despite the parallel front.
        let mut report = TransformReport::default();
        for (i, (table, _)) in groups.iter().enumerate() {
            let out = match results[i].take() {
                Some(Ok(out)) => out,
                Some(Err(e)) => return Err(e),
                // Only reachable behind an error at a smaller index, which
                // the arm above already returned.
                None => {
                    return Err(TransformError::SchemaInference(format!(
                        "internal: group `{table}` left unconverted"
                    )))
                }
            };
            report.files += out.files;
            report.entries += out.converted.row_count();
            let loaded = if opts.csv_round_trip {
                import_csv(db, table, &out.converted.schema, &out.converted.to_csv())?
            } else {
                let ConvertedTable { schema, rows } = out.converted;
                import_rows(db, table, &schema, rows)?
            };
            // perf: one owned table name per loaded table — bounded by the
            // manifest's table groups, never by row count.
            report.tables.push((table.to_string(), loaded));
        }

        register_metadata(&self.manifest, store, db)?;
        Ok(report)
    }

    /// Resolves the effective worker count: explicit, or — in auto mode —
    /// the machine's available parallelism for large inputs and serial
    /// below [`AUTO_PARALLEL_MIN_BYTES`], capped by the number of table
    /// groups either way.
    fn worker_count(&self, opts: RunOptions, groups: usize, declared_bytes: u64) -> usize {
        let requested = if opts.workers == 0 {
            if declared_bytes < AUTO_PARALLEL_MIN_BYTES {
                1
            } else {
                std::thread::available_parallelism()
                    .map(usize::from)
                    .unwrap_or(4)
            }
        } else {
            opts.workers
        };
        requested.min(groups).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mscope_monitors::MonitorSuite;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;

    fn artifacts() -> (
        mscope_ntier::RunOutput,
        mscope_monitors::MonitoringArtifacts,
    ) {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        let art = MonitorSuite::standard(&out.config).render(&out);
        (out, art)
    }

    #[test]
    fn full_pipeline_loads_all_tables() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        let report = tr.run(&art.store, &mut db).unwrap();
        assert_eq!(report.files, art.manifest.len());
        assert!(report.entries > 100, "entries {}", report.entries);
        // Expected dynamic tables.
        let names = db.dynamic_table_names();
        for expect in [
            "collectl",
            "sar",
            "sar_xml",
            "iostat",
            "event_apache",
            "event_tomcat",
            "event_cjdbc",
            "event_mysql",
        ] {
            assert!(names.contains(&expect), "missing table {expect}: {names:?}");
        }
        // Metadata registered.
        assert_eq!(
            db.table("monitors").unwrap().row_count(),
            art.manifest.len()
        );
        assert_eq!(
            db.table("log_files").unwrap().row_count(),
            art.manifest.len()
        );
    }

    #[test]
    fn parallel_serial_and_csv_paths_are_byte_identical() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let variants = [
            RunOptions::default(),
            RunOptions::serial(),
            RunOptions::serial_csv(),
            RunOptions {
                workers: 3,
                csv_round_trip: true,
            },
        ];
        let mut outputs = Vec::new();
        for opts in variants {
            let mut db = Database::new();
            let report = tr.run_with(&art.store, &mut db, opts).unwrap();
            outputs.push((report, db.to_json().unwrap()));
        }
        for (report, json) in &outputs[1..] {
            assert_eq!(report, &outputs[0].0, "report drift");
            assert_eq!(json, &outputs[0].1, "warehouse drift");
        }
    }

    #[test]
    fn xml_export_reproduces_the_converted_tables() {
        for mut cfg in [
            SystemConfig::rubbos_baseline(60),
            SystemConfig::rubbos_replicated(60),
        ] {
            cfg.duration = SimDuration::from_secs(6);
            cfg.warmup = SimDuration::from_secs(2);
            cfg.workload.ramp_up = SimDuration::from_secs(1);
            let out = Simulator::new(cfg).unwrap().run();
            let art = MonitorSuite::standard(&out.config).render(&out);
            let tr = DataTransformer::from_manifest(&art.manifest);
            let mut by_table: BTreeMap<&str, Vec<&ParsingDeclaration>> = BTreeMap::new();
            for d in tr.declarations() {
                by_table.entry(&d.table).or_default().push(d);
            }
            for (table, decls) in by_table {
                let hot = convert_group(&decls, &art.store).unwrap().converted;
                let docs: Vec<_> = decls
                    .iter()
                    .map(|d| d.execute(art.store.read(&d.path).unwrap()).unwrap())
                    .collect();
                assert_eq!(crate::convert_xml(&docs).unwrap(), hot, "{table}");
                let mut direct = Database::new();
                import_rows(&mut direct, table, &hot.schema, hot.rows.clone()).unwrap();
                let mut reloaded = Database::new();
                import_csv(&mut reloaded, table, &hot.schema, &hot.to_csv()).unwrap();
                assert_eq!(
                    reloaded.require(table).unwrap(),
                    direct.require(table).unwrap(),
                    "{table}"
                );
            }
        }
    }

    #[test]
    fn event_table_contents_match_run() {
        let (out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let apache = db.require("event_apache").unwrap();
        // One row per line in the Apache access log.
        let lines = art
            .store
            .read("logs/tier0-0/access_log")
            .unwrap()
            .lines()
            .count();
        assert_eq!(apache.row_count(), lines);
        // Request IDs are 12-hex fixed width text.
        let ids = apache.column("request_id").unwrap();
        assert!(ids
            .iter()
            .all(|v| v.as_str().is_some_and(|s| s.len() == 12)));
        // ua column is timestamps (µs) and all within the run.
        assert_eq!(apache.numeric_values("ua").count(), lines);
        assert!(apache
            .numeric_values("ua")
            .all(|t| t >= 0.0 && t <= out.end_time.as_micros() as f64));
    }

    #[test]
    fn collectl_table_has_node_constant_per_tier() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let collectl = db.require("collectl").unwrap();
        let nodes: std::collections::BTreeSet<String> = collectl
            .column("node")
            .unwrap()
            .iter()
            .filter_map(|v| v.as_str().map(String::from))
            .collect();
        assert_eq!(nodes.len(), 4, "all four nodes present: {nodes:?}");
        // Disk util numeric and bounded.
        assert!(collectl
            .numeric_values("disk_util")
            .all(|u| (0.0..=100.0).contains(&u)));
    }

    #[test]
    fn sar_text_and_xml_agree() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let text = db.require("sar").unwrap();
        let xml = db.require("sar_xml").unwrap();
        assert_eq!(text.row_count(), xml.row_count());
        // Same cpu_user series modulo float formatting.
        let a = text.numeric_values("cpu_user");
        let b: Vec<f64> = xml.numeric_values("cpu_user").collect();
        assert_eq!(text.numeric_values("cpu_user").count(), b.len());
        for (x, y) in a.zip(&b) {
            assert!((x - y).abs() < 0.01, "{x} vs {y}");
        }
    }

    #[test]
    fn missing_file_is_an_error() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        let empty = LogStore::new();
        assert!(matches!(
            tr.run(&empty, &mut db),
            Err(TransformError::MissingFile(_))
        ));
    }

    #[test]
    fn missing_file_is_an_error_in_parallel_mode_too() {
        let (_out, mut art) = artifacts();
        // Remove one file: the parse stage of its group must fail, and the
        // parallel run must surface that error, not a half-report.
        art.store.remove("logs/tier3-0/iostat.log");
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        let err = tr
            .run_with(&art.store, &mut db, RunOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, TransformError::MissingFile(ref p) if p.contains("iostat")),
            "{err}"
        );
    }

    #[test]
    fn corrupted_log_line_is_an_error() {
        let (_out, mut art) = artifacts();
        art.store
            .append_line("logs/tier0-0/access_log", "THIS IS NOT AN ACCESS LOG LINE");
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        assert!(matches!(
            tr.run(&art.store, &mut db),
            Err(TransformError::UnparsedLine { .. })
        ));
    }

    #[test]
    fn disabled_event_monitors_yield_resource_tables_only() {
        let mut cfg = SystemConfig::rubbos_baseline(40);
        cfg.duration = SimDuration::from_secs(4);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.monitoring.event_monitors = false;
        let out = Simulator::new(cfg).unwrap().run();
        let art = MonitorSuite::standard(&out.config).render(&out);
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        assert!(db
            .dynamic_table_names()
            .iter()
            .all(|n| !n.starts_with("event_")));
    }

    #[test]
    fn event_mysql_ids_join_with_event_apache() {
        let (_out, art) = artifacts();
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut db = Database::new();
        tr.run(&art.store, &mut db).unwrap();
        let apache = db.require("event_apache").unwrap();
        let mysql = db.require("event_mysql").unwrap();
        let joined = apache
            .inner_join(mysql, "request_id", "request_id")
            .unwrap();
        // Every MySQL-visiting request also went through Apache.
        assert_eq!(joined.row_count(), mysql.row_count());
        assert!(joined.row_count() > 10);
    }
}

#[cfg(test)]
mod sar_subsystem_tests {
    use super::*;
    use mscope_monitors::MonitorSuite;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;

    #[test]
    fn sar_mem_and_net_tables_load() {
        let mut cfg = SystemConfig::rubbos_baseline(60);
        cfg.duration = SimDuration::from_secs(6);
        cfg.warmup = SimDuration::from_secs(2);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        let art = MonitorSuite::standard(&out.config).render(&out);
        let mut db = Database::new();
        DataTransformer::from_manifest(&art.manifest)
            .run(&art.store, &mut db)
            .unwrap();
        let mem = db.require("sar_mem").unwrap();
        assert!(mem.row_count() > 10);
        // Dirty kB is 4x the page count in the collectl table at the same
        // node & time (sar-mem reports kbdirty, collectl reports pages).
        assert!(mem.numeric_values("mem_dirty_kb").all(|v| v >= 0.0));
        let net = db.require("sar_net").unwrap();
        assert_eq!(net.row_count(), mem.row_count());
        assert!(
            net.numeric_values("net_rx_kb").any(|v| v > 0.0),
            "traffic flowed"
        );
    }
}
