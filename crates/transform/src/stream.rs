//! Streaming ingestion — the transformer's half of the spine.
//!
//! The batch pipeline ([`DataTransformer::run`]) needs every log file
//! complete before it starts: schema inference is defined over *all*
//! entries. [`StreamingTransformer`] is the incremental driver of the same
//! core: it *tails* the declared files of a growing [`LogStore`], keeping
//! one [`ParseState`] (consumed-byte offset, sticky context, open block)
//! per declaration, and on each [`poll`](StreamingTransformer::poll) hands
//! the grown file to [`ParsingDeclaration::advance`] — the parser batch
//! runs once per file — which returns exactly the complete new lines / XML
//! entries. The entries are folded into the same [`SchemaJoin`] batch's
//! converter uses and appended to the warehouse via
//! [`Database::insert_batch`] as they arrive; the per-block zone maps and
//! the sorted-on-append flag are maintained on append, so the warehouse is
//! queryable mid-run.
//!
//! ## Convergence with batch
//!
//! At [`finish`](StreamingTransformer::finish) the warehouse holds, table
//! for table, **exactly** the schema and cell values the batch pipeline
//! infers from the finished files. The subtlety is that batch inference
//! sees all values before choosing column types, while streaming must
//! commit rows under the *running* type join and may later learn the join
//! was too narrow (a column of all-digit hex request IDs infers `Int`
//! until the first ID with a letter arrives). **Migration by replay**
//! closes the gap: when a chunk widens a column's effective type (or
//! introduces a new column), the table is rebuilt by running the parser
//! core again over the text its files have delivered so far — the store
//! keeps it — replaying the recorded arrival order, and typing every entry
//! under the widened schema; the rebuilt table is swapped in with
//! [`Database::replace_table`]. That is batch's own parse and typing of
//! the same text, so the values are byte-identical. A column's type can
//! only climb the lattice, so each table migrates a bounded number of
//! times, and in practice only during its first polls.
//!
//! Row *order* is the one place streaming is allowed to differ: a table
//! fed by several files (one resource monitor per node) receives rows in
//! arrival-interleaved order rather than batch's file-concatenated order.
//! Tables fed by a single file — every event table — come out
//! byte-identical, rows included.

use crate::convert::SchemaJoin;
use crate::declare::{Fields, ParseState, ParsingDeclaration};
use crate::error::TransformError;
use crate::pipeline::{register_metadata, DataTransformer, TransformReport};
use mscope_db::{Database, DbError, Schema, Table};
use mscope_monitors::{LogFileMeta, LogStore};
use mscope_sim::parallel_map;

// ---------------------------------------------------------------------------
// Table sinks: running schema inference + migration by replay
// ---------------------------------------------------------------------------

/// Accumulates one destination table's entries, maintains the running
/// schema, and keeps the warehouse table converged with it.
#[derive(Debug)]
struct TableSink {
    table: String,
    /// Indices of the declarations feeding this table.
    decls: Vec<usize>,
    created: bool,
    committed: usize,
    join: SchemaJoin,
    /// Arrival order of every entry so far, as `(declaration, count)` runs
    /// — what a migration replays.
    order: Vec<(usize, usize)>,
    buffered: Vec<Fields>,
}

impl TableSink {
    fn new(table: &str) -> TableSink {
        TableSink {
            table: table.to_string(),
            decls: Vec::new(),
            created: false,
            committed: 0,
            join: SchemaJoin::default(),
            order: Vec::new(),
            buffered: Vec::new(),
        }
    }

    /// Folds declaration `di`'s new entries into the running schema and
    /// buffers them for the next flush.
    fn add_entries(
        &mut self,
        di: usize,
        source: &str,
        entries: Vec<Fields>,
    ) -> Result<(), TransformError> {
        for entry in &entries {
            self.join.add(entry, source)?;
        }
        match self.order.last_mut() {
            Some((d, n)) if *d == di => *n += entries.len(),
            _ if entries.is_empty() => {}
            _ => self.order.push((di, entries.len())),
        }
        self.buffered.extend(entries);
        Ok(())
    }

    /// Commits the buffered entries: appends them as typed rows, or
    /// rebuilds the table if the effective schema moved.
    fn flush(
        &mut self,
        db: &mut Database,
        decls: &[ParsingDeclaration],
        store: &LogStore,
        at_end: bool,
    ) -> Result<(), TransformError> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let schema = self.join.schema()?;
        if !self.created {
            db.ensure_table(&self.table, schema.clone())
                .map_err(TransformError::Db)?;
            self.created = true;
        } else if db
            .require(&self.table)
            .map_err(TransformError::Db)?
            .schema()
            != &schema
        {
            return self.migrate(db, schema, decls, store, at_end);
        }
        let rows = self
            .buffered
            .iter()
            .map(|entry| self.join.row(entry, &self.table))
            .collect::<Result<Vec<_>, _>>()?;
        self.committed += rows.len();
        db.insert_batch(&self.table, rows)
            .map_err(TransformError::Db)?;
        self.buffered.clear();
        Ok(())
    }

    /// Rebuilds the table under a new effective schema: re-parses every
    /// feeding file as the store holds it now (which yields exactly the
    /// entries its polls delivered), replays the recorded arrival order,
    /// types each entry under `schema`, and swaps the result in.
    fn migrate(
        &mut self,
        db: &mut Database,
        schema: Schema,
        decls: &[ParsingDeclaration],
        store: &LogStore,
        at_end: bool,
    ) -> Result<(), TransformError> {
        let old = db.require(&self.table).map_err(TransformError::Db)?;
        if old.row_count() != self.committed {
            // Rows we did not ingest (a pre-existing table) cannot be
            // migrated — the same situation batch reports as a schema
            // mismatch between the inferred and the existing schema.
            return Err(TransformError::Db(DbError::SchemaMismatch {
                table: self.table.clone(),
                existing: old.schema().to_string(),
                incoming: schema.to_string(),
            }));
        }
        let mut replay = Vec::with_capacity(self.decls.len());
        for &di in &self.decls {
            let content = store.read(&decls[di].path).unwrap_or_default();
            let entries = decls[di].advance(&mut ParseState::default(), content, at_end)?;
            replay.push(entries.into_iter());
        }
        let expected = self.committed + self.buffered.len();
        // perf: a migration runs a bounded number of times per table, and
        // re-types the table's prefix once.
        let mut rows = Vec::with_capacity(expected);
        for &(di, n) in &self.order {
            let at = self.decls.iter().position(|&d| d == di).unwrap_or(0);
            for entry in replay[at].by_ref().take(n) {
                rows.push(self.join.row(&entry, &self.table)?);
            }
        }
        if rows.len() != expected {
            return Err(TransformError::SchemaInference(format!(
                "replay of `{}` yielded {} entries, expected {expected}",
                self.table,
                rows.len()
            )));
        }
        let mut rebuilt = Table::new(self.table.clone(), schema);
        rebuilt.push_batch(rows).map_err(TransformError::Db)?;
        db.replace_table(rebuilt).map_err(TransformError::Db)?;
        self.committed = expected;
        self.buffered.clear();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The streaming transformer
// ---------------------------------------------------------------------------

/// The incremental counterpart of [`DataTransformer::run`]: construct it
/// once, call [`poll`](StreamingTransformer::poll) whenever the log store
/// has grown, and [`finish`](StreamingTransformer::finish) when the run
/// ends. See the module docs for the convergence guarantees.
#[derive(Debug)]
pub struct StreamingTransformer {
    declarations: Vec<ParsingDeclaration>,
    manifest: Vec<LogFileMeta>,
    states: Vec<ParseState>,
    sink_of: Vec<usize>,
    sinks: Vec<TableSink>,
}

impl StreamingTransformer {
    /// Builds a streaming ingester from a transformer's declaration set,
    /// validating it up front exactly as [`DataTransformer::run`] does.
    ///
    /// # Errors
    ///
    /// [`TransformError::BadDeclaration`] for the first deny-level issue.
    pub fn new(transformer: &DataTransformer) -> Result<StreamingTransformer, TransformError> {
        transformer.validate()?;
        Ok(Self::from_parts(
            transformer.declarations().to_vec(),
            transformer.manifest_entries().to_vec(),
        ))
    }

    pub(crate) fn from_parts(
        declarations: Vec<ParsingDeclaration>,
        manifest: Vec<LogFileMeta>,
    ) -> StreamingTransformer {
        // Sinks in sorted table order — the order batch groups by table
        // (BTreeMap) and therefore the order the report lists.
        let mut tables: Vec<&str> = declarations.iter().map(|d| d.table.as_str()).collect();
        tables.sort_unstable();
        tables.dedup();
        let mut sinks: Vec<TableSink> = tables.iter().map(|t| TableSink::new(t)).collect();
        let sink_of: Vec<usize> = declarations
            .iter()
            .map(|d| {
                // The set was just built from these same declarations, so
                // the lookup cannot miss.
                tables.binary_search(&d.table.as_str()).unwrap_or(0)
            })
            .collect();
        for (di, &si) in sink_of.iter().enumerate() {
            sinks[si].decls.push(di);
        }
        let states = vec![ParseState::default(); declarations.len()];
        StreamingTransformer {
            declarations,
            manifest,
            states,
            sink_of,
            sinks,
        }
    }

    /// Entries ingested so far across all tables.
    pub fn entries_seen(&self) -> usize {
        self.states.iter().map(ParseState::entries).sum()
    }

    /// Parses every declaration's unconsumed suffix. Results (and the
    /// advanced states) come back in declaration order regardless of
    /// worker count, which is what makes the parallel path byte-identical
    /// to the serial one.
    fn parse_new(
        &mut self,
        store: &LogStore,
        workers: usize,
        at_end: bool,
    ) -> Result<Vec<Vec<Fields>>, TransformError> {
        let decls = &self.declarations;
        let states = &self.states;
        let results: Vec<(ParseState, Result<Vec<Fields>, TransformError>)> =
            parallel_map(decls.len(), workers.max(1), |di| {
                let decl = &decls[di];
                let mut st = states[di].clone();
                let r = match store.read(&decl.path) {
                    // A file that does not exist yet simply has no data;
                    // it is only an error if still absent at the end.
                    None if !at_end => Ok(Vec::new()),
                    None => Err(TransformError::MissingFile(decl.path.clone())),
                    Some(content) => decl.advance(&mut st, content, at_end),
                };
                (st, r)
            });
        let mut out = Vec::with_capacity(results.len());
        let mut first_err = None;
        for (di, (st, r)) in results.into_iter().enumerate() {
            self.states[di] = st;
            match r {
                Ok(entries) => out.push(entries),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                    out.push(Vec::new());
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    fn apply(
        &mut self,
        parsed: Vec<Vec<Fields>>,
        store: &LogStore,
        db: &mut Database,
        at_end: bool,
    ) -> Result<(), TransformError> {
        for (di, entries) in parsed.into_iter().enumerate() {
            let source = &self.declarations[di].path;
            self.sinks[self.sink_of[di]].add_entries(di, source, entries)?;
        }
        for sink in &mut self.sinks {
            sink.flush(db, &self.declarations, store, at_end)?;
        }
        Ok(())
    }

    /// Ingests whatever new data the store holds, serially.
    ///
    /// # Errors
    ///
    /// Parse errors ([`TransformError::UnparsedLine`], XML errors) and
    /// warehouse errors; a declared file absent from the store is *not* an
    /// error here (the monitor may not have written yet), only at
    /// [`finish`](StreamingTransformer::finish).
    pub fn poll(&mut self, store: &LogStore, db: &mut Database) -> Result<(), TransformError> {
        self.poll_with(store, db, 1)
    }

    /// [`poll`](StreamingTransformer::poll) with the per-declaration parse
    /// stage fanned out over `workers` threads. The warehouse contents are
    /// byte-identical for any worker count: parsing is independent per
    /// declaration and results are applied in declaration order.
    ///
    /// # Errors
    ///
    /// As [`poll`](StreamingTransformer::poll).
    pub fn poll_with(
        &mut self,
        store: &LogStore,
        db: &mut Database,
        workers: usize,
    ) -> Result<(), TransformError> {
        let parsed = self.parse_new(store, workers, false)?;
        self.apply(parsed, store, db, false)
    }

    /// Drains the final partial lines, validates the XML-direct documents
    /// (see [`ParsingDeclaration::advance`]), creates tables for zero-entry declarations, registers the monitor /
    /// log-file metadata (manifest order, as batch), and returns the same
    /// [`TransformReport`] the batch pipeline computes. Incomplete trailing
    /// blocks are dropped, mirroring batch end-of-file behaviour.
    ///
    /// # Errors
    ///
    /// [`TransformError::MissingFile`] for declared files absent from the
    /// store; parse/XML errors from the final drain; warehouse errors.
    pub fn finish(
        mut self,
        store: &LogStore,
        db: &mut Database,
    ) -> Result<TransformReport, TransformError> {
        let parsed = self.parse_new(store, 1, true)?;
        self.apply(parsed, store, db, true)?;

        // Zero-entry tables still materialize (batch converts an empty
        // document set into an empty schema and ensures the table).
        for sink in &mut self.sinks {
            if !sink.created {
                let schema = sink.join.schema()?;
                db.ensure_table(&sink.table, schema)
                    .map_err(TransformError::Db)?;
                sink.created = true;
            }
        }

        register_metadata(&self.manifest, store, db)?;

        let mut report = TransformReport::default();
        for sink in &self.sinks {
            report.files += sink.decls.len();
            report.entries += sink.committed;
            // perf: one owned table name per loaded table, once at finish.
            report.tables.push((sink.table.clone(), sink.committed));
        }
        Ok(report)
    }
}

impl DataTransformer {
    /// Deploys this transformer in streaming mode; the returned
    /// [`StreamingTransformer`] tails the log store incrementally and
    /// finishes into the same warehouse contents
    /// [`DataTransformer::run`] produces (see the `stream` module docs
    /// for the row-order caveat on multi-file tables).
    ///
    /// # Errors
    ///
    /// [`TransformError::BadDeclaration`] for the first deny-level issue.
    pub fn stream(&self) -> Result<StreamingTransformer, TransformError> {
        StreamingTransformer::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::declare::{ParserKind, ParserSpec, XmlMapping};
    use crate::pattern::{Pattern, Tok};
    use mscope_db::{ColumnType, Value, ValueKey};
    use mscope_monitors::MonitorSuite;
    use mscope_ntier::{Simulator, SystemConfig};
    use mscope_sim::SimDuration;
    use std::collections::BTreeMap;

    fn artifacts(users: u32, secs: u64) -> mscope_monitors::MonitoringArtifacts {
        let mut cfg = SystemConfig::rubbos_baseline(users);
        cfg.duration = SimDuration::from_secs(secs);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.workload.ramp_up = SimDuration::from_secs(1);
        let out = Simulator::new(cfg).unwrap().run();
        MonitorSuite::standard(&out.config).render(&out)
    }

    /// Feeds `full` into a fresh store `chunk` bytes per file per round,
    /// polling after every round, then finishes.
    fn run_streaming(
        art: &mscope_monitors::MonitoringArtifacts,
        chunk: usize,
        workers: usize,
    ) -> (Database, TransformReport) {
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut st = tr.stream().unwrap();
        let mut db = Database::new();
        let paths: Vec<String> = art.store.paths().iter().map(|p| p.to_string()).collect();
        let mut partial = LogStore::new();
        let mut offsets: BTreeMap<&str, usize> = BTreeMap::new();
        loop {
            let mut grew = false;
            for p in &paths {
                let full = art.store.read(p).unwrap();
                let off = offsets.entry(p.as_str()).or_insert(0);
                if *off >= full.len() {
                    continue;
                }
                let mut end = (*off + chunk).min(full.len());
                while !full.is_char_boundary(end) {
                    end += 1;
                }
                partial.append(p, &full[*off..end]);
                *off = end;
                grew = true;
            }
            if !grew {
                break;
            }
            st.poll_with(&partial, &mut db, workers).unwrap();
        }
        assert_eq!(&partial, &art.store);
        let report = st.finish(&partial, &mut db).unwrap();
        (db, report)
    }

    /// Tables fed by more than one declaration may legitimately interleave
    /// rows; canonicalize those to a sorted multiset for comparison.
    fn sorted_rows(t: &Table) -> Vec<Vec<ValueKey>> {
        let mut rows: Vec<Vec<ValueKey>> = t
            .iter_rows()
            .map(|r| r.iter().map(Value::key).collect())
            .collect();
        rows.sort();
        rows
    }

    fn assert_converged(streamed: &Database, batch: &Database, multi: &[&str], tag: &str) {
        assert_eq!(streamed.table_names(), batch.table_names(), "{tag}");
        for name in batch.table_names() {
            let b = batch.require(name).unwrap();
            let s = streamed.require(name).unwrap();
            assert_eq!(s.schema(), b.schema(), "{tag}: schema of {name}");
            if multi.contains(&name) {
                assert_eq!(sorted_rows(s), sorted_rows(b), "{tag}: rows of {name}");
            } else {
                assert_eq!(s, b, "{tag}: table {name}");
            }
        }
    }

    fn multi_file_tables(tr: &DataTransformer) -> Vec<String> {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for d in tr.declarations() {
            *counts.entry(d.table.as_str()).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(t, _)| t.to_string())
            .collect()
    }

    #[test]
    fn streaming_converges_with_batch_across_chunk_sizes() {
        let art = artifacts(40, 4);
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut batch_db = Database::new();
        let batch_report = tr.run(&art.store, &mut batch_db).unwrap();
        let multi: Vec<String> = multi_file_tables(&tr);
        let multi_refs: Vec<&str> = multi.iter().map(String::as_str).collect();
        for chunk in [64usize, 4096] {
            let (db, report) = run_streaming(&art, chunk, 1);
            assert_eq!(report, batch_report, "chunk={chunk}");
            assert_converged(&db, &batch_db, &multi_refs, &format!("chunk={chunk}"));
        }
    }

    #[test]
    fn streaming_converges_one_byte_at_a_time() {
        // Byte-granular chunks on a small run: every line and XML span is
        // split mid-token at some point.
        let art = artifacts(10, 2);
        let tr = DataTransformer::from_manifest(&art.manifest);
        let mut batch_db = Database::new();
        let batch_report = tr.run(&art.store, &mut batch_db).unwrap();
        let multi: Vec<String> = multi_file_tables(&tr);
        let multi_refs: Vec<&str> = multi.iter().map(String::as_str).collect();
        let (db, report) = run_streaming(&art, 1, 1);
        assert_eq!(report, batch_report);
        assert_converged(&db, &batch_db, &multi_refs, "chunk=1");
    }

    #[test]
    fn worker_fanout_is_byte_identical() {
        let art = artifacts(40, 4);
        let (db1, r1) = run_streaming(&art, 1024, 1);
        let (db4, r4) = run_streaming(&art, 1024, 4);
        assert_eq!(r1, r4);
        assert_eq!(db1.to_json().unwrap(), db4.to_json().unwrap());
    }

    // --- focused unit tests around schema migration -----------------------

    fn kv_decl(path: &str, table: &str) -> ParsingDeclaration {
        ParsingDeclaration {
            path: path.into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "kv".into(),
                filters: vec![crate::declare::LineMatcher::Blank],
                context: vec![],
                records: vec![Pattern::new(vec![
                    Tok::cap("k"),
                    Tok::lit("="),
                    Tok::cap("v"),
                ])],
                blocks: None,
            }),
            table: table.into(),
            constants: vec![("node".into(), "n0".into())],
        }
    }

    /// Batch oracle for a single declaration: execute + convert + load.
    fn batch_oracle(decl: &ParsingDeclaration, content: &str) -> Database {
        let doc = decl.execute(content).unwrap();
        let conv = crate::convert::convert_xml(std::slice::from_ref(&doc)).unwrap();
        let mut db = Database::new();
        crate::import::import_rows(&mut db, &decl.table, &conv.schema, conv.rows).unwrap();
        db
    }

    /// Streams `content` into the declaration byte by byte and returns the
    /// resulting warehouse (metadata registration skipped on both sides).
    fn stream_oracle(decl: &ParsingDeclaration, content: &str) -> Database {
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        for i in 0..content.len() {
            if content.is_char_boundary(i) && content.is_char_boundary(i + 1) {
                partial.append(&decl.path, &content[i..i + 1]);
                st.poll(&partial, &mut db).unwrap();
            } else if content.is_char_boundary(i) {
                let mut end = i + 1;
                while !content.is_char_boundary(end) {
                    end += 1;
                }
                partial.append(&decl.path, &content[i..end]);
                st.poll(&partial, &mut db).unwrap();
            }
        }
        st.finish(&partial, &mut db).unwrap();
        db
    }

    #[test]
    fn mid_stream_widenings_converge() {
        // Every lattice transition the running join can take, in one file:
        //  * `a`: Int → Float (late decimal)
        //  * `b`: Int → Text (hex id that starts all-digits)
        //  * `c`: all-null until a late timestamp arrives
        //  * `d`: null forever → Text at finish, dashes kept verbatim
        let decl = ParsingDeclaration {
            path: "wid.log".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "row".into(),
                filters: vec![crate::declare::LineMatcher::Blank],
                context: vec![],
                records: vec![Pattern::new(vec![
                    Tok::lit("r "),
                    Tok::cap("a"),
                    Tok::Ws,
                    Tok::cap("b"),
                    Tok::Ws,
                    Tok::cap("c"),
                    Tok::Ws,
                    Tok::cap("d"),
                ])],
                blocks: None,
            }),
            table: "wid".into(),
            constants: vec![],
        };
        let content = "\
r 5 123456 - -\n\
r 6 999999 - -\n\
r 2.5 12ab34 00:00:02.500000 -\n\
r 3 777 00:00:03.000000 -\n";
        let batch = batch_oracle(&decl, content);
        let streamed = stream_oracle(&decl, content);
        let b = batch.require("wid").unwrap();
        let s = streamed.require("wid").unwrap();
        assert_eq!(s, b);
        // And the final types are what batch infers.
        assert_eq!(b.schema().columns()[0].ty, ColumnType::Float, "a");
        assert_eq!(b.schema().columns()[1].ty, ColumnType::Text, "b");
        assert_eq!(b.schema().columns()[2].ty, ColumnType::Timestamp, "c");
        assert_eq!(b.schema().columns()[3].ty, ColumnType::Text, "d");
        // Int → Text kept the original digits verbatim…
        assert_eq!(s.cell(0, "b"), Some(&Value::Text("123456".into())));
        // …and the all-null column widened to Text with dashes verbatim.
        assert_eq!(s.cell(0, "d"), Some(&Value::Text("-".into())));
    }

    #[test]
    fn late_new_column_null_backfills() {
        // Two record patterns: `p x y` carries a `y` field, `p x` does
        // not — so `y` first appears mid-stream, after rows without it
        // were already committed.
        let decl = ParsingDeclaration {
            path: "late.log".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "late".into(),
                filters: vec![],
                context: vec![],
                records: vec![
                    Pattern::new(vec![Tok::lit("p "), Tok::cap("x"), Tok::Ws, Tok::cap("y")]),
                    Pattern::new(vec![Tok::lit("p "), Tok::cap("x")]),
                ],
                blocks: None,
            }),
            table: "late".into(),
            constants: vec![],
        };
        let content = "p 1\np 2\np 3 9\np 4 10\n";
        let batch = batch_oracle(&decl, content);
        let streamed = stream_oracle(&decl, content);
        assert_eq!(
            streamed.require("late").unwrap(),
            batch.require("late").unwrap()
        );
        let t = streamed.require("late").unwrap();
        assert_eq!(t.cell(0, "y"), Some(&Value::Null));
        assert_eq!(t.cell(2, "y"), Some(&Value::Int(9)));
    }

    #[test]
    fn unparsed_line_number_matches_batch() {
        let decl = kv_decl("bad.log", "kv");
        let content = "k=1\n\nk=2\nNOT A KV LINE\n";
        // Batch error:
        let be = decl.execute(content).unwrap_err();
        // Streaming error (fed in awkward 3-byte chunks):
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        let mut se = None;
        let mut i = 0;
        while i < content.len() {
            let end = (i + 3).min(content.len());
            partial.append(&decl.path, &content[i..end]);
            i = end;
            if let Err(e) = st.poll(&partial, &mut db) {
                se = Some(e);
                break;
            }
        }
        match (be, se.expect("streaming surfaced the bad line")) {
            (
                TransformError::UnparsedLine {
                    file: bf,
                    line_no: bn,
                    line: bl,
                },
                TransformError::UnparsedLine {
                    file: sf,
                    line_no: sn,
                    line: sl,
                },
            ) => {
                assert_eq!((bf, bn, bl), (sf, sn, sl));
            }
            other => panic!("unexpected error pair {other:?}"),
        }
    }

    #[test]
    fn incomplete_trailing_block_dropped_at_finish_only() {
        let decl = ParsingDeclaration {
            path: "blk.log".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::Staged(ParserSpec {
                name: "blocks".into(),
                filters: vec![],
                context: vec![],
                records: vec![],
                blocks: Some(crate::declare::BlockSpec {
                    marker: Pattern::new(vec![Tok::lit("M")]),
                    lines: vec![Some(Pattern::new(vec![Tok::lit("x="), Tok::cap("x")]))],
                }),
            }),
            table: "blk".into(),
            constants: vec![],
        };
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        // First poll ends mid-block; the block must survive to the next
        // poll (batch on the full file would complete it).
        partial.append("blk.log", "M\n");
        st.poll(&partial, &mut db).unwrap();
        partial.append("blk.log", "x=1\nM\n");
        st.poll(&partial, &mut db).unwrap();
        let report = st.finish(&partial, &mut db).unwrap();
        assert_eq!(report.entries, 1, "the trailing markered block is dropped");
        assert_eq!(
            db.require("blk").unwrap().cell(0, "x"),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn malformed_xml_surfaces_at_finish() {
        let decl = ParsingDeclaration {
            path: "x.xml".into(),
            monitor_id: "m1".into(),
            parser: ParserKind::XmlDirect(XmlMapping {
                entry_element: "ts".into(),
                entry_attrs: vec![("t".into(), "t".into())],
                leaf_attrs: vec![],
            }),
            table: "x".into(),
            constants: vec![],
        };
        let mut st = StreamingTransformer::from_parts(vec![decl], Vec::new());
        let mut db = Database::new();
        let mut partial = LogStore::new();
        partial.append("x.xml", "<root><ts t=\"1\"/><broken");
        st.poll(&partial, &mut db).unwrap();
        assert!(matches!(
            st.finish(&partial, &mut db),
            Err(TransformError::Xml(_))
        ));
    }

    #[test]
    fn missing_file_is_fine_until_finish() {
        let decl = kv_decl("late.log", "kv");
        let mut st = StreamingTransformer::from_parts(vec![decl.clone()], Vec::new());
        let mut db = Database::new();
        let empty = LogStore::new();
        st.poll(&empty, &mut db).unwrap();
        let st2 = StreamingTransformer::from_parts(vec![decl], Vec::new());
        assert!(matches!(
            st2.finish(&empty, &mut db),
            Err(TransformError::MissingFile(_))
        ));
        let _ = st;
    }

    #[test]
    fn zero_entry_declaration_still_creates_table() {
        let decl = kv_decl("empty.log", "kv");
        let mut store = LogStore::new();
        store.append("empty.log", "");
        let st = StreamingTransformer::from_parts(vec![decl], Vec::new());
        let mut db = Database::new();
        let report = st.finish(&store, &mut db).unwrap();
        assert_eq!(report.tables, vec![("kv".to_string(), 0)]);
        assert!(db.table("kv").is_some());
        assert_eq!(db.require("kv").unwrap().row_count(), 0);
    }
}
