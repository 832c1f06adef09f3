//! mScope XMLtoCSV Converter (paper §III-B3): turns annotated entries into
//! an inferred schema plus typed rows, separating the parsers' data
//! annotation from warehouse schema creation.
//!
//! Schema inference is bottom-up exactly as described: the column set is
//! the **union** of all tags appearing in any entry (first-appearance
//! order), and each column's type is the **narrowest** type in the lattice
//! that admits every observed value.
//!
//! The pipeline converts parsed entries straight to typed [`Value`] rows —
//! every cell is classified by [`normalize_cell`] for both inference and
//! loading. Annotated XML ([`convert_xml`]) and CSV
//! ([`ConvertedTable::to_csv`]) are on-demand *export* views: the former
//! runs the same inference, the latter round-trips losslessly through
//! [`import_csv`](crate::import_csv).

use crate::csv::write_csv;
use crate::error::TransformError;
use crate::import::{normalize_cell, parse_cell};
use crate::xml::XmlNode;
use mscope_db::{Column, ColumnType, Schema, Value};

/// Result of converting one table's worth of entries: the inferred schema
/// plus the typed rows ready for direct warehouse load.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvertedTable {
    /// Inferred schema.
    pub schema: Schema,
    /// Typed rows, one per entry, cells in schema column order.
    /// Missing fields are [`Value::Null`].
    pub rows: Vec<Vec<Value>>,
}

impl ConvertedTable {
    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as CSV text (header row + one line per row) —
    /// the on-demand export artifact. Loading this text back with
    /// [`import_csv`](crate::import_csv) against the same schema
    /// reproduces the typed rows exactly.
    pub fn to_csv(&self) -> String {
        let mut grid: Vec<Vec<String>> = Vec::with_capacity(self.rows.len() + 1);
        grid.push(
            self.schema
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        );
        for row in &self.rows {
            grid.push(row.iter().map(Value::render).collect());
        }
        write_csv(&grid)
    }
}

/// Running bottom-up schema inference over entries — the one
/// implementation both drivers share. [`convert_entries`] folds a whole
/// table group before typing any row; the streaming transformer folds as
/// entries arrive and rebuilds its table when a column widens.
///
/// The column set is the union of all field names (first-appearance
/// order); each column's join is the narrowest lattice type admitting
/// every value seen, classified by the importer's [`normalize_cell`] rule
/// so a cell that loads as Null never widens its column; a column whose
/// join is still `Null` is typed `Text` ([`SchemaJoin::effective`]).
#[derive(Debug, Default)]
pub(crate) struct SchemaJoin {
    cols: Vec<(String, ColumnType)>,
    /// Per column, the ordinal of the last entry that carried it — the
    /// duplicate-field check, without a per-entry set.
    seen: Vec<usize>,
    entries: usize,
}

impl SchemaJoin {
    /// The index of column `name`. Entries from one declaration carry
    /// their fields in column order, so field position `hint` is tried
    /// first.
    fn index_of(&self, name: &str, hint: usize) -> Option<usize> {
        match self.cols.get(hint) {
            Some((n, _)) if n == name => Some(hint),
            _ => self.cols.iter().position(|(n, _)| n == name),
        }
    }

    /// Folds one entry of `source` into the join.
    ///
    /// # Errors
    ///
    /// [`TransformError::SchemaInference`] if the entry carries a field
    /// twice (ambiguous annotation).
    pub(crate) fn add<S: AsRef<str>>(
        &mut self,
        entry: &[(S, S)],
        source: &str,
    ) -> Result<(), TransformError> {
        self.entries += 1;
        for (i, (k, v)) in entry.iter().enumerate() {
            let k = k.as_ref();
            let vt = match normalize_cell(v.as_ref()) {
                None => ColumnType::Null,
                Some(t) => Value::infer(t).column_type(),
            };
            match self.index_of(k, i) {
                Some(ci) if self.seen[ci] == self.entries => {
                    return Err(TransformError::SchemaInference(format!(
                        "duplicate field `{k}` within one entry of `{source}`"
                    )));
                }
                Some(ci) => {
                    self.seen[ci] = self.entries;
                    self.cols[ci].1 = self.cols[ci].1.unify(vt);
                }
                None => {
                    // perf: one owned name per *distinct* column, not per field.
                    self.cols.push((k.to_string(), vt));
                    self.seen.push(self.entries);
                }
            }
        }
        Ok(())
    }

    /// The warehouse type of column `ci`: its join, with a column never
    /// observed with a non-null value widened to `Text` so the warehouse
    /// can hold whatever later loads bring.
    fn effective(&self, ci: usize) -> ColumnType {
        match self.cols[ci].1 {
            ColumnType::Null => ColumnType::Text,
            t => t,
        }
    }

    /// The effective schema.
    pub(crate) fn schema(&self) -> Result<Schema, TransformError> {
        Schema::new(
            self.cols
                .iter()
                .enumerate()
                .map(|(ci, (n, _))| Column::new(n.clone(), self.effective(ci)))
                .collect(),
        )
        .map_err(|e| TransformError::SchemaInference(e.to_string()))
    }

    /// Types one folded entry of `source` under the effective schema,
    /// through the exact cell rules the CSV importer uses; missing fields
    /// are [`Value::Null`].
    ///
    /// # Errors
    ///
    /// [`TransformError::BadCell`] if a cell fails to load as its
    /// column's type (cannot happen when inference and loading share
    /// [`normalize_cell`], but never loads silently-wrong data).
    pub(crate) fn row<S: AsRef<str>>(
        &self,
        entry: &[(S, S)],
        source: &str,
    ) -> Result<Vec<Value>, TransformError> {
        let mut row = vec![Value::Null; self.cols.len()];
        for (i, (k, v)) in entry.iter().enumerate() {
            let k = k.as_ref();
            let ci = self.index_of(k, i).ok_or_else(|| {
                TransformError::SchemaInference(format!(
                    "field `{k}` of `{source}` was never folded"
                ))
            })?;
            row[ci] = parse_cell(source, k, self.effective(ci), v.as_ref())?;
        }
        Ok(row)
    }
}

/// One file's source path and its entries, each a list of `(field, raw
/// value)` pairs.
pub(crate) type FileEntries<'a, S> = (&'a str, Vec<Vec<(S, S)>>);

/// Converts the entries of one or more files, all destined for the same
/// table, into an inferred schema and typed rows. Each file is its source
/// path and its entries, as [`ParsingDeclaration::advance`] emits them.
///
/// Converting the files together is what makes the column-set union and
/// type join span *all* inputs — two Apache replicas' logs cannot produce
/// conflicting schemas.
///
/// [`ParsingDeclaration::advance`]: crate::ParsingDeclaration::advance
///
/// # Errors
///
/// As [`SchemaJoin::add`] and [`SchemaJoin::row`].
pub(crate) fn convert_entries<S: AsRef<str>>(
    files: &[FileEntries<'_, S>],
) -> Result<ConvertedTable, TransformError> {
    let mut join = SchemaJoin::default();
    for (source, entries) in files {
        for entry in entries {
            join.add(entry, source)?;
        }
    }
    let schema = join.schema()?;
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(join.entries);
    for (source, entries) in files {
        for entry in entries {
            rows.push(join.row(entry, source)?);
        }
    }
    Ok(ConvertedTable { schema, rows })
}

/// Converts one or more annotated `<log>` documents (all destined for the
/// same table) into an inferred schema and typed rows — the XML export
/// view of the pipeline's entry conversion, which it reproduces exactly on
/// the documents [`ParsingDeclaration::execute`] renders.
///
/// [`ParsingDeclaration::execute`]: crate::ParsingDeclaration::execute
///
/// # Errors
///
/// [`TransformError::SchemaInference`] if an entry carries duplicate field
/// names (ambiguous annotation); [`TransformError::BadCell`] if a cell
/// fails to load as the type inferred for its column (internally
/// inconsistent pipeline — cannot happen when inference and loading share
/// [`normalize_cell`], but never loads silently-wrong data).
pub fn convert_xml(docs: &[XmlNode]) -> Result<ConvertedTable, TransformError> {
    let files: Vec<FileEntries<&str>> = docs
        .iter()
        .map(|doc| {
            let entries = doc
                .children
                .iter()
                .filter(|c| c.name == "entry")
                .map(|e| {
                    e.children
                        .iter()
                        .map(|f| (f.name.as_str(), f.text.as_str()))
                        .collect()
                })
                .collect();
            (doc.get_attr("source").unwrap_or("?"), entries)
        })
        .collect();
    convert_entries(&files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(fields: &[(&str, &str)]) -> XmlNode {
        let mut e = XmlNode::new("entry");
        for (k, v) in fields {
            e.children.push(XmlNode::new(*k).with_text(*v));
        }
        e
    }

    fn doc(entries: Vec<XmlNode>) -> XmlNode {
        let mut d = XmlNode::new("log").attr("source", "t.log");
        d.children = entries;
        d
    }

    #[test]
    fn schema_is_union_of_tags() {
        let d = doc(vec![
            entry(&[("a", "1"), ("b", "x")]),
            entry(&[("a", "2"), ("c", "3.5")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        let names: Vec<&str> = out
            .schema
            .columns()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(out.row_count(), 2);
        // Missing cells are typed nulls, rendered empty in the CSV export.
        assert_eq!(out.rows[1][1], Value::Null);
        assert!(out.to_csv().contains("2,,3.5"));
    }

    #[test]
    fn types_are_narrowest_that_admit_all() {
        let d = doc(vec![
            entry(&[("n", "1"), ("t", "00:00:01.000000"), ("s", "5")]),
            entry(&[("n", "2.5"), ("t", "00:00:02.000000"), ("s", "five")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        let ty = |name: &str| out.schema.columns()[out.schema.index_of(name).unwrap()].ty;
        assert_eq!(ty("n"), ColumnType::Float, "int ∪ float = float");
        assert_eq!(ty("t"), ColumnType::Timestamp);
        assert_eq!(ty("s"), ColumnType::Text, "int ∪ text = text");
        // Cells are loaded as the inferred types.
        assert_eq!(out.rows[0][0], Value::Float(1.0));
        assert_eq!(out.rows[0][1], Value::Timestamp(1_000_000));
        assert_eq!(out.rows[0][2], Value::Text("5".into()));
    }

    #[test]
    fn null_values_do_not_widen() {
        let d = doc(vec![
            entry(&[("ds", "-")]),
            entry(&[("ds", "00:00:01.000000")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Timestamp);
        assert_eq!(out.rows[0][0], Value::Null);
    }

    #[test]
    fn all_null_column_becomes_text() {
        let d = doc(vec![entry(&[("x", "-")])]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Text);
        // …and the dash, now a text cell, survives verbatim instead of
        // being mutated to Null by the loader.
        assert_eq!(out.rows[0][0], Value::Text("-".into()));
    }

    #[test]
    fn text_cells_survive_verbatim() {
        let d = doc(vec![
            entry(&[("s", " padded "), ("u", "plain")]),
            entry(&[("s", "-"), ("u", "words words")]),
        ]);
        let out = convert_xml(&[d]).unwrap();
        assert_eq!(out.rows[0][0], Value::Text(" padded ".into()));
        assert_eq!(out.rows[1][0], Value::Text("-".into()));
        // The CSV export round-trips them losslessly too.
        let mut db = mscope_db::Database::new();
        crate::import::import_csv(&mut db, "t", &out.schema, &out.to_csv()).unwrap();
        let t = db.require("t").unwrap();
        assert_eq!(t.cell(0, "s"), Some(&Value::Text(" padded ".into())));
        assert_eq!(t.cell(1, "s"), Some(&Value::Text("-".into())));
    }

    #[test]
    fn union_spans_multiple_documents() {
        let d1 = doc(vec![entry(&[("a", "1")])]);
        let d2 = doc(vec![entry(&[("a", "x")])]);
        let out = convert_xml(&[d1, d2]).unwrap();
        assert_eq!(out.schema.columns()[0].ty, ColumnType::Text);
        assert_eq!(out.row_count(), 2);
    }

    #[test]
    fn duplicate_field_in_entry_rejected() {
        let d = doc(vec![entry(&[("a", "1"), ("a", "2")])]);
        assert!(matches!(
            convert_xml(&[d]),
            Err(TransformError::SchemaInference(_))
        ));
    }

    #[test]
    fn empty_input_yields_empty_schema() {
        let out = convert_xml(&[doc(vec![])]).unwrap();
        assert_eq!(out.row_count(), 0);
        assert!(out.schema.is_empty());
    }

    #[test]
    fn csv_export_quotes_commas_in_text() {
        let d = doc(vec![entry(&[("sql", "SELECT a,b FROM t ")])]);
        let out = convert_xml(&[d]).unwrap();
        assert!(out.to_csv().contains("\"SELECT a,b FROM t \""));
    }
}
