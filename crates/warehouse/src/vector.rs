//! Vectorized columnar kernels: the execution half of the one executor
//! that the `Table` verbs and the SQL planner share.
//!
//! The planner ([`plan`](crate::plan)) lowers SQL into a [`Plan`]; this
//! module runs it over column batches and selection vectors instead of
//! materialized intermediate tables, and the verbs in `query.rs` call the
//! same kernels directly. One kernel per job:
//!
//! * filtering produces **selection vectors** (row indices / join pairs),
//!   never an intermediate [`Table`] — operators exchange indices and the
//!   output columns are gathered exactly once, at the end;
//! * [`gather_sel`]/[`gather_pair_cols`] materialize output columns
//!   whole-column-at-a-time, parallelized across columns over the shared
//!   [`scan_blocks`](crate::engine) pool with the established
//!   deterministic merge (each output column is an independent job);
//! * [`join_pairs`] is build-side aware: it builds a [`KeyIndex`] over
//!   whichever selection the caller names, and the output pair list is
//!   restored to left-major order either way;
//! * [`sort_by_key`] is the one stable ORDER BY sort;
//! * [`Acc`] is the one numeric accumulator: [`window`], [`aggregate`]
//!   and `Table::describe` fold through it, in row order, with a sum that
//!   starts at `-0.0` so it equals `Iterator::sum` bit for bit.
//!
//! Everything here is result-identical to the clause-by-clause
//! `optimize = false` path ([`run`] dispatches on the flag) and to the
//! `*_naive` oracles, which the property suites keep as identity gates.

use crate::engine::{self, CompiledPredicate, KeyIndex, KeyRef, Node};
use crate::plan::{AggregateNode, Plan, Resolved, Side};
use crate::query::AggFn;
use crate::table::{Column, Schema, Table};
use crate::value::Value;
use crate::{DbError, Predicate};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------------
// Columnar gather
// ---------------------------------------------------------------------

/// Gathers `sel` out of each column slice — one owned output column per
/// input slice, parallelized across columns (each column is an
/// independent job; `scan_blocks` merges in column order, so output is
/// byte-identical for any worker count).
pub(crate) fn gather_sel(cols: &[&[Value]], sel: &[usize], workers: usize) -> Vec<Vec<Value>> {
    let cells = cols.len().saturating_mul(sel.len());
    let workers = engine::resolve_workers(workers, cells);
    engine::scan_blocks(cols.len(), workers, |ci| {
        let src = cols[ci];
        sel.iter().map(|&i| src[i].clone()).collect()
    })
}

/// [`gather_sel`] over join pairs: each output column names the side its
/// cells come from, and every pair contributes one cell per column.
pub(crate) fn gather_pair_cols(
    cols: &[(Side, &[Value])],
    pairs: &[(usize, usize)],
    workers: usize,
) -> Vec<Vec<Value>> {
    let cells = cols.len().saturating_mul(pairs.len());
    let workers = engine::resolve_workers(workers, cells);
    engine::scan_blocks(cols.len(), workers, |ci| {
        let (side, src) = cols[ci];
        pairs
            .iter()
            .map(|&(li, ri)| {
                src[match side {
                    Side::Left => li,
                    Side::Right => ri,
                }]
                .clone()
            })
            .collect()
    })
}

// ---------------------------------------------------------------------
// Build-side-aware hash join over selection vectors
// ---------------------------------------------------------------------

/// Joins two selections on their key columns, hashing whichever side the
/// planner chose (`build_left`) with borrowed keys, and returns matching
/// `(left_row, right_row)` pairs in **left-major** order (left selection
/// order, then right selection order) regardless of build side. Null
/// keys never match.
pub(crate) fn join_pairs(
    lcol: &[Value],
    lsel: &[usize],
    rcol: &[Value],
    rsel: &[usize],
    build_left: bool,
) -> Vec<(usize, usize)> {
    let (bcol, bsel, pcol, psel) = if build_left {
        (lcol, lsel, rcol, rsel)
    } else {
        (rcol, rsel, lcol, lsel)
    };
    let index = KeyIndex::from_cells(bsel.iter().map(|&i| (i, &bcol[i])));
    // Probe-side length is the lower bound on the output when keys are
    // near-unique — the common request_id-style join shape.
    let mut out = Vec::with_capacity(psel.len());
    for &p in psel {
        for &b in index.rows(&pcol[p]) {
            out.push(if build_left { (b, p) } else { (p, b) });
        }
    }
    if build_left {
        // The probe ran right-major; the output contract is left-major.
        // Pairs are unique, so the unstable sort is deterministic.
        out.sort_unstable();
    }
    out
}

/// Stable sort of `items` by the `key` cell each one picks, under
/// `total_cmp`, ascending or descending: equal keys keep their incoming
/// order. The one ORDER BY sort — over row indices for `order_by` and
/// single-table plans, over join pairs (keyed by one side) for joins.
pub(crate) fn sort_by_key<T>(
    items: &mut [T],
    key: &[Value],
    asc: bool,
    pick: impl Fn(&T) -> usize,
) {
    items.sort_by(|a, b| {
        let o = key[pick(a)].total_cmp(&key[pick(b)]);
        if asc {
            o
        } else {
            o.reverse()
        }
    });
}

// ---------------------------------------------------------------------
// Batch aggregation
// ---------------------------------------------------------------------

/// Streaming accumulator holding every statistic any [`AggFn`] finishes
/// from. One pass, fixed size — no per-group value vector. The only
/// numeric accumulator: windows, GROUP BY, whole-table aggregates and
/// `describe` all fold through it.
#[derive(Clone, Copy)]
pub(crate) struct Acc {
    n: usize,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Acc {
    /// The sum starts at `-0.0`, the identity of IEEE addition, so a left
    /// fold equals `Iterator::sum` bit for bit on every non-empty input —
    /// including one of only `-0.0`s, where a `+0.0` start would turn the
    /// sum positive.
    const NEW: Acc = Acc {
        n: 0,
        sum: -0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        last: 0.0,
    };

    /// Folds one numeric value: left-fold sum in arrival order,
    /// `f64::min`/`max` from the infinities, last value wins.
    fn push(&mut self, v: f64) {
        self.n += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Folds every value of `vals`, in order.
    pub(crate) fn of(vals: impl Iterator<Item = f64>) -> Acc {
        vals.fold(Acc::NEW, |mut a, v| {
            a.push(v);
            a
        })
    }
}

/// Feeds one row's cell into an accumulator. `COUNT(*)` passes no cell
/// and counts the row; `COUNT(col)` counts non-null cells of any type
/// (SQL semantics); every other aggregate folds numeric cells only.
fn update(agg: AggFn, cell: Option<&Value>, acc: &mut Acc) {
    if agg == AggFn::Count {
        if cell.is_none_or(|c| !c.is_null()) {
            acc.n += 1;
        }
        return;
    }
    if let Some(v) = cell.and_then(Value::as_f64) {
        acc.push(v);
    }
}

/// Finishes an accumulator. `None` means "no value" — the row is dropped
/// (grouped, all aggregates `None`) or rendered `Null`. Whole-table SUM
/// over an empty input keeps its legacy `0.0`.
pub(crate) fn finish(agg: AggFn, a: Acc, whole_table: bool) -> Option<f64> {
    match agg {
        AggFn::Count => Some(a.n as f64),
        AggFn::Sum => {
            if a.n > 0 {
                Some(a.sum)
            } else if whole_table {
                Some(0.0)
            } else {
                None
            }
        }
        AggFn::Mean => (a.n > 0).then(|| a.sum / a.n as f64),
        AggFn::Min => (a.n > 0).then_some(a.min),
        AggFn::Max => (a.n > 0).then_some(a.max),
        AggFn::Last => (a.n > 0).then_some(a.last),
    }
}

/// Fixed-window aggregation over a selection: each selected row whose
/// time cell is an integer and whose value cell is numeric folds into the
/// accumulator of bucket `time.div_euclid(window_us) * window_us`, in
/// selection order. Returns `(bucket_start, aggregate)` in bucket order
/// (the `BTreeMap` keeps key order by construction). `COUNT` counts the
/// numeric values folded.
pub(crate) fn window(
    time: &[Value],
    vals: &[Value],
    rows: &[usize],
    window_us: i64,
    agg: AggFn,
) -> Vec<(i64, f64)> {
    let mut buckets: BTreeMap<i64, Acc> = BTreeMap::new();
    // Time-ordered rows arrive in runs of one bucket: fold a run into a
    // local accumulator and store it when the bucket changes.
    let mut run: Option<(i64, Acc)> = None;
    for &i in rows {
        let (Some(t), Some(v)) = (time[i].as_i64(), vals[i].as_f64()) else {
            continue;
        };
        let k = t.div_euclid(window_us) * window_us;
        let (rk, acc) = run.get_or_insert((k, Acc::NEW));
        if *rk != k {
            buckets.insert(*rk, *acc);
            *acc = buckets.get(&k).copied().unwrap_or(Acc::NEW);
            *rk = k;
        }
        acc.push(v);
    }
    if let Some((rk, acc)) = run {
        buckets.insert(rk, acc);
    }
    buckets
        .into_iter()
        .filter_map(|(k, a)| finish(agg, a, false).map(|v| (k, v)))
        .collect()
}

/// Vectorized grouped/whole-table aggregation over a selection.
///
/// `keys` and the optional per-aggregate source slices are full columns;
/// `rows` is the selection to aggregate. Groups form in first-seen row
/// order (borrowed keys, no per-row clone), accumulate in one streaming
/// pass, then sort by their original key tuples — the stable sort keeps
/// first-seen order for cross-type numeric ties, so output is
/// deterministic regardless of hash-map internals. Rows with any null
/// key are skipped; a group whose every aggregate finishes `None` is
/// dropped (matching the legacy per-group fold); key cells render as
/// `Text`, aggregates as `Float`.
pub(crate) fn aggregate(
    keys: &[&[Value]],
    aggs: &[(AggFn, Option<&[Value]>)],
    rows: &[usize],
    whole_table: bool,
    name: &str,
    schema: &Schema,
) -> Table {
    if whole_table {
        let mut accs = vec![Acc::NEW; aggs.len()];
        for &i in rows {
            for ((agg, src), acc) in aggs.iter().zip(accs.iter_mut()) {
                update(*agg, src.map(|s| &s[i]), acc);
            }
        }
        let cols: Vec<Vec<Value>> = aggs
            .iter()
            .zip(&accs)
            .map(|(&(agg, _), &acc)| vec![finish(agg, acc, true).map_or(Value::Null, Value::Float)])
            .collect();
        return Table::from_parts(name.to_string(), schema.clone(), cols);
    }

    // Group discovery: borrowed key tuples index into `groups`, which
    // remembers each group's first row (for the owned key render and the
    // deterministic tie-break) alongside its accumulators.
    let mut ords: HashMap<Vec<KeyRef<'_>>, usize> = HashMap::new();
    let mut groups: Vec<(usize, Vec<Acc>)> = Vec::new();
    'rows: for &i in rows {
        let mut kr = Vec::with_capacity(keys.len());
        for k in keys {
            match KeyRef::of(&k[i]) {
                Some(x) => kr.push(x),
                // A null in any key column: the row never groups.
                None => continue 'rows,
            }
        }
        let ord = match ords.get(&kr) {
            Some(&o) => o,
            None => {
                // perf: one tiny accumulator vector per *distinct* group,
                // not per row.
                groups.push((i, vec![Acc::NEW; aggs.len()]));
                ords.insert(kr, groups.len() - 1);
                groups.len() - 1
            }
        };
        let accs = &mut groups[ord].1;
        for ((agg, src), acc) in aggs.iter().zip(accs.iter_mut()) {
            update(*agg, src.map(|s| &s[i]), acc);
        }
    }

    // Emit groups sorted by their original key tuples. The sort is
    // stable over first-seen order, so cross-type ties (Int 1 vs Float
    // 1.0) break deterministically — hash order never reaches output.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by(|&ga, &gb| {
        let (ra, rb) = (groups[ga].0, groups[gb].0);
        let mut o = Ordering::Equal;
        for k in keys {
            o = k[ra].total_cmp(&k[rb]);
            if o != Ordering::Equal {
                break;
            }
        }
        o
    });

    let nkeys = keys.len();
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
    for &g in &order {
        let (first, accs) = &groups[g];
        let vals: Vec<Option<f64>> = aggs
            .iter()
            .zip(accs)
            .map(|(&(agg, _), &acc)| finish(agg, acc, false))
            .collect();
        if vals.iter().all(Option::is_none) {
            continue;
        }
        for (k, col) in keys.iter().zip(cols.iter_mut()) {
            // Keys are stored in rendered text form so mixed-type key
            // columns stay queryable (legacy group_by contract).
            col.push(Value::Text(k[*first].render()));
        }
        for (v, col) in vals.iter().zip(cols[nkeys..].iter_mut()) {
            col.push(v.map_or(Value::Null, Value::Float));
        }
    }
    Table::from_parts(name.to_string(), schema.clone(), cols)
}

// ---------------------------------------------------------------------
// Plan execution
// ---------------------------------------------------------------------

/// Runs a plan: the optimized selection-vector pipeline when
/// `plan.optimize`, otherwise the clause-by-clause materializing shape
/// `Database::query` had before the planner (the ablation baseline).
/// Both produce byte-identical tables.
pub(crate) fn run(plan: &Plan<'_>, workers: usize) -> Result<Table, DbError> {
    if plan.optimize {
        run_optimized(plan, workers)
    } else {
        run_unoptimized(plan, workers)
    }
}

/// Side-tagged slice for a resolved source column. The planner only
/// resolves `Side::Right` columns when a join table exists; the empty
/// slice is an unreachable defensive fallback.
fn side_slice<'t>(
    res: &Resolved,
    left: &'t Table,
    right: Option<&'t Table>,
    si: usize,
) -> (Side, &'t [Value]) {
    let s = &res.source[si];
    let col = match s.side {
        Side::Left => left.col(s.ci),
        Side::Right => right.map_or(&[] as &[Value], |t| t.col(s.ci)),
    };
    (s.side, col)
}

fn run_optimized(plan: &Plan<'_>, workers: usize) -> Result<Table, DbError> {
    let res = &plan.res;
    let left = plan.left;
    let mut lsel = CompiledPredicate::compile(left, &plan.left_pred).matching_rows_with(workers);

    if let (Some(right), Some((lci, rci))) = (plan.right, res.join_keys) {
        let rsel = CompiledPredicate::compile(right, &plan.right_pred).matching_rows_with(workers);
        let mut pairs = join_pairs(left.col(lci), &lsel, right.col(rci), &rsel, plan.build_left);
        if plan.residual != Predicate::True {
            // Residual leaves read pairs, never zone maps.
            let resolve = |name: &str| {
                let si = res.source.iter().position(|s| s.name == name)?;
                let (side, col) = side_slice(res, left, Some(right), si);
                Some((side, col, None))
            };
            let residual = Node::compile(&plan.residual, &resolve);
            pairs.retain(|&(li, ri)| residual.eval_pair(li, ri));
        }

        if let Some(aggn) = &res.aggregate {
            // Projection pushdown: materialize only the key/aggregate
            // inputs, once, then stream over the batch.
            let cols: Vec<(Side, &[Value])> = plan
                .needed
                .iter()
                .map(|&si| side_slice(res, left, Some(right), si))
                .collect();
            let mat = gather_pair_cols(&cols, &pairs, workers);
            // The planner builds `needed` as the union of key and
            // aggregate inputs, so the lookup always hits; the default
            // is an unreachable defensive fallback.
            let pos = |si: usize| {
                plan.needed
                    .iter()
                    .position(|&x| x == si)
                    .unwrap_or_default()
            };
            let ident: Vec<usize> = (0..pairs.len()).collect();
            return run_aggregate(plan, aggn, |si| &mat[pos(si)], &ident, workers);
        }

        if let Some((oc, asc)) = &plan.order_by {
            // `resolve` already proved the ORDER BY column is in the
            // projection, so the find always hits.
            let found = res
                .projection
                .iter()
                .copied()
                .find(|&si| res.source[si].name == *oc);
            if let (false, Some(si)) = (plan.sort_elided, found) {
                let (side, key) = side_slice(res, left, Some(right), si);
                // Stable over left-major pair order: equal keys keep
                // their deterministic join order.
                sort_by_key(&mut pairs, key, *asc, |&(li, ri)| match side {
                    Side::Left => li,
                    Side::Right => ri,
                });
            }
        }
        if let Some(n) = plan.limit {
            pairs.truncate(n);
        }
        let cols: Vec<(Side, &[Value])> = res
            .projection
            .iter()
            .map(|&si| side_slice(res, left, Some(right), si))
            .collect();
        let data = gather_pair_cols(&cols, &pairs, workers);
        return Ok(Table::from_parts(
            res.result_name.clone(),
            res.result.clone(),
            data,
        ));
    }

    // Single-table pipeline.
    if let Some(aggn) = &res.aggregate {
        let col = |si: usize| left.col(res.source[si].ci);
        return run_aggregate(plan, aggn, col, &lsel, workers);
    }

    if let Some((oc, asc)) = &plan.order_by {
        // `resolve` already proved the ORDER BY column is in the
        // projection, so the find always hits.
        let found = res
            .projection
            .iter()
            .copied()
            .find(|&si| res.source[si].name == *oc);
        if let (false, Some(si)) = (plan.sort_elided, found) {
            // Stable over the ascending selection: equal keys keep row
            // order, matching the materializing path bit for bit.
            sort_by_key(&mut lsel, left.col(res.source[si].ci), *asc, |&i| i);
        }
    }
    if let Some(n) = plan.limit {
        lsel.truncate(n);
    }
    let cols: Vec<&[Value]> = res
        .projection
        .iter()
        .map(|&si| left.col(res.source[si].ci))
        .collect();
    let data = gather_sel(&cols, &lsel, workers);
    Ok(Table::from_parts(
        res.result_name.clone(),
        res.result.clone(),
        data,
    ))
}

/// Aggregates `rows` of the source columns `col` resolves (by source
/// index) into the plan's result table, then applies its tail clauses.
fn run_aggregate<'a>(
    plan: &Plan<'_>,
    aggn: &AggregateNode,
    col: impl Fn(usize) -> &'a [Value],
    rows: &[usize],
    workers: usize,
) -> Result<Table, DbError> {
    let keys: Vec<&[Value]> = aggn.keys.iter().map(|&si| col(si)).collect();
    let aggs: Vec<(AggFn, Option<&[Value]>)> =
        aggn.aggs.iter().map(|a| (a.agg, a.src.map(&col))).collect();
    let (name, schema) = (&plan.res.result_name, &plan.res.result);
    let t = aggregate(&keys, &aggs, rows, aggn.whole_table, name, schema);
    finish_clauses(plan, t, workers)
}

/// HAVING → ORDER BY → LIMIT over a materialized table: an aggregate
/// (always small, one row per group) or the planner-off path's rows.
fn finish_clauses(plan: &Plan<'_>, mut t: Table, workers: usize) -> Result<Table, DbError> {
    if let Some(h) = &plan.having {
        let sel = CompiledPredicate::compile(&t, h).matching_rows_with(workers);
        t = t.gather(t.name(), &sel);
    }
    if let Some((oc, asc)) = &plan.order_by {
        if !plan.sort_elided {
            t = t.order_by(oc, *asc)?;
        }
    }
    if let Some(n) = plan.limit {
        if t.row_count() > n {
            let keep: Vec<usize> = (0..n).collect();
            t = t.gather(t.name(), &keep);
        }
    }
    Ok(t)
}

/// The pre-planner execution shape: join the full tables (hash always on
/// the right side), filter the materialized result, aggregate, then sort
/// and limit — materializing a table between every clause. Kept as the
/// planner-off ablation baseline; byte-identical to [`run_optimized`].
fn run_unoptimized(plan: &Plan<'_>, workers: usize) -> Result<Table, DbError> {
    let res = &plan.res;
    let identity_projection = res.projection.len() == res.source.len()
        && res.projection.iter().enumerate().all(|(i, &si)| i == si);

    let mut cur: Table;
    if let (Some(right), Some((lci, rci))) = (plan.right, res.join_keys) {
        cur = join_unoptimized(plan.left, right, lci, rci, res)?;
        cur = cur.filter_with(&plan.residual, workers);
        if res.aggregate.is_none() && !identity_projection {
            let names: Vec<&str> = res
                .projection
                .iter()
                .map(|&si| res.source[si].name.as_str())
                .collect();
            cur = cur.select(&names, &Predicate::True)?;
        }
    } else if res.aggregate.is_none() && !identity_projection {
        // The legacy fused SELECT: projected columns gathered straight off
        // the matching rows.
        let names: Vec<&str> = res
            .projection
            .iter()
            .map(|&si| res.source[si].name.as_str())
            .collect();
        cur = plan.left.select(&names, &plan.left_pred)?;
    } else {
        cur = plan.left.filter_with(&plan.left_pred, workers);
    }

    if let Some(aggn) = &res.aggregate {
        let ident: Vec<usize> = (0..cur.row_count()).collect();
        return run_aggregate(plan, aggn, |si| cur.col(si), &ident, workers);
    }
    // Without an aggregate there is no HAVING, and the planner elides no
    // sort with the optimizer off: the tail is ORDER BY → LIMIT.
    let t = finish_clauses(plan, cur, workers)?;
    // The planner names the result; the clause-by-clause path must agree.
    let (_, schema, cols) = t.into_parts();
    Ok(Table::from_parts(res.result_name.clone(), schema, cols))
}

/// The legacy join: hash index always on the right input, output rows
/// materialized cell-at-a-time in probe order.
fn join_unoptimized(
    left: &Table,
    right: &Table,
    lci: usize,
    rci: usize,
    res: &Resolved,
) -> Result<Table, DbError> {
    let columns: Vec<Column> = res
        .source
        .iter()
        .map(|s| Column::new(s.name.clone(), s.ty))
        .collect();
    let schema = Schema::new(columns)?;
    let rindex = engine::KeyIndex::build(right.col(rci));
    let left_width = left.schema().len();
    let mut cols: Vec<Vec<Value>> = vec![Vec::new(); schema.len()];
    for (li, lv) in left.col(lci).iter().enumerate() {
        for &ri in rindex.rows(lv) {
            for (ci, out) in cols.iter_mut().enumerate() {
                let cell = if ci < left_width {
                    &left.col(ci)[li]
                } else {
                    &right.col(ci - left_width)[ri]
                };
                // perf: pre-planner baseline — row-at-a-time
                // materialization is the shape the planner is measured
                // against.
                out.push(cell.clone());
            }
        }
    }
    Ok(Table::from_parts(
        format!("{}_x_{}", left.name(), right.name()),
        schema,
        cols,
    ))
}
