//! Property tests: the compiled, indexed query engine is result-identical
//! to the naive row-at-a-time oracles for arbitrary tables, predicate
//! trees, block sizes, and worker counts — including tables whose
//! timestamp column is *not* sorted, where the binary-search narrowing
//! must conservatively stand down.

use mscope_db::{AggFn, Column, ColumnType, Predicate, Schema, Table, Value};
use mscope_sim::prop::{forall, Gen};
use std::collections::BTreeMap;

/// Generates an event-shaped table with a timestamp column (sorted with
/// probability ½), an Int or Float metric column, and a short-alphabet
/// text key column, with nulls sprinkled everywhere the schema admits
/// them. Rebuilds the zone maps at an arbitrary (often tiny) block size
/// so block-boundary edge cases are exercised constantly.
fn arb_table(g: &mut Gen, name: &str) -> Table {
    arb_table_with(g, name, false)
}

/// [`arb_table`], whose Float cells are `-0.0` with probability ½ when
/// `neg_zero` is set — the input on which a fold's starting sum shows.
/// With `neg_zero` off the draws are exactly [`arb_table`]'s.
fn arb_table_with(g: &mut Gen, name: &str, neg_zero: bool) -> Table {
    let float_metric = g.bool();
    let schema = Schema::new(vec![
        Column::new("ts", ColumnType::Timestamp),
        Column::new(
            "num",
            if float_metric {
                ColumnType::Float
            } else {
                ColumnType::Int
            },
        ),
        Column::new("tag", ColumnType::Text),
    ])
    .expect("static schema is valid");
    let mut t = Table::new(name, schema);
    let sorted = g.bool();
    let nrows = g.usize(0..=200);
    let mut ts = 0i64;
    for _ in 0..nrows {
        ts = if sorted {
            ts + g.i64(0..=5_000)
        } else {
            g.i64(-100_000..=100_000)
        };
        let tsv = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Timestamp(ts)
        };
        let num = if g.bool() && g.bool() {
            Value::Null
        } else if float_metric {
            // Float columns admit Int cells: mix both so zone maps see
            // cross-type numeric comparisons.
            if g.bool() {
                if neg_zero && g.bool() {
                    Value::Float(-0.0)
                } else {
                    Value::Float(g.f64(-100.0..100.0))
                }
            } else {
                Value::Int(g.i64(-100..=100))
            }
        } else {
            Value::Int(g.i64(-100..=100))
        };
        let tag = if g.bool() && g.bool() {
            Value::Null
        } else {
            Value::Text(g.choose(&["a", "b", "c", "d"]).to_string())
        };
        t.push_row(vec![tsv, num, tag]).expect("row fits schema");
    }
    t.reindex(g.choose(&[1usize, 2, 3, 7, 16, 64, 1024]));
    t
}

/// An arbitrary comparison value matched (or deliberately mismatched in
/// type) against the named column.
fn arb_value(g: &mut Gen, col: &str) -> Value {
    match col {
        "ts" => Value::Timestamp(g.i64(-100_000..=100_000)),
        "num" => {
            if g.bool() {
                Value::Int(g.i64(-100..=100))
            } else {
                Value::Float(g.f64(-100.0..100.0))
            }
        }
        _ => Value::Text(g.choose(&["a", "b", "c", "zz"]).to_string()),
    }
}

/// An arbitrary predicate tree of bounded depth. Occasionally names a
/// column the table does not have — a missing column must evaluate to
/// `false` (and flip under `Not`), never error or prune wrongly.
fn arb_pred(g: &mut Gen, depth: usize) -> Predicate {
    let leaf = depth == 0 || g.bool();
    if leaf {
        let col = g.choose(&["ts", "num", "tag", "nope"]).to_string();
        match g.usize(0..=7) {
            0 => Predicate::True,
            1 => Predicate::Eq(col.clone(), arb_value(g, &col)),
            2 => Predicate::Ne(col.clone(), arb_value(g, &col)),
            3 => Predicate::Lt(col.clone(), arb_value(g, &col)),
            4 => Predicate::Le(col.clone(), arb_value(g, &col)),
            5 => Predicate::Gt(col.clone(), arb_value(g, &col)),
            6 => Predicate::Ge(col.clone(), arb_value(g, &col)),
            _ => {
                let (a, b) = (arb_value(g, &col), arb_value(g, &col));
                Predicate::Between(col, a, b)
            }
        }
    } else {
        match g.usize(0..=2) {
            0 => Predicate::And(g.vec(0..=3, |g| arb_pred(g, depth - 1))),
            1 => Predicate::Or(g.vec(0..=3, |g| arb_pred(g, depth - 1))),
            _ => Predicate::Not(Box::new(arb_pred(g, depth - 1))),
        }
    }
}

#[test]
fn compiled_filter_matches_naive_oracle() {
    forall("filter ≡ filter_naive", 256, |g| {
        let t = arb_table(g, "events");
        let pred = arb_pred(g, 3);
        let expected = t.filter_naive(&pred);
        for workers in [0usize, 1, 2, 3, 8] {
            let got = t.filter_with(&pred, workers);
            if got != expected {
                return Err(format!(
                    "filter_with(workers={workers}) diverged on {} rows, \
                     pred {pred:?}: {} vs {} rows out",
                    t.row_count(),
                    got.row_count(),
                    expected.row_count()
                ));
            }
        }
        Ok(())
    });
}

#[test]
fn compiled_join_matches_naive_oracle() {
    forall("inner_join ≡ inner_join_naive", 128, |g| {
        let left = arb_table(g, "left");
        let right = arb_table(g, "right");
        let got = left.inner_join(&right, "tag", "tag");
        let expected = left.inner_join_naive(&right, "tag", "tag");
        match (got, expected) {
            (Ok(a), Ok(b)) if a == b => Ok(()),
            (Ok(a), Ok(b)) => Err(format!(
                "join diverged: {} vs {} rows",
                a.row_count(),
                b.row_count()
            )),
            (Err(_), Err(_)) => Ok(()),
            (a, b) => Err(format!("join error mismatch: {a:?} vs {b:?}")),
        }
    });
}

/// Test-local windowed aggregation of `t`'s `ts`/`num` columns: buckets
/// with `div_euclid`, folds with `Iterator::sum`, `f64::min`, `f64::max`
/// and the last value — independent of the warehouse's accumulator.
fn reference_window(t: &Table, window: i64, agg: AggFn) -> Vec<(i64, f64)> {
    let (ts, num) = (
        t.column("ts").unwrap_or(&[]),
        t.column("num").unwrap_or(&[]),
    );
    let mut buckets: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for (tv, nv) in ts.iter().zip(num) {
        if let (Some(time), Some(v)) = (tv.as_i64(), nv.as_f64()) {
            buckets
                .entry(time.div_euclid(window) * window)
                .or_default()
                .push(v);
        }
    }
    buckets
        .into_iter()
        .map(|(k, vs)| {
            let v = match agg {
                AggFn::Count => vs.len() as f64,
                AggFn::Sum => vs.iter().sum(),
                AggFn::Mean => vs.iter().sum::<f64>() / vs.len() as f64,
                AggFn::Min => vs.iter().copied().fold(f64::INFINITY, f64::min),
                AggFn::Max => vs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                AggFn::Last => vs.last().copied().unwrap_or(f64::NAN),
            };
            (k, v)
        })
        .collect()
}

fn bits(series: &[(i64, f64)]) -> Vec<(i64, u64)> {
    series.iter().map(|&(k, v)| (k, v.to_bits())).collect()
}

/// `window_agg_where` against the staged `filter_naive` + `window_agg`
/// path and, bit for bit, against [`reference_window`].
fn check_window(t: &Table, pred: &Predicate, window: i64, agg: AggFn) -> Result<(), String> {
    let (matched, fused) = t
        .window_agg_where(pred, "ts", window, "num", agg)
        .map_err(|e| format!("fused path errored: {e:?}"))?;
    let filtered = t.filter_naive(pred);
    if matched != filtered.row_count() {
        return Err(format!(
            "matched-row count {matched} ≠ filtered rows {}",
            filtered.row_count()
        ));
    }
    let staged = filtered
        .window_agg("ts", window, "num", agg)
        .map_err(|e| format!("staged path errored: {e:?}"))?;
    if fused != staged {
        return Err(format!(
            "series diverged: fused {} vs staged {} points",
            fused.len(),
            staged.len()
        ));
    }
    let reference = reference_window(&filtered, window, agg);
    if bits(&fused) != bits(&reference) {
        return Err(format!(
            "{agg:?} series differs from the reference fold: {fused:?} vs {reference:?}"
        ));
    }
    Ok(())
}

#[test]
fn fused_window_agg_matches_filter_then_agg() {
    forall("window_agg_where ≡ filter + window_agg", 128, |g| {
        let t = arb_table(g, "events");
        let pred = arb_pred(g, 2);
        let window = g.i64(1..=50_000).max(1);
        let agg = g.choose(&[
            AggFn::Count,
            AggFn::Sum,
            AggFn::Mean,
            AggFn::Min,
            AggFn::Max,
            AggFn::Last,
        ]);
        check_window(&t, &pred, window, agg)?;
        // An added case, drawn after the original inputs: the same query
        // over a table whose Float cells are often `-0.0`.
        let zeros = arb_table_with(g, "events", true);
        check_window(&zeros, &pred, window, agg)
    });
}
