//! The interactive SQL session: one closed-loop client sending a seeded
//! mix of five query classes to mScopeDB, the next query only after the
//! previous result arrived.

use mscope_core::MilliScope;
use mscope_db::{Database, QueryOptions, Value};
use mscope_sim::{wallclock, SimRng, SimTime};
use std::time::Instant;

/// The query classes, in report order.
pub const CLASSES: [&str; 5] = [
    "window_agg",
    "rid_join",
    "group_having",
    "point_lookup",
    "slowest",
];

/// One generated query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Index into [`CLASSES`].
    pub class: usize,
    /// SQL text.
    pub sql: String,
}

/// A `time '…'` literal for a trial time in microseconds.
fn at(us: i64) -> String {
    format!(
        "time '{}'",
        wallclock(SimTime::from_micros(us.max(0) as u64))
    )
}

/// A seeded window `[a, a + width)` inside `[lo, hi)`.
fn window(rng: &mut SimRng, lo: i64, hi: i64, width: i64) -> (String, String) {
    let a = rng.uniform_u64(lo as u64, (hi - width).max(lo) as u64) as i64;
    (at(a), at(a + width))
}

/// Generates `n` queries over the handle's measured window. The sequence
/// depends only on `seed` and the loaded data.
pub fn generate(ms: &MilliScope, seed: u64, n: usize) -> Result<Vec<Query>, String> {
    let (start, end) = ms.measured_range();
    let (lo, hi) = (start.as_micros() as i64, end.as_micros() as i64);
    let ids: Vec<&str> = ms
        .db()
        .require("event_apache")
        .map_err(|e| e.to_string())?
        .column("request_id")
        .ok_or("event_apache has no request_id column")?
        .iter()
        .filter_map(|v| match v {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    if ids.is_empty() {
        return Err("event_apache is empty".into());
    }
    let mut rng = SimRng::seed_from(seed ^ 0x5E55_1011);
    // Every class once per round of five, in a seeded order, so the
    // classes stay balanced at any session length.
    let mut order = Vec::with_capacity(n + CLASSES.len());
    while order.len() < n {
        let mut round = [0, 1, 2, 3, 4];
        for k in (1..round.len()).rev() {
            round.swap(k, rng.uniform_u64(0, k as u64) as usize);
        }
        order.extend(round);
    }
    order.truncate(n);
    let mut out = Vec::with_capacity(n);
    for class in order {
        let sql = match class {
            0 => {
                let (a, b) = window(&mut rng, lo, hi, 5_000_000);
                format!(
                    "SELECT node, AVG(cpu_user), MAX(disk_util), MAX(mem_dirty) FROM collectl \
                     WHERE time >= {a} AND time < {b} GROUP BY node"
                )
            }
            1 => {
                let (a, b) = window(&mut rng, lo, hi, 500_000);
                format!(
                    "SELECT request_id, interaction, ua, event_mysql_ud FROM event_apache \
                     JOIN event_mysql ON event_apache.request_id = event_mysql.request_id \
                     WHERE ua >= {a} AND ua < {b}"
                )
            }
            2 => {
                let (a, b) = window(&mut rng, lo, hi, 10_000_000);
                format!(
                    "SELECT interaction, COUNT(*), AVG(bytes) FROM event_apache \
                     WHERE ua >= {a} AND ua < {b} GROUP BY interaction HAVING count >= 5"
                )
            }
            3 => {
                let id = ids[rng.uniform_u64(0, ids.len() as u64 - 1) as usize];
                format!("SELECT * FROM event_apache WHERE request_id = '{id}'")
            }
            _ => {
                let (a, b) = window(&mut rng, lo, hi, 2_000_000);
                format!(
                    "SELECT request_id, interaction, ua, ud FROM event_apache \
                     WHERE ua >= {a} AND ua < {b} ORDER BY ud DESC LIMIT 10"
                )
            }
        };
        out.push(Query { class, sql });
    }
    Ok(out)
}

/// What a session measured.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Latency of every query, in issue order (ms).
    pub latency_ms: Vec<f64>,
    /// Rows returned across the session.
    pub rows_returned: u64,
    /// Queries that returned an error.
    pub failed: u64,
}

/// Runs `n` queries one after another against `db` with default
/// options, starting at `queries[from]` and wrapping around; adds to
/// `stats` and returns where the next call should start.
pub fn run(
    db: &Database,
    queries: &[Query],
    from: usize,
    n: usize,
    stats: &mut SessionStats,
) -> usize {
    for q in queries
        .iter()
        .cycle()
        .skip(from % queries.len().max(1))
        .take(n)
    {
        let t = Instant::now();
        let result = db.query(&q.sql);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(table) => stats.rows_returned += table.row_count() as u64,
            Err(_) => stats.failed += 1,
        }
        stats.latency_ms.push(ms);
    }
    from + n
}

/// Checks that every query class returns identical results with the
/// planner off and at one and two workers, and that the classes that
/// must find rows do. Checks the first `per_class` queries of each class.
pub fn check(db: &Database, queries: &[Query], per_class: usize) -> Result<(), String> {
    let variants = [
        QueryOptions {
            workers: 0,
            optimize: false,
        },
        QueryOptions {
            workers: 1,
            optimize: true,
        },
        QueryOptions {
            workers: 2,
            optimize: true,
        },
    ];
    let mut seen = [0usize; 5];
    for q in queries {
        if seen[q.class] >= per_class {
            continue;
        }
        seen[q.class] += 1;
        let name = CLASSES[q.class];
        let base = db
            .query(&q.sql)
            .map_err(|e| format!("{name}: `{}` failed: {e}", q.sql))?;
        // Point lookups and windowed aggregates always find rows in a
        // loaded trial; an empty answer means the query lost its data.
        if base.row_count() == 0 && matches!(q.class, 0 | 3) {
            return Err(format!("{name}: `{}` returned no rows", q.sql));
        }
        let want = mscope_serdes::to_string(&base);
        for opts in variants {
            let got = db
                .query_opts(&q.sql, opts)
                .map_err(|e| format!("{name} with {opts:?}: {e}"))?;
            if mscope_serdes::to_string(&got) != want {
                return Err(format!(
                    "{name}: result with {opts:?} differs from the default plan for `{}`",
                    q.sql
                ));
            }
        }
    }
    if let Some(i) = seen.iter().position(|&n| n == 0) {
        return Err(format!("the session has no {} query", CLASSES[i]));
    }
    Ok(())
}
