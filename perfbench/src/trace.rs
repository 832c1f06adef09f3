//! Wall-clock spans recorded around the benchmark's calls into each
//! layer. Spans are kept in memory while the run measures and written out
//! once at the end; self time and coverage are computed from them
//! afterwards, so recording costs one clock read and one push per span.

use mscope_serdes::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval: which layer call it wraps, when it ran, which span
/// caused it, and which run (pipeline iteration) it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a tracer, in opening order.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one run.
    pub run: u64,
    /// Layer call name, e.g. `transform.parse`.
    pub name: String,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned: a traced thread panicked")
            .push(span);
    }

    /// Runs `f` inside a span named `name`; `f` gets the span's id so the
    /// calls it makes can open child spans.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        run: u64,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        // SeqCst: the id is the only data published and ordering is cheap
        // next to the work a span wraps.
        let id = self.next.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let out = f(id);
        self.record_with_id(id, name, parent, run, start, Instant::now());
        out
    }

    /// Records an interval measured by the caller (e.g. one blocking
    /// channel send) and returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        run: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.next.fetch_add(1, Ordering::SeqCst);
        self.record_with_id(id, name, parent, run, start, end);
        id
    }

    fn record_with_id(
        &self,
        id: usize,
        name: &str,
        parent: Option<usize>,
        run: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(Span {
            id,
            parent,
            run,
            name: name.to_string(),
            start_s: self.secs(start),
            end_s: self.secs(end),
        });
    }

    /// Every closed span, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("span buffer poisoned: a traced thread panicked");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Direct children of every span, by parent id.
fn children_of(spans: &[Span]) -> BTreeMap<usize, Vec<&Span>> {
    let mut out: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            out.entry(p).or_default().push(s);
        }
    }
    out
}

/// The part of `span`'s interval that its direct children cover, in
/// seconds. Children that ran in parallel count once.
fn covered(span: &Span, children: Option<&Vec<&Span>>) -> f64 {
    let intervals = children
        .into_iter()
        .flatten()
        .map(|c| (c.start_s.max(span.start_s), c.end_s.min(span.end_s)))
        .filter(|(s, e)| e > s)
        .collect();
    union_len(intervals)
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let children = children_of(spans);
    spans
        .iter()
        .map(|s| s.duration() - covered(s, children.get(&s.id)))
        .collect()
}

/// Seconds of `span` covered by its direct children.
pub fn child_coverage(spans: &[Span], id: usize) -> f64 {
    let children = children_of(spans);
    spans
        .iter()
        .find(|s| s.id == id)
        .map_or(0.0, |s| covered(s, children.get(&id)))
}

/// Summed duration of every span called `name` in run `run`.
pub fn total(spans: &[Span], name: &str, run: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.run == run)
        .map(Span::duration)
        .sum()
}

/// Number of spans called `name` in run `run`.
pub fn count(spans: &[Span], name: &str, run: u64) -> usize {
    spans
        .iter()
        .filter(|s| s.name == name && s.run == run)
        .count()
}

/// The spans as a JSON array, self time included.
pub fn to_json(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .map(|(s, self_s)| {
                Json::obj([
                    ("id", Json::Int(s.id as i128)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                    ),
                    ("run", Json::Int(i128::from(s.run))),
                    ("name", Json::Str(s.name.clone())),
                    ("start_s", Json::Float(s.start_s)),
                    ("end_s", Json::Float(s.end_s)),
                    ("self_s", Json::Float(self_s)),
                ])
            })
            .collect(),
    )
}
