//! The benchmark's statistics helpers and span self time.

use mscope_perfbench::stats::{failure_share, highest_supported, median, percentile, quartiles};
use mscope_perfbench::trace::{child_coverage, self_times, total, Span, Tracer};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
    // NaN is a measuring bug, not a sample.
    assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(xs, n=4)`.
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
    assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
    let q = quartiles(&[0.9, 1.4, 1.1, 1.3, 1.2, 5.0, 1.0]).unwrap();
    assert!(
        close(q[0], 1.0) && close(q[1], 1.2) && close(q[2], 1.4),
        "{q:?}"
    );
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn nearest_rank_percentile_counts_samples_beyond() {
    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&xs, 99.0).unwrap();
    assert_eq!((p99.value, p99.beyond), (990.0, 10));
    let p50 = percentile(&xs, 50.0).unwrap();
    assert_eq!((p50.value, p50.beyond), (500.0, 500));
    assert_eq!(percentile(&xs, 0.0), None);
    assert_eq!(percentile(&[], 50.0), None);
    assert_eq!(percentile(&[7.0], 99.0).map(|p| p.value), Some(7.0));
}

#[test]
fn highest_supported_percentile_keeps_ten_samples_beyond() {
    let xs = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
    // 1 000 samples: p99 has exactly 10 beyond, p99.9 only 1.
    assert_eq!(highest_supported(&xs(1000), 10).map(|p| p.p), Some(99.0));
    // 10 000 samples: p99.9 has 10 beyond.
    assert_eq!(highest_supported(&xs(10_000), 10).map(|p| p.p), Some(99.9));
    // 100 samples: p90 has 10 beyond, p99 only 1.
    let top = highest_supported(&xs(100), 10).unwrap();
    assert_eq!((top.p, top.beyond), (90.0, 10));
    // Too few samples for any percentile of the ladder.
    assert_eq!(highest_supported(&xs(15), 10), None);
}

#[test]
fn failure_share_is_failed_over_attempted() {
    assert_eq!(failure_share(0, 0), 0.0);
    assert_eq!(failure_share(1, 4), 0.25);
    assert_eq!(failure_share(0, 1000), 0.0);
}

fn span(id: usize, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
    Span {
        id,
        parent,
        run: 0,
        name: format!("s{id}"),
        start_s,
        end_s,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(0, None, 0.0, 10.0),
        // Two overlapping children (parallel workers) cover [1, 5) once.
        span(1, Some(0), 1.0, 4.0),
        span(2, Some(0), 2.0, 5.0),
        // A disjoint child covers [6, 8).
        span(3, Some(0), 6.0, 8.0),
        // A grandchild counts against its parent only.
        span(4, Some(3), 6.5, 7.0),
        // A child sticking out of its parent is clipped to it.
        span(5, Some(0), 9.0, 12.0),
    ];
    let selfs = self_times(&spans);
    let want = [10.0 - 4.0 - 2.0 - 1.0, 3.0, 3.0, 1.5, 0.5, 3.0];
    for (got, want) in selfs.iter().zip(want) {
        assert!(close(*got, want), "{selfs:?}");
    }
    assert!(close(child_coverage(&spans, 0), 7.0));
    assert!(close(child_coverage(&spans, 4), 0.0));
}

#[test]
fn tracer_records_nested_spans_across_threads() {
    let tr = Tracer::new();
    tr.span("outer", None, 7, |outer| {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| tr.span("inner", Some(outer), 7, |_| ()));
            }
        });
    });
    let t = std::time::Instant::now();
    tr.record("manual", None, 8, t, t);
    let spans = tr.into_spans();
    assert_eq!(spans.len(), 4);
    assert!(spans.windows(2).all(|w| w[0].id < w[1].id), "opening order");
    let outer = spans.iter().find(|s| s.name == "outer").unwrap();
    let inner: Vec<_> = spans.iter().filter(|s| s.name == "inner").collect();
    assert!(inner
        .iter()
        .all(|s| s.parent == Some(outer.id) && s.run == 7));
    assert!(inner
        .iter()
        .all(|s| s.start_s >= outer.start_s && s.end_s <= outer.end_s));
    assert!(self_times(&spans).iter().all(|&s| s >= 0.0));
    assert_eq!(total(&spans, "manual", 8), 0.0);
}
