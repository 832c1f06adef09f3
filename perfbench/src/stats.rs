//! Order statistics for the reported metrics: medians, quartiles, the
//! highest percentile a sample supports, and failure shares.

/// A sorted copy with NaNs dropped (a NaN timing is a measuring bug, not
/// a sample).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values for an
/// even count. `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the "exclusive" method —
/// the default of Python's `statistics.quantiles(xs, n=4)`, so a spread
/// computed here matches one computed from the printed values. `None`
/// below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// One nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile, e.g. `99.0`.
    pub p: f64,
    /// The sample value at that rank.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

/// The `p`-th percentile by nearest rank (the smallest value with at
/// least `p` % of the sample at or below it). `None` for an empty sample
/// or `p` outside `(0, 100]`.
pub fn percentile(xs: &[f64], p: f64) -> Option<Percentile> {
    let v = sorted(xs);
    if v.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    // Shave float error off the exact rank (0.999 × 10 000 is not exactly
    // 9 990 in binary) before rounding up.
    let exact = p * v.len() as f64 / 100.0;
    let rank = (exact - exact * 1e-12).ceil() as usize;
    let rank = rank.clamp(1, v.len());
    Some(Percentile {
        p,
        value: v[rank - 1],
        beyond: v.len() - rank,
    })
}

/// The percentiles a tail is read from, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] with at least `min_beyond`
/// samples beyond it — the highest percentile the sample supports.
pub fn highest_supported(xs: &[f64], min_beyond: usize) -> Option<Percentile> {
    TAIL_LADDER
        .iter()
        .rev()
        .filter_map(|&p| percentile(xs, p))
        .find(|q| q.beyond >= min_beyond)
}

/// Failed operations as a share of those attempted (`0` when nothing
/// was attempted).
pub fn failure_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}
