//! Descriptive statistics for workload analysis.
//!
//! Section III of the paper characterises the RuneScape traces with
//! medians, min/max envelopes, interquartile ranges, autocorrelation
//! functions and empirical CDFs. This module provides those primitives
//! (plus online accumulators used by the simulator's metric collection).

/// Arithmetic mean; `None` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance; `None` for an empty slice.
#[must_use]
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Quantile by linear interpolation between closest ranks
/// (the "type 7" estimator used by R and NumPy). `q` is clamped to `[0,1]`.
/// Returns `None` for an empty slice.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Quantile on data already sorted ascending. Panics in debug builds if
/// the input is empty.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median (0.5 quantile); `None` for an empty slice.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Interquartile range `Q3 − Q1`; `None` for an empty slice.
///
/// The middle sub-plot of Figure 3 plots exactly this across the server
/// groups of a region at every time step.
#[must_use]
pub fn iqr(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in iqr input"));
    Some(quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25))
}

/// Sample autocorrelation function for lags `0..=max_lag`.
///
/// Returns the normalized ACF (lag 0 ≡ 1). Series shorter than 2 samples
/// or with zero variance yield an empty vector. The bottom sub-plot of
/// Figure 3 computes this per server group; the paper reports a strong
/// positive peak at lag 720 (24 h of 2-min samples) and a negative peak
/// at lag 360 (12 h).
#[must_use]
pub fn autocorrelation(xs: &[f64], max_lag: usize) -> Vec<f64> {
    let n = xs.len();
    if n < 2 {
        return Vec::new();
    }
    let m = mean(xs).expect("non-empty");
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= f64::EPSILON {
        return Vec::new();
    }
    let max_lag = max_lag.min(n - 1);
    let mut acf = Vec::with_capacity(max_lag + 1);
    for lag in 0..=max_lag {
        let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
        acf.push(num / denom);
    }
    acf
}

/// An empirical cumulative distribution function.
///
/// Figure 4 of the paper plots the ECDF of packet lengths and packet
/// inter-arrival times for nine session traces.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF from raw samples (NaNs are rejected with a panic
    /// in debug builds and dropped in release builds).
    #[must_use]
    pub fn new(mut samples: Vec<f64>) -> Self {
        debug_assert!(samples.iter().all(|x| !x.is_nan()), "NaN sample");
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Self { sorted: samples }
    }

    /// Number of underlying samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)` as a fraction in `[0, 1]`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample `x` with `eval(x) >= p`.
    #[must_use]
    pub fn inverse(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let idx = ((p * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[idx.min(self.sorted.len() - 1)])
    }

    /// Evaluates the ECDF at evenly spaced points over `[lo, hi]`,
    /// producing `(x, percent)` pairs suited for plotting figures like
    /// Figure 4 (truncated at a maximum value).
    #[must_use]
    pub fn curve(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        if points == 0 || hi < lo {
            return Vec::new();
        }
        (0..points)
            .map(|i| {
                let x = if points == 1 {
                    lo
                } else {
                    lo + (hi - lo) * i as f64 / (points - 1) as f64
                };
                (x, 100.0 * self.eval(x))
            })
            .collect()
    }
}

/// A fixed-width histogram over `[lo, hi)` with saturating edge bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width buckets over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records a sample; values outside the range clamp to the edge bins.
    pub fn record(&mut self, x: f64) {
        let bins = self.counts.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            bins - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize
        };
        self.counts[idx.min(bins - 1)] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bin centre for bin `i`.
    #[must_use]
    pub fn center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }
}

/// Online mean/variance/min/max accumulator (Welford's algorithm).
///
/// The simulation engine records Ω(t) and Υ(t) at every 2-minute step of
/// a 2-week run — more than 10 000 samples per metric — so metric
/// summaries are accumulated online instead of buffered.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest recorded sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A five-number-plus summary of a batch of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises a batch; `None` for an empty slice.
    #[must_use]
    pub fn of(xs: &[f64]) -> Option<Self> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        Some(Self {
            count: sorted.len(),
            min: sorted[0],
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
            max: sorted[sorted.len() - 1],
            mean: mean(xs).expect("non-empty"),
        })
    }

    /// Interquartile range.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), Some(2.5));
        assert!((variance(&xs).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_none() {
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
        assert_eq!(median(&[]), None);
        assert_eq!(iqr(&[]), None);
        assert_eq!(quantile(&[], 0.5), None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quantile_endpoints_and_clamping() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 1.0), Some(30.0));
        assert_eq!(quantile(&xs, -0.5), Some(10.0));
        assert_eq!(quantile(&xs, 1.5), Some(30.0));
    }

    #[test]
    fn iqr_of_uniform_grid() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert!((iqr(&xs).unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn acf_lag_zero_is_one() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let acf = autocorrelation(&xs, 10);
        assert!((acf[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn acf_detects_period() {
        // A pure 24-sample period should have ACF peak near lag 24 and a
        // trough near lag 12 — the structure Figure 3 shows at 720/360.
        let period = 24usize;
        let xs: Vec<f64> = (0..480)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let acf = autocorrelation(&xs, 30);
        assert!(acf[period] > 0.9, "peak at lag 24: {}", acf[period]);
        assert!(
            acf[period / 2] < -0.9,
            "trough at lag 12: {}",
            acf[period / 2]
        );
    }

    #[test]
    fn acf_constant_series_is_empty() {
        assert!(autocorrelation(&[5.0; 40], 10).is_empty());
        assert!(autocorrelation(&[1.0], 10).is_empty());
    }

    #[test]
    fn ecdf_eval_and_inverse() {
        let ecdf = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ecdf.eval(0.0), 0.0);
        assert_eq!(ecdf.eval(2.0), 0.5);
        assert_eq!(ecdf.eval(10.0), 1.0);
        assert_eq!(ecdf.inverse(0.5), Some(2.0));
        assert_eq!(ecdf.inverse(1.0), Some(4.0));
        assert_eq!(ecdf.inverse(0.0), Some(1.0));
    }

    #[test]
    fn ecdf_empty() {
        let ecdf = Ecdf::new(vec![]);
        assert!(ecdf.is_empty());
        assert_eq!(ecdf.eval(1.0), 0.0);
        assert_eq!(ecdf.inverse(0.5), None);
        assert!(ecdf.curve(0.0, 1.0, 0).is_empty());
    }

    #[test]
    fn ecdf_curve_monotone() {
        let ecdf = Ecdf::new((0..100).map(f64::from).collect());
        let curve = ecdf.curve(0.0, 99.0, 50);
        assert_eq!(curve.len(), 50);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be monotone");
        }
        assert!((curve.last().unwrap().1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(-5.0);
        h.record(50.0);
        h.record(3.0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[4], 1);
        assert_eq!(h.counts()[1], 1);
        assert!((h.center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn online_stats_matches_batch() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64).collect();
        let mut os = OnlineStats::new();
        for &x in &xs {
            os.record(x);
        }
        assert_eq!(os.count(), 1000);
        assert!((os.mean() - mean(&xs).unwrap()).abs() < 1e-9);
        assert!((os.variance() - variance(&xs).unwrap()).abs() < 1e-6);
        assert_eq!(os.min(), Some(0.0));
        assert_eq!(os.max(), Some(100.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..200] {
            a.record(x);
        }
        for &x in &xs[200..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn online_stats_merge_with_empty() {
        let mut a = OnlineStats::new();
        a.record(1.0);
        let b = OnlineStats::new();
        let mut c = a;
        c.merge(&b);
        assert_eq!(c.count(), 1);
        let mut d = OnlineStats::new();
        d.merge(&a);
        assert_eq!(d.count(), 1);
        assert_eq!(d.mean(), 1.0);
    }

    #[test]
    fn summary_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.iqr(), 2.0);
        assert_eq!(s.mean, 3.0);
    }
}
