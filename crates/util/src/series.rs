//! Fixed-interval time series.
//!
//! Every signal in this reproduction — player counts per server group,
//! entity counts per sub-zone, allocation metrics — lives on the paper's
//! two-minute sampling grid. [`TimeSeries`] is a thin, allocation-friendly
//! wrapper over `Vec<f64>` indexed by tick, with the resampling and
//! windowing operations the analysis and prediction layers need.

use crate::stats;
use crate::time::SimTime;

/// A time series sampled once per simulation tick, starting at tick 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self { values: Vec::new() }
    }

    /// Creates an empty series with reserved capacity.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            values: Vec::with_capacity(n),
        }
    }

    /// Wraps an existing vector of samples.
    #[must_use]
    pub fn from_values(values: Vec<f64>) -> Self {
        Self { values }
    }

    /// Appends the sample for the next tick.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample at tick `t`, or `None` past the end.
    #[must_use]
    pub fn get(&self, t: SimTime) -> Option<f64> {
        self.values.get(t.tick() as usize).copied()
    }

    /// Raw sample slice.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning the raw samples.
    #[must_use]
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Iterator over `(SimTime, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime(i as u64), v))
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Largest sample (`None` when empty).
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }

    /// Smallest sample (`None` when empty).
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.min(v),
            })
        })
    }

    /// Mean of all samples (`None` when empty).
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        stats::mean(&self.values)
    }

    /// Slice of samples in the half-open tick range `[from, to)`,
    /// clamped to the available data.
    #[must_use]
    pub fn window(&self, from: SimTime, to: SimTime) -> &[f64] {
        let lo = (from.tick() as usize).min(self.values.len());
        let hi = (to.tick() as usize).clamp(lo, self.values.len());
        &self.values[lo..hi]
    }

    /// Down-samples by averaging consecutive blocks of `factor` ticks
    /// (a trailing partial block is averaged over its own length). Used
    /// for the "two-hours average" points of Figure 2.
    ///
    /// # Panics
    /// Panics if `factor == 0`.
    #[must_use]
    pub fn downsample_mean(&self, factor: usize) -> TimeSeries {
        assert!(factor > 0, "downsample factor must be positive");
        let values = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        TimeSeries { values }
    }

    /// Centered moving average with the given window half-width; the
    /// window shrinks at the edges. Used for trend extraction.
    #[must_use]
    pub fn smooth(&self, half_width: usize) -> TimeSeries {
        let n = self.values.len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let lo = i.saturating_sub(half_width);
            let hi = (i + half_width + 1).min(n);
            let w = &self.values[lo..hi];
            out.push(w.iter().sum::<f64>() / w.len() as f64);
        }
        TimeSeries { values: out }
    }

    /// First difference (length `len()-1`; empty for a series shorter
    /// than 2 samples).
    #[must_use]
    pub fn diff(&self) -> TimeSeries {
        let values = self.values.windows(2).map(|w| w[1] - w[0]).collect();
        TimeSeries { values }
    }

    /// Element-wise sum of several series; shorter inputs are treated as
    /// zero-padded. Aggregating server groups into the regional or global
    /// population (Figures 2 and 3) uses this.
    #[must_use]
    pub fn aggregate<'a, I>(series: I) -> TimeSeries
    where
        I: IntoIterator<Item = &'a TimeSeries>,
    {
        let mut out: Vec<f64> = Vec::new();
        for s in series {
            if s.values.len() > out.len() {
                out.resize(s.values.len(), 0.0);
            }
            for (o, v) in out.iter_mut().zip(&s.values) {
                *o += v;
            }
        }
        TimeSeries { values: out }
    }

    /// Scales every sample by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> TimeSeries {
        TimeSeries {
            values: self.values.iter().map(|v| v * k).collect(),
        }
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> TimeSeries {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn push_get_len() {
        let mut s = TimeSeries::new();
        assert!(s.is_empty());
        s.push(1.5);
        s.push(2.5);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(SimTime(0)), Some(1.5));
        assert_eq!(s.get(SimTime(1)), Some(2.5));
        assert_eq!(s.get(SimTime(2)), None);
    }

    #[test]
    fn basic_reductions() {
        let s = ramp(5); // 0 1 2 3 4
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.mean(), Some(2.0));
        let empty = TimeSeries::new();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
        assert_eq!(empty.mean(), None);
    }

    #[test]
    fn window_clamps() {
        let s = ramp(10);
        assert_eq!(s.window(SimTime(2), SimTime(5)), &[2.0, 3.0, 4.0]);
        assert_eq!(s.window(SimTime(8), SimTime(100)), &[8.0, 9.0]);
        assert!(s.window(SimTime(5), SimTime(3)).is_empty());
        assert!(s.window(SimTime(50), SimTime(60)).is_empty());
    }

    #[test]
    fn downsample_mean_blocks() {
        let s = ramp(6);
        let d = s.downsample_mean(2);
        assert_eq!(d.values(), &[0.5, 2.5, 4.5]);
        // Partial trailing block averaged over its own length.
        let d3 = ramp(5).downsample_mean(3);
        assert_eq!(d3.values(), &[1.0, 3.5]);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn downsample_zero_panics() {
        let _ = ramp(4).downsample_mean(0);
    }

    #[test]
    fn smooth_preserves_constant_and_length() {
        let s = TimeSeries::from_values(vec![3.0; 20]);
        let sm = s.smooth(4);
        assert_eq!(sm.len(), 20);
        assert!(sm.values().iter().all(|&v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn smooth_reduces_noise_variance() {
        // Alternating +-1 noise should shrink under a window.
        let s: TimeSeries = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let sm = s.smooth(3);
        let var_raw = crate::stats::variance(s.values()).unwrap();
        let var_sm = crate::stats::variance(sm.values()).unwrap();
        assert!(var_sm < var_raw / 4.0, "raw {var_raw} smoothed {var_sm}");
    }

    #[test]
    fn diff_of_ramp_is_constant() {
        let d = ramp(5).diff();
        assert_eq!(d.values(), &[1.0, 1.0, 1.0, 1.0]);
        assert!(TimeSeries::new().diff().is_empty());
        assert!(TimeSeries::from_values(vec![1.0]).diff().is_empty());
    }

    #[test]
    fn aggregate_zero_pads() {
        let a = TimeSeries::from_values(vec![1.0, 2.0, 3.0]);
        let b = TimeSeries::from_values(vec![10.0]);
        let sum = TimeSeries::aggregate([&a, &b]);
        assert_eq!(sum.values(), &[11.0, 2.0, 3.0]);
        assert!(TimeSeries::aggregate(std::iter::empty::<&TimeSeries>()).is_empty());
    }

    #[test]
    fn scaled_multiplies_every_sample() {
        let s = TimeSeries::from_values(vec![-1.0, 0.5, 2.0]);
        assert_eq!(s.scaled(2.0).values(), &[-2.0, 1.0, 4.0]);
    }

    #[test]
    fn iter_pairs() {
        let s = ramp(3);
        let pairs: Vec<_> = s.iter().collect();
        assert_eq!(
            pairs,
            vec![(SimTime(0), 0.0), (SimTime(1), 1.0), (SimTime(2), 2.0)]
        );
    }
}
