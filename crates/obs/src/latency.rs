//! Log-bucketed latency histograms: HDR-style percentile estimation
//! for soft-real-time stage timing.
//!
//! A [`LatencyHisto`] covers every `u64` nanosecond duration with a
//! fixed array of [`LATENCY_BUCKETS`] atomic counters at **two buckets
//! per octave** (each power-of-two range is split once at its
//! midpoint), so the range spans sub-nanosecond noise to centuries
//! without configuration. Steady-state [`LatencyHisto::record`] is
//! allocation-free and lock-free: one bucket index computation (a
//! leading-zeros instruction plus shifts) and four relaxed atomic
//! read-modify-writes.
//!
//! # Error bound
//!
//! A bucket for octave `k ≥ 1` covers `[lo, lo + 2^(k-1))` with
//! `lo ∈ {2^k, 2^k + 2^(k-1)}`. Quantile estimates return the bucket's
//! inclusive upper bound clamped to the recorded maximum, so for the
//! true quantile value `q`:
//!
//! ```text
//! q ≤ estimate ≤ ⌈1.5 × q⌉    (exact for q < 4, where buckets are
//!                              at most one nanosecond wide... see
//!                              tests/latency_props.rs for the
//!                              property check)
//! ```
//!
//! i.e. estimates never under-report and over-report by at most 50%,
//! one sub-octave step. That is deliberately coarser than HDRHistogram
//! defaults — 128 counters keep the whole instrument in two cache
//! lines' worth of hot state so the engine can afford one histogram
//! per stage per tick at 10M-player scale.
//!
//! # Determinism contract
//!
//! Latency values are wall-clock and therefore **non-deterministic**;
//! every histogram registered through [`latency`] lives in the export's
//! `timing` section ([`crate::Domain::Timing`] semantics) and is masked
//! by determinism tests. Counts of *recordings* are deterministic, but
//! the bucket a sample lands in never is — nothing from this module may
//! feed a semantic export.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::{member, Node, Value};
use crate::registry::{intern, with_tables};

/// Number of buckets: 64 octaves × 2 sub-buckets.
pub const LATENCY_BUCKETS: usize = 128;

/// Maps a nanosecond duration to its bucket index.
///
/// Values `0` and `1` occupy buckets `0` and `1` (octave 0 has width-1
/// "sub-buckets"); every larger value lands in
/// `2 × octave + high-sub-bit`, where `octave = floor(log2(v))`.
#[must_use]
pub fn bucket_index(ns: u64) -> usize {
    if ns < 2 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (octave - 1)) & 1) as usize;
    2 * octave + sub
}

/// Inclusive lower bound of bucket `idx`.
#[must_use]
pub fn bucket_lower(idx: usize) -> u64 {
    assert!(idx < LATENCY_BUCKETS, "bucket index out of range");
    if idx < 2 {
        return idx as u64;
    }
    let octave = idx / 2;
    let base = 1u64 << octave;
    base + (idx as u64 % 2) * (base >> 1)
}

/// Inclusive upper bound of bucket `idx` (saturating at `u64::MAX` for
/// the last bucket, whose true upper bound is `2^64 - 1`).
#[must_use]
pub fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 < LATENCY_BUCKETS {
        bucket_lower(idx + 1) - 1
    } else {
        u64::MAX
    }
}

/// A log-bucketed latency histogram (see module docs for the bucket
/// scheme and error bound).
pub struct LatencyHisto {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl std::fmt::Debug for LatencyHisto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHisto")
            .field("count", &self.snapshot().count)
            .finish_non_exhaustive()
    }
}

impl Default for LatencyHisto {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHisto {
    /// An empty histogram (detached from the registry; use [`latency`]
    /// for the interned, exported instruments).
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration. Allocation-free and lock-free; safe from
    /// any worker thread (all updates are commutative).
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        // Saturating CAS add: a run long enough to overflow u64 total
        // nanoseconds must pin the sum rather than wrap the mean.
        let mut sum = self.sum_ns.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(ns);
            match self
                .sum_ns
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => sum = seen,
            }
        }
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        LatencySnapshot {
            counts,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: (count > 0).then(|| self.min_ns.load(Ordering::Relaxed)),
            max_ns: (count > 0).then(|| self.max_ns.load(Ordering::Relaxed)),
        }
    }
}

/// Point-in-time copy of one latency histogram. Snapshots merge, so
/// per-worker or per-run distributions combine into fleet aggregates
/// without re-recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket counts ([`LATENCY_BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Total recorded durations.
    pub count: u64,
    /// Sum of durations in nanoseconds (saturating).
    pub sum_ns: u64,
    /// Smallest recorded duration (`None` when empty).
    pub min_ns: Option<u64>,
    /// Largest recorded duration (`None` when empty).
    pub max_ns: Option<u64>,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        Self {
            counts: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: None,
            max_ns: None,
        }
    }
}

impl LatencySnapshot {
    /// Merges two snapshots; equivalent to one histogram having
    /// recorded the union of both sample sets (counts add, extremes
    /// combine, sums add saturating).
    #[must_use]
    pub fn merge(&self, other: &Self) -> Self {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .zip(&other.counts)
            .map(|(a, b)| a.saturating_add(*b))
            .collect();
        let count: u64 = counts.iter().sum();
        Self {
            counts,
            count,
            sum_ns: self.sum_ns.saturating_add(other.sum_ns),
            min_ns: match (self.min_ns, other.min_ns) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            max_ns: match (self.max_ns, other.max_ns) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Estimates the `p`-quantile (`0 < p ≤ 1`) in nanoseconds: the
    /// inclusive upper bound of the bucket holding the rank-`⌈p·n⌉`
    /// sample, clamped to the recorded maximum. `None` when empty.
    ///
    /// The estimate never under-reports the true quantile and
    /// over-reports by at most 50% (module docs).
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = bucket_upper(idx);
                return Some(self.max_ns.map_or(upper, |m| upper.min(m)));
            }
        }
        self.max_ns
    }

    /// Median estimate (nanoseconds).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile estimate (nanoseconds).
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile estimate (nanoseconds).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile estimate (nanoseconds).
    #[must_use]
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Mean duration in nanoseconds (`None` when empty; saturated sums
    /// make this a floor, not a lie).
    #[must_use]
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }
}

/// The JSON object embedded in the summary's `timing.latency` section:
/// counts, percentile estimates, extremes and the sparse non-zero
/// `[index, count]` bucket list.
impl Node for LatencySnapshot {
    fn to_value(&self) -> Value {
        let pct = |q: Option<u64>| q.map_or(Value::Null, Value::UInt);
        let buckets: Vec<Value> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Arr(vec![Value::UInt(i as u64), Value::UInt(c)]))
            .collect();
        Value::Obj(vec![
            ("count".into(), Value::UInt(self.count)),
            (
                "mean_ns".into(),
                self.mean_ns().map_or(Value::Null, Value::Num),
            ),
            ("p50_ns".into(), pct(self.p50())),
            ("p90_ns".into(), pct(self.p90())),
            ("p99_ns".into(), pct(self.p99())),
            ("p999_ns".into(), pct(self.p999())),
            ("min_ns".into(), pct(self.min_ns)),
            ("max_ns".into(), pct(self.max_ns)),
            ("buckets".into(), Value::Arr(buckets)),
        ])
    }

    /// Parses a snapshot back out of [`Self::to_value`]'s JSON shape
    /// (analyzers reconstruct distributions from artifacts). Percentile
    /// fields are re-derived from the bucket list, so a hand-edited
    /// artifact cannot smuggle in inconsistent estimates.
    fn from_value(v: &Value) -> Result<Self, String> {
        let count: u64 = member(v, "count")?;
        let mut counts = vec![0u64; LATENCY_BUCKETS];
        let mut from_buckets = 0u64;
        for pair in member::<Vec<Vec<u64>>>(v, "buckets")? {
            let [idx, c] = pair[..] else {
                return Err("latency bucket entries must be [index, count] pairs".to_string());
            };
            let slot = usize::try_from(idx)
                .ok()
                .and_then(|i| counts.get_mut(i))
                .ok_or_else(|| format!("bucket index {idx} out of range"))?;
            *slot = slot.saturating_add(c);
            from_buckets = from_buckets.saturating_add(c);
        }
        if from_buckets != count {
            return Err(format!(
                "latency bucket counts sum to {from_buckets}, count says {count}"
            ));
        }
        let mean: Option<f64> = member(v, "mean_ns")?;
        let sum_ns = mean.map_or(0, |m| {
            (m * count as f64).round().min(u64::MAX as f64).max(0.0) as u64
        });
        Ok(Self {
            counts,
            count,
            sum_ns,
            min_ns: member(v, "min_ns")?,
            max_ns: member(v, "max_ns")?,
        })
    }
}

/// Interns a latency histogram by path in the current registry. Hot call
/// sites fetch the `Arc` handle once per owner; every histogram exports
/// under the summary's `timing` section (latency is wall-clock by
/// definition).
#[must_use]
pub fn latency(path: &str) -> Arc<LatencyHisto> {
    with_tables(|t| intern(&mut t.latency, path, Arc::default))
}

/// Snapshots every latency histogram of the current registry, sorted by
/// path.
#[must_use]
pub fn snapshot_latency() -> Vec<(String, LatencySnapshot)> {
    with_tables(|t| {
        t.latency
            .iter()
            .map(|(p, h)| (p.clone(), h.snapshot()))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn bucket_index_bounds_are_consistent() {
        for idx in 0..LATENCY_BUCKETS {
            let lo = bucket_lower(idx);
            let hi = bucket_upper(idx);
            assert!(lo <= hi, "bucket {idx}: lo {lo} > hi {hi}");
            assert_eq!(bucket_index(lo), idx, "lower bound of bucket {idx}");
            assert_eq!(bucket_index(hi), idx, "upper bound of bucket {idx}");
            if idx > 0 {
                assert_eq!(bucket_upper(idx - 1), lo - 1, "buckets must tile");
            }
        }
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_upper(LATENCY_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn two_buckets_per_octave() {
        // Octave 4 is [16, 32): split at 24.
        assert_eq!(bucket_index(16), 8);
        assert_eq!(bucket_index(23), 8);
        assert_eq!(bucket_index(24), 9);
        assert_eq!(bucket_index(31), 9);
        assert_eq!(bucket_index(32), 10);
    }

    #[test]
    fn quantiles_bound_true_values() {
        let h = LatencyHisto::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        for (p, exact) in [(0.5, 500u64), (0.9, 900), (0.99, 990), (0.999, 999)] {
            let est = s.quantile(p).unwrap();
            assert!(est >= exact, "p{p}: {est} < exact {exact}");
            assert!(est <= exact * 3 / 2 + 1, "p{p}: {est} > 1.5x {exact}");
        }
    }

    #[test]
    fn empty_and_single_sample() {
        let s = LatencySnapshot::default();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.mean_ns(), None);
        let h = LatencyHisto::new();
        h.record(700);
        let s = h.snapshot();
        // Clamped to the recorded max: a single sample reports itself.
        assert_eq!(s.p50(), Some(700));
        assert_eq!(s.p999(), Some(700));
        assert_eq!(s.min_ns, Some(700));
    }

    #[test]
    fn overflow_values_saturate() {
        let h = LatencyHisto::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.counts[LATENCY_BUCKETS - 1], 2);
        assert_eq!(s.sum_ns, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(s.p50(), Some(u64::MAX));
    }

    #[test]
    fn merge_equals_union() {
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        let all = LatencyHisto::new();
        for v in [3u64, 17, 17, 250, 9_000, 1_000_000] {
            all.record(v);
            if v < 100 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        assert_eq!(a.snapshot().merge(&b.snapshot()), all.snapshot());
        assert_eq!(b.snapshot().merge(&a.snapshot()), all.snapshot());
    }

    #[test]
    fn value_round_trip() {
        let h = LatencyHisto::new();
        for v in [5u64, 80, 80, 4096, 123_456_789] {
            h.record(v);
        }
        let snap = h.snapshot();
        let parsed = LatencySnapshot::from_value(&snap.to_value()).expect("round trip");
        assert_eq!(parsed.counts, snap.counts);
        assert_eq!(parsed.count, snap.count);
        assert_eq!(parsed.min_ns, snap.min_ns);
        assert_eq!(parsed.max_ns, snap.max_ns);
        assert_eq!(parsed.p99(), snap.p99());
    }

    #[test]
    fn from_value_rejects_inconsistent_counts() {
        let h = LatencyHisto::new();
        h.record(10);
        let mut v = h.snapshot().to_value();
        if let Value::Obj(fields) = &mut v {
            fields[0].1 = Value::UInt(99);
        }
        assert!(LatencySnapshot::from_value(&v)
            .unwrap_err()
            .contains("sum to"));
    }

    #[test]
    fn registry_interns_and_resets() {
        let reg = Registry::new();
        reg.scope(|| {
            let a = latency("test.latency.interns");
            let b = latency("test.latency.interns");
            a.record(42);
            assert_eq!(b.snapshot().count, 1, "same path must be the same histo");
        });
        // A fresh registry is the reset; the first keeps its samples.
        assert!(Registry::new().scope(snapshot_latency).is_empty());
        assert_eq!(reg.scope(snapshot_latency)[0].1.count, 1);
    }
}
