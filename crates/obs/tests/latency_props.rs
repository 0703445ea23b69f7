//! Property tests for `mmog_obs::latency`: quantile estimates against
//! exact sorted-sample quantiles, the documented per-bucket error
//! bound, and snapshot merging.
//!
//! The contract under test (see the module docs): for the true
//! `p`-quantile `q` of the recorded sample set, the estimate `e`
//! satisfies `q ≤ e ≤ 1.5·q + 1` — never an under-report, at most one
//! sub-octave step of over-report — and `merge(a, b)` is
//! indistinguishable from having recorded the union into one histogram.

use mmog_obs::json::Node;
use mmog_obs::latency::{bucket_index, bucket_lower, bucket_upper, LatencyHisto, LATENCY_BUCKETS};
use proptest::prelude::*;

/// Strategy: a latency sample with a bias toward realistic tick-stage
/// scales (ns..s) but covering the full `u64` range including the
/// saturating top octave.
fn sample() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..6).prop_map(|(raw, bias)| match bias {
        0 => raw % 1_000,            // sub-microsecond
        1 => raw % 1_000_000,        // sub-millisecond
        2 => raw % 1_000_000_000,    // sub-second
        3 => raw % 60_000_000_000,   // up to a minute
        4 => u64::MAX - raw % 1_000, // saturating top buckets
        _ => raw,                    // anywhere
    })
}

/// Exact quantile by the same rank rule the histogram documents:
/// the rank-`⌈p·n⌉` smallest sample (1-based).
fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #[test]
    fn quantiles_stay_within_the_bucket_error_bound(
        values in prop::collection::vec(sample(), 1..200),
    ) {
        let h = LatencyHisto::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        let mut sorted = values;
        sorted.sort_unstable();
        prop_assert_eq!(snap.min_ns, sorted.first().copied());
        prop_assert_eq!(snap.max_ns, sorted.last().copied());
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = exact_quantile(&sorted, p);
            let est = snap.quantile(p).expect("non-empty");
            prop_assert!(est >= exact, "p{p}: estimate {est} under-reports {exact}");
            // 1.5x + 1 admits the integer bucket bounds at tiny values;
            // widened arithmetic keeps the top octave comparable.
            prop_assert!(
                u128::from(est) <= u128::from(exact) * 3 / 2 + 1,
                "p{p}: estimate {est} over-reports {exact} beyond the bucket bound"
            );
        }
    }

    #[test]
    fn merge_is_indistinguishable_from_recording_the_union(
        left in prop::collection::vec(sample(), 0..100),
        right in prop::collection::vec(sample(), 0..100),
    ) {
        let a = LatencyHisto::new();
        let b = LatencyHisto::new();
        let union = LatencyHisto::new();
        for &v in &left {
            a.record(v);
            union.record(v);
        }
        for &v in &right {
            b.record(v);
            union.record(v);
        }
        let merged = a.snapshot().merge(&b.snapshot());
        prop_assert_eq!(&merged, &union.snapshot());
        // Merge is commutative, like recording order.
        prop_assert_eq!(&b.snapshot().merge(&a.snapshot()), &merged);
    }

    #[test]
    fn every_value_lands_in_a_bucket_that_contains_it(v in sample()) {
        let idx = bucket_index(v);
        prop_assert!(idx < LATENCY_BUCKETS);
        prop_assert!(bucket_lower(idx) <= v && v <= bucket_upper(idx));
        // The bucket is narrow enough for the documented bound: its
        // inclusive upper bound is at most 1.5x the lower bound.
        let lo = bucket_lower(idx).max(1);
        prop_assert!(bucket_upper(idx) / lo <= 1, "width must stay sub-octave");
    }

    #[test]
    fn single_sample_reports_itself_at_every_percentile(v in sample()) {
        let h = LatencyHisto::new();
        h.record(v);
        let snap = h.snapshot();
        for p in [0.5, 0.9, 0.99, 0.999, 1.0] {
            prop_assert_eq!(snap.quantile(p), Some(v));
        }
    }

    #[test]
    fn value_encoding_round_trips(values in prop::collection::vec(sample(), 0..60)) {
        let h = LatencyHisto::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let parsed = mmog_obs::LatencySnapshot::from_value(&snap.to_value())
            .expect("own encoding parses");
        prop_assert_eq!(parsed.counts, snap.counts);
        prop_assert_eq!(parsed.count, snap.count);
        prop_assert_eq!(parsed.min_ns, snap.min_ns);
        prop_assert_eq!(parsed.max_ns, snap.max_ns);
        prop_assert_eq!(parsed.quantile(0.99), snap.quantile(0.99));
    }
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let snap = LatencyHisto::new().snapshot();
    assert_eq!(snap.count, 0);
    for p in [0.5, 0.99, 1.0] {
        assert_eq!(snap.quantile(p), None);
    }
    assert_eq!(snap.mean_ns(), None);
    assert_eq!(snap.merge(&snap).count, 0, "merging empties stays empty");
}

#[test]
fn saturating_overflow_is_exact_at_the_top() {
    let h = LatencyHisto::new();
    h.record(u64::MAX);
    h.record(u64::MAX - 1);
    h.record(1);
    let snap = h.snapshot();
    assert_eq!(snap.sum_ns, u64::MAX, "sum saturates instead of wrapping");
    assert_eq!(snap.max_ns, Some(u64::MAX));
    assert_eq!(snap.quantile(1.0), Some(u64::MAX));
    assert_eq!(snap.quantile(0.01), Some(1), "clamped by bucket 1's bound");
}
