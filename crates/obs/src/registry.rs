//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Recording is lock-free after the first lookup (plain atomic
//! read-modify-writes), so instruments can be hit from inside
//! `mmog-par` workers without serialising the fan-out. Hot call
//! sites fetch the `Arc` handle once when their owner is built, so the
//! name lookup happens once per owner, not once per record. Which
//! [`Registry`] a lookup lands in is the caller's scope (see there).
//!
//! # Determinism contract
//!
//! Exported *semantic* values must be byte-identical for any `--jobs`
//! setting. Every instrument therefore only offers operations that are
//! commutative and associative over integers, so the result is
//! independent of thread interleaving:
//!
//! - counters add unsigned integers (saturating at `u64::MAX`);
//! - gauges are only deterministic through [`Gauge::set_max`] /
//!   [`Gauge::set_min`]; plain [`Gauge::set`] is last-write-wins and
//!   belongs in the [`Domain::Timing`] section only;
//! - histograms count observations into fixed buckets and accumulate
//!   the sum/min/max in integer **micro-units** (`round(v × 1e6)`), so
//!   no float addition order can leak into the export.
//!
//! Wall-clock measurements are inherently non-deterministic; register
//! them under [`Domain::Timing`] so exports and determinism tests can
//! mask them out as one block.

use crate::latency::LatencyHisto;
use crate::span::SpanStat;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Which export section an instrument belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Deterministic values: byte-identical across runs and `--jobs`.
    Semantic,
    /// Wall-clock / scheduling-dependent values, masked by determinism
    /// tests.
    Timing,
}

/// A monotonically increasing counter (saturating at `u64::MAX`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An integer gauge.
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }
}

impl Gauge {
    /// Sets the value (last write wins — only deterministic from serial
    /// code; use [`Self::set_max`] from parallel regions).
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (commutative, so deterministic
    /// from any thread).
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Lowers the gauge to `v` if smaller (commutative).
    pub fn set_min(&self, v: i64) {
        self.value.fetch_min(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Converts a float observation to integer micro-units, the histogram's
/// internal accumulation domain.
#[must_use]
pub fn to_micros(v: f64) -> i64 {
    let scaled = (v * 1e6).round();
    if scaled >= i64::MAX as f64 {
        i64::MAX
    } else if scaled <= i64::MIN as f64 {
        i64::MIN
    } else {
        scaled as i64
    }
}

/// A fixed-bucket histogram.
///
/// `bounds` are inclusive upper bounds in ascending order; an implicit
/// final bucket catches everything above the last bound, so a histogram
/// with `n` bounds has `n + 1` buckets.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    sum_micros: AtomicI64,
    min_micros: AtomicI64,
    max_micros: AtomicI64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicI64::new(0),
            min_micros: AtomicI64::new(i64::MAX),
            max_micros: AtomicI64::new(i64::MIN),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` at once, leaving exactly the
    /// state `n` calls of [`record`](Self::record) would (the sum wraps
    /// the same way). `n == 0` records nothing.
    pub fn record_n(&self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(n, Ordering::Relaxed);
        let m = to_micros(v);
        // Two's-complement wrapping: `n` adds of `m` equal one add of
        // `m × n`, whatever the signs.
        self.sum_micros
            .fetch_add(m.wrapping_mul(n as i64), Ordering::Relaxed);
        self.min_micros.fetch_min(m, Ordering::Relaxed);
        self.max_micros.fetch_max(m, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The bucket upper bounds this histogram was registered with.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// A consistent copy of the histogram state.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            count,
            counts,
            sum_micros: self.sum_micros.load(Ordering::Relaxed),
            min_micros: (count > 0).then(|| self.min_micros.load(Ordering::Relaxed)),
            max_micros: (count > 0).then(|| self.max_micros.load(Ordering::Relaxed)),
        }
    }
}

crate::object_node! {
    /// Point-in-time copy of one histogram.
    #[derive(Debug, Clone, PartialEq)]
    pub struct HistogramSnapshot {
        /// Bucket upper bounds (ascending; the last bucket is unbounded).
        pub bounds: Vec<f64>,
        /// Per-bucket observation counts (`bounds.len() + 1` entries).
        pub counts: Vec<u64>,
        /// Total observations.
        pub count: u64,
        /// Sum of observations in micro-units.
        pub sum_micros: i64,
        /// Smallest observation in micro-units (`None` when empty).
        pub min_micros: Option<i64>,
        /// Largest observation in micro-units (`None` when empty).
        pub max_micros: Option<i64>,
    }
    check = HistogramSnapshot::check
}

impl HistogramSnapshot {
    /// Mean observation value (in the original unit), `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_micros as f64 / 1e6 / self.count as f64)
    }

    /// The invariants [`Histogram::snapshot`] keeps, checked on parse:
    /// strictly ascending bounds, one more bucket than bounds, and a
    /// `count` equal to the bucket sum.
    fn check(&self) -> Result<(), String> {
        if !self.bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err("bounds must be strictly ascending".to_string());
        }
        if self.counts.len() != self.bounds.len() + 1 {
            return Err(format!(
                "counts must have bounds+1 entries ({} vs {})",
                self.counts.len(),
                self.bounds.len()
            ));
        }
        let sum = self
            .counts
            .iter()
            .try_fold(0u64, |sum, &c| sum.checked_add(c));
        match sum {
            Some(sum) if sum == self.count => Ok(()),
            Some(sum) => Err(format!("count {} != bucket sum {sum}", self.count)),
            None => Err("bucket counts overflow u64".to_string()),
        }
    }
}

/// One set of instruments: the metrics (counters, gauges, histograms),
/// the span tree and the latency histograms.
///
/// A `Registry` is a cheap handle; clones share the instruments. Every
/// recording and snapshot function of this crate ([`counter`],
/// [`crate::span()`], [`crate::latency()`], [`snapshot_metrics`],
/// [`crate::Summary::capture`], …) works on the current thread's
/// innermost [`Registry::scope`], else on the one process default.
/// Handles stay bound to the registry they came from, so owners fetch
/// theirs when they are built (inside the caller's scope), never in a
/// static.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    tables: Arc<Mutex<Tables>>,
}

#[derive(Debug, Default)]
pub(crate) struct Tables {
    counters: BTreeMap<String, (Domain, Arc<Counter>)>,
    gauges: BTreeMap<String, (Domain, Arc<Gauge>)>,
    histograms: BTreeMap<String, (Domain, Arc<Histogram>)>,
    pub(crate) spans: BTreeMap<String, Arc<SpanStat>>,
    pub(crate) latency: BTreeMap<String, Arc<LatencyHisto>>,
}

thread_local! {
    /// The registry of the innermost [`Registry::scope`] on this thread.
    static SCOPE: RefCell<Option<Registry>> = const { RefCell::new(None) };
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current thread's innermost scoped registry, else the process
    /// default (what code outside any scope records into).
    #[must_use]
    pub fn current() -> Registry {
        static DEFAULT: OnceLock<Registry> = OnceLock::new();
        SCOPE
            .with(|s| s.borrow().clone())
            .unwrap_or_else(|| DEFAULT.get_or_init(Registry::new).clone())
    }

    /// Runs `f` with `self` as the current thread's registry. Scopes nest
    /// (the previous one returns when `f` does, or panics) and never fold
    /// into the enclosing registry. `mmog_par::scoped` wraps this and
    /// also fixes the jobs value and carries both into worker threads.
    pub fn scope<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Registry>);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPE.with(|s| *s.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(SCOPE.with(|s| s.replace(Some(self.clone()))));
        f()
    }
}

/// Runs `f` on the current registry's tables.
pub(crate) fn with_tables<R>(f: impl FnOnce(&mut Tables) -> R) -> R {
    let registry = Registry::current();
    let mut tables = registry
        .tables
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(&mut tables)
}

/// Interns `name` in `map`: the first use builds the entry (and so fixes
/// a metric's domain and bounds), later uses return it unchanged.
pub(crate) fn intern<T: Clone>(
    map: &mut BTreeMap<String, T>,
    name: &str,
    make: impl FnOnce() -> T,
) -> T {
    map.entry(name.to_string()).or_insert_with(make).clone()
}

/// Interns a counter by name in the current registry. The first
/// registration fixes the domain.
#[must_use]
pub fn counter(name: &str, domain: Domain) -> Arc<Counter> {
    with_tables(|t| intern(&mut t.counters, name, || (domain, Arc::default())).1)
}

/// Interns a gauge by name in the current registry. The first
/// registration fixes the domain.
#[must_use]
pub fn gauge(name: &str, domain: Domain) -> Arc<Gauge> {
    with_tables(|t| intern(&mut t.gauges, name, || (domain, Arc::default())).1)
}

/// Interns a histogram by name in the current registry. The first
/// registration fixes the domain and the bucket bounds; later
/// registrations return the existing instrument unchanged.
#[must_use]
pub fn histogram(name: &str, domain: Domain, bounds: &[f64]) -> Arc<Histogram> {
    let make = || (domain, Arc::new(Histogram::new(bounds)));
    with_tables(|t| intern(&mut t.histograms, name, make).1)
}

/// Point-in-time copy of the whole registry, sorted by name within each
/// instrument kind.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: Vec<(String, Domain, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, Domain, i64)>,
    /// Histogram states.
    pub histograms: Vec<(String, Domain, HistogramSnapshot)>,
}

/// Snapshots every instrument of the current registry (sorted by name,
/// so rendering the snapshot is deterministic).
#[must_use]
pub fn snapshot_metrics() -> MetricsSnapshot {
    with_tables(|t| MetricsSnapshot {
        counters: t
            .counters
            .iter()
            .map(|(n, (d, c))| (n.clone(), *d, c.get()))
            .collect(),
        gauges: t
            .gauges
            .iter()
            .map(|(n, (d, g))| (n.clone(), *d, g.get()))
            .collect(),
        histograms: t
            .histograms
            .iter()
            .map(|(n, (d, h))| (n.clone(), *d, h.snapshot()))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_saturates() {
        let c = Counter::default();
        c.add(5);
        c.incr();
        assert_eq!(c.get(), 6);
        c.add(u64::MAX - 3);
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_max_min_and_add() {
        let g = Gauge::default();
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        g.set_min(-5);
        g.set_min(0);
        assert_eq!(g.get(), -5);
        g.add(15);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 2.0, 5.0]);
        // Exactly on a bound lands in that bound's bucket.
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 5.1, 100.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 2, 2]);
        assert_eq!(s.count, 8);
        assert_eq!(s.min_micros, Some(500_000));
        assert_eq!(s.max_micros, Some(100_000_000));
    }

    #[test]
    fn histogram_sum_is_integer_micros() {
        let h = Histogram::new(&[10.0]);
        h.record(0.1);
        h.record(0.2);
        h.record(0.3);
        // 0.1 + 0.2 + 0.3 is not 0.6 in f64, but it is in micro-units.
        assert_eq!(h.snapshot().sum_micros, 600_000);
        assert!((h.snapshot().mean().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let (one, batch) = (Histogram::new(&[1.0, 2.0]), Histogram::new(&[1.0, 2.0]));
        // Includes a negative value and a sum that wraps.
        let values = [(0.0, 3), (1.5, 0), (2.0, 2), (-0.25, 5), (9.2e12, 4)];
        for &(v, n) in &values {
            for _ in 0..n {
                one.record(v);
            }
            batch.record_n(v, n);
        }
        assert_eq!(batch.snapshot(), one.snapshot());
        batch.record_n(7.0, 0);
        assert_eq!(batch.snapshot(), one.snapshot(), "n = 0 records nothing");
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new(&[1.0]);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min_micros, None);
        assert_eq!(s.max_micros, None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn micros_conversion_clamps() {
        assert_eq!(to_micros(1.5), 1_500_000);
        assert_eq!(to_micros(-2.25), -2_250_000);
        assert_eq!(to_micros(f64::MAX), i64::MAX);
        assert_eq!(to_micros(f64::MIN), i64::MIN);
    }

    #[test]
    fn registry_interns_and_resets() {
        let reg = Registry::new();
        let (a, b, h) = reg.scope(|| {
            let h = histogram("test.registry.hist", Domain::Semantic, &[1.0, 2.0]);
            let a = counter("test.registry.interns", Domain::Semantic);
            (a, counter("test.registry.interns", Domain::Semantic), h)
        });
        a.add(4);
        assert_eq!(b.get(), 4, "same name must be the same instrument");
        h.record(1.5);
        // A fresh registry is the reset: same names, zero values, and
        // the first registry's handles keep their counts.
        let fresh = Registry::new().scope(snapshot_metrics);
        assert!(fresh.counters.is_empty() && fresh.histograms.is_empty());
        let snap = reg.scope(snapshot_metrics);
        assert_eq!(snap.counters[0].2, 4);
        assert_eq!(snap.histograms[0].2.count, 1);
    }

    #[test]
    fn recording_resolves_the_innermost_scope() {
        let (outer, inner) = (Registry::new(), Registry::new());
        let bump = |n| counter("test.registry.scoped", Domain::Semantic).add(n);
        outer.scope(|| {
            bump(1);
            inner.scope(|| bump(5));
            bump(1);
        });
        let value = |r: &Registry| r.scope(snapshot_metrics).counters[0].2;
        assert_eq!(value(&outer), 2);
        assert_eq!(value(&inner), 5, "the inner scope does not fold outward");
        let leaked = snapshot_metrics()
            .counters
            .iter()
            .any(|(n, _, _)| n == "test.registry.scoped");
        assert!(!leaked, "scoped recording never reaches the default");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let snap = Registry::new().scope(|| {
            let _ = counter("test.snap.b", Domain::Semantic);
            let _ = counter("test.snap.a", Domain::Timing);
            snapshot_metrics()
        });
        let names: Vec<&str> = snap.counters.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["test.snap.a", "test.snap.b"]);
    }
}
