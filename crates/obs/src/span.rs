//! The span layer: a hierarchical wall-clock timing tree.
//!
//! Spans are named by `/`-separated paths (`"engine/tick/match"`); each
//! path accumulates a call count and total/max elapsed nanoseconds, so
//! a hot loop (the simulator records three spans per two-minute tick)
//! costs two `Instant::now()` reads and three relaxed atomic adds per
//! span — no allocation after the first lookup. The per-path
//! accumulation *is* the per-tick timing tree folded over the run:
//! siblings compare wall-clock within a tick, parents contain children
//! by path prefix.
//!
//! Everything here is wall-clock and therefore **non-deterministic** —
//! exports place span data in the `timing` section, and report text
//! derived from spans must be wrapped in [`crate::timing_block`] so
//! determinism tests can mask it.

use crate::registry::{intern, with_tables};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Accumulated timing for one span path.
#[derive(Debug, Default)]
pub struct SpanStat {
    calls: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    /// Folds one measured duration into the accumulator.
    pub fn record_ns(&self, ns: u64) {
        self.record_batch(1, ns, ns);
    }

    /// Folds `calls` durations measured elsewhere, totalling `total_ns`
    /// with the longest `max_ns`, into the accumulator: the state the
    /// same calls through [`record_ns`](Self::record_ns) would leave.
    /// `calls == 0` records nothing.
    pub fn record_batch(&self, calls: u64, total_ns: u64, max_ns: u64) {
        if calls == 0 {
            return;
        }
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.total_ns.fetch_add(total_ns, Ordering::Relaxed);
        self.max_ns.fetch_max(max_ns, Ordering::Relaxed);
    }

    /// Point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> SpanSnapshot {
        SpanSnapshot {
            calls: self.calls.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one span's accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans on this path.
    pub calls: u64,
    /// Total elapsed nanoseconds across all calls.
    pub total_ns: u64,
    /// Longest single call, nanoseconds.
    pub max_ns: u64,
}

impl SpanSnapshot {
    /// Mean call duration in microseconds (`0` when never called).
    #[must_use]
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e3 / self.calls as f64
        }
    }
}

/// Interns a span path in the current registry and returns its
/// accumulator. Hot call sites fetch the handle once when their owner is
/// built and time through [`SpanStat::record_ns`] or [`time_stat`].
#[must_use]
pub fn timer(path: &str) -> Arc<SpanStat> {
    with_tables(|t| intern(&mut t.spans, path, Arc::default))
}

/// Starts a span on `path`; the elapsed time records when the returned
/// guard drops.
#[must_use]
pub fn span(path: &str) -> SpanGuard {
    SpanGuard {
        stat: timer(path),
        start: Instant::now(),
    }
}

/// Times a closure against an already-interned span accumulator (the
/// zero-lookup hot path).
pub fn time_stat<R>(stat: &SpanStat, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    stat.record_ns(elapsed_ns(start));
    out
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An in-flight span; records its elapsed time into the tree on drop.
#[derive(Debug)]
pub struct SpanGuard {
    stat: Arc<SpanStat>,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.stat.record_ns(elapsed_ns(self.start));
    }
}

/// Snapshots the current registry's timing tree, sorted by path
/// (parents precede children because a path is a prefix of its
/// descendants).
#[must_use]
pub fn snapshot_spans() -> Vec<(String, SpanSnapshot)> {
    with_tables(|t| {
        t.spans
            .iter()
            .map(|(p, s)| (p.clone(), s.snapshot()))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn guard_records_on_drop() {
        let reg = Registry::new();
        reg.scope(|| {
            let _g = span("test.span.guard");
            std::hint::black_box(42);
        });
        assert_eq!(reg.scope(snapshot_spans)[0].1.calls, 1);
    }

    #[test]
    fn record_accumulates_totals_and_max() {
        let stat = SpanStat::default();
        stat.record_ns(10);
        stat.record_ns(30);
        stat.record_ns(20);
        let s = stat.snapshot();
        assert_eq!(s.calls, 3);
        assert_eq!(s.total_ns, 60);
        assert_eq!(s.max_ns, 30);
        assert!((s.mean_us() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn snapshot_sorted_parents_before_children() {
        let reg = Registry::new();
        reg.scope(|| {
            let _ = timer("test.tree/a/b");
            let _ = timer("test.tree/a");
            let _ = timer("test.tree");
        });
        let snap = reg.scope(snapshot_spans);
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["test.tree", "test.tree/a", "test.tree/a/b"]);
    }

    #[test]
    fn record_batch_equals_per_call_records() {
        let (one, batch) = (SpanStat::default(), SpanStat::default());
        for ns in [10, 30, 20] {
            one.record_ns(ns);
        }
        batch.record_batch(2, 40, 30);
        batch.record_batch(0, 0, 99);
        batch.record_batch(1, 20, 20);
        assert_eq!(batch.snapshot(), one.snapshot());
    }

    #[test]
    fn mean_of_empty_span_is_zero() {
        assert_eq!(SpanSnapshot::default().mean_us(), 0.0);
    }
}
