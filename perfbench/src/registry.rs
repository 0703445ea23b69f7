//! Before/after deltas of the process-global registries the program
//! already records into: semantic counters, span timers and latency
//! histograms. The registries are cumulative for the process, so the
//! benchmark snapshots them around the measured work and subtracts.

use mmog_obs::{LatencySnapshot, SpanSnapshot};
use std::collections::BTreeMap;

/// One point-in-time copy of every registry.
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanSnapshot>,
    latency: BTreeMap<String, LatencySnapshot>,
}

impl Snapshot {
    pub fn take() -> Self {
        Self {
            counters: mmog_obs::snapshot_metrics()
                .counters
                .into_iter()
                .map(|(name, _, v)| (name, v))
                .collect(),
            spans: mmog_obs::snapshot_spans().into_iter().collect(),
            latency: mmog_obs::snapshot_latency().into_iter().collect(),
        }
    }
}

/// What happened between two snapshots.
pub struct Delta {
    before: Snapshot,
    after: Snapshot,
}

impl Delta {
    pub fn between(before: Snapshot, after: Snapshot) -> Self {
        Self { before, after }
    }

    /// Counter increase; 0 for a counter never registered.
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).wrapping_sub(get(&self.before))
    }

    /// (calls, seconds) added to a span timer.
    pub fn span(&self, path: &str) -> (u64, f64) {
        let get = |s: &Snapshot| s.spans.get(path).copied().unwrap_or_default();
        let (a, b) = (get(&self.after), get(&self.before));
        (a.calls - b.calls, (a.total_ns - b.total_ns) as f64 / 1e9)
    }

    /// The durations a latency histogram recorded in between.
    pub fn latency(&self, path: &str) -> LatencySnapshot {
        let get = |s: &Snapshot| s.latency.get(path).cloned().unwrap_or_default();
        let (a, b) = (get(&self.after), get(&self.before));
        let counts: Vec<u64> = a.counts.iter().zip(&b.counts).map(|(x, y)| x - y).collect();
        LatencySnapshot {
            count: counts.iter().sum(),
            counts,
            sum_ns: a.sum_ns - b.sum_ns,
            min_ns: None,
            max_ns: None,
        }
    }
}

/// A latency quantile in microseconds (0 when nothing was recorded).
pub fn quantile_us(snap: &LatencySnapshot, p: f64) -> f64 {
    snap.quantile(p).map_or(0.0, |ns| ns as f64 / 1e3)
}
