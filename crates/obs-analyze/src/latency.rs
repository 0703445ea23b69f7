//! The `latency_report` renderer: percentile tables and ASCII
//! distribution sketches over the log-bucketed snapshots that
//! `mmog_obs::latency` exports in `OBS_summary.json`
//! (`timing.latency`), as `mmog_obs::Summary::parse` reads them back:
//! `(path, snapshot)` pairs.
//!
//! Everything here is wall-clock-derived presentation — the report is
//! for humans and CI logs, never byte-compared by the determinism
//! suite.

use mmog_obs::{LatencySnapshot, LATENCY_BUCKETS};

/// Scales nanoseconds into the most readable unit.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns < 1e3 {
        format!("{ns:.0} ns")
    } else if ns < 1e6 {
        format!("{:.1} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

/// Renders the percentile table over a set of named snapshots.
#[must_use]
pub fn render_table(snapshots: &[(String, LatencySnapshot)]) -> String {
    use std::fmt::Write as _;
    let name_w = snapshots
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = format!(
        "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "path", "count", "mean", "p50", "p90", "p99", "p99.9", "max"
    );
    for (name, s) in snapshots {
        let q = |p: f64| s.quantile(p).map_or("-".into(), fmt_ns);
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            name,
            s.count,
            s.mean_ns().map_or("-".into(), |m| fmt_ns(m as u64)),
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            s.max_ns.map_or("-".into(), fmt_ns),
        );
    }
    out
}

/// Renders an ASCII sketch of one distribution: one row per occupied
/// bucket, bar lengths proportional to the bucket's share of the count.
#[must_use]
pub fn render_sketch(name: &str, s: &LatencySnapshot) -> String {
    use std::fmt::Write as _;
    const BAR_W: usize = 40;
    let mut out = format!("{name} (n={})\n", s.count);
    let peak = s.counts.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        out.push_str("  (empty)\n");
        return out;
    }
    for idx in 0..LATENCY_BUCKETS {
        let count = s.counts.get(idx).copied().unwrap_or(0);
        if count == 0 {
            continue;
        }
        // Ceiling keeps every occupied bucket visible with ≥ 1 cell.
        let cells = (count as u128 * BAR_W as u128).div_ceil(u128::from(peak)) as usize;
        let _ = writeln!(
            out,
            "  {:>10} .. {:<10} {:7}  {}",
            fmt_ns(mmog_obs::latency::bucket_lower(idx)),
            fmt_ns(mmog_obs::latency::bucket_upper(idx)),
            count,
            "#".repeat(cells.min(BAR_W)),
        );
    }
    out
}

/// Renders the full report: the percentile table, then one sketch per
/// distribution.
#[must_use]
pub fn render_report(snapshots: &[(String, LatencySnapshot)]) -> String {
    let mut out = render_table(snapshots);
    for (name, s) in snapshots {
        out.push('\n');
        out.push_str(&render_sketch(name, s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_obs::LatencyHisto;

    fn snapshot(values: &[u64]) -> LatencySnapshot {
        let h = LatencyHisto::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn table_and_sketch_render_the_distribution() {
        let s = snapshot(&[800, 1_200, 1_500, 2_000_000, 90_000]);
        let table = render_table(&[("sim/run/tick".to_string(), s.clone())]);
        assert!(table.contains("sim/run/tick"), "{table}");
        assert!(table.contains("p99"), "{table}");
        let sketch = render_sketch("sim/run/tick", &s);
        // Every occupied bucket draws at least one cell.
        assert!(sketch.contains('#'), "{sketch}");
        assert!(sketch.contains("ms"), "{sketch}");
    }
}
