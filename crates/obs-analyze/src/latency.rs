//! The `latency_report` renderer: percentile tables and ASCII
//! distribution sketches over the log-bucketed snapshots that
//! `mmog_obs::latency` exports in `OBS_summary.json`
//! (`timing.latency`).
//!
//! Everything here is wall-clock-derived presentation — the report is
//! for humans and CI logs, never byte-compared by the determinism
//! suite.

use mmog_obs::json::Value;
use mmog_obs::{LatencySnapshot, LATENCY_BUCKETS};

/// One named distribution pulled out of an artifact.
#[derive(Debug, Clone)]
pub struct NamedSnapshot {
    /// The registry path the distribution was recorded under.
    pub name: String,
    /// The parsed snapshot.
    pub snapshot: LatencySnapshot,
}

/// Extracts every latency snapshot from the `timing.latency` section
/// of a parsed `OBS_summary.json` (path → snapshot). A document without
/// the section yields an empty list.
///
/// # Errors
/// Returns a message when a latency entry is present but malformed —
/// a half-readable artifact is an error, not a shorter report.
pub fn collect_snapshots(doc: &Value) -> Result<Vec<NamedSnapshot>, String> {
    let Some(entries) = doc.get("timing").and_then(|t| t.get("latency")) else {
        return Ok(Vec::new());
    };
    let entries = entries.as_obj().ok_or("timing.latency must be an object")?;
    entries
        .iter()
        .map(|(path, snap)| {
            let snapshot = LatencySnapshot::from_value(snap)
                .map_err(|e| format!("timing.latency.{path}: {e}"))?;
            Ok(NamedSnapshot {
                name: path.clone(),
                snapshot,
            })
        })
        .collect()
}

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
pub fn render_table(snapshots: &[NamedSnapshot]) -> String {
    use std::fmt::Write as _;
    let name_w = snapshots
        .iter()
        .map(|s| s.name.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = format!(
        "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
        "path", "count", "mean", "p50", "p90", "p99", "p99.9", "max"
    );
    for s in snapshots {
        let q = |p: f64| s.snapshot.quantile(p).map_or("-".into(), fmt_ns);
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}",
            s.name,
            s.snapshot.count,
            s.snapshot
                .mean_ns()
                .map_or("-".into(), |m| fmt_ns(m as u64)),
            q(0.5),
            q(0.9),
            q(0.99),
            q(0.999),
            s.snapshot.max_ns.map_or("-".into(), fmt_ns),
        );
    }
    out
}

/// Renders an ASCII sketch of one distribution: one row per occupied
/// bucket, bar lengths proportional to the bucket's share of the count.
#[must_use]
pub fn render_sketch(s: &NamedSnapshot) -> String {
    use std::fmt::Write as _;
    const BAR_W: usize = 40;
    let mut out = format!("{} (n={})\n", s.name, s.snapshot.count);
    let peak = s.snapshot.counts.iter().copied().max().unwrap_or(0);
    if peak == 0 {
        out.push_str("  (empty)\n");
        return out;
    }
    for idx in 0..LATENCY_BUCKETS {
        let count = s.snapshot.counts.get(idx).copied().unwrap_or(0);
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
pub fn render_report(snapshots: &[NamedSnapshot]) -> String {
    let mut out = render_table(snapshots);
    for s in snapshots {
        out.push('\n');
        out.push_str(&render_sketch(s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_obs::LatencyHisto;

    fn named(name: &str, values: &[u64]) -> NamedSnapshot {
        let h = LatencyHisto::new();
        for &v in values {
            h.record(v);
        }
        NamedSnapshot {
            name: name.to_string(),
            snapshot: h.snapshot(),
        }
    }

    #[test]
    fn table_and_sketch_render_the_distribution() {
        let s = named("sim/run/tick", &[800, 1_200, 1_500, 2_000_000, 90_000]);
        let table = render_table(std::slice::from_ref(&s));
        assert!(table.contains("sim/run/tick"), "{table}");
        assert!(table.contains("p99"), "{table}");
        let sketch = render_sketch(&s);
        // Every occupied bucket draws at least one cell.
        assert!(sketch.contains('#'), "{sketch}");
        assert!(sketch.contains("ms"), "{sketch}");
    }

    #[test]
    fn collects_from_the_summary_latency_section() {
        let snap = named("x", &[1_000, 2_000]).snapshot.to_value().render();
        let summary = format!(
            r#"{{"schema":"mmog-obs/v1","timing":{{"latency":{{"sim/run/tick":{snap}}}}}}}"#
        );
        let doc = mmog_obs::json::parse(&summary).unwrap();
        let got = collect_snapshots(&doc).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "sim/run/tick");
        assert_eq!(got[0].snapshot.count, 2);

        // Documents without a latency section are fine and empty.
        let bare = r#"{"schema":"mmog-obs/v1","timing":{"spans":[]}}"#;
        let doc = mmog_obs::json::parse(bare).unwrap();
        assert!(collect_snapshots(&doc).unwrap().is_empty());

        // Malformed latency entries are errors, not omissions.
        let bad = r#"{"timing":{"latency":{"p":{"count":1}}}}"#;
        let doc = mmog_obs::json::parse(bad).unwrap();
        assert!(collect_snapshots(&doc).is_err());
    }
}
