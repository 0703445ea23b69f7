//! Summary export: `OBS_summary.json` and the human-readable table.
//!
//! The JSON document has exactly two data sections:
//!
//! - `semantic` — counters, gauges and histograms registered under
//!   [`Domain::Semantic`]. Byte-identical across runs and `--jobs`
//!   values; determinism tests compare this section verbatim.
//! - `timing` — wall-clock data: the span tree plus every instrument
//!   registered under [`Domain::Timing`]. Varies run to run;
//!   determinism tests drop this key before comparing.

use crate::event::Event;
use crate::flight::{FlightConfig, FlightRecorder};
use crate::json::Value;
use crate::latency::{snapshot_latency, LatencyHisto, LatencySnapshot};
use crate::registry::{snapshot_metrics, Domain, HistogramSnapshot, MetricsSnapshot};
use crate::span::snapshot_spans;
use std::fmt::Write as _;

/// Schema identifier written into (and checked against) the summary.
pub const SUMMARY_SCHEMA: &str = "mmog-obs/v1";

fn histogram_value(h: &HistogramSnapshot) -> Value {
    Value::Obj(vec![
        (
            "bounds".to_string(),
            Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()),
        ),
        (
            "counts".to_string(),
            Value::Arr(h.counts.iter().map(|&c| Value::UInt(c)).collect()),
        ),
        ("count".to_string(), Value::UInt(h.count)),
        ("sum_micros".to_string(), Value::Int(h.sum_micros)),
        (
            "min_micros".to_string(),
            h.min_micros.map_or(Value::Null, Value::Int),
        ),
        (
            "max_micros".to_string(),
            h.max_micros.map_or(Value::Null, Value::Int),
        ),
    ])
}

fn section(snap: &MetricsSnapshot, domain: Domain) -> Vec<(String, Value)> {
    let counters: Vec<(String, Value)> = snap
        .counters
        .iter()
        .filter(|(_, d, _)| *d == domain)
        .map(|(n, _, v)| (n.clone(), Value::UInt(*v)))
        .collect();
    let gauges: Vec<(String, Value)> = snap
        .gauges
        .iter()
        .filter(|(_, d, _)| *d == domain)
        .map(|(n, _, v)| (n.clone(), Value::Int(*v)))
        .collect();
    let histograms: Vec<(String, Value)> = snap
        .histograms
        .iter()
        .filter(|(_, d, _)| *d == domain)
        .map(|(n, _, h)| (n.clone(), histogram_value(h)))
        .collect();
    vec![
        ("counters".to_string(), Value::Obj(counters)),
        ("gauges".to_string(), Value::Obj(gauges)),
        ("histograms".to_string(), Value::Obj(histograms)),
    ]
}

/// Builds the summary document from the live registry and span tree.
#[must_use]
pub fn summary_value() -> Value {
    let snap = snapshot_metrics();
    let spans: Vec<Value> = snapshot_spans()
        .into_iter()
        .map(|(path, s)| {
            Value::Obj(vec![
                ("path".to_string(), Value::Str(path)),
                ("calls".to_string(), Value::UInt(s.calls)),
                ("total_ns".to_string(), Value::UInt(s.total_ns)),
                ("max_ns".to_string(), Value::UInt(s.max_ns)),
            ])
        })
        .collect();
    let mut timing = section(&snap, Domain::Timing);
    timing.push(("spans".to_string(), Value::Arr(spans)));
    let latency: Vec<(String, Value)> = snapshot_latency()
        .into_iter()
        .map(|(path, s)| (path, s.to_value()))
        .collect();
    timing.push(("latency".to_string(), Value::Obj(latency)));
    timing.push(("obs/self".to_string(), obs_self_value()));
    Value::Obj(vec![
        ("schema".to_string(), Value::Str(SUMMARY_SCHEMA.to_string())),
        (
            "semantic".to_string(),
            Value::Obj(section(&snap, Domain::Semantic)),
        ),
        ("timing".to_string(), Value::Obj(timing)),
    ])
}

/// Renders the summary document as pretty-printed JSON.
#[must_use]
pub fn summary_json() -> String {
    summary_value().render_pretty()
}

/// Records the run's wall-clock duration and the environment it ran
/// in as Timing-domain gauges (`obs.wall_ms`, `obs.jobs`,
/// `obs.logical_cpus`): [`summary_value`] reports the observability
/// plane's overhead against the wall clock, and the regression gate
/// only judges timings recorded in a matching environment. Runners
/// (`all_experiments`, `scale_bench`) call this right before writing
/// the summary.
pub fn note_run(wall_seconds: f64, jobs: usize, logical_cpus: usize) {
    let gauge = |name| crate::registry::gauge(name, Domain::Timing);
    gauge("obs.wall_ms").set((wall_seconds * 1e3).round() as i64);
    gauge("obs.jobs").set(jobs as i64);
    gauge("obs.logical_cpus").set(logical_cpus as i64);
}

/// Times `op()` repeated `n` times, returning mean nanoseconds per
/// iteration.
fn per_op_ns(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let start = std::time::Instant::now();
    for i in 0..n {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

/// The `obs/self` report: what the latency plane itself costs. Record
/// and push counts come from the live instruments; per-operation cost
/// is measured by a short calibration loop at export time (scratch
/// instruments, so the calibration never pollutes the report), and the
/// product is the estimated overhead. `overhead_pct` is reported
/// against the wall-clock installed via [`note_run`] (`null`
/// until a runner installs one).
fn obs_self_value() -> Value {
    let _span = crate::span::span("obs/self/export");
    let latency_records: u64 = snapshot_latency().iter().map(|(_, s)| s.count).sum();
    let own = |name: &str| crate::registry::counter(name, Domain::Timing).get();
    let flight_pushes = own("obs.self.flight_pushes");
    let flight_dropped = own("obs.self.flight_dropped");
    let flight_dumps = own("obs.self.flight_dumps");
    let flight_suppressed = own("obs.self.flight_suppressed");
    let ts_samples = own("obs.self.ts_samples");
    let live_writes = own("obs.self.live_writes");
    // Live-snapshot publishing is file IO, so the engine measures it
    // directly (accumulated nanoseconds) instead of relying on a
    // calibration loop.
    let live_write_ns = own("obs.self.live_write_ns");

    const CAL_ITERS: u64 = 16_384;
    let scratch = LatencyHisto::new();
    let per_record_ns = per_op_ns(CAL_ITERS, |i| scratch.record(i.wrapping_mul(2654435761)));
    std::hint::black_box(scratch.snapshot().count);
    let mut cfg = FlightConfig::new(64);
    cfg.records_capacity = 1024;
    let mut ring = FlightRecorder::new(cfg);
    let per_push_ns = per_op_ns(CAL_ITERS, |i| {
        ring.begin_tick(i);
        ring.push(Event::TickLatency {
            tick: i,
            predict_ns: 1,
            reduce_ns: 2,
            settle_ns: 3,
            tick_ns: 6,
        });
    });
    std::hint::black_box(ring.retained());
    let mut series = crate::timeseries::RingSeries::new(crate::timeseries::TS_DEFAULT_CAPACITY);
    let per_ts_sample_ns = per_op_ns(CAL_ITERS, |i| series.push(i as f64 * 0.5));
    std::hint::black_box(series.samples());

    let overhead_ms = (latency_records as f64 * per_record_ns
        + flight_pushes as f64 * per_push_ns
        + ts_samples as f64 * per_ts_sample_ns
        + live_write_ns as f64)
        / 1e6;
    let wall_ms = crate::registry::gauge("obs.wall_ms", Domain::Timing).get();
    let overhead_pct = (wall_ms > 0).then(|| overhead_ms / wall_ms as f64 * 100.0);
    Value::Obj(vec![
        ("latency_records".into(), Value::UInt(latency_records)),
        ("flight_pushes".into(), Value::UInt(flight_pushes)),
        ("flight_dropped".into(), Value::UInt(flight_dropped)),
        ("flight_dumps".into(), Value::UInt(flight_dumps)),
        ("flight_suppressed".into(), Value::UInt(flight_suppressed)),
        ("ts_samples".into(), Value::UInt(ts_samples)),
        ("live_writes".into(), Value::UInt(live_writes)),
        ("live_write_ns".into(), Value::UInt(live_write_ns)),
        ("per_record_ns".into(), Value::Num(per_record_ns)),
        ("per_push_ns".into(), Value::Num(per_push_ns)),
        ("per_ts_sample_ns".into(), Value::Num(per_ts_sample_ns)),
        ("estimated_overhead_ms".into(), Value::Num(overhead_ms)),
        (
            "wall_ms".into(),
            if wall_ms > 0 {
                Value::Int(wall_ms)
            } else {
                Value::Null
            },
        ),
        (
            "overhead_pct".into(),
            overhead_pct.map_or(Value::Null, Value::Num),
        ),
    ])
}

/// The `semantic` section of a parsed summary, re-rendered compactly —
/// the canonical bytes determinism tests compare.
///
/// # Errors
/// Returns a message when `text` is not a valid summary document.
pub fn semantic_section(text: &str) -> Result<String, String> {
    let doc = crate::json::parse(text)?;
    let semantic = doc.get("semantic").ok_or("missing semantic section")?;
    Ok(semantic.render())
}

/// Validates a summary document against the `mmog-obs/v1` schema.
///
/// # Errors
/// Returns a message describing the first violation found.
pub fn validate_summary(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text)?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(SUMMARY_SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("missing schema field".to_string()),
    }
    for key in ["semantic", "timing"] {
        let sec = doc
            .get(key)
            .ok_or_else(|| format!("missing {key} section"))?;
        for sub in ["counters", "gauges", "histograms"] {
            let obj = sec
                .get(sub)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("{key}.{sub} must be an object"))?;
            for (name, value) in obj {
                match sub {
                    "counters" => {
                        value
                            .as_u64()
                            .ok_or_else(|| format!("{key}.{sub}.{name} must be a u64"))?;
                    }
                    "gauges" => {
                        value
                            .as_i64()
                            .ok_or_else(|| format!("{key}.{sub}.{name} must be an i64"))?;
                    }
                    _ => validate_histogram(name, value)
                        .map_err(|e| format!("{key}.histograms.{name}: {e}"))?,
                }
            }
        }
    }
    let spans = doc
        .get("timing")
        .and_then(|t| t.get("spans"))
        .and_then(Value::as_arr)
        .ok_or("timing.spans must be an array")?;
    for span in spans {
        for field in ["calls", "total_ns", "max_ns"] {
            span.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("span field {field} must be a u64"))?;
        }
        span.get("path")
            .and_then(Value::as_str)
            .ok_or("span field path must be a string")?;
    }
    // Latency and self-instrumentation sections are additive (absent in
    // summaries written before the latency plane existed) but must be
    // well-formed when present.
    let timing = doc.get("timing").expect("checked above");
    if let Some(latency) = timing.get("latency") {
        let entries = latency.as_obj().ok_or("timing.latency must be an object")?;
        for (path, entry) in entries {
            LatencySnapshot::from_value(entry)
                .map_err(|e| format!("timing.latency.{path}: {e}"))?;
        }
    }
    if let Some(own) = timing.get("obs/self") {
        for field in ["latency_records", "flight_pushes", "flight_dumps"] {
            own.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("timing.obs/self.{field} must be a u64"))?;
        }
        own.get("estimated_overhead_ms")
            .and_then(Value::as_f64)
            .ok_or("timing.obs/self.estimated_overhead_ms must be numeric")?;
        // Time-series / live-tap accounting is additive (absent before
        // the live plane existed) but must be u64 counts when present.
        for field in ["ts_samples", "live_writes", "live_write_ns"] {
            if let Some(v) = own.get(field) {
                v.as_u64()
                    .ok_or_else(|| format!("timing.obs/self.{field} must be a u64"))?;
            }
        }
    }
    Ok(())
}

fn validate_histogram(_name: &str, value: &Value) -> Result<(), String> {
    let bounds = value
        .get("bounds")
        .and_then(Value::as_arr)
        .ok_or("bounds must be an array")?;
    let counts = value
        .get("counts")
        .and_then(Value::as_arr)
        .ok_or("counts must be an array")?;
    if counts.len() != bounds.len() + 1 {
        return Err(format!(
            "counts must have bounds+1 entries ({} vs {})",
            counts.len(),
            bounds.len()
        ));
    }
    let count = value
        .get("count")
        .and_then(Value::as_u64)
        .ok_or("count must be a u64")?;
    let sum: u64 = counts.iter().filter_map(Value::as_u64).sum();
    if sum != count {
        return Err(format!("count {count} != bucket sum {sum}"));
    }
    value
        .get("sum_micros")
        .and_then(Value::as_i64)
        .ok_or("sum_micros must be an i64")?;
    Ok(())
}

fn push_rows(out: &mut String, title: &str, rows: &[(String, String)]) {
    if rows.is_empty() {
        return;
    }
    let width = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let _ = writeln!(out, "{title}");
    for (name, value) in rows {
        let _ = writeln!(out, "  {name:<width$}  {value}");
    }
}

/// Renders the live registry and span tree as a human-readable table
/// (the `--metrics` console output). The timing half is wrapped in the
/// standard masking markers.
#[must_use]
pub fn render_summary_table() -> String {
    let snap = snapshot_metrics();
    let mut out = String::from("Observability summary (mmog-obs)\n\n");
    let rows =
        |domain: Domain| -> Vec<(String, String)> {
            let mut rows: Vec<(String, String)> = snap
                .counters
                .iter()
                .filter(|(_, d, _)| *d == domain)
                .map(|(n, _, v)| (n.clone(), v.to_string()))
                .collect();
            rows.extend(
                snap.gauges
                    .iter()
                    .filter(|(_, d, _)| *d == domain)
                    .map(|(n, _, v)| (n.clone(), v.to_string())),
            );
            rows.extend(snap.histograms.iter().filter(|(_, d, _)| *d == domain).map(
                |(n, _, h)| {
                    let mean = h.mean().map_or("-".to_string(), |m| format!("{m:.4}"));
                    (n.clone(), format!("count {}  mean {mean}", h.count))
                },
            ));
            rows
        };
    push_rows(
        &mut out,
        "Semantic counters/gauges/histograms:",
        &rows(Domain::Semantic),
    );
    let mut timing = String::new();
    push_rows(&mut timing, "Timing instruments:", &rows(Domain::Timing));
    let spans = snapshot_spans();
    if !spans.is_empty() {
        let width = spans.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
        let _ = writeln!(timing, "Span tree (total ms / calls / mean us):");
        for (path, s) in &spans {
            let _ = writeln!(
                timing,
                "  {path:<width$}  {:>10.3}  {:>8}  {:>10.2}",
                s.total_ns as f64 / 1e6,
                s.calls,
                s.mean_us()
            );
        }
    }
    if !timing.is_empty() {
        out.push('\n');
        out.push_str(&crate::timing_block(&timing));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn summary_validates_against_own_schema() {
        let c = registry::counter("test.export.counter", Domain::Semantic);
        c.add(3);
        let h = registry::histogram("test.export.hist", Domain::Semantic, &[1.0, 2.0]);
        h.record(0.5);
        let _g = registry::gauge("test.export.gauge", Domain::Timing);
        let _span = crate::span::timer("test.export/span");
        let text = summary_json();
        validate_summary(&text).expect("self-produced summary must validate");
    }

    #[test]
    fn semantic_section_extracts_deterministic_bytes() {
        let c = registry::counter("test.export.sem", Domain::Semantic);
        c.incr();
        let a = semantic_section(&summary_json()).unwrap();
        let b = semantic_section(&summary_json()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("test.export.sem"));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_summary("{}").is_err());
        assert!(validate_summary(r#"{"schema":"other/v9"}"#).is_err());
        let missing_timing =
            r#"{"schema":"mmog-obs/v1","semantic":{"counters":{},"gauges":{},"histograms":{}}}"#;
        assert!(validate_summary(missing_timing).is_err());
        let bad_counter = r#"{"schema":"mmog-obs/v1","semantic":{"counters":{"x":-1},"gauges":{},"histograms":{}},"timing":{"counters":{},"gauges":{},"histograms":{},"spans":[]}}"#;
        assert!(validate_summary(bad_counter).is_err());
        let bad_hist = r#"{"schema":"mmog-obs/v1","semantic":{"counters":{},"gauges":{},"histograms":{"h":{"bounds":[1],"counts":[1],"count":1,"sum_micros":0,"min_micros":null,"max_micros":null}}},"timing":{"counters":{},"gauges":{},"histograms":{},"spans":[]}}"#;
        assert!(validate_summary(bad_hist).is_err());
        let bad_latency = r#"{"schema":"mmog-obs/v1","semantic":{"counters":{},"gauges":{},"histograms":{}},"timing":{"counters":{},"gauges":{},"histograms":{},"spans":[],"latency":{"p":{"count":2,"mean_ns":1,"p50_ns":1,"p90_ns":1,"p99_ns":1,"p999_ns":1,"min_ns":1,"max_ns":1,"buckets":[[1,1]]}}}}"#;
        let err = validate_summary(bad_latency).unwrap_err();
        assert!(err.contains("timing.latency.p"), "{err}");
    }

    #[test]
    fn summary_reports_latency_and_self_overhead() {
        let h = crate::latency::latency("test.export.latency");
        for v in [100u64, 200, 50_000] {
            h.record(v);
        }
        note_run(1.5, 1, 1);
        let doc = summary_value();
        let timing = doc.get("timing").unwrap();
        let lat = timing
            .get("latency")
            .and_then(|l| l.get("test.export.latency"))
            .expect("latency section carries interned histograms");
        assert!(lat.get("count").unwrap().as_u64().unwrap() >= 3);
        let own = timing.get("obs/self").expect("obs/self section");
        assert!(own.get("latency_records").unwrap().as_u64().unwrap() >= 3);
        assert!(own.get("per_record_ns").unwrap().as_f64().unwrap() > 0.0);
        assert!(own.get("overhead_pct").unwrap().as_f64().is_some());
        validate_summary(&summary_json()).expect("extended summary must validate");
    }

    #[test]
    fn table_masks_timing_half() {
        let c = registry::counter("test.export.table", Domain::Semantic);
        c.incr();
        let _ = crate::span::span("test.export.table/span");
        let table = render_summary_table();
        let masked = crate::mask_timing(&table).expect("table timing block is well-formed");
        assert!(masked.contains("test.export.table"));
        assert!(!masked.contains("Span tree"));
    }
}
