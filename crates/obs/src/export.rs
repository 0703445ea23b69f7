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

use crate::flight::{FlightConfig, FlightRecorder};
use crate::json::{self, member, Document, Node, Value};
use crate::latency::{snapshot_latency, LatencyHisto, LatencySnapshot};
use crate::registry::{snapshot_metrics, Domain, HistogramSnapshot, MetricsSnapshot};
use crate::span::{snapshot_spans, SpanSnapshot};
use crate::tick::TickRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema identifier written into (and checked against) the summary.
pub const SUMMARY_SCHEMA: &str = "mmog-obs/v1";

/// The `OBS_summary.json` document as data. Its [`Node`] impl is the
/// document's only writer and [`Summary::parse`] its only reader, so
/// every tool that reads a summary back sees the types that wrote it.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// The `semantic` section: [`Domain::Semantic`] instruments.
    pub semantic: Metrics,
    /// The [`Domain::Timing`] instruments at the head of the `timing`
    /// section.
    pub timing: Metrics,
    /// The span tree (`timing.spans`), sorted by path.
    pub spans: Vec<(String, SpanSnapshot)>,
    /// Every latency histogram (`timing.latency`), by path.
    pub latency: BTreeMap<String, LatencySnapshot>,
    /// What the observability plane itself cost (`timing.obs/self`).
    pub obs_self: ObsSelf,
}

crate::object_node! {
    /// One domain's instruments, by name.
    #[derive(Debug, Clone, Default)]
    pub struct Metrics {
        /// Counter totals.
        pub counters: BTreeMap<String, u64>,
        /// Gauge values.
        pub gauges: BTreeMap<String, i64>,
        /// Histogram states.
        pub histograms: BTreeMap<String, HistogramSnapshot>,
    }
}

impl Metrics {
    /// The instruments of `snap` registered under `domain`.
    fn of(snap: &MetricsSnapshot, domain: Domain) -> Self {
        fn pick<T: Clone>(items: &[(String, Domain, T)], domain: Domain) -> BTreeMap<String, T> {
            let of_domain = items.iter().filter(|(_, d, _)| *d == domain);
            of_domain.map(|(n, _, v)| (n.clone(), v.clone())).collect()
        }
        Self {
            counters: pick(&snap.counters, domain),
            gauges: pick(&snap.gauges, domain),
            histograms: pick(&snap.histograms, domain),
        }
    }
}

/// A span entry renders as one object: its path, then its accumulators.
impl Node for (String, SpanSnapshot) {
    fn to_value(&self) -> Value {
        let (path, s) = self;
        Value::Obj(vec![
            ("path".to_string(), path.to_value()),
            ("calls".to_string(), s.calls.to_value()),
            ("total_ns".to_string(), s.total_ns.to_value()),
            ("max_ns".to_string(), s.max_ns.to_value()),
        ])
    }
    fn from_value(node: &Value) -> Result<Self, String> {
        let span = SpanSnapshot {
            calls: member(node, "calls")?,
            total_ns: member(node, "total_ns")?,
            max_ns: member(node, "max_ns")?,
        };
        Ok((member(node, "path")?, span))
    }
}

/// The whole document: `schema`, `semantic`, then `timing`, which holds
/// the timing instruments followed by `spans`, `latency` and `obs/self`.
impl Node for Summary {
    fn to_value(&self) -> Value {
        let Value::Obj(mut timing) = self.timing.to_value() else {
            unreachable!("an object node renders as an object");
        };
        timing.push(("spans".to_string(), self.spans.to_value()));
        timing.push(("latency".to_string(), self.latency.to_value()));
        timing.push(("obs/self".to_string(), self.obs_self.to_value()));
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(SUMMARY_SCHEMA.to_string())),
            ("semantic".to_string(), self.semantic.to_value()),
            ("timing".to_string(), Value::Obj(timing)),
        ])
    }
    fn from_value(doc: &Value) -> Result<Self, String> {
        json::expect_schema(doc, SUMMARY_SCHEMA)?;
        let timing = doc.get("timing").ok_or("missing `timing`")?;
        let in_timing = |e| format!("`timing`: {e}");
        Ok(Self {
            semantic: member(doc, "semantic")?,
            timing: Metrics::from_value(timing).map_err(in_timing)?,
            spans: member(timing, "spans").map_err(in_timing)?,
            latency: member(timing, "latency").map_err(in_timing)?,
            obs_self: member(timing, "obs/self").map_err(in_timing)?,
        })
    }
}

impl Summary {
    /// Snapshots the current registry (its metrics, span tree and
    /// latency histograms) and measures the plane's own cost.
    #[must_use]
    pub fn capture() -> Self {
        let metrics = snapshot_metrics();
        let spans = snapshot_spans();
        let latency = snapshot_latency().into_iter().collect();
        let obs_self = ObsSelf::measure(&latency);
        Self {
            semantic: Metrics::of(&metrics, Domain::Semantic),
            timing: Metrics::of(&metrics, Domain::Timing),
            spans,
            latency,
            obs_self,
        }
    }
}

/// `OBS_summary.json`; parsing also checks that histograms and latency
/// snapshots are internally consistent.
impl Document for Summary {}

/// Renders the current registry as the summary document text.
#[must_use]
pub fn summary_json() -> String {
    Summary::capture().to_json()
}

/// Records the run's wall-clock duration and the environment it ran
/// in as Timing-domain gauges (`obs.wall_ms`, `obs.jobs`,
/// `obs.logical_cpus`): [`Summary::capture`] reports the observability
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

crate::object_node! {
    /// The `obs/self` block: what the latency plane itself costs. Record
    /// and push counts come from the live instruments; per-operation cost
    /// is measured by a short calibration loop at export time (scratch
    /// instruments, so the calibration never pollutes the report), and the
    /// product is the estimated overhead.
    #[derive(Debug, Clone, Default)]
    pub struct ObsSelf {
        /// Latency samples recorded across every histogram.
        pub latency_records: u64,
        /// Records pushed into flight rings.
        pub flight_pushes: u64,
        /// Flight records evicted before their tick aged out.
        pub flight_dropped: u64,
        /// Flight dumps written.
        pub flight_dumps: u64,
        /// Flight triggers suppressed because their run had already dumped.
        pub flight_suppressed: u64,
        /// Time-series samples taken.
        pub ts_samples: u64,
        /// Live snapshots written.
        pub live_writes: u64,
        /// Nanoseconds spent writing live snapshots, measured directly.
        pub live_write_ns: u64,
        /// Calibrated cost of one latency record.
        pub per_record_ns: f64,
        /// Calibrated cost of one flight push.
        pub per_push_ns: f64,
        /// Calibrated cost of one time-series sample.
        pub per_ts_sample_ns: f64,
        /// The counts above times their per-operation costs.
        pub estimated_overhead_ms: f64,
        /// Run wall clock installed via [`note_run`] (`None` until a runner
        /// installs one).
        pub wall_ms: Option<i64>,
        /// `estimated_overhead_ms` as a percentage of `wall_ms`.
        pub overhead_pct: Option<f64>,
    }
}

impl ObsSelf {
    /// Measures the plane's cost, given the latency snapshots the
    /// summary reports.
    fn measure(latency: &BTreeMap<String, LatencySnapshot>) -> Self {
        let _span = crate::span::span("obs/self/export");
        let own = |name: &str| crate::registry::counter(name, Domain::Timing).get();
        let latency_records: u64 = latency.values().map(|s| s.count).sum();
        let flight_pushes = own("obs.self.flight_pushes");
        let ts_samples = own("obs.self.ts_samples");
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
        let mut record = TickRecord::default();
        let per_push_ns = per_op_ns(CAL_ITERS, |i| {
            ring.begin_tick(i);
            record.tick = i;
            ring.push(record.latency_event());
        });
        std::hint::black_box(ring.retained());
        let mut series = crate::timeseries::RingSeries::new(crate::timeseries::TS_DEFAULT_CAPACITY);
        let per_ts_sample_ns = per_op_ns(CAL_ITERS, |i| series.push(i as f64 * 0.5));
        std::hint::black_box(series.series().samples);

        let estimated_overhead_ms = (latency_records as f64 * per_record_ns
            + flight_pushes as f64 * per_push_ns
            + ts_samples as f64 * per_ts_sample_ns
            + live_write_ns as f64)
            / 1e6;
        let wall_ms =
            Some(crate::registry::gauge("obs.wall_ms", Domain::Timing).get()).filter(|&ms| ms > 0);
        Self {
            latency_records,
            flight_pushes,
            flight_dropped: own("obs.self.flight_dropped"),
            flight_dumps: own("obs.self.flight_dumps"),
            flight_suppressed: own("obs.self.flight_suppressed"),
            ts_samples,
            live_writes: own("obs.self.live_writes"),
            live_write_ns,
            per_record_ns,
            per_push_ns,
            per_ts_sample_ns,
            estimated_overhead_ms,
            wall_ms,
            overhead_pct: wall_ms.map(|ms| estimated_overhead_ms / ms as f64 * 100.0),
        }
    }
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

/// Renders the current registry and span tree as a human-readable table
/// (the `--metrics` console output). The timing half is wrapped in the
/// standard masking markers.
#[must_use]
pub fn render_summary_table() -> String {
    let snap = snapshot_metrics();
    let mut out = String::from("Observability summary (mmog-obs)\n\n");
    let rows = |domain: Domain| -> Vec<(String, String)> {
        let m = Metrics::of(&snap, domain);
        let counters = m.counters.iter().map(|(n, v)| (n.clone(), v.to_string()));
        let gauges = m.gauges.iter().map(|(n, v)| (n.clone(), v.to_string()));
        let histograms = m.histograms.iter().map(|(n, h)| {
            let mean = h.mean().map_or("-".to_string(), |m| format!("{m:.4}"));
            (n.clone(), format!("count {}  mean {mean}", h.count))
        });
        counters.chain(gauges).chain(histograms).collect()
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
    use crate::registry::{self, Registry};

    #[test]
    fn summary_validates_against_own_schema() {
        let text = Registry::new().scope(|| {
            registry::counter("test.export.counter", Domain::Semantic).add(3);
            registry::histogram("test.export.hist", Domain::Semantic, &[1.0, 2.0]).record(0.5);
            let _g = registry::gauge("test.export.gauge", Domain::Timing);
            let _span = crate::span::timer("test.export/span");
            summary_json()
        });
        let parsed = Summary::parse(&text).expect("self-produced summary must parse");
        assert_eq!(parsed.to_json(), text);
    }

    /// A summary holding one semantic histogram.
    fn with_histogram(bounds: &[f64], counts: &[u64], count: u64) -> String {
        let h = HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
            count,
            sum_micros: 0,
            min_micros: None,
            max_micros: None,
        };
        let mut summary = Summary::default();
        summary.semantic.histograms.insert("h".to_string(), h);
        summary.to_json()
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        let parse_err = |text: &str| Summary::parse(text).unwrap_err();
        let good = Summary::default().to_json();
        Summary::parse(&good).expect("an empty summary is well-formed");
        assert!(parse_err("{}").contains("schema"));
        assert!(parse_err(r#"{"schema":"other/v9"}"#).contains("unknown schema"));
        // One format only: the writer's, byte for byte.
        let compact = json::parse(&good).unwrap().render();
        assert!(parse_err(&compact).contains("line 1 differs"));
        let no_timing = good.replace(r#""timing""#, r#""timing_""#);
        assert!(parse_err(&no_timing).contains("missing `timing`"));
        let mut counted = Summary::default();
        counted.semantic.counters.insert("c".to_string(), 424_242);
        let negative = counted.to_json().replace("424242", "-1");
        let err = parse_err(&negative);
        assert!(err.contains("`semantic`: `counters`: `c`"), "{err}");
        // A summary without the `obs/self` block is a partial document.
        let partial = good.replace(r#""obs/self""#, r#""obs/selfish""#);
        assert!(parse_err(&partial).contains("missing `obs/self`"));

        let histogram_err = |text: String| {
            let err = parse_err(&text);
            assert!(err.contains("`histograms`: `h`"), "{err}");
            err
        };
        assert!(histogram_err(with_histogram(&[1.0], &[1], 1)).contains("bounds+1"));
        assert!(histogram_err(with_histogram(&[2.0, 1.0], &[1, 0, 0], 1)).contains("ascending"));
        assert!(histogram_err(with_histogram(&[1.0], &[u64::MAX, 1], 0)).contains("overflow"));
        let x = with_histogram(&[1.0], &[424_242, 0], 424_242).replacen("424242", r#""x""#, 1);
        assert!(histogram_err(x).contains("`counts`: [0]"));

        let mut latency = Summary::default();
        let mut snap = LatencySnapshot::default();
        snap.counts[1] = 1;
        snap.count = 2;
        latency.latency.insert("p".to_string(), snap);
        let err = parse_err(&latency.to_json());
        assert!(err.contains("`latency`: `p`"), "{err}");
    }

    #[test]
    fn summary_reports_latency_and_self_overhead() {
        let text = Registry::new().scope(|| {
            let h = crate::latency::latency("test.export.latency");
            for v in [100u64, 200, 50_000] {
                h.record(v);
            }
            note_run(1.5, 1, 1);
            summary_json()
        });
        let summary = Summary::parse(&text).expect("extended summary must parse");
        let lat = &summary.latency["test.export.latency"];
        assert_eq!(lat.count, 3);
        let own = &summary.obs_self;
        assert_eq!(own.latency_records, 3);
        assert!(own.per_record_ns > 0.0);
        assert!(own.overhead_pct.is_some());
    }

    #[test]
    fn table_masks_timing_half() {
        let table = Registry::new().scope(|| {
            registry::counter("test.export.table", Domain::Semantic).incr();
            let _ = crate::span::span("test.export.table/span");
            render_summary_table()
        });
        let masked = crate::mask_timing(&table).expect("table timing block is well-formed");
        assert!(masked.contains("test.export.table"));
        assert!(!masked.contains("Span tree"));
    }
}
