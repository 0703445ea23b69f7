//! Fixed-memory, deterministically-downsampled per-metric time series.
//!
//! A [`RingSeries`] holds at most `capacity` points. Every sample is a
//! per-tick value; while fewer than `capacity` buckets exist each point
//! is one tick. When the ring fills, adjacent point pairs are merged
//! (arithmetic mean) into `capacity / 2` points and the bucket stride
//! doubles — so memory is fixed no matter how long the run, and the
//! downsampling decision depends only on the number of samples pushed,
//! never on wall-clock or thread schedule. Pushing the same sample
//! sequence always yields the same points, which is what lets the
//! determinism suite compare exported series byte-for-byte across
//! `--jobs` values.
//!
//! A [`TimeSeries`] groups named series into the same semantic/timing
//! split the rest of the crate uses: semantic series (demand,
//! allocation, shortfall) must be byte-identical across runs, timing
//! series (per-stage p99s, the memo skip rate) are execution-dependent
//! and excluded from determinism comparison. The skip rate sits on the
//! timing side with the `sim.match.skips` counter until the skip
//! accounting moves to the semantic domain.
//!
//! The export document (`TS_<run>.json`, schema [`TS_SCHEMA`]) is
//! collected like the trace: each run submits its rendered document to
//! the time-series [`Collector`](crate::Collector) its sinks carry,
//! under a deterministic label, and the collector's flush writes one
//! file per run in label order.

use crate::flight::sanitize_label;
use crate::json::Value;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every exported time-series document.
pub const TS_SCHEMA: &str = "mmog-obs-ts/v1";

/// Default per-series point capacity.
pub const TS_DEFAULT_CAPACITY: usize = 512;

/// One fixed-memory series: per-tick samples, merged pairwise whenever
/// the ring fills so the stride doubles and memory stays bounded.
#[derive(Debug, Clone)]
pub struct RingSeries {
    capacity: usize,
    stride: u64,
    points: Vec<f64>,
    pending_sum: f64,
    pending_count: u64,
    samples: u64,
}

impl RingSeries {
    /// A series holding at most `capacity` points (clamped to an even
    /// number ≥ 2 so pair-merging is always exact).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = (capacity.max(2)) & !1;
        Self {
            capacity,
            stride: 1,
            points: Vec::new(),
            pending_sum: 0.0,
            pending_count: 0,
            samples: 0,
        }
    }

    /// Appends one per-tick sample.
    pub fn push(&mut self, value: f64) {
        self.samples += 1;
        self.pending_sum += value;
        self.pending_count += 1;
        if self.pending_count == self.stride {
            if self.points.len() == self.capacity {
                // Merge adjacent pairs: capacity points become
                // capacity/2, the stride doubles, and the bucket we
                // just filled is now only half of a (new-stride)
                // bucket, so it stays pending.
                self.points = self
                    .points
                    .chunks(2)
                    .map(|pair| (pair[0] + pair[1]) / 2.0)
                    .collect();
                self.stride *= 2;
            }
            if self.pending_count == self.stride {
                self.points.push(self.pending_sum / self.stride as f64);
                self.pending_sum = 0.0;
                self.pending_count = 0;
            }
        }
    }

    /// Ticks per exported point.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Completed points (mean value per stride-sized bucket).
    #[must_use]
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Total samples pushed (including any trailing partial bucket).
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The series as a JSON object (`stride`, `samples`, `points`).
    #[must_use]
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("stride".to_string(), Value::UInt(self.stride)),
            ("samples".to_string(), Value::UInt(self.samples)),
            (
                "points".to_string(),
                Value::Arr(self.points.iter().map(|&p| Value::Num(p)).collect()),
            ),
        ])
    }
}

/// A named collection of ring series, split into the crate's semantic
/// (deterministic) and timing (wall-clock) domains.
#[derive(Debug)]
pub struct TimeSeries {
    capacity: usize,
    semantic: Vec<(String, RingSeries)>,
    timing: Vec<(String, RingSeries)>,
}

impl TimeSeries {
    /// A collection whose series each hold at most `capacity` points.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            semantic: Vec::new(),
            timing: Vec::new(),
        }
    }

    fn series<'a>(
        table: &'a mut Vec<(String, RingSeries)>,
        capacity: usize,
        name: &str,
    ) -> &'a mut RingSeries {
        if let Some(i) = table.iter().position(|(n, _)| n == name) {
            return &mut table[i].1;
        }
        table.push((name.to_string(), RingSeries::new(capacity)));
        &mut table.last_mut().expect("just pushed").1
    }

    /// Records one per-tick sample of a semantic (deterministic) metric.
    pub fn record_semantic(&mut self, name: &str, value: f64) {
        Self::series(&mut self.semantic, self.capacity, name).push(value);
    }

    /// Records one per-tick sample of a timing (wall-clock) metric.
    pub fn record_timing(&mut self, name: &str, value: f64) {
        Self::series(&mut self.timing, self.capacity, name).push(value);
    }

    /// The semantic subtree alone — what determinism tests compare.
    #[must_use]
    pub fn semantic_value(&self) -> Value {
        Value::Obj(
            self.semantic
                .iter()
                .map(|(n, s)| (n.clone(), s.to_value()))
                .collect(),
        )
    }

    /// The full export document for one run.
    #[must_use]
    pub fn to_value(&self, run: &str, ticks: u64) -> Value {
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(TS_SCHEMA.to_string())),
            ("run".to_string(), Value::Str(run.to_string())),
            ("ticks".to_string(), Value::UInt(ticks)),
            ("capacity".to_string(), Value::UInt(self.capacity as u64)),
            ("semantic".to_string(), self.semantic_value()),
            (
                "timing".to_string(),
                Value::Obj(
                    self.timing
                        .iter()
                        .map(|(n, s)| (n.clone(), s.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn validate_series(section: &str, name: &str, value: &Value, capacity: u64) -> Result<(), String> {
    let stride = value
        .get("stride")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{section}.{name}: missing stride"))?;
    if stride == 0 || (stride & (stride - 1)) != 0 {
        return Err(format!(
            "{section}.{name}: stride {stride} is not a power of two"
        ));
    }
    let samples = value
        .get("samples")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{section}.{name}: missing samples"))?;
    let points = value
        .get("points")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{section}.{name}: missing points array"))?;
    if points.len() as u64 > capacity {
        return Err(format!(
            "{section}.{name}: {} points exceed declared capacity {capacity}",
            points.len()
        ));
    }
    for (i, p) in points.iter().enumerate() {
        if p.as_f64().is_none() {
            return Err(format!("{section}.{name}: point {i} is not a number"));
        }
    }
    let covered = stride * points.len() as u64;
    if samples < covered || samples - covered >= stride {
        return Err(format!(
            "{section}.{name}: {samples} samples inconsistent with {} points of stride {stride}",
            points.len()
        ));
    }
    Ok(())
}

/// Validates a parsed `TS_<run>.json` document against [`TS_SCHEMA`]:
/// envelope fields, and for every series a power-of-two stride, numeric
/// points within capacity, and a sample count consistent with the
/// stride/point accounting.
///
/// # Errors
/// Returns a message naming the first violation.
pub fn validate_ts(value: &Value) -> Result<(), String> {
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema field")?;
    if schema != TS_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{TS_SCHEMA}`"));
    }
    value
        .get("run")
        .and_then(Value::as_str)
        .ok_or("missing run label")?;
    value
        .get("ticks")
        .and_then(Value::as_u64)
        .ok_or("missing ticks")?;
    let capacity = value
        .get("capacity")
        .and_then(Value::as_u64)
        .ok_or("missing capacity")?;
    for section in ["semantic", "timing"] {
        let table = value
            .get(section)
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("missing {section} section"))?;
        for (name, series) in table {
            validate_series(section, name, series, capacity)?;
        }
    }
    Ok(())
}

/// Names every buffered document `TS_<sanitized-label>.json` in `dir`,
/// in write order.
///
/// Two runs can share one label (the same configuration reached from
/// different experiments — trace chunks face the same collision and
/// sort by content), so documents are ordered by (label, semantic
/// section) — never by the wall-clock `timing` section, which would
/// make the ordering jobs-dependent — and later same-label documents
/// get a deterministic `-2`, `-3`, … filename suffix instead of
/// silently overwriting the first.
pub(crate) fn ts_files(dir: &Path, docs: &mut [(String, String)]) -> Vec<(PathBuf, String)> {
    fn semantic_of(doc: &str) -> String {
        crate::json::parse(doc)
            .ok()
            .and_then(|v| v.get("semantic").map(crate::json::Value::render))
            .unwrap_or_default()
    }
    docs.sort_by_cached_key(|(label, doc)| (label.clone(), semantic_of(doc)));
    let mut files = Vec::with_capacity(docs.len());
    let mut prev: Option<(&String, u32)> = None;
    for (label, doc) in docs.iter() {
        let ordinal = match prev {
            Some((p, n)) if p == label => n + 1,
            _ => 1,
        };
        prev = Some((label, ordinal));
        let stem = sanitize_label(label);
        let name = if ordinal == 1 {
            format!("TS_{stem}.json")
        } else {
            format!("TS_{stem}-{ordinal}.json")
        };
        files.push((dir.join(name), doc.clone()));
    }
    files
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn stride_doubles_when_the_ring_fills() {
        let mut s = RingSeries::new(4);
        for i in 0..4 {
            s.push(i as f64);
        }
        assert_eq!(s.stride(), 1);
        assert_eq!(s.points(), &[0.0, 1.0, 2.0, 3.0]);
        // The fifth sample forces a merge: [0.5, 2.5] at stride 2, with
        // the new sample pending in a half-full bucket.
        s.push(10.0);
        assert_eq!(s.stride(), 2);
        assert_eq!(s.points(), &[0.5, 2.5]);
        assert_eq!(s.samples(), 5);
        s.push(20.0);
        assert_eq!(s.points(), &[0.5, 2.5, 15.0]);
    }

    #[test]
    fn downsampling_is_a_pure_function_of_the_sample_sequence() {
        let mut a = RingSeries::new(8);
        let mut b = RingSeries::new(8);
        for i in 0..1000 {
            let v = (i % 17) as f64 * 0.25;
            a.push(v);
            b.push(v);
        }
        assert_eq!(a.stride(), b.stride());
        assert_eq!(a.points(), b.points());
        assert!(a.points().len() <= 8);
        // 1000 samples at the final stride cover every point exactly.
        let covered = a.stride() * a.points().len() as u64;
        assert!(covered <= 1000 && 1000 - covered < a.stride());
    }

    #[test]
    fn export_document_round_trips_through_the_validator() {
        let mut ts = TimeSeries::new(4);
        for i in 0..10 {
            ts.record_semantic("demand_cpu", i as f64);
            ts.record_semantic("alloc_cpu", i as f64 + 1.0);
            ts.record_timing("tick_p99_us", 12.5);
        }
        let doc = ts.to_value("quick seed=7", 10);
        validate_ts(&doc).expect("self-rendered doc must validate");
        let reparsed = json::parse(&doc.render()).unwrap();
        validate_ts(&reparsed).expect("doc must survive a parse round-trip");
    }

    #[test]
    fn validator_names_the_first_violation() {
        let bad_schema = json::parse(r#"{"schema":"nope"}"#).unwrap();
        assert!(validate_ts(&bad_schema).unwrap_err().contains("schema"));

        let bad_stride = json::parse(
            r#"{"schema":"mmog-obs-ts/v1","run":"r","ticks":3,"capacity":4,
               "semantic":{"x":{"stride":3,"samples":3,"points":[1,2,3]}},"timing":{}}"#,
        )
        .unwrap();
        let err = validate_ts(&bad_stride).unwrap_err();
        assert!(err.contains("power of two"), "{err}");

        let bad_count = json::parse(
            r#"{"schema":"mmog-obs-ts/v1","run":"r","ticks":9,"capacity":4,
               "semantic":{"x":{"stride":2,"samples":9,"points":[1,2]}},"timing":{}}"#,
        )
        .unwrap();
        let err = validate_ts(&bad_count).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");
    }

    #[test]
    fn ts_collector_flushes_in_label_order() {
        let dir = std::env::temp_dir().join(format!("mmog-ts-test-{}", std::process::id()));
        let sink = crate::Collector::time_series(&dir);
        let mut ts = TimeSeries::new(4);
        ts.record_semantic("demand_cpu", 1.0);
        sink.submit("b run", ts.to_value("b run", 1).render_pretty());
        sink.submit("a run", ts.to_value("a run", 1).render_pretty());
        let written = sink.flush().unwrap();
        assert_eq!(written.len(), 2);
        assert!(
            written[0].file_name().unwrap().to_str().unwrap()
                < written[1].file_name().unwrap().to_str().unwrap()
        );
        for path in &written {
            let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
            validate_ts(&doc).unwrap();
        }
        // Flushing cleared the buffer: nothing more to write.
        assert!(sink.flush().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ts_collector_suffixes_duplicate_labels_in_semantic_order() {
        // Two runs share a label but differ semantically; submission
        // order is reversed relative to semantic order to prove the sort
        // — not arrival — assigns filenames.
        let sink = crate::Collector::time_series("unused");
        let mut hi = TimeSeries::new(4);
        hi.record_semantic("demand_cpu", 9.0);
        let mut lo = TimeSeries::new(4);
        lo.record_semantic("demand_cpu", 1.0);
        sink.submit("same run", hi.to_value("same run", 1).render_pretty());
        sink.submit("same run", lo.to_value("same run", 1).render_pretty());
        let files = sink.render();
        assert_eq!(files.len(), 2);
        let names: Vec<&str> = files
            .iter()
            .map(|(p, _)| p.file_name().unwrap().to_str().unwrap())
            .collect();
        assert!(
            names[0].ends_with(".json") && !names[0].contains("-2"),
            "{names:?}"
        );
        assert!(names[1].ends_with("-2.json"), "{names:?}");
        // The unsuffixed file holds the semantically-smaller document.
        assert!(files[0].1.contains('1'), "semantic sort puts 1.0 first");
        assert!(files[1].1.contains('9'), "{}", files[1].1);
        for (_, body) in &files {
            validate_ts(&json::parse(body).unwrap()).unwrap();
        }
    }
}
