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
//! A run's export document (`TS_<run>.json`, schema [`TS_SCHEMA`]) is
//! one [`TsDocument`]: the eight per-tick series of a [`TickRecord`] as
//! named fields, split into the crate's semantic/timing domains. Semantic
//! series (demand, allocation, shortfall, the settle skip rate) must be
//! byte-identical across runs; timing series (per-stage durations) are
//! execution-dependent and excluded from determinism comparison. The
//! engine records into a `TsDocument<RingSeries>` and exports a
//! `TsDocument<Series>`, whose [`Node`] impl is the document's only
//! writer and [`TsDocument::parse`] its only reader.
//!
//! Documents are collected like the trace: each run submits its
//! rendered document to the time-series [`Collector`](crate::Collector)
//! its sinks carry, under a deterministic label, and the collector's
//! flush writes one file per run in label order.

use crate::flight::sanitize_label;
use crate::json::{Document, Node};
use crate::tick::TickRecord;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every exported time-series document.
pub const TS_SCHEMA: &str = "mmog-obs-ts/v1";

/// Default per-series point capacity.
pub const TS_DEFAULT_CAPACITY: usize = 512;

crate::object_node! {
    /// One series as exported: the completed points and their accounting.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Series {
        /// Ticks per point.
        pub stride: u64,
        /// Samples pushed, including any trailing partial bucket.
        pub samples: u64,
        /// Completed points (mean value per stride-sized bucket).
        pub points: Vec<f64>,
    }
}

impl Series {
    /// The accounting a [`RingSeries`] of `capacity` points keeps after
    /// one sample per tick of a `ticks`-tick run.
    fn check(&self, ticks: u64, capacity: u64) -> Result<(), String> {
        let (stride, samples, points) = (self.stride, self.samples, self.points.len() as u64);
        let covered = stride.saturating_mul(points);
        if !stride.is_power_of_two() {
            Err(format!("stride {stride} is not a power of two"))
        } else if points > capacity {
            Err(format!(
                "{points} points exceed declared capacity {capacity}"
            ))
        } else if samples < covered || samples - covered >= stride {
            Err(format!(
                "{samples} samples inconsistent with {points} points of stride {stride}"
            ))
        } else if samples != ticks {
            Err(format!("{samples} samples, but the run has {ticks} ticks"))
        } else {
            Ok(())
        }
    }
}

/// One fixed-memory series: per-tick samples, merged pairwise whenever
/// the ring fills so the stride doubles and memory stays bounded.
#[derive(Debug, Clone)]
pub struct RingSeries {
    capacity: usize,
    pending_sum: f64,
    pending_count: u64,
    series: Series,
}

impl RingSeries {
    /// A series holding at most `capacity` points (clamped to an even
    /// number ≥ 2 so pair-merging is always exact).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = (capacity.max(2)) & !1;
        Self {
            capacity,
            pending_sum: 0.0,
            pending_count: 0,
            series: Series {
                stride: 1,
                samples: 0,
                points: Vec::new(),
            },
        }
    }

    /// Appends one per-tick sample.
    pub fn push(&mut self, value: f64) {
        let s = &mut self.series;
        s.samples += 1;
        self.pending_sum += value;
        self.pending_count += 1;
        if self.pending_count == s.stride {
            if s.points.len() == self.capacity {
                // Merge adjacent pairs: capacity points become
                // capacity/2, the stride doubles, and the bucket we
                // just filled is now only half of a (new-stride)
                // bucket, so it stays pending.
                s.points = s
                    .points
                    .chunks(2)
                    .map(|pair| (pair[0] + pair[1]) / 2.0)
                    .collect();
                s.stride *= 2;
            }
            if self.pending_count == s.stride {
                s.points.push(self.pending_sum / s.stride as f64);
                self.pending_sum = 0.0;
                self.pending_count = 0;
            }
        }
    }

    /// The completed part of the series; the pending partial bucket is
    /// not exported.
    #[must_use]
    pub fn series(&self) -> &Series {
        &self.series
    }
}

/// Declares a document section: one named series per field, generic
/// over the series type (`RingSeries` while recording, `Series` once
/// exported), with its [`Node`] impl over `Series`.
macro_rules! sections {
    ($($(#[$meta:meta])* $name:ident { $($(#[$fmeta:meta])* $field:ident,)* })*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name<S = Series> {
            $($(#[$fmeta])* pub $field: S,)*
        }

        crate::object_node!($name { $($field),* });

        impl $name<RingSeries> {
            fn rings(capacity: usize) -> Self {
                $name { $($field: RingSeries::new(capacity),)* }
            }

            fn export(&self) -> $name {
                $name { $($field: self.$field.series().clone(),)* }
            }
        }

        impl $name {
            fn check(&self, ticks: u64, capacity: u64) -> Result<(), String> {
                $(self.$field.check(ticks, capacity)
                    .map_err(|e| format!("{}: {e}", stringify!($field)))?;)*
                Ok(())
            }
        }
    )*};
}

sections! {
    /// The semantic series: byte-identical across `--jobs`.
    TsSemantic {
        /// Platform-wide CPU demand.
        demand_cpu,
        /// Platform-wide CPU allocation.
        alloc_cpu,
        /// Unmet CPU demand.
        shortfall_cpu,
        /// Fraction of settle steps that took the provisioner's idle exit.
        match_skip_rate,
    }
    /// The timing series: wall-clock, dropped by determinism comparisons.
    TsTiming {
        /// `predict_score` stage duration.
        predict_ns,
        /// `reduce` stage duration.
        reduce_ns,
        /// `match_settle` stage duration (zero on ticks without one).
        settle_ns,
        /// Whole-tick duration.
        tick_ns,
    }
}

/// One run's `TS_<run>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct TsDocument<S = Series> {
    /// Run label (same label the trace chunk uses).
    pub run: String,
    /// Ticks the run executed: every series holds one sample per tick.
    pub ticks: u64,
    /// Point capacity of every series.
    pub capacity: u64,
    /// The deterministic series.
    pub semantic: TsSemantic<S>,
    /// The wall-clock series.
    pub timing: TsTiming<S>,
}

crate::object_node!(
    TsDocument {
        run,
        ticks,
        capacity,
        semantic,
        timing,
    },
    schema = TS_SCHEMA,
    check = TsDocument::check
);

impl TsDocument<RingSeries> {
    /// An empty recorder for a `ticks`-tick run whose series each hold
    /// at most `capacity` points.
    #[must_use]
    pub fn recorder(run: &str, ticks: u64, capacity: usize) -> Self {
        Self {
            run: run.to_string(),
            ticks,
            capacity: capacity as u64,
            semantic: TsSemantic::rings(capacity),
            timing: TsTiming::rings(capacity),
        }
    }

    /// Appends one tick's sample to every series.
    pub fn push(&mut self, rec: &TickRecord) {
        let (s, t) = (&mut self.semantic, &mut self.timing);
        s.demand_cpu.push(rec.demand_cpu);
        s.alloc_cpu.push(rec.alloc_cpu);
        s.shortfall_cpu.push(rec.shortfall_cpu);
        s.match_skip_rate.push(rec.skip_rate());
        t.predict_ns.push(rec.predict_ns as f64);
        t.reduce_ns.push(rec.reduce_ns as f64);
        t.settle_ns.push(rec.settle_ns as f64);
        t.tick_ns.push(rec.tick_ns as f64);
    }

    /// The document as exported.
    #[must_use]
    pub fn export(&self) -> TsDocument {
        TsDocument {
            run: self.run.clone(),
            ticks: self.ticks,
            capacity: self.capacity,
            semantic: self.semantic.export(),
            timing: self.timing.export(),
        }
    }
}

/// `TS_<run>.json`; parsing also checks that every series keeps a
/// ring's accounting: a power-of-two stride, points within `capacity`,
/// samples consistent with stride × points, and one sample per tick.
impl Document for TsDocument {}

impl TsDocument {
    fn check(&self) -> Result<(), String> {
        let (ticks, capacity) = (self.ticks, self.capacity);
        let semantic = self.semantic.check(ticks, capacity);
        semantic.map_err(|e| format!("semantic.{e}"))?;
        let timing = self.timing.check(ticks, capacity);
        timing.map_err(|e| format!("timing.{e}"))
    }
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
        TsDocument::parse(doc)
            .map(|d| d.semantic.to_value().render())
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

    #[test]
    fn stride_doubles_when_the_ring_fills() {
        let mut s = RingSeries::new(4);
        for i in 0..4 {
            s.push(i as f64);
        }
        assert_eq!(s.series().stride, 1);
        assert_eq!(s.series().points, [0.0, 1.0, 2.0, 3.0]);
        // The fifth sample forces a merge: [0.5, 2.5] at stride 2, with
        // the new sample pending in a half-full bucket.
        s.push(10.0);
        assert_eq!(s.series().stride, 2);
        assert_eq!(s.series().points, [0.5, 2.5]);
        assert_eq!(s.series().samples, 5);
        s.push(20.0);
        assert_eq!(s.series().points, [0.5, 2.5, 15.0]);
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
        let (a, b) = (a.series(), b.series());
        assert_eq!(a, b);
        assert!(a.points.len() <= 8);
        // 1000 samples at the final stride cover every point exactly.
        a.check(1000, 8).expect("ring accounting holds");
    }

    /// A `ticks`-tick recording at `capacity` points per series, every
    /// series sampling `value(t)`.
    fn recorded(run: &str, ticks: u64, capacity: usize, value: impl Fn(u64) -> f64) -> TsDocument {
        let mut ts = TsDocument::recorder(run, ticks, capacity);
        for t in 0..ticks {
            let (s, tm) = (&mut ts.semantic, &mut ts.timing);
            for series in [
                &mut s.demand_cpu,
                &mut s.alloc_cpu,
                &mut s.shortfall_cpu,
                &mut s.match_skip_rate,
                &mut tm.predict_ns,
                &mut tm.reduce_ns,
                &mut tm.settle_ns,
                &mut tm.tick_ns,
            ] {
                series.push(value(t));
            }
        }
        ts.export()
    }

    #[test]
    fn export_document_round_trips_through_the_parser() {
        let doc = recorded("quick seed=7", 10, 4, |t| t as f64 * 0.5);
        assert_eq!(doc.semantic.demand_cpu.stride, 4, "the rings halved twice");
        assert_eq!(TsDocument::parse(&doc.to_json()), Ok(doc));
    }

    #[test]
    fn parser_names_the_first_violation() {
        let err = |doc: &TsDocument| TsDocument::parse(&doc.to_json()).unwrap_err();
        assert!(TsDocument::parse(r#"{"schema":"nope"}"#)
            .unwrap_err()
            .contains("schema"));
        let good = recorded("r", 9, 4, |t| t as f64);

        let mut bad_stride = good.clone();
        bad_stride.semantic.demand_cpu.stride = 3;
        let e = err(&bad_stride);
        assert!(
            e.contains("semantic.demand_cpu") && e.contains("power of two"),
            "{e}"
        );

        let mut bad_count = good.clone();
        bad_count.timing.tick_ns.samples = 3;
        let e = err(&bad_count);
        assert!(
            e.contains("timing.tick_ns") && e.contains("inconsistent"),
            "{e}"
        );

        let mut overfull = good.clone();
        overfull.capacity = 2;
        assert!(err(&overfull).contains("exceed declared capacity 2"));

        // Series whose accounting holds on its own but disagrees with
        // the run: the engine pushes one sample per tick.
        let mut long_run = good.clone();
        long_run.ticks = 100;
        assert!(err(&long_run).contains("9 samples, but the run has 100 ticks"));
        let mut short_series = good.clone();
        short_series.timing.settle_ns = recorded("r", 8, 4, |t| t as f64).timing.settle_ns;
        assert!(err(&short_series).contains("timing.settle_ns: 8 samples"));

        // A member the writer never emits fails the byte-exact re-render.
        let extra = good
            .to_json()
            .replacen("\"ticks\"", "\"extra\": 1,\n  \"ticks\"", 1);
        let e = TsDocument::parse(&extra).unwrap_err();
        assert!(e.contains("differs from the writer's rendering"), "{e}");
    }

    #[test]
    fn ts_collector_flushes_in_label_order() {
        let dir = std::env::temp_dir().join(format!("mmog-ts-test-{}", std::process::id()));
        let sink = crate::Collector::time_series(&dir);
        sink.submit("b run", recorded("b run", 1, 4, |_| 1.0).to_json());
        sink.submit("a run", recorded("a run", 1, 4, |_| 1.0).to_json());
        let written = sink.flush().unwrap();
        assert_eq!(written.len(), 2);
        assert!(
            written[0].file_name().unwrap().to_str().unwrap()
                < written[1].file_name().unwrap().to_str().unwrap()
        );
        for path in &written {
            TsDocument::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
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
        let hi = recorded("same run", 1, 4, |_| 9.0);
        let lo = recorded("same run", 1, 4, |_| 1.0);
        sink.submit("same run", hi.to_json());
        sink.submit("same run", lo.to_json());
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
        assert_eq!(TsDocument::parse(&files[0].1), Ok(lo));
        assert_eq!(TsDocument::parse(&files[1].1), Ok(hi));
    }
}
