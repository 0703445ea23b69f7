//! `mmog-obs` — the deterministic observability plane of the `mmog-dc`
//! workspace.
//!
//! The paper's evaluation hinges on interior quantities the simulator
//! computes but never used to expose: per-tick predicted vs. actual
//! load, request–offer matching outcomes, over/under-allocation per
//! data center. This crate makes them first-class, in the spirit of the
//! autonomic monitoring/accounting plane of Buyya et al.'s
//! energy-efficient data-center architecture, without pulling in any
//! external dependency:
//!
//! - [`registry`] — counters, gauges and fixed-bucket histograms with
//!   cheap atomic recording, safe to hit from inside `mmog-par`
//!   workers, and the [`Registry`] that holds them together with
//!   the span tree and the latency histograms: one process default, or
//!   the caller's scope.
//! - [`span`](mod@span) — a hierarchical wall-clock timing tree for the
//!   predict → demand → request → match → settle pipeline stages.
//! - [`latency`](mod@latency) — log-bucketed (HDR-style) latency histograms with
//!   0-alloc recording and p50/p90/p99/p999 estimation, the tail-latency
//!   layer span totals cannot provide.
//! - [`flight`] — a bounded ring-buffer flight recorder that dumps the
//!   last N ticks of full-detail events (`FLIGHT_<run>.jsonl`) only when
//!   a trigger fires, so detail survives scales where always-on tracing
//!   cannot.
//! - [`event`] — a structured JSONL event log (provisioning decisions,
//!   match accept/reject with reason, prediction error per group, bulk
//!   waste per center, and the causal lease lifecycle chain
//!   request → grant → mature → release), gated behind `--trace`.
//! - [`tick`] — the per-tick [`TickRecord`] the engine fills once and
//!   every plane reads, and the [`StageInstruments`] it records into.
//! - [`timeseries`] — fixed-memory, deterministically-downsampled ring
//!   series, exported as `TS_<run>.json` through one [`TsDocument`] type.
//! - [`live`] — the live telemetry tap: an atomically-rewritten
//!   `OBS_live.json` snapshot (`--live`, one [`LiveSnapshot`] type) that
//!   `mmog_top` renders while a run executes.
//! - [`sinks`] — the per-run [`Sinks`] value naming which of the trace,
//!   time-series, flight and live outputs a run feeds. Sinks travel with
//!   the run's configuration; none of them is process-global.
//! - [`export`] — the `OBS_summary.json` document as one [`Summary`]
//!   type (its only writer and only parser) plus a human-readable table.
//! - [`json`] — the dependency-free JSON layer underneath: every
//!   artifact is written and parsed through it.
//!
//! # The determinism rule
//!
//! Every *semantic* quantity (counts, loads, decisions) must be
//! byte-identical across `--jobs` values and repeated runs; wall-clock
//! timing is isolated in a clearly separated `timing` section that
//! determinism tests mask out. Concretely:
//!
//! - instruments declare a [`Domain`]; exports split on it;
//! - semantic instruments only use commutative integer operations (see
//!   [`registry`]), so parallel recording cannot reorder results;
//! - events are buffered per run and flushed in a configuration-derived
//!   order (see [`event`]), never in completion order;
//! - report text derived from wall clocks is wrapped in
//!   [`timing_block`] so [`mask_timing`] can cut it out for comparison.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod export;
pub mod flight;
pub mod json;
pub mod latency;
pub mod live;
pub mod registry;
pub mod sinks;
pub mod span;
pub mod tick;
pub mod timeseries;

pub use event::{parse_trace_line, Event, EventSink};
pub use export::{
    note_run, render_summary_table, summary_json, Metrics, ObsSelf, Summary, SUMMARY_SCHEMA,
};
pub use flight::{sanitize_label, FlightConfig, FlightDumpInfo, FlightRecorder, FlightTrigger};
pub use json::Document;
pub use latency::{latency, snapshot_latency, LatencyHisto, LatencySnapshot, LATENCY_BUCKETS};
pub use live::{
    write_live, LiveCenter, LiveConfig, LiveSemantic, LiveSnapshot, LiveTiming, StageP99,
    LIVE_SCHEMA,
};
pub use registry::{
    counter, gauge, histogram, snapshot_metrics, Counter, Domain, Gauge, Histogram,
    HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use sinks::{Collector, Sinks};
pub use span::{snapshot_spans, span, time_stat, timer, SpanGuard, SpanSnapshot, SpanStat};
pub use tick::{StageInstruments, TickRecord};
pub use timeseries::{
    RingSeries, Series, TsDocument, TsSemantic, TsTiming, TS_DEFAULT_CAPACITY, TS_SCHEMA,
};

/// Marks the start of a non-deterministic (wall-clock) region inside
/// report text.
pub const TIMING_BEGIN: &str = "<<obs:timing>>";

/// Marks the end of a region opened by [`TIMING_BEGIN`].
pub const TIMING_END: &str = "<<obs:timing:end>>";

/// Replacement text [`mask_timing`] substitutes for a masked region.
pub const TIMING_MASKED: &str = "<<obs:timing masked>>";

/// Wraps report text in the timing markers. Reports embedding any
/// wall-clock-derived content must route it through this wrapper so the
/// determinism suite can compare everything else byte-for-byte.
#[must_use]
pub fn timing_block(body: &str) -> String {
    let sep = if body.ends_with('\n') || body.is_empty() {
        ""
    } else {
        "\n"
    };
    format!("{TIMING_BEGIN}\n{body}{sep}{TIMING_END}\n")
}

/// Replaces every `TIMING_BEGIN … TIMING_END` region (markers included)
/// with [`TIMING_MASKED`].
///
/// # Errors
/// A malformed report is an error, never a silently partial mask: an
/// open marker without a close marker (which would otherwise swallow
/// every semantic byte to the end of the text) and a stray close marker
/// without an open one both fail, naming the byte offset. Determinism
/// tests surface this instead of comparing half-masked text.
pub fn mask_timing(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    let mut offset = 0usize;
    while let Some(start) = rest.find(TIMING_BEGIN) {
        let head = &rest[..start];
        if let Some(stray) = head.find(TIMING_END) {
            return Err(format!(
                "stray timing close marker at byte {} with no open marker",
                offset + stray
            ));
        }
        out.push_str(head);
        out.push_str(TIMING_MASKED);
        let after_begin = &rest[start + TIMING_BEGIN.len()..];
        match after_begin.find(TIMING_END) {
            Some(end) => {
                let consumed = start + TIMING_BEGIN.len() + end + TIMING_END.len();
                offset += consumed;
                rest = &after_begin[end + TIMING_END.len()..];
            }
            None => {
                return Err(format!(
                    "unterminated timing block opened at byte {}",
                    offset + start
                ))
            }
        }
    }
    if let Some(stray) = rest.find(TIMING_END) {
        return Err(format!(
            "stray timing close marker at byte {} with no open marker",
            offset + stray
        ));
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_block_round_trips_through_mask() {
        let report = format!(
            "semantic head\n{}semantic tail\n",
            timing_block("wall clock: 12.3ms")
        );
        let masked = mask_timing(&report).expect("well-formed block");
        assert_eq!(
            masked,
            format!("semantic head\n{TIMING_MASKED}\nsemantic tail\n")
        );
    }

    #[test]
    fn mask_handles_multiple_regions() {
        let text = format!("a {b}1{e} b {b}2{e} c", b = TIMING_BEGIN, e = TIMING_END);
        assert_eq!(
            mask_timing(&text).expect("well-formed blocks"),
            format!("a {TIMING_MASKED} b {TIMING_MASKED} c")
        );
    }

    #[test]
    fn mask_rejects_malformed_marker_structure() {
        let unterminated = format!("head {TIMING_BEGIN} tail without end");
        let err = mask_timing(&unterminated).expect_err("must not half-mask");
        assert!(err.contains("unterminated timing block"), "{err}");
        assert!(err.contains("byte 5"), "{err}");

        let stray = format!("head {TIMING_END} tail");
        let err = mask_timing(&stray).expect_err("stray close must fail");
        assert!(err.contains("stray timing close marker"), "{err}");

        let stray_after = format!("a {b}1{e} b {e}", b = TIMING_BEGIN, e = TIMING_END);
        assert!(mask_timing(&stray_after).is_err());
    }

    #[test]
    fn mask_of_clean_text_is_identity() {
        assert_eq!(
            mask_timing("no markers here\n").expect("clean text"),
            "no markers here\n"
        );
    }
}
