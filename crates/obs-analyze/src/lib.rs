//! `mmog-obs-analyze` — the read side of the `mmog-obs` telemetry
//! plane.
//!
//! PR 2 taught the simulator to *emit* deterministic traces and
//! metrics; this crate is the layer that reads them back, in the spirit
//! of the monitoring/accounting services the service-oriented MMOG
//! hosting literature treats as first-class citizens next to the
//! simulation itself:
//!
//! - [`reader`] — a streaming, validating reader over the JSONL trace
//!   that hands each line on as a typed [`mmog_obs::Event`], with a
//!   composable [`Query`] filter (kind, scope, tick range).
//! - [`timeline`] — per-run timelines derived from the event stream:
//!   per-tick demand vs. allocation with over/under-allocation, sampled
//!   per-center allocation/free curves, rejection-reason waterfalls and
//!   per-group prediction error, rendered as deterministic text and as
//!   a `TIMELINE_<run>.json` artifact.
//! - [`profile`] — a flame-style span profile (self/total time,
//!   percent-of-parent) over `mmog_obs::span` output, from the live
//!   tree or a saved `OBS_summary.json`.
//! - [`diff`] — semantic first-divergence reporting for traces and for
//!   report text, so determinism failures localize to one event and
//!   one field instead of a byte offset.
//! - [`gate`] — the baseline regression gate CI runs over an
//!   `OBS_summary.json`: exact match on the semantic metrics section,
//!   threshold-tolerant comparison on the timing section's stage totals
//!   and per-path p99 tail latency.
//! - [`latency`] — percentile tables and ASCII distribution sketches
//!   over the log-bucketed latency snapshots in `OBS_summary.json` (the
//!   `latency_report` binary).
//! - [`lifecycle`] — causal lease-lifecycle reconstruction: replays
//!   the `lease_request` → `lease_grant` → `lease_mature` →
//!   release/revoke chain per run, rebuilds every lease's waterfall
//!   (grant latency, lifetime, terminal cause, held capacity per
//!   center/operator) and checks the causality invariants (the
//!   `lease_report` binary).
//!
//! Summaries are read only through `mmog_obs::Summary::parse`, the
//! writer's own type, and trace lines only through
//! `mmog_obs::parse_trace_line`: no analyzer looks a field up by name.
//! The one exception is [`diff`], which reads a diverging line's
//! envelope by name so a line that breaks the schema still reports
//! where it sits.
//!
//! Everything here is offline analysis of already-deterministic
//! artifacts, so the same determinism rule applies transitively: any
//! output derived from semantic inputs is byte-stable; anything
//! wall-clock-derived (the span profile, timing verdicts) is clearly
//! separated and never byte-compared.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod diff;
pub mod gate;
pub mod latency;
pub mod lifecycle;
pub mod profile;
pub mod reader;
pub mod timeline;

pub use diff::{first_text_divergence, trace_diff, Divergence, TextDivergence};
pub use gate::{
    check_obs, check_timing, make_obs_baseline, make_timing_baseline, GateOutcome, TimingThresholds,
};
pub use latency::{render_report, render_sketch, render_table};
pub use lifecycle::{
    analyze_lifecycle, check_lifecycle, render_lifecycle, LeaseRecord, LifecycleReport,
    RequestRecord, ScopeLifecycle,
};
pub use profile::{profile_from_spans, profile_from_summary, render_profile, ProfileNode};
pub use reader::{read_trace, Query, TraceEvent};
pub use timeline::{analyze_trace, render_timelines, timelines_value, RunTimeline};
