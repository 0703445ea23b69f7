//! Trace-driven resource-provisioning simulation — Section V of the
//! paper.
//!
//! "In our simulation, the game operators perform a prediction of the
//! game load (i.e., number of players and interactions per zone) every
//! two minutes and, based on the results, request an appropriate amount
//! of resources to the data centres. … We assume zero overhead in
//! resource allocation, provisioning, and setup."
//!
//! - [`demand`] — converts player counts into resource demand through
//!   the update models of Sec. II-A (one "unit" per resource = a fully
//!   loaded 2 000-client RuneScape game server, Sec. V-A).
//! - [`metrics`] — over-allocation Ω(t), under-allocation Υ(t)
//!   (Equations 1–2) and the significant-under-allocation event counter
//!   (|Υ| > 1 % for a 2-minute sample).
//! - [`provision`] — the dynamic (prediction-driven) and static
//!   (peak-sized) provisioning strategies, plus the retry/backoff
//!   machinery that re-provisions capacity lost to injected faults.
//! - [`engine`] — the tick loop binding workload, predictors, matching
//!   and metrics together, with per-center/per-operator allocation
//!   attribution for the Figures 13–14 analyses and the optional
//!   fault-injection plane (outages, degradations, lease revocations;
//!   DESIGN.md §11).
//! - [`scenario`] — ready-made experiment setups for Sections V-B
//!   through V-F.
//! - [`report`] — plain-text table/series rendering in the paper's
//!   format.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod demand;
pub mod engine;
pub mod metrics;
pub mod provision;
pub mod report;
pub mod scenario;

pub use demand::DemandModel;
pub use engine::{AllocationMode, GameSpec, GameWorkload, SimReport, Simulation, SimulationConfig};
pub use metrics::MetricsCollector;
pub use scenario::region_origin;
