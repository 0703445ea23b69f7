//! High-level façade for the MMOG resource-provisioning ecosystem.
//!
//! This crate is the paper's contribution seen as a library: build an
//! [`Ecosystem`] — a hosting platform of data centers plus the MMOGs it
//! serves — pick a provisioning strategy, and run the trace-driven
//! evaluation.
//!
//! ```
//! use mmog_core::prelude::*;
//!
//! // A small RuneScape-like workload over the Table III platform.
//! let opts = ScenarioOpts { days: 1, seed: 42, group_cap: Some(2) };
//! let trace = standard_trace(&opts);
//! let report = Ecosystem::builder()
//!     .table3_platform()
//!     .game(GameSpec {
//!         predictor: PredictorKind::LastValue,
//!         ..Ecosystem::default_game(trace)
//!     })
//!     .train_ticks(0)
//!     .run();
//! assert!(report.metrics.samples() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mmog_datacenter::center::DataCenter;
use mmog_datacenter::locations::table3_hp12;
use mmog_faults::{FaultSchedule, ScenarioTimeline};
use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{
    AllocationMode, GameSpec, GameWorkload, SimReport, Simulation, SimulationConfig,
};
use mmog_util::geo::DistanceClass;
use mmog_world::update::UpdateModel;

/// Commonly used items across the workspace, for glob import.
pub mod prelude {
    pub use crate::Ecosystem;
    pub use mmog_datacenter::center::{DataCenter, DataCenterSpec};
    pub use mmog_datacenter::locations::{table3_centers, table3_hp12};
    pub use mmog_datacenter::policy::HostingPolicy;
    pub use mmog_datacenter::resource::{ResourceType, ResourceVector};
    pub use mmog_faults::{
        FaultEvent, FaultKind, FaultSchedule, FaultSpec, ScenarioEvent, ScenarioEventKind,
        ScenarioParams, ScenarioSpec, ScenarioTimeline,
    };
    pub use mmog_predict::eval::PredictorKind;
    pub use mmog_predict::neural::{NeuralConfig, NeuralPredictor};
    pub use mmog_predict::traits::Predictor;
    pub use mmog_sim::demand::DemandModel;
    pub use mmog_sim::engine::{
        AllocationMode, GameSpec, GameWorkload, SimReport, Simulation, SimulationConfig,
    };
    pub use mmog_sim::scenario::{standard_trace, ScenarioOpts};
    pub use mmog_util::geo::DistanceClass;
    pub use mmog_util::time::{SimDuration, SimTime};
    pub use mmog_workload::runescape::{generate, RuneScapeConfig};
    pub use mmog_workload::trace::GameTrace;
    pub use mmog_world::update::UpdateModel;
}

/// The ecosystem façade: a fluent builder over the simulation engine.
pub struct Ecosystem;

impl Ecosystem {
    /// Starts building an ecosystem.
    #[must_use]
    pub fn builder() -> EcosystemBuilder {
        EcosystemBuilder::default()
    }

    /// A game spec with the paper's defaults: O(n²) interactions, no
    /// latency constraint, neural prediction, no headroom.
    ///
    /// `workload` is an owned [`GameTrace`](mmog_workload::trace::GameTrace),
    /// a shared `Arc<GameTrace>` or a streaming generator configuration.
    /// [`standard_trace`](mmog_sim::scenario::standard_trace) returns the
    /// shared form: games and runs built from one handle read one copy.
    #[must_use]
    pub fn default_game(workload: impl Into<GameWorkload>) -> GameSpec {
        GameSpec {
            name: "game".into(),
            operator_base: 0,
            update_model: UpdateModel::Quadratic,
            tolerance: DistanceClass::VeryFar,
            headroom: 1.0,
            predictor: PredictorKind::Neural,
            workload: workload.into(),
            static_peak_players: 2100.0, // capacity x the 1.05 overfull clamp
            priority: 0,
        }
    }
}

/// Builder for an ecosystem run.
pub struct EcosystemBuilder {
    centers: Vec<DataCenter>,
    games: Vec<GameSpec>,
    mode: AllocationMode,
    ticks: Option<usize>,
    warmup_ticks: usize,
    train_ticks: usize,
    master_seed: u64,
    faults: Option<FaultSchedule>,
    scenario: Option<ScenarioTimeline>,
}

impl Default for EcosystemBuilder {
    fn default() -> Self {
        Self {
            centers: Vec::new(),
            games: Vec::new(),
            mode: AllocationMode::Dynamic,
            ticks: None,
            warmup_ticks: 30,
            train_ticks: 720,
            master_seed: 0x5EED,
            faults: None,
            scenario: None,
        }
    }
}

impl EcosystemBuilder {
    /// Uses the Table III platform with the Sec. V-B HP-1/HP-2
    /// round-robin policy assignment.
    #[must_use]
    pub fn table3_platform(mut self) -> Self {
        self.centers = table3_hp12();
        self
    }

    /// Uses a custom set of data centers.
    #[must_use]
    pub fn centers(mut self, centers: Vec<DataCenter>) -> Self {
        self.centers = centers;
        self
    }

    /// Adds a game to the ecosystem. Assigns a fresh operator-id base
    /// when the spec still has the default 0 and games already exist.
    #[must_use]
    pub fn game(mut self, mut spec: GameSpec) -> Self {
        if spec.operator_base == 0 && !self.games.is_empty() {
            spec.operator_base = self.games.len() as u32 * 100;
        }
        self.games.push(spec);
        self
    }

    /// Static (peak-sized) instead of dynamic provisioning.
    #[must_use]
    pub fn static_provisioning(mut self) -> Self {
        self.mode = AllocationMode::Static;
        self
    }

    /// Caps the simulated ticks (default: full trace length).
    #[must_use]
    pub fn ticks(mut self, ticks: usize) -> Self {
        self.ticks = Some(ticks);
        self
    }

    /// Warm-up ticks excluded from the metrics.
    #[must_use]
    pub fn warmup_ticks(mut self, ticks: usize) -> Self {
        self.warmup_ticks = ticks;
        self
    }

    /// Ticks of each group's history used to train neural predictors.
    #[must_use]
    pub fn train_ticks(mut self, ticks: usize) -> Self {
        self.train_ticks = ticks;
        self
    }

    /// Master seed for the per-server-group random streams (predictor
    /// weight initialisation and sample shuffling). Runs with the same
    /// seed are bit-identical regardless of thread count.
    #[must_use]
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Injects a deterministic fault schedule: timed center outages,
    /// degradations, lease revocations and predictor dropouts the run
    /// must survive. Without this call the run is byte-identical to a
    /// fault-free build.
    #[must_use]
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.faults = Some(schedule);
        self
    }

    /// Installs a deterministic scenario timeline: network partitions,
    /// link degradations, zone migrations, region failovers and flash
    /// crowds. Without this call the run is byte-identical to a
    /// scenario-free build. Composes with [`faults`](Self::faults).
    #[must_use]
    pub fn scenario(mut self, timeline: ScenarioTimeline) -> Self {
        self.scenario = Some(timeline);
        self
    }

    /// Finalises the configuration without running (for inspection or
    /// custom drivers).
    #[must_use]
    pub fn build(self) -> SimulationConfig {
        SimulationConfig {
            centers: self.centers,
            games: self.games,
            mode: self.mode,
            ticks: self.ticks,
            warmup_ticks: self.warmup_ticks,
            train_ticks: self.train_ticks,
            master_seed: self.master_seed,
            faults: self.faults,
            scenario: self.scenario,
            sinks: Default::default(),
        }
    }

    /// Builds and runs the simulation.
    ///
    /// # Panics
    /// Panics when no games were added or a game's trace is empty.
    #[must_use]
    pub fn run(self) -> SimReport {
        Simulation::new(self.build()).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_sim::scenario::{standard_trace, ScenarioOpts};
    use mmog_workload::trace::GameTrace;
    use std::sync::Arc;

    fn tiny_trace() -> Arc<GameTrace> {
        standard_trace(&ScenarioOpts {
            days: 1,
            seed: 1,
            group_cap: Some(2),
        })
    }

    #[test]
    fn builder_runs_end_to_end() {
        let report = Ecosystem::builder()
            .table3_platform()
            .game(GameSpec {
                predictor: PredictorKind::LastValue,
                ..Ecosystem::default_game(tiny_trace())
            })
            .train_ticks(0)
            .run();
        assert!(report.ticks > 0);
        assert!(report.metrics.samples() > 0);
    }

    #[test]
    fn builder_auto_assigns_operator_bases() {
        let cfg = Ecosystem::builder()
            .table3_platform()
            .game(Ecosystem::default_game(tiny_trace()))
            .game(Ecosystem::default_game(tiny_trace()))
            .game(GameSpec {
                operator_base: 777,
                ..Ecosystem::default_game(tiny_trace())
            })
            .build();
        assert_eq!(cfg.games[0].operator_base, 0);
        assert_eq!(cfg.games[1].operator_base, 100);
        assert_eq!(cfg.games[2].operator_base, 777, "explicit base untouched");
    }

    #[test]
    fn static_mode_flag() {
        let cfg = Ecosystem::builder()
            .table3_platform()
            .game(Ecosystem::default_game(tiny_trace()))
            .static_provisioning()
            .build();
        assert_eq!(cfg.mode, AllocationMode::Static);
    }

    #[test]
    fn knobs_propagate() {
        let cfg = Ecosystem::builder()
            .table3_platform()
            .game(Ecosystem::default_game(tiny_trace()))
            .ticks(123)
            .warmup_ticks(7)
            .train_ticks(99)
            .build();
        assert_eq!(cfg.ticks, Some(123));
        assert_eq!(cfg.warmup_ticks, 7);
        assert_eq!(cfg.train_ticks, 99);
    }

    #[test]
    fn faults_knob_propagates() {
        use mmog_faults::{FaultEvent, FaultKind};
        let schedule = FaultSchedule::from_events(
            "one-outage",
            vec![FaultEvent {
                tick: 5,
                center: 0,
                kind: FaultKind::CenterDown,
            }],
        );
        let cfg = Ecosystem::builder()
            .table3_platform()
            .game(Ecosystem::default_game(tiny_trace()))
            .faults(schedule)
            .build();
        assert_eq!(cfg.faults.as_ref().map(FaultSchedule::len), Some(1));
        let unfaulted = Ecosystem::builder()
            .table3_platform()
            .game(Ecosystem::default_game(tiny_trace()))
            .build();
        assert!(unfaulted.faults.is_none());
    }

    #[test]
    fn default_game_matches_paper_defaults() {
        let g = Ecosystem::default_game(tiny_trace());
        assert_eq!(g.update_model, UpdateModel::Quadratic);
        assert_eq!(g.tolerance, DistanceClass::VeryFar);
        assert_eq!(g.static_peak_players, 2100.0);
        assert_eq!(g.headroom, 1.0);
    }
}
