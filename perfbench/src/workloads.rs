//! The three workloads: how each builds its simulations (set-up) and
//! runs them (run), timed around the calls into each layer.

use crate::census::Census;
use crate::spans::Tracer;
use mmog_bench::scale::{world_config, SweepPoint};
use mmog_datacenter::policy::HostingPolicy;
use mmog_faults::{FaultSchedule, FaultSpec, ScenarioSpec, ScenarioTimeline};
use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{AllocationMode, SimReport, Simulation, SimulationConfig};
use mmog_sim::scenario::{self, ScenarioOpts};
use mmog_util::time::TICKS_PER_DAY;
use mmog_workload::runescape::RuneScapeConfig;

/// Trace length of `paper_sweep`, in days: the first day trains the
/// predictors, the other two are scored out of sample. Training cost
/// does not depend on it, so the set-up stays about three times the run.
const PAPER_DAYS: u64 = 3;
/// Trace length of `fine_churn`, in days (the paper's two weeks).
const FINE_DAYS: u64 = 14;
/// Simulated days of every `scale_1m` world, as `scale_bench` runs them
/// by default. Longer runs fall below half memo replays (0.38 at seven
/// days), which is not the fixed-cost regime this workload measures.
const SCALE_DAYS: u64 = 1;
/// The `scale_1m` federation: 50 worlds × 10 groups × 2 000 players.
const SCALE_POINT: SweepPoint = SweepPoint {
    label: "1M",
    worlds: 50,
    groups_per_world: 10,
};

pub const NAMES: [&str; 3] = ["paper_sweep", "fine_churn", "scale_1m"];

/// What the invariant checks need to know about one simulation.
pub struct Shape {
    pub groups: u64,
    pub warmup: u64,
}

/// One workload instance after set-up.
pub struct Built {
    pub sims: Vec<Simulation>,
    pub shapes: Vec<Shape>,
    pub census: Census,
}

/// Generates the materialized paper trace (the workload layer's cold
/// cost; the scenario builders then read it from the trace cache).
fn trace_gen(tracer: &mut Tracer, opts: &ScenarioOpts) {
    tracer.time("workload.trace_gen", |_| {
        std::hint::black_box(mmog_workload::cache::runescape_trace(
            &RuneScapeConfig::paper_default(opts.days, opts.seed),
        ));
    });
}

fn configs(name: &str, seed: u64, tracer: &mut Tracer) -> Vec<SimulationConfig> {
    match name {
        "paper_sweep" => {
            let opts = ScenarioOpts {
                days: PAPER_DAYS,
                seed,
                group_cap: None,
            };
            trace_gen(tracer, &opts);
            vec![
                scenario::prediction_impact(PredictorKind::Neural, AllocationMode::Dynamic, &opts),
                scenario::policy_impact(HostingPolicy::hp(3), &opts),
                scenario::policy_impact(HostingPolicy::hp(7), &opts),
            ]
        }
        "fine_churn" => {
            let opts = ScenarioOpts {
                days: FINE_DAYS,
                seed,
                group_cap: None,
            };
            trace_gen(tracer, &opts);
            let mut cfg = scenario::policy_impact(HostingPolicy::hp(3), &opts);
            for game in &mut cfg.games {
                game.predictor = PredictorKind::LastValue;
            }
            cfg.train_ticks = 0;
            let ticks = FINE_DAYS * TICKS_PER_DAY;
            let centers = cfg.centers.len();
            let (faults, timeline) = tracer
                .time("faults.compile", |_| {
                    (
                        FaultSchedule::from_spec(&FaultSpec::paper_default(), ticks, centers),
                        ScenarioTimeline::from_spec(&ScenarioSpec::paper_default(), ticks, centers),
                    )
                })
                .0;
            cfg.faults = Some(faults);
            cfg.scenario = Some(timeline);
            vec![cfg]
        }
        "scale_1m" => {
            let ticks = (SCALE_DAYS * TICKS_PER_DAY) as usize;
            (0..SCALE_POINT.worlds)
                .map(|w| world_config(&SCALE_POINT, w, ticks, seed))
                .collect()
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// Set-up: inputs, fault/scenario compilation and every
/// `Simulation::new` of the workload. Returns the instance and the
/// set-up seconds, which leave out the benchmark's own census.
pub fn setup(name: &str, seed: u64, tracer: &mut Tracer) -> (Built, f64) {
    let (configs, config_s) = tracer.time("setup.configs", |t| configs(name, seed, t));
    let mut census = Census::default();
    let mut shapes = Vec::new();
    for cfg in &configs {
        census.add(cfg);
        shapes.push(Shape {
            groups: cfg
                .games
                .iter()
                .map(|g| g.workload.group_count() as u64)
                .sum(),
            warmup: cfg.warmup_ticks as u64,
        });
    }
    let (sims, build_s) = tracer.time("setup.build", |t| {
        configs
            .into_iter()
            .map(|cfg| t.time("sim.build", |_| Simulation::new(cfg)).0)
            .collect()
    });
    let built = Built {
        sims,
        shapes,
        census,
    };
    (built, config_s + build_s)
}

/// Run: every simulation to completion, one after another.
pub fn run(sims: Vec<Simulation>, tracer: &mut Tracer) -> Vec<SimReport> {
    sims.into_iter()
        .map(|sim| tracer.time("sim.run", |_| sim.run()).0)
        .collect()
}
