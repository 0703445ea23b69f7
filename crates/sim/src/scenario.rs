//! Ready-made experiment scenarios for Sections V-B through V-F.
//!
//! Table II maps the evaluation space: Sec. V-B varies the predictor
//! (HP-1/HP-2 round-robin platform, O(n²) game); V-C varies the update
//! model; V-D the hosting policy (resource-bulk sweep HP-3…HP-7, time
//! sweep HP-5, HP-8…HP-11); V-E the latency tolerance on the North
//! American subset with policies coarsening towards the East Coast;
//! V-F the multi-MMOG workload mix.

use crate::engine::{AllocationMode, GameSpec, SimulationConfig};
use mmog_datacenter::center::DataCenter;
use mmog_datacenter::locations::{table3_centers, table3_hp12};
use mmog_datacenter::policy::HostingPolicy;
use mmog_predict::eval::PredictorKind;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::SimDuration;
use mmog_workload::runescape::{RegionSpec, RuneScapeConfig};
use mmog_workload::trace::GameTrace;
use mmog_world::update::UpdateModel;
use std::sync::Arc;

/// Scale knobs shared by all scenarios (full paper scale by default;
/// smoke tests shrink it).
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOpts {
    /// Trace length in days (the paper uses 14).
    pub days: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Optional cap on server groups per region (`None` = paper scale).
    pub group_cap: Option<u32>,
}

impl ScenarioOpts {
    /// The paper's two-week setup.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            days: 14,
            seed,
            group_cap: None,
        }
    }

    /// A fast setup for tests and smoke runs.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self {
            days: 2,
            seed,
            group_cap: Some(4),
        }
    }
}

/// Maps a workload region name to the point its players cluster around.
/// Unknown regions map to the null island origin (0, 0) — scenario
/// builders always use known names.
#[must_use]
pub fn region_origin(name: &str) -> GeoPoint {
    match name {
        "Europe" => GeoPoint::new(52.37, 4.90),         // Amsterdam
        "US East" => GeoPoint::new(38.90, -77.04),      // Washington, D.C.
        "US West" => GeoPoint::new(37.34, -121.89),     // San Jose
        "US Central" => GeoPoint::new(41.88, -87.63),   // Chicago
        "Canada West" => GeoPoint::new(49.28, -123.12), // Vancouver
        "Canada East" => GeoPoint::new(43.65, -79.38),  // Toronto
        "Oceania" => GeoPoint::new(-33.87, 151.21),     // Sydney
        _ => GeoPoint::new(0.0, 0.0),
    }
}

/// Generates the standard RuneScape-like workload at the given scale.
/// Served from the process-wide workload cache: sweeps re-requesting
/// the same scale share one generated trace, and the returned handle
/// is the cached copy itself, not a copy of it.
#[must_use]
pub fn standard_trace(opts: &ScenarioOpts) -> Arc<GameTrace> {
    let mut cfg = RuneScapeConfig::paper_default(opts.days, opts.seed);
    if let Some(cap) = opts.group_cap {
        for r in &mut cfg.regions {
            r.groups = r.groups.min(cap);
        }
    }
    mmog_workload::cache::runescape_trace(&cfg)
}

fn base_game(
    trace: Arc<GameTrace>,
    predictor: PredictorKind,
    update_model: UpdateModel,
    tolerance: DistanceClass,
) -> GameSpec {
    base_game_with(trace.into(), predictor, update_model, tolerance)
}

fn base_game_with(
    workload: crate::engine::GameWorkload,
    predictor: PredictorKind,
    update_model: UpdateModel,
    tolerance: DistanceClass,
) -> GameSpec {
    GameSpec {
        name: "RuneScape-like".into(),
        operator_base: 0,
        update_model,
        tolerance,
        headroom: 1.0,
        predictor,
        workload,
        static_peak_players: 2100.0, // capacity x the 1.05 overfull clamp
        priority: 0,
    }
}

fn base_sim(
    centers: Vec<DataCenter>,
    games: Vec<GameSpec>,
    mode: AllocationMode,
    opts: &ScenarioOpts,
) -> SimulationConfig {
    SimulationConfig {
        centers,
        games,
        mode,
        ticks: None,
        warmup_ticks: 30,
        train_ticks: 720, // one day of collection for the neural phase
        master_seed: opts.seed,
        faults: None,
        scenario: None,
        sinks: Default::default(),
    }
}

/// Sec. V-B — the prediction-impact experiment: Table III platform with
/// HP-1/HP-2 round-robin, one O(n²) game, no latency constraint.
#[must_use]
pub fn prediction_impact(
    predictor: PredictorKind,
    mode: AllocationMode,
    opts: &ScenarioOpts,
) -> SimulationConfig {
    let trace = standard_trace(opts);
    let game = base_game(
        trace,
        predictor,
        UpdateModel::Quadratic,
        DistanceClass::VeryFar,
    );
    base_sim(table3_hp12(), vec![game], mode, opts)
}

/// [`prediction_impact`] with a caller-supplied workload: the same
/// Sec. V-B platform and game axes, but without materializing (and
/// then discarding) the standard trace. Byte-identical to calling
/// [`prediction_impact`] and overwriting `games[0].workload` — callers
/// driving streaming workloads at scale skip the trace generation that
/// dominated their per-world setup.
#[must_use]
pub fn prediction_impact_with_workload(
    predictor: PredictorKind,
    mode: AllocationMode,
    opts: &ScenarioOpts,
    workload: crate::engine::GameWorkload,
) -> SimulationConfig {
    let game = base_game_with(
        workload,
        predictor,
        UpdateModel::Quadratic,
        DistanceClass::VeryFar,
    );
    base_sim(table3_hp12(), vec![game], mode, opts)
}

/// The uniform fine-grained policy Table II calls "optimal" (finest
/// CPU bulk of Table IV, short leases, no network quantisation).
#[must_use]
pub fn optimal_policy() -> HostingPolicy {
    HostingPolicy::hp(3)
}

/// Sec. V-C — the player-interaction experiment: the Neural predictor
/// on the optimal platform, sweeping the update model.
#[must_use]
pub fn interaction_impact(
    update_model: UpdateModel,
    mode: AllocationMode,
    opts: &ScenarioOpts,
) -> SimulationConfig {
    let trace = standard_trace(opts);
    let game = base_game(
        trace,
        PredictorKind::Neural,
        update_model,
        DistanceClass::VeryFar,
    );
    let centers = table3_centers(|_, _| optimal_policy());
    base_sim(centers, vec![game], mode, opts)
}

/// Sec. V-D — the hosting-policy experiment: every center runs the
/// given policy; Neural predictor, O(n²) game.
#[must_use]
pub fn policy_impact(policy: HostingPolicy, opts: &ScenarioOpts) -> SimulationConfig {
    let trace = standard_trace(opts);
    let game = base_game(
        trace,
        PredictorKind::Neural,
        UpdateModel::Quadratic,
        DistanceClass::VeryFar,
    );
    let centers = table3_centers(|_, _| policy.clone());
    base_sim(centers, vec![game], AllocationMode::Dynamic, opts)
}

/// The North American workload for Sec. V-E: one region per NA data
/// center location, groups sized to keep the system busy at peak.
/// Served from the workload cache like [`standard_trace`]: the returned
/// handle is the shared cached copy.
#[must_use]
pub fn north_american_trace(opts: &ScenarioOpts) -> Arc<GameTrace> {
    let region = |name: &str, groups: u32, offset: f64| RegionSpec {
        name: name.into(),
        groups: opts.group_cap.map_or(groups, |cap| groups.min(cap)),
        peak_players: 2000.0,
        utc_offset_hours: offset,
    };
    let cfg = RuneScapeConfig {
        regions: vec![
            region("US West", 25, -8.0),
            region("Canada West", 10, -8.0),
            region("US Central", 15, -6.0),
            region("US East", 30, -5.0),
            region("Canada East", 10, -5.0),
        ],
        days: opts.days,
        seed: opts.seed,
        events: Vec::new(),
        always_full_fraction: 0.03,
        weekend_fraction: 1.0 / 3.0,
        outage_prob_per_day: 0.0,
        diurnal_amplitude: 0.55,
        flash_prob_per_tick: 0.004,
        regional_flash_prob_per_tick: 0.01,
    };
    mmog_workload::cache::runescape_trace(&cfg)
}

/// Sec. V-E — the latency-tolerance experiment: NA centers only, with
/// hosting policies "coarse grained … for the data centers located on
/// the East Coast and … gradually finer grained for the … Central and
/// West Coast locations".
#[must_use]
pub fn latency_impact(tolerance: DistanceClass, opts: &ScenarioOpts) -> SimulationConfig {
    let minutes = |m: u64| SimDuration::from_minutes_ceil(m);
    let centers: Vec<DataCenter> = table3_centers(|_, name| {
        if name.starts_with("US East") || name.starts_with("Canada East") {
            HostingPolicy::new(
                "coarse-east",
                Some(1.11),
                Some(2.0),
                None,
                None,
                minutes(720),
            )
        } else if name.starts_with("US Central") {
            HostingPolicy::new(
                "mid-central",
                Some(0.56),
                Some(2.0),
                None,
                None,
                minutes(360),
            )
        } else {
            HostingPolicy::new("fine-west", Some(0.22), Some(2.0), None, None, minutes(180))
        }
    })
    .into_iter()
    .filter(|c| c.spec.continent == "North America")
    .collect();
    let trace = north_american_trace(opts);
    let game = base_game(
        trace,
        PredictorKind::Neural,
        UpdateModel::Quadratic,
        tolerance,
    );
    base_sim(centers, vec![game], AllocationMode::Dynamic, opts)
}

/// The fault-injection experiment: the Sec. V-B platform (Table III,
/// HP-1/HP-2 round-robin) under a deterministic fault schedule derived
/// from `spec` — outages, degradations, lease revocations, predictor
/// dropouts. Last-value prediction keeps the experiment about the
/// *recovery* mechanics rather than the predictor. A zero-rate spec
/// yields `faults: None`, reproducing the unfaulted baseline
/// byte-for-byte.
#[must_use]
pub fn fault_injection(
    spec: &mmog_faults::FaultSpec,
    mode: AllocationMode,
    opts: &ScenarioOpts,
) -> SimulationConfig {
    let mut cfg = prediction_impact(PredictorKind::LastValue, mode, opts);
    cfg.train_ticks = 0;
    let ticks = opts.days * mmog_util::time::TICKS_PER_DAY;
    let schedule = mmog_faults::FaultSchedule::from_spec(spec, ticks, cfg.centers.len());
    cfg.faults = (!schedule.is_empty()).then_some(schedule);
    cfg
}

/// The scenario-engine experiment: the Sec. V-B platform under a
/// deterministic scenario timeline derived from `spec` — network
/// partitions, link degradations, zone migrations, region failovers
/// and flash crowds. Last-value prediction keeps the experiment about
/// the *adaptation* mechanics rather than the predictor. A zero-rate
/// spec yields `scenario: None`, reproducing the scenario-free
/// baseline byte-for-byte.
#[must_use]
pub fn scenario_injection(
    spec: &mmog_faults::ScenarioSpec,
    mode: AllocationMode,
    opts: &ScenarioOpts,
) -> SimulationConfig {
    let mut cfg = prediction_impact(PredictorKind::LastValue, mode, opts);
    cfg.train_ticks = 0;
    let ticks = opts.days * mmog_util::time::TICKS_PER_DAY;
    let timeline = mmog_faults::ScenarioTimeline::from_spec(spec, ticks, cfg.centers.len());
    cfg.scenario = (!timeline.is_empty()).then_some(timeline);
    cfg
}

/// Splits a trace's server groups across games by share (per region,
/// contiguous slices; shares are normalised).
#[must_use]
pub fn split_trace(trace: &GameTrace, shares: &[f64]) -> Vec<GameTrace> {
    let total: f64 = shares.iter().sum();
    let mut out: Vec<GameTrace> = shares
        .iter()
        .map(|_| GameTrace { regions: vec![] })
        .collect();
    if total <= 0.0 {
        return out;
    }
    for region in &trace.regions {
        let n = region.groups.len();
        // Cumulative boundaries so every group lands in exactly one game.
        let mut start = 0usize;
        let mut acc = 0.0;
        for (gi, &share) in shares.iter().enumerate() {
            acc += share / total;
            let end = if gi + 1 == shares.len() {
                n
            } else {
                (acc * n as f64).round() as usize
            }
            .clamp(start, n);
            if end > start {
                out[gi].regions.push(mmog_workload::trace::RegionTrace {
                    region: region.region,
                    name: region.name.clone(),
                    groups: region.groups[start..end].to_vec(),
                });
            }
            start = end;
        }
    }
    out
}

/// Sec. V-F — the multi-MMOG experiment: MMOG A uses O(n·log n), B uses
/// O(n²), C uses O(n²·log n); `shares` gives each game's fraction of
/// the workload (a Table VII row).
#[must_use]
pub fn multi_mmog(shares: [f64; 3], opts: &ScenarioOpts) -> SimulationConfig {
    let trace = standard_trace(opts);
    let parts = split_trace(&trace, &shares);
    let models = [
        UpdateModel::NLogN,
        UpdateModel::Quadratic,
        UpdateModel::QuadraticLog,
    ];
    let names = ["MMOG A", "MMOG B", "MMOG C"];
    let games: Vec<GameSpec> = parts
        .into_iter()
        .zip(models)
        .zip(names)
        .filter(|((t, _), _)| !t.regions.is_empty())
        .enumerate()
        .map(|(i, ((part, model), name))| GameSpec {
            name: name.into(),
            operator_base: (i as u32) * 100,
            update_model: model,
            tolerance: DistanceClass::VeryFar,
            headroom: 1.0,
            predictor: PredictorKind::Neural,
            workload: part.into(),
            static_peak_players: 2100.0, // capacity x the 1.05 overfull clamp
            priority: 0,
        })
        .collect();
    let centers = table3_centers(|_, _| optimal_policy());
    base_sim(centers, games, AllocationMode::Dynamic, opts)
}

/// The paper's future-work extension (Sec. V-F / VII): the multi-MMOG
/// scenario of [`multi_mmog`] on a *constrained* platform (machines
/// scaled down to force contention), with per-game request priorities.
/// `priorities[i]` applies to MMOG A/B/C respectively (lower = first).
#[must_use]
pub fn multi_mmog_prioritized(
    shares: [f64; 3],
    priorities: [i32; 3],
    capacity_scale: f64,
    opts: &ScenarioOpts,
) -> SimulationConfig {
    let mut cfg = multi_mmog(shares, opts);
    for center in &mut cfg.centers {
        let scaled = (f64::from(center.spec.machines) * capacity_scale).round();
        center.spec.machines = (scaled as u32).max(1);
    }
    for game in &mut cfg.games {
        let idx = match game.name.as_str() {
            "MMOG A" => 0,
            "MMOG B" => 1,
            _ => 2,
        };
        game.priority = priorities[idx];
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{GameWorkload, Simulation};

    #[test]
    fn region_origins_are_distinct() {
        let names = [
            "Europe",
            "US East",
            "US West",
            "US Central",
            "Canada West",
            "Canada East",
            "Oceania",
        ];
        for a in &names {
            for b in &names {
                if a != b {
                    let d = region_origin(a).distance_km(&region_origin(b));
                    assert!(d > 100.0, "{a} vs {b}: {d}");
                }
            }
        }
        // Unknown name falls back to (0,0) instead of panicking.
        let p = region_origin("region 42");
        assert_eq!((p.lat, p.lon), (0.0, 0.0));
    }

    #[test]
    fn standard_trace_respects_group_cap() {
        let opts = ScenarioOpts::smoke(1);
        let t = standard_trace(&opts);
        for r in &t.regions {
            assert!(r.groups.len() <= 4, "{}: {}", r.name, r.groups.len());
        }
        let full = standard_trace(&ScenarioOpts {
            days: 1,
            seed: 1,
            group_cap: None,
        });
        assert_eq!(full.total_groups(), 130);
    }

    #[test]
    fn configs_share_the_cached_trace() {
        let opts = ScenarioOpts {
            days: 1,
            seed: 21,
            group_cap: Some(2),
        };
        let mut rs = RuneScapeConfig::paper_default(opts.days, opts.seed);
        for r in &mut rs.regions {
            r.groups = r.groups.min(2);
        }
        let cached = mmog_workload::cache::runescape_trace(&rs);
        for cfg in [
            policy_impact(HostingPolicy::hp(3), &opts),
            prediction_impact(PredictorKind::LastValue, AllocationMode::Dynamic, &opts),
        ] {
            let GameWorkload::Trace(trace) = &cfg.games[0].workload else {
                panic!("the standard scenarios materialize their trace");
            };
            assert!(Arc::ptr_eq(trace, &cached), "a copy of the cached trace");
        }
    }

    #[test]
    fn split_trace_partitions_groups() {
        let opts = ScenarioOpts {
            days: 1,
            seed: 2,
            group_cap: Some(10),
        };
        let t = standard_trace(&opts);
        let parts = split_trace(&t, &[0.25, 0.25, 0.5]);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.total_groups()).sum();
        assert_eq!(total, t.total_groups(), "no group lost or duplicated");
        // Larger share gets at least as many groups.
        assert!(parts[2].total_groups() >= parts[0].total_groups());
    }

    #[test]
    fn split_trace_handles_extreme_shares() {
        let opts = ScenarioOpts {
            days: 1,
            seed: 3,
            group_cap: Some(5),
        };
        let t = standard_trace(&opts);
        let parts = split_trace(&t, &[1.0, 0.0, 0.0]);
        assert_eq!(parts[0].total_groups(), t.total_groups());
        assert_eq!(parts[1].total_groups(), 0);
        let zero = split_trace(&t, &[0.0, 0.0, 0.0]);
        assert!(zero.iter().all(|p| p.total_groups() == 0));
    }

    #[test]
    fn na_trace_has_five_regions() {
        let t = north_american_trace(&ScenarioOpts {
            days: 1,
            seed: 4,
            group_cap: Some(3),
        });
        assert_eq!(t.regions.len(), 5);
        assert!(t.regions.iter().any(|r| r.name == "Canada East"));
    }

    #[test]
    fn latency_scenario_uses_only_na_centers() {
        let cfg = latency_impact(DistanceClass::Far, &ScenarioOpts::smoke(5));
        assert!(cfg
            .centers
            .iter()
            .all(|c| c.spec.continent == "North America"));
        assert_eq!(cfg.centers.len(), 7); // 2 US West + CanW + Cent + 2 US East + CanE
                                          // East coast coarse, west fine.
        let east = cfg
            .centers
            .iter()
            .find(|c| c.spec.name == "US East (1)")
            .unwrap();
        let west = cfg
            .centers
            .iter()
            .find(|c| c.spec.name == "US West (1)")
            .unwrap();
        assert!(east.spec.policy.granularity() > west.spec.policy.granularity());
    }

    #[test]
    fn smoke_scenarios_run_end_to_end() {
        // Tiny versions of each scenario execute without panicking.
        let opts = ScenarioOpts {
            days: 1,
            seed: 7,
            group_cap: Some(2),
        };
        let fast = PredictorKind::LastValue;
        let mut cfgs = vec![
            prediction_impact(fast, AllocationMode::Dynamic, &opts),
            prediction_impact(fast, AllocationMode::Static, &opts),
            policy_impact(HostingPolicy::hp(5), &opts),
            latency_impact(DistanceClass::VeryFar, &opts),
            multi_mmog([0.33, 0.33, 0.33], &opts),
        ];
        // Swap neural for last-value to keep the test quick.
        for cfg in &mut cfgs {
            for g in &mut cfg.games {
                g.predictor = fast;
            }
            cfg.train_ticks = 0;
        }
        for cfg in cfgs {
            let report = Simulation::new(cfg).run();
            assert!(report.ticks > 0);
            assert!(report.metrics.samples() > 0);
        }
    }

    #[test]
    fn multi_mmog_games_have_distinct_models() {
        let cfg = multi_mmog(
            [0.2, 0.3, 0.5],
            &ScenarioOpts {
                days: 1,
                seed: 9,
                group_cap: Some(6),
            },
        );
        assert_eq!(cfg.games.len(), 3);
        assert_eq!(cfg.games[0].update_model, UpdateModel::NLogN);
        assert_eq!(cfg.games[1].update_model, UpdateModel::Quadratic);
        assert_eq!(cfg.games[2].update_model, UpdateModel::QuadraticLog);
        // Degenerate share drops the game entirely.
        let cfg = multi_mmog(
            [0.0, 0.0, 1.0],
            &ScenarioOpts {
                days: 1,
                seed: 9,
                group_cap: Some(3),
            },
        );
        assert_eq!(cfg.games.len(), 1);
        assert_eq!(cfg.games[0].name, "MMOG C");
    }
}
