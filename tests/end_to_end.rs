//! Cross-crate integration tests: the full pipeline from workload
//! synthesis through prediction, matching and metrics.

use mmog_dc::prelude::*;
use mmog_dc::sim::scenario;
use std::sync::Arc;

fn tiny_opts(seed: u64) -> ScenarioOpts {
    ScenarioOpts {
        days: 1,
        seed,
        group_cap: Some(3),
    }
}

fn fast_game(workload: impl Into<GameWorkload>) -> GameSpec {
    GameSpec {
        predictor: PredictorKind::LastValue,
        ..Ecosystem::default_game(workload)
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        Ecosystem::builder()
            .table3_platform()
            .game(fast_game(standard_trace(&tiny_opts(77))))
            .train_ticks(0)
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.metrics.events(), b.metrics.events());
    assert_eq!(a.alloc_cpu_series.values(), b.alloc_cpu_series.values());
    assert_eq!(a.unmet_steps, b.unmet_steps);
}

#[test]
fn dynamic_beats_static_on_over_allocation() {
    let trace = standard_trace(&tiny_opts(3));
    let dynamic = Ecosystem::builder()
        .table3_platform()
        .game(fast_game(Arc::clone(&trace)))
        .train_ticks(0)
        .run();
    let static_ = Ecosystem::builder()
        .table3_platform()
        .game(fast_game(trace))
        .static_provisioning()
        .train_ticks(0)
        .run();
    let over_d = dynamic.metrics.avg_over(ResourceType::Cpu);
    let over_s = static_.metrics.avg_over(ResourceType::Cpu);
    assert!(
        over_s > 1.5 * over_d,
        "static ({over_s:.1}%) should far exceed dynamic ({over_d:.1}%)"
    );
    // Static trades that for zero under-allocation.
    assert_eq!(static_.metrics.events(), 0);
    assert!(static_.metrics.avg_under(ResourceType::Cpu).abs() < 1e-9);
}

#[test]
fn allocation_never_exceeds_platform_capacity() {
    let report = Ecosystem::builder()
        .table3_platform()
        .game(fast_game(standard_trace(&tiny_opts(5))))
        .train_ticks(0)
        .run();
    let capacity: f64 = table3_hp12().iter().map(|c| c.spec.capacity().cpu).sum();
    for &alloc in report.alloc_cpu_series.values() {
        assert!(
            alloc <= capacity + 1e-6,
            "allocated {alloc} beyond capacity {capacity}"
        );
    }
}

#[test]
fn latency_tolerance_moves_allocation_and_changes_efficiency() {
    let mk = |tolerance| {
        let mut cfg = scenario::latency_impact(tolerance, &tiny_opts(9));
        for g in &mut cfg.games {
            g.predictor = PredictorKind::LastValue;
        }
        cfg.train_ticks = 0;
        let centers = cfg.centers.clone();
        (Simulation::new(cfg).run(), centers)
    };
    let (same, same_centers) = mk(DistanceClass::SameLocation);
    let (far, far_centers) = mk(DistanceClass::VeryFar);
    // Tight tolerance pins everything to the co-located bucket.
    let same_shares = same.allocation_by_distance_class(&same_centers);
    assert!(
        same_shares[0].1 > 99.9,
        "same-location share {:?}",
        same_shares
    );
    // Loose tolerance lets requests travel: some allocation leaves the
    // co-located bucket for the finer-grained remote centers…
    let far_shares = far.allocation_by_distance_class(&far_centers);
    assert!(
        far_shares[0].1 < same_shares[0].1,
        "far shares {far_shares:?}"
    );
    // …which lowers total allocation: East-coast requests escape their
    // coarse local policies (the Sec. V-E penalty mechanism).
    assert!(
        far.alloc_cpu_series.sum() < same.alloc_cpu_series.sum(),
        "loose tolerance should allocate less in total"
    );
}

#[test]
fn coarse_east_centers_attract_less_allocation_per_unit() {
    let cfg = scenario::latency_impact(DistanceClass::VeryFar, &tiny_opts(11));
    let mut cfg = cfg;
    for g in &mut cfg.games {
        g.predictor = PredictorKind::LastValue;
    }
    cfg.train_ticks = 0;
    let report = Simulation::new(cfg).run();
    let util = |name: &str| {
        let u = report
            .center_usage
            .iter()
            .find(|u| u.name == name)
            .unwrap_or_else(|| panic!("{name} missing"));
        u.cpu_total / (u.capacity_cpu * report.metrics.samples() as f64)
    };
    // Fine-grained west coast runs hotter than coarse east coast.
    let west = util("US West (1)");
    let east = util("US East (1)");
    assert!(
        west > east,
        "west utilisation {west:.3} should exceed east {east:.3}"
    );
}

#[test]
fn multi_game_traces_partition_cleanly_through_engine() {
    let cfg = scenario::multi_mmog([0.4, 0.3, 0.3], &tiny_opts(13));
    let mut cfg = cfg;
    for g in &mut cfg.games {
        g.predictor = PredictorKind::LastValue;
    }
    cfg.train_ticks = 0;
    let total_groups: usize = cfg.games.iter().map(|g| g.workload.group_count()).sum();
    assert_eq!(total_groups, standard_trace(&tiny_opts(13)).total_groups());
    let report = Simulation::new(cfg).run();
    assert!(report.metrics.samples() > 0);
    // Usage attribution covers at least two distinct operators.
    let mut ops: Vec<u32> = report
        .center_usage
        .iter()
        .flat_map(|u| u.cpu_by_operator.keys().copied())
        .collect();
    ops.sort_unstable();
    ops.dedup();
    assert!(ops.len() >= 2, "expected multiple operators, got {ops:?}");
}

#[test]
fn trace_survives_csv_round_trip_into_simulation() {
    let trace = standard_trace(&tiny_opts(17));
    let parsed = GameTrace::from_csv(&trace.to_csv()).expect("round trip");
    // Region names are not preserved by CSV (documented); the engine
    // still runs and produces identical aggregate demand.
    let run = |t: GameWorkload| {
        Ecosystem::builder()
            .table3_platform()
            .game(fast_game(t))
            .train_ticks(0)
            .run()
    };
    let a = run(trace.into());
    let b = run(parsed.into());
    assert_eq!(a.demand_cpu_series.values(), b.demand_cpu_series.values());
}

#[test]
fn headroom_reduces_under_allocation() {
    let mk = |headroom: f64| {
        let mut cfg = scenario::prediction_impact(
            PredictorKind::LastValue,
            AllocationMode::Dynamic,
            &tiny_opts(19),
        );
        for g in &mut cfg.games {
            g.headroom = headroom;
        }
        cfg.train_ticks = 0;
        Simulation::new(cfg).run()
    };
    let plain = mk(1.0);
    let padded = mk(1.3);
    assert!(
        padded.metrics.avg_under(ResourceType::Cpu)
            >= plain.metrics.avg_under(ResourceType::Cpu) - 1e-12,
        "headroom should not worsen under-allocation"
    );
    assert!(
        padded.metrics.avg_over(ResourceType::Cpu) > plain.metrics.avg_over(ResourceType::Cpu),
        "headroom must cost over-allocation"
    );
}
