//! End-to-end engine benchmark: a full (small) provisioning simulation
//! of one day at 10 and 40 server groups.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{AllocationMode, Simulation};
use mmog_sim::scenario::{prediction_impact, ScenarioOpts};
use std::hint::black_box;

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulation_one_day");
    group.sample_size(10);
    for (label, cap) in [("10_groups", 2), ("40_groups", 8)] {
        let opts = ScenarioOpts {
            days: 1,
            seed: 5,
            group_cap: Some(cap),
        };
        group.throughput(Throughput::Elements(720));
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_batched(
                || {
                    let mut cfg =
                        prediction_impact(PredictorKind::LastValue, AllocationMode::Dynamic, &opts);
                    cfg.train_ticks = 0;
                    cfg
                },
                |cfg| black_box(Simulation::new(cfg).run().ticks),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
