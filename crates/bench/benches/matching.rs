//! Matching micro-benchmarks: the cost of one request–offer match over
//! the Table III platform, and the bulk-rounding primitives — the code
//! every provisioning tick exercises for every server group.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmog_datacenter::locations::table3_hp12;
use mmog_datacenter::matching::{
    match_request, match_request_indexed, CandidateIndex, MatchOutcome, MatchStats,
};
use mmog_datacenter::policy::HostingPolicy;
use mmog_datacenter::request::{OperatorId, ResourceRequest};
use mmog_datacenter::resource::ResourceVector;
use mmog_datacenter::Federation;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::SimTime;
use std::hint::black_box;

fn bench_match(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_request");
    for tolerance in [DistanceClass::VeryClose, DistanceClass::VeryFar] {
        group.bench_function(BenchmarkId::from_parameter(tolerance.label()), |b| {
            // Fresh platform per iteration batch: grants mutate state.
            b.iter_batched(
                || Federation::new(table3_hp12()),
                |mut fed| {
                    let req = ResourceRequest::new(
                        OperatorId(1),
                        ResourceVector::new(1.0, 1.0, 1.0, 1.0),
                        GeoPoint::new(52.37, 4.90),
                        tolerance,
                    );
                    black_box(match_request(&mut fed, &req, SimTime::ZERO))
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_match_indexed(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_request_indexed");
    let mut stats = MatchStats::current();
    for tolerance in [DistanceClass::VeryClose, DistanceClass::VeryFar] {
        group.bench_function(BenchmarkId::from_parameter(tolerance.label()), |b| {
            let origin = GeoPoint::new(52.37, 4.90);
            // One long-lived index, as the provisioner holds: the
            // ranking phase amortises away, only the fill loop remains.
            let mut index = CandidateIndex::new(origin, tolerance);
            let mut out = MatchOutcome::default();
            b.iter_batched(
                || Federation::new(table3_hp12()),
                |mut fed| {
                    let req = ResourceRequest::new(
                        OperatorId(1),
                        ResourceVector::new(1.0, 1.0, 1.0, 1.0),
                        origin,
                        tolerance,
                    );
                    match_request_indexed(
                        &mut fed,
                        &mut index,
                        &req,
                        SimTime::ZERO,
                        &mut out,
                        &mut stats,
                    );
                    black_box(out.grants.len())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_rounding(c: &mut Criterion) {
    let hp1 = HostingPolicy::hp(1);
    let req = ResourceVector::new(0.37, 1.21, 2.3, 0.61);
    c.bench_function("policy_round_request", |b| {
        b.iter(|| black_box(hp1.round_request(black_box(&req))))
    });
}

/// Lease release at a center holding 4,096 live leases: release the
/// oldest-granted lease and grant a replacement, so the ledger size
/// stays fixed. With the `LeaseId → slot` index this is O(1) in the
/// ledger size; a position scan would read ~2k leases per release.
fn bench_center_release(c: &mut Criterion) {
    use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec};
    use std::collections::VecDeque;

    let mut center = DataCenter::new(DataCenterSpec {
        id: DataCenterId(0),
        name: "bench".into(),
        country: "NL".into(),
        continent: "Europe".into(),
        location: GeoPoint::new(52.37, 4.90),
        machines: 100_000,
        machine_capacity: DataCenterSpec::default_machine_capacity(),
        policy: HostingPolicy::hp(3),
    });
    let amounts = ResourceVector::new(0.22, 0.0, 0.0, 0.0);
    let grant = |center: &mut DataCenter| {
        center
            .grant(OperatorId(1), amounts, SimTime::ZERO)
            .expect("bench center has room")
    };
    let mut live: VecDeque<_> = (0..4096).map(|_| grant(&mut center)).collect();
    let matured = SimTime::from_days(10);
    c.bench_function("center_release_4k", |b| {
        b.iter(|| {
            let oldest = live.pop_front().expect("ledger is never empty");
            assert!(center.release(black_box(oldest), matured));
            live.push_back(grant(&mut center));
        })
    });
    assert_eq!(center.leases().len(), 4096);
}

/// The idle exit's payoff: a steady-state settle step that takes the
/// exit (`noop_exit`) versus one that walks a `fine_churn`-shaped
/// ledger (76 held, 7 matured) and changes nothing (`full_walk`). Both
/// leave the world untouched, so one long-lived provisioner per variant
/// is enough. `churn_walk` is the step that releases one lease and is
/// granted one.
fn bench_steady_state_adjust(c: &mut Criterion) {
    use mmog_predict::simple::LastValue;
    use mmog_sim::demand::DemandModel;
    use mmog_sim::provision::GroupProvisioner;
    use mmog_world::update::UpdateModel;

    let mut stats = MatchStats::current();
    let mut fed = Federation::new(table3_hp12());
    let mut p = GroupProvisioner::new(
        OperatorId(1),
        0,
        GeoPoint::new(52.37, 4.90),
        DistanceClass::VeryFar,
        DemandModel::paper(UpdateModel::Quadratic),
        1.0,
        Box::new(LastValue::new()),
    );
    // Warm into the steady state: demand flat at 1500 players, the
    // first tick grants, the rest are idle.
    for t in 0..4u64 {
        let target = p.observe_and_target(1500.0);
        p.adjust(&mut fed, &mut stats, &target, SimTime(t));
    }
    let target = p.observe_and_target(1500.0);

    let mut group = c.benchmark_group("steady_state_adjust");
    group.bench_function("noop_exit", |b| {
        b.iter(|| black_box(p.adjust(&mut fed, &mut stats, black_box(&target), SimTime(4))))
    });
    assert!(
        p.adjust(&mut fed, &mut stats, &target, SimTime(4)).skipped,
        "noop_exit must measure the exit"
    );
    let mut rig = mmog_bench::fixtures::ChurnRig::new();
    group.bench_function("full_walk", |b| b.iter(|| black_box(rig.idle())));
    assert!(!rig.idle().skipped, "full_walk must measure the walk");
    let mut rig = mmog_bench::fixtures::ChurnRig::new();
    group.bench_function("churn_walk", |b| b.iter(|| black_box(rig.step())));
    let out = rig.step();
    assert_eq!(
        (out.released, out.granted),
        (1, 1),
        "churn bench must churn"
    );
    group.finish();
}

/// The `reduce` stage's per-center usage attribution over a
/// `fine_churn`-sized mirror (988 leases of 13 operators): `long_runs`
/// holds each operator's leases together, as a center's ledger does
/// when groups lease in turn; `interleaved` alternates operators on
/// every lease, the worst case for carrying a run's sum in a register.
fn bench_usage_walk(c: &mut Criterion) {
    use criterion::Throughput;
    use mmog_sim::engine::attribute_usage;

    let (ops, per_op) = (13u32, 76u32);
    let cpu = |op: u32, k: u32| 0.22 * f64::from(1 + (op + k) % 3);
    let long_runs: Vec<(u32, f64)> = (0..ops)
        .flat_map(|op| (0..per_op).map(move |k| (op, cpu(op, k))))
        .collect();
    let interleaved: Vec<(u32, f64)> = (0..per_op)
        .flat_map(|k| (0..ops).map(move |op| (op, cpu(op, k))))
        .collect();
    let mut group = c.benchmark_group("usage_walk");
    group.throughput(Throughput::Elements(long_runs.len() as u64));
    for (name, mirror) in [("long_runs", &long_runs), ("interleaved", &interleaved)] {
        let (mut sums, mut touched) = (vec![0.0; ops as usize], vec![false; ops as usize]);
        group.bench_function(name, |b| {
            b.iter(|| attribute_usage(black_box(mirror), &mut sums, &mut touched))
        });
        black_box(&sums);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_match,
    bench_match_indexed,
    bench_rounding,
    bench_center_release,
    bench_steady_state_adjust,
    bench_usage_walk
);
criterion_main!(benches);
