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
    let stats = MatchStats::current();
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
                        &stats,
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

/// The incremental-skip payoff: a steady-state no-op settle with the
/// match memo armed (replay) versus the same tick forced down the full
/// candidate walk. Both paths leave the world untouched, so one
/// long-lived provisioner per variant is enough.
fn bench_memo_adjust(c: &mut Criterion) {
    use mmog_predict::simple::LastValue;
    use mmog_sim::demand::DemandModel;
    use mmog_sim::provision::GroupProvisioner;
    use mmog_world::update::UpdateModel;

    let stats = MatchStats::current();
    let setup = |memo: bool| {
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
        p.memo_enabled = memo;
        // Warm into the steady state: demand flat at 1500 players, the
        // first tick grants, the rest are no-ops.
        for t in 0..4u64 {
            let target = p.observe_and_target(1500.0);
            p.adjust(&mut fed, &stats, &target, SimTime(t));
        }
        let target = p.observe_and_target(1500.0);
        (p, fed, target)
    };

    let mut group = c.benchmark_group("steady_state_adjust");
    let (mut p, mut fed, target) = setup(true);
    group.bench_function("memo_hit", |b| {
        b.iter(|| black_box(p.adjust(&mut fed, &stats, black_box(&target), SimTime(4))))
    });
    assert!(
        p.adjust(&mut fed, &stats, &target, SimTime(4)).replayed,
        "memo bench must measure the replay path"
    );
    let (mut p, mut fed, target) = setup(false);
    group.bench_function("full_walk", |b| {
        b.iter(|| black_box(p.adjust(&mut fed, &stats, black_box(&target), SimTime(4))))
    });
    assert!(!p.adjust(&mut fed, &stats, &target, SimTime(4)).replayed);
    group.finish();
}

criterion_group!(
    benches,
    bench_match,
    bench_match_indexed,
    bench_rounding,
    bench_center_release,
    bench_memo_adjust
);
criterion_main!(benches);
