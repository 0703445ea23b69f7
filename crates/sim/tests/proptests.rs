//! Property-based tests for the provisioning simulator.

use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec, Lease, LeaseId};
use mmog_datacenter::matching::MatchStats;
use mmog_datacenter::policy::HostingPolicy;
use mmog_datacenter::request::OperatorId;
use mmog_datacenter::resource::{ResourceType, ResourceVector};
use mmog_datacenter::Federation;
use mmog_predict::simple::LastValue;
use mmog_sim::demand::DemandModel;
use mmog_sim::metrics::MetricsCollector;
use mmog_sim::provision::{sort_held_by_start, GroupProvisioner, HeldLease};
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::{SimDuration, SimTime};
use mmog_world::update::UpdateModel;
use proptest::prelude::*;

fn one_center(machines: u32, hp: usize) -> Federation {
    Federation::new(vec![DataCenter::new(DataCenterSpec {
        id: DataCenterId(0),
        name: "dc".into(),
        country: "X".into(),
        continent: "Y".into(),
        location: GeoPoint::new(50.0, 10.0),
        machines,
        machine_capacity: DataCenterSpec::default_machine_capacity(),
        policy: HostingPolicy::hp(hp),
    })])
}

fn provisioner(model: UpdateModel) -> GroupProvisioner {
    GroupProvisioner::new(
        OperatorId(1),
        0,
        GeoPoint::new(50.0, 10.0),
        DistanceClass::VeryFar,
        DemandModel::paper(model),
        1.0,
        Box::new(LastValue::new()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn demand_components_non_negative_and_monotone(
        players_a in 0.0f64..3000.0,
        delta in 0.0f64..1000.0,
    ) {
        for model in UpdateModel::ALL {
            let dm = DemandModel::paper(model);
            let lo = dm.demand(players_a);
            let hi = dm.demand(players_a + delta);
            for r in ResourceType::ALL {
                prop_assert!(lo.get(r) >= 0.0);
                prop_assert!(hi.get(r) + 1e-12 >= lo.get(r), "{model} {r} not monotone");
            }
        }
    }

    #[test]
    fn provisioner_allocation_always_matches_lease_ledger(
        loads in prop::collection::vec(0.0f64..2200.0, 1..60),
        hp in 1usize..12,
    ) {
        let mut fed = one_center(50, hp);
        let stats = MatchStats::current();
        let mut p = provisioner(UpdateModel::Quadratic);
        let mut now = SimTime::ZERO;
        for &players in &loads {
            let target = p.observe_and_target(players);
            p.adjust(&mut fed, &stats, &target, now);
            // The center's ledger for this operator must equal the
            // provisioner's own bookkeeping.
            let held = fed.centers()[0].held_by(OperatorId(1));
            for r in ResourceType::ALL {
                prop_assert!(
                    (held.get(r) - p.allocated().get(r)).abs() < 1e-6,
                    "{r}: ledger {} vs provisioner {}",
                    held.get(r),
                    p.allocated().get(r)
                );
            }
            now += SimDuration::TICK;
        }
    }

    #[test]
    fn provisioner_covers_target_when_capacity_allows(
        loads in prop::collection::vec(0.0f64..2000.0, 1..40),
    ) {
        // 100 machines >> 1 group's worst-case demand: every target must
        // be fully covered right after adjustment.
        let mut fed = one_center(100, 5);
        let stats = MatchStats::current();
        let mut p = provisioner(UpdateModel::Quadratic);
        let mut now = SimTime::ZERO;
        for &players in &loads {
            let target = p.observe_and_target(players);
            let out = p.adjust(&mut fed, &stats, &target, now);
            prop_assert!(!out.unmet);
            prop_assert!(
                target.fits_within(&p.allocated(), 1e-6),
                "target {target} not covered by {}",
                p.allocated()
            );
            now += SimDuration::TICK;
        }
    }

    #[test]
    fn memoized_provisioner_matches_full_walk_grant_for_grant(
        ops in prop::collection::vec((0u8..10, 0.0f64..2200.0), 1..60),
        hp in 1usize..12,
    ) {
        // Two replicas of the same world — one with the no-op memo, one
        // forced down the full CandidateIndex walk every tick — driven
        // through an identical random demand/fault sequence. Every
        // observable must agree exactly: outcomes grant-for-grant, the
        // allocation vector bitwise, and the lease ledgers structurally.
        let mut fed_on = one_center(50, hp);
        let stats = MatchStats::current();
        let mut fed_off = one_center(50, hp);
        let mut p_on = provisioner(UpdateModel::Quadratic);
        let mut p_off = provisioner(UpdateModel::Quadratic);
        p_off.memo_enabled = false;
        let mut now = SimTime::ZERO;
        let mut players = 800.0;
        let mut replays = 0u32;
        for &(code, value) in &ops {
            match code {
                0..=5 => players = value, // demand move
                6 => {
                    // Center outage: leases revoked on both sides, the
                    // way the engine's fault plane does it.
                    let _ = fed_on.fail(0);
                    let _ = fed_off.fail(0);
                    let _ = p_on.drop_leases_at_center(0);
                    let _ = p_off.drop_leases_at_center(0);
                }
                7 => {
                    fed_on.repair(0);
                    fed_off.repair(0);
                }
                8 => {
                    let frac = (value / 2200.0).clamp(0.05, 1.0);
                    fed_on.degrade(0, frac);
                    fed_off.degrade(0, frac);
                }
                _ => {} // hold demand: the memo's bread and butter
            }
            let t_on = p_on.observe_and_target(players);
            let t_off = p_off.observe_and_target(players);
            prop_assert_eq!(format!("{t_on:?}"), format!("{t_off:?}"));
            let o_on = p_on.adjust(&mut fed_on, &stats, &t_on, now);
            let o_off = p_off.adjust(&mut fed_off, &stats, &t_off, now);
            prop_assert!(!o_off.replayed, "memo disabled yet replayed");
            replays += u32::from(o_on.replayed);
            // Same outcome, modulo the diagnostic replay flag.
            let normalized = mmog_sim::provision::AdjustOutcome {
                replayed: false,
                ..o_on
            };
            prop_assert_eq!(format!("{normalized:?}"), format!("{o_off:?}"));
            prop_assert_eq!(
                format!("{:?}", p_on.allocated()),
                format!("{:?}", p_off.allocated())
            );
            prop_assert_eq!(
                format!("{:?}", fed_on.centers()[0].leases()),
                format!("{:?}", fed_off.centers()[0].leases())
            );
            now += SimDuration::TICK;
        }
        // Diagnostic only: a hostile sequence may legitimately never
        // settle into a replayable steady state, so no assertion here —
        // but keep the count observable under --nocapture.
        if replays > 0 {
            println!("memo replayed {replays}/{} steps", ops.len());
        }
    }

    /// The allocation-free phase-1 re-sort equals std's stable
    /// `sort_by_key` exactly, ties included. Ledgers are built the way
    /// phase 1 shapes them: grants in time order with many equal
    /// starts, `swap_remove`s that move newer leases into earlier
    /// holes, and fresh grants appended after the holes.
    #[test]
    fn held_lease_resort_equals_stable_sort(
        ops in prop::collection::vec((0u8..3, 0u64..6, 0usize..1000), 1..120),
    ) {
        let mut ledger: Vec<HeldLease> = Vec::new();
        let mut clock = 0u64;
        for (id, &(code, step, pick)) in ops.iter().enumerate() {
            if code == 0 && !ledger.is_empty() {
                ledger.swap_remove(pick % ledger.len());
                continue;
            }
            // Mostly zero steps: long runs of equal starts.
            clock += step.saturating_sub(3);
            ledger.push(HeldLease {
                center: pick % 3,
                lease: Lease {
                    id: LeaseId(id as u64),
                    operator: OperatorId(1),
                    amounts: ResourceVector::new(0.22, 0.0, 0.0, 0.0),
                    start: SimTime(clock),
                    earliest_release: SimTime(clock + 90),
                },
                matured: false,
            });
        }
        let mut expected = ledger.clone();
        expected.sort_by_key(|h| h.lease.start);
        sort_held_by_start(&mut ledger);
        prop_assert_eq!(format!("{ledger:?}"), format!("{expected:?}"));
    }

    #[test]
    fn metrics_under_is_never_positive_and_events_bounded(
        samples in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..100),
    ) {
        let mut m = MetricsCollector::new();
        for (i, &(alloc, demand)) in samples.iter().enumerate() {
            let a = ResourceVector::new(alloc, 0.0, 0.0, 0.0);
            let d = ResourceVector::new(demand, 0.0, 0.0, 0.0);
            let shortfall = (a - d).min(&ResourceVector::ZERO);
            m.record(SimTime(i as u64), &a, &d, &shortfall, 10.0);
        }
        prop_assert!(m.avg_under(ResourceType::Cpu) <= 1e-12);
        prop_assert!(m.events() <= samples.len() as u64);
        prop_assert_eq!(m.samples(), samples.len() as u64);
        // Cumulative series is monotone and ends at the event count.
        let series = m.cumulative_events();
        for w in series.values().windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        prop_assert_eq!(*series.values().last().unwrap(), m.events() as f64);
    }

    #[test]
    fn static_sizing_covers_any_load_below_peak(
        peak in 100.0f64..2500.0,
        frac in 0.0f64..=1.0,
    ) {
        for model in UpdateModel::ALL {
            let dm = DemandModel::paper(model);
            let static_alloc = dm.demand(peak);
            let actual = dm.demand(peak * frac);
            prop_assert!(actual.fits_within(&static_alloc, 1e-9), "{model}");
        }
    }
}
