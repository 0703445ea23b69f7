//! Property-based tests for the provisioning simulator.

use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec, Lease, LeaseId};
use mmog_datacenter::matching::MatchStats;
use mmog_datacenter::policy::HostingPolicy;
use mmog_datacenter::request::OperatorId;
use mmog_datacenter::resource::{ResourceType, ResourceVector};
use mmog_datacenter::Federation;
use mmog_predict::simple::LastValue;
use mmog_sim::demand::DemandModel;
use mmog_sim::engine::attribute_usage;
use mmog_sim::metrics::MetricsCollector;
use mmog_sim::provision::{
    sort_held_by_start, GroupProvisioner, HeldLease, HeldLedger, ReleaseCause,
};
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::{SimDuration, SimTime};
use mmog_world::update::UpdateModel;
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Three co-located eight-machine centers with different time bulks:
/// HP-3 (180 min), HP-1 (360 min) and HP-9 (720 min). Requests spill
/// across them, so a group's ledger mixes maturities.
fn mixed_bulk_federation() -> Federation {
    Federation::new(
        [3, 1, 9]
            .iter()
            .enumerate()
            .map(|(i, &hp)| {
                DataCenter::new(DataCenterSpec {
                    id: DataCenterId(i as u32),
                    name: format!("dc{i}"),
                    country: "X".into(),
                    continent: "Y".into(),
                    location: GeoPoint::new(50.0, 10.0),
                    machines: 8,
                    machine_capacity: DataCenterSpec::default_machine_capacity(),
                    policy: HostingPolicy::hp(hp),
                })
            })
            .collect(),
    )
}

/// What the whole-ledger walk decided in one step.
struct OracleStep {
    /// Phase-1 releases, in order.
    surplus: Vec<LeaseId>,
    /// Phase 1b's release, if any.
    reshape: Option<LeaseId>,
    /// The ledger after phases 1 and 1b.
    ledger: Vec<HeldLease>,
}

/// The whole-ledger phase 1 (re-sort, then release matured leases that
/// fit the surplus) and phase 1b (release the matured lease whose
/// finer re-grant gains most, first maximum in ledger order) as
/// `GroupProvisioner::adjust` ran them before the maturity index.
/// `platform` is a replica of the step's federation.
fn oracle_release_phases(
    ledger: &[HeldLease],
    platform: &mut Federation,
    mut allocated: ResourceVector,
    target: &ResourceVector,
    now: SimTime,
) -> OracleStep {
    let mut leases = ledger.to_vec();
    let mut step = OracleStep {
        surplus: Vec::new(),
        reshape: None,
        ledger: Vec::new(),
    };
    let mut surplus = (allocated - *target).clamp_non_negative();
    if !surplus.is_negligible(1e-9) {
        sort_held_by_start(&mut leases);
        let mut i = 0;
        while i < leases.len() {
            let held = leases[i];
            let releasable = now >= held.lease.earliest_release
                && held.lease.amounts.fits_within(&surplus, 1e-9);
            if releasable && platform.centers_mut()[held.center].release(held.lease.id, now) {
                surplus = (surplus - held.lease.amounts).clamp_non_negative();
                allocated = (allocated - held.lease.amounts).clamp_non_negative();
                leases.swap_remove(i);
                step.surplus.push(held.lease.id);
            } else {
                i += 1;
            }
        }
    }
    if !surplus.is_negligible(1e-6) {
        let finest = platform.finest_bulks();
        let finest_round = |v: &ResourceVector| {
            v.map(|r, amount| match finest[r as usize] {
                _ if amount <= 0.0 => 0.0,
                None => amount,
                Some(b) => (amount / b).ceil() * b,
            })
        };
        let mut best: Option<(usize, f64)> = None;
        for (i, held) in leases.iter().enumerate() {
            if now < held.lease.earliest_release {
                continue;
            }
            let after_release = (allocated - held.lease.amounts).clamp_non_negative();
            let deficit = (*target - after_release).clamp_non_negative();
            let gain = held.lease.amounts.total() - finest_round(&deficit).total();
            if gain > 1e-6 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        if let Some((i, _)) = best {
            let held = leases[i];
            if platform.centers_mut()[held.center].release(held.lease.id, now) {
                leases.swap_remove(i);
                step.reshape = Some(held.lease.id);
            }
        }
    }
    step.ledger = leases;
    step
}

/// The idle exit's predicate over the whole ledger before the step:
/// no lease matured, the ledger in grant-time order and the deficit
/// negligible.
fn oracle_exit(
    ledger: &[HeldLease],
    allocated: ResourceVector,
    target: &ResourceVector,
    now: SimTime,
) -> bool {
    ledger.iter().all(|h| now < h.lease.earliest_release)
        && ledger
            .windows(2)
            .all(|w| w[0].lease.start <= w[1].lease.start)
        && (*target - allocated)
            .clamp_non_negative()
            .is_negligible(1e-6)
}

fn ledger_ids<'a>(leases: impl IntoIterator<Item = &'a HeldLease>) -> Vec<LeaseId> {
    leases.into_iter().map(|h| h.lease.id).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The maturity-index walk and its idle exit against the
    /// whole-ledger walk they replaced, step for step, over ledgers that
    /// mix three time bulks, hold equal-start ties (several grants in
    /// one tick, several steps in one tick), lose leases to revocations
    /// and outages between steps and run on degraded centers.
    #[test]
    fn indexed_walk_equals_whole_ledger_walk(
        ops in prop::collection::vec((0u8..12, 0.0f64..3000.0, 0usize..1000), 1..150),
    ) {
        let mut stats = MatchStats::current();
        let mut fed = mixed_bulk_federation();
        let mut p = provisioner(UpdateModel::Quadratic);
        p.record_lifecycle = true;
        let mut seen_matured: BTreeSet<(usize, LeaseId)> = BTreeSet::new();
        let mut now = SimTime::ZERO;
        for (k, &(code, value, pick)) in ops.iter().enumerate() {
            // CPU units the group asks for: a noisy diurnal swing, whose
            // rising half grows a long ledger of small grants, with the
            // odd spike. Memory rides along at a quarter.
            let level = match code {
                0 => value / 150.0,
                _ => 10.0 + 8.0 * (k as f64 / 10.0).sin() + value / 3000.0 - 0.5,
            };
            match code {
                5 if p.lease_count() > 0 => {
                    // Spontaneous revocation of one held lease.
                    let held = *p
                        .held_leases()
                        .nth(pick % p.lease_count())
                        .expect("a held lease");
                    let (c, id) = (held.center, held.lease.id);
                    prop_assert!(fed.centers_mut()[c].revoke(id).is_some());
                    prop_assert!(p.drop_lease(c, id).is_some());
                }
                6 => {
                    let c = pick % 3;
                    let _ = fed.fail(c);
                    let _ = p.drop_leases_at_center(c);
                }
                7 => {
                    for c in 0..3 {
                        fed.repair(c);
                    }
                }
                // Jump ahead so leases of every bulk mature.
                8 => now += SimDuration(1 + pick as u64 % 200),
                // Shrink one center's capacity; its leases stay held.
                10 => fed.degrade(pick % 3, (value / 3000.0).max(0.05)),
                _ => {}
            }
            let target = ResourceVector::new(level, level / 4.0, 0.0, 0.0);
            let before: Vec<HeldLease> = p.held_leases().copied().collect();
            let exit = oracle_exit(&before, p.allocated(), &target, now);
            let expected_matured: Vec<(usize, LeaseId)> = before
                .iter()
                .filter(|h| now >= h.lease.earliest_release)
                .map(|h| (h.center, h.lease.id))
                .filter(|key| !seen_matured.contains(key))
                .collect();
            seen_matured.extend(expected_matured.iter().copied());
            let mut replica = fed.clone();
            let oracle = oracle_release_phases(&before, &mut replica, p.allocated(), &target, now);

            let out = p.adjust(&mut fed, &mut stats, &target, now);
            let detail = p.lifecycle_detail();
            prop_assert_eq!(&detail.matured, &expected_matured);
            let surplus: Vec<LeaseId> = detail
                .releases
                .iter()
                .filter(|r| r.2 == ReleaseCause::Surplus)
                .map(|r| r.1.id)
                .collect();
            let reshape: Vec<LeaseId> = detail
                .releases
                .iter()
                .filter(|r| r.2 == ReleaseCause::Reshape)
                .map(|r| r.1.id)
                .collect();
            prop_assert_eq!(&surplus, &oracle.surplus, "phase-1 releases");
            prop_assert_eq!(reshape, oracle.reshape.into_iter().collect::<Vec<_>>(), "reshape pick");
            let mut expected_ledger = ledger_ids(&oracle.ledger);
            expected_ledger.extend(detail.grants.iter().map(|g| g.1.id));
            prop_assert_eq!(ledger_ids(p.held_leases()), expected_ledger, "ledger order");
            prop_assert_eq!(out.skipped, exit, "idle exit");
            if out.skipped {
                // The whole-ledger walk would have done nothing either.
                prop_assert!(oracle.surplus.is_empty() && oracle.reshape.is_none());
                prop_assert_eq!(ledger_ids(&oracle.ledger), ledger_ids(&before));
                prop_assert_eq!(ledger_ids(p.held_leases()), ledger_ids(&before));
                prop_assert!(detail.grants.is_empty() && detail.request.is_none());
            }

            // A few ticks per step; code 9 keeps the tick, so the next
            // step's grants tie with this one's.
            if code != 9 {
                now += SimDuration(1 + pick as u64 % 8);
            }
        }
    }

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
        let mut stats = MatchStats::current();
        let mut p = provisioner(UpdateModel::Quadratic);
        let mut now = SimTime::ZERO;
        for &players in &loads {
            let target = p.observe_and_target(players);
            p.adjust(&mut fed, &mut stats, &target, now);
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
        let mut stats = MatchStats::current();
        let mut p = provisioner(UpdateModel::Quadratic);
        let mut now = SimTime::ZERO;
        for &players in &loads {
            let target = p.observe_and_target(players);
            let out = p.adjust(&mut fed, &mut stats, &target, now);
            prop_assert!(!out.unmet);
            prop_assert!(
                target.fits_within(&p.allocated(), 1e-6),
                "target {target} not covered by {}",
                p.allocated()
            );
            now += SimDuration::TICK;
        }
    }

    /// The allocation-free phase-1 re-sorts — the full pass
    /// `sort_held_by_start` and the bounded `HeldLedger::sort_by_start`
    /// over the ledger's keys — equal std's stable `sort_by_key`
    /// exactly, ties included. Ledgers are built the way phase 1 shapes
    /// them: grants in time order with many equal starts, `swap_remove`s
    /// that move newer leases into earlier holes, fresh grants appended
    /// after the holes, and re-sorts in between. The maturity horizon
    /// advances at non-decreasing times, sometimes past the grants, so
    /// pushes land matured or out of time order and removals hit both
    /// sides of the cursor. One push in eight carries a start a few
    /// ticks before the grant clock, so it can land below the last key
    /// and open a descent at the back of the ledger. The maturity index
    /// is checked against a scan after every operation, at the horizon
    /// and at an arbitrary time.
    #[test]
    fn held_lease_resort_equals_stable_sort(
        ops in prop::collection::vec((0u8..4, 0u64..6, 0usize..1000, 0u64..400), 1..120),
    ) {
        let mut plain: Vec<HeldLease> = Vec::new();
        let mut ledger = HeldLedger::default();
        let mut clock = 0u64;
        let mut horizon = SimTime::ZERO;
        for (id, &(code, step, pick, lead)) in ops.iter().enumerate() {
            match code {
                0 if !plain.is_empty() => {
                    let i = pick % plain.len();
                    let removed = ledger.swap_remove(i);
                    prop_assert_eq!(removed.lease.id, plain.swap_remove(i).lease.id);
                }
                1 => {
                    let mut expected = plain.clone();
                    expected.sort_by_key(|h| h.lease.start);
                    sort_held_by_start(&mut plain);
                    ledger.sort_by_start();
                    prop_assert_eq!(format!("{plain:?}"), format!("{expected:?}"));
                }
                _ => {
                    // Mostly zero steps: long runs of equal starts.
                    clock += step.saturating_sub(3);
                    let start = if pick % 8 == 0 {
                        clock.saturating_sub(1 + lead % 4)
                    } else {
                        clock
                    };
                    let held = HeldLease {
                        center: pick % 3,
                        lease: Lease {
                            id: LeaseId(id as u64),
                            operator: OperatorId(1),
                            amounts: ResourceVector::new(0.22, 0.0, 0.0, 0.0),
                            start: SimTime(start),
                            // Mixed time bulks: maturity order differs
                            // from grant order.
                            earliest_release: SimTime(start + [90, 180, 360][pick % 3]),
                        },
                        matured: false,
                    };
                    plain.push(held);
                    ledger.push(held);
                }
            }
            // Within 200 ticks either side of the grant clock.
            horizon = horizon.max(SimTime((clock + lead).saturating_sub(200)));
            ledger.advance(horizon);
            let ledger_order: Vec<&HeldLease> = ledger.iter().collect();
            prop_assert_eq!(format!("{ledger_order:?}"), format!("{plain:?}"));
            prop_assert_eq!(ledger.len(), plain.len());
            prop_assert_eq!(
                ledger.is_start_sorted(),
                plain.windows(2).all(|w| w[0].lease.start <= w[1].lease.start)
            );
            for now in [horizon, SimTime(clock.saturating_sub(pick as u64 % 400))] {
                let matured = plain.iter().filter(|h| now >= h.lease.earliest_release).count();
                prop_assert_eq!(ledger.matured_count(now), matured);
            }
        }
        let mut expected = plain.clone();
        expected.sort_by_key(|h| h.lease.start);
        sort_held_by_start(&mut plain);
        ledger.sort_by_start();
        prop_assert_eq!(format!("{plain:?}"), format!("{expected:?}"));
        let ledger_order: Vec<&HeldLease> = ledger.iter().collect();
        prop_assert_eq!(format!("{ledger_order:?}"), format!("{expected:?}"));
        prop_assert!(ledger.is_start_sorted());
    }

    /// The register-carried usage walk against the per-lease loop it
    /// replaced, over several ticks into the same accumulators. A
    /// center's mirror is a sequence of operator runs: long runs of one
    /// operator, single-lease runs that interleave operators, and empty
    /// ledgers. Every sum must match to the bit and every touched flag
    /// exactly.
    #[test]
    fn usage_walk_equals_per_lease_loop(
        ticks in prop::collection::vec(
            prop::collection::vec((0u32..6, 1usize..40, 0.0f64..3.0), 0..10),
            1..5,
        ),
    ) {
        let ops = 6;
        let (mut sums, mut touched) = (vec![0.0f64; ops], vec![false; ops]);
        let (mut ref_sums, mut ref_touched) = (vec![0.0f64; ops], vec![false; ops]);
        for runs in &ticks {
            let mirror: Vec<(u32, f64)> = runs
                .iter()
                .flat_map(|&(op, len, cpu)| (0..len).map(move |j| (op, cpu + 0.013 * j as f64)))
                .collect();
            attribute_usage(&mirror, &mut sums, &mut touched);
            for &(op, cpu) in &mirror {
                ref_sums[op as usize] += cpu;
                ref_touched[op as usize] = true;
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&sums), bits(&ref_sums));
            prop_assert_eq!(&touched, &ref_touched);
        }
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
