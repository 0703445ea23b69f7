//! Property-based tests for policies, centers and matching.

use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec, Lease, LeaseId};
use mmog_datacenter::matching::match_request;
use mmog_datacenter::policy::HostingPolicy;
use mmog_datacenter::request::{OperatorId, ResourceRequest};
use mmog_datacenter::resource::{ResourceType, ResourceVector};
use mmog_datacenter::Federation;
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn any_policy() -> impl Strategy<Value = HostingPolicy> {
    (
        prop::option::of(0.05f64..2.0),
        prop::option::of(0.5f64..4.0),
        prop::option::of(0.5f64..8.0),
        prop::option::of(0.05f64..1.0),
        1u64..3000,
    )
        .prop_map(|(cpu, mem, ni, no, mins)| {
            HostingPolicy::new(
                "prop",
                cpu,
                mem,
                ni,
                no,
                SimDuration::from_minutes_ceil(mins),
            )
        })
}

fn any_amounts() -> impl Strategy<Value = ResourceVector> {
    (0.0f64..20.0, 0.0f64..20.0, 0.0f64..20.0, 0.0f64..20.0)
        .prop_map(|(c, m, i, o)| ResourceVector::new(c, m, i, o))
}

fn center(machines: u32, policy: HostingPolicy) -> DataCenter {
    DataCenter::new(DataCenterSpec {
        id: DataCenterId(0),
        name: "prop".into(),
        country: "X".into(),
        continent: "Y".into(),
        location: GeoPoint::new(50.0, 10.0),
        machines,
        machine_capacity: DataCenterSpec::default_machine_capacity(),
        policy,
    })
}

proptest! {
    #[test]
    fn round_up_is_cover_and_grid_aligned(policy in any_policy(), amount in 0.0f64..50.0) {
        for r in ResourceType::ALL {
            let rounded = policy.round_up(r, amount);
            prop_assert!(rounded + 1e-9 >= amount, "{r}: {rounded} < {amount}");
            if let Some(bulk) = policy.bulk(r) {
                let ratio = rounded / bulk;
                prop_assert!((ratio - ratio.round()).abs() < 1e-6, "{r}: {rounded} off-grid");
                // Never over-covers by a full bulk.
                prop_assert!(rounded < amount + bulk + 1e-9);
            } else {
                prop_assert_eq!(rounded, amount.max(0.0));
            }
        }
    }

    #[test]
    fn round_down_never_exceeds(policy in any_policy(), amount in 0.0f64..50.0) {
        for r in ResourceType::ALL {
            let down = policy.round_down(r, amount);
            prop_assert!(down <= amount + 1e-6);
            prop_assert!(down >= 0.0);
        }
    }

    #[test]
    fn grants_never_exceed_capacity(
        policy in any_policy(),
        machines in 1u32..20,
        requests in prop::collection::vec(any_amounts(), 1..20),
    ) {
        let mut c = center(machines, policy);
        let cap = c.spec.capacity();
        for (i, amounts) in requests.into_iter().enumerate() {
            let _ = c.grant(OperatorId(i as u32), amounts, SimTime::ZERO);
            prop_assert!(c.allocated().fits_within(&cap, 1e-6));
        }
    }

    #[test]
    fn allocation_equals_sum_of_leases(
        policy in any_policy(),
        machines in 1u32..20,
        requests in prop::collection::vec(any_amounts(), 1..15),
    ) {
        let mut c = center(machines, policy);
        for (i, amounts) in requests.into_iter().enumerate() {
            let _ = c.grant(OperatorId(i as u32), amounts, SimTime::ZERO);
        }
        let lease_sum = c
            .leases()
            .iter()
            .fold(ResourceVector::ZERO, |acc, l| acc + l.amounts);
        for r in ResourceType::ALL {
            prop_assert!((lease_sum.get(r) - c.allocated().get(r)).abs() < 1e-6);
        }
    }

    #[test]
    fn release_restores_capacity(
        policy in any_policy(),
        machines in 1u32..20,
        amounts in any_amounts(),
    ) {
        let mut c = center(machines, policy);
        let before = c.free();
        if let Some(lease) = c.grant(OperatorId(0), amounts, SimTime::ZERO) {
            // Wait out any time bulk, then release.
            let later = SimTime::from_days(10);
            prop_assert!(c.release(lease, later));
            for r in ResourceType::ALL {
                prop_assert!((c.free().get(r) - before.get(r)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matching_covers_request_or_reports_unmet(
        policy in any_policy(),
        machines in 1u32..30,
        amounts in any_amounts(),
    ) {
        let mut fed = Federation::new(vec![center(machines, policy)]);
        let req = ResourceRequest::new(
            OperatorId(1),
            amounts,
            GeoPoint::new(50.0, 10.0),
            DistanceClass::VeryFar,
        );
        let out = match_request(&mut fed, &req, SimTime::ZERO);
        let granted = out.granted();
        for r in ResourceType::ALL {
            // granted + unmet >= requested (the offer covers at least the
            // request; bulk rounding may exceed it).
            prop_assert!(
                granted.get(r) + out.unmet.get(r) + 1e-6 >= amounts.get(r),
                "{r}: granted {} + unmet {} < requested {}",
                granted.get(r),
                out.unmet.get(r),
                amounts.get(r)
            );
            // And the grant never exceeds the center's capacity.
            prop_assert!(granted.get(r) <= fed.centers()[0].spec.capacity().get(r) + 1e-6);
        }
    }

    /// Lease-ledger invariants under arbitrary fault/repair sequences.
    ///
    /// Ops are integer-coded: 0 grant, 1 fail (outage), 2 repair,
    /// 3 degrade, 4 revoke oldest, 5 release everything releasable.
    /// After every op: the free pool is non-negative, the allocated
    /// total equals the sum of live leases and fits nominal capacity,
    /// a down center never grants, and retired lease ids (revoked,
    /// failed away, or released) can never be released or revoked again.
    #[test]
    fn lease_ledger_survives_fault_sequences(
        policy in any_policy(),
        machines in 1u32..20,
        ops in prop::collection::vec((0u8..6, any_amounts(), 0.05f64..1.2), 1..40),
    ) {
        let mut fed = Federation::new(vec![center(machines, policy)]);
        let nominal = fed.centers()[0].spec.capacity();
        let mut retired: Vec<mmog_datacenter::center::LeaseId> = Vec::new();
        let mut seen: Vec<mmog_datacenter::center::LeaseId> = Vec::new();
        let far_future = SimTime::from_days(100);
        for (i, &(code, amounts, fraction)) in ops.iter().enumerate() {
            match code {
                1 => retired.extend(fed.fail(0).iter().map(|l| l.id)),
                2 => fed.repair(0),
                3 => fed.degrade(0, fraction),
                _ => {}
            }
            let c = &mut fed.centers_mut()[0];
            match code {
                0 => {
                    let down =
                        c.availability() == mmog_datacenter::center::Availability::Down;
                    let granted = c.grant(OperatorId(i as u32), amounts, SimTime::ZERO);
                    if down {
                        prop_assert!(granted.is_none(), "down center granted a lease");
                    }
                    if let Some(id) = granted {
                        prop_assert!(!seen.contains(&id), "lease id {id:?} reissued");
                        seen.push(id);
                    }
                }
                1..=3 => {}
                4 => {
                    if let Some(l) = c.revoke_oldest() {
                        retired.push(l.id);
                    }
                }
                _ => {
                    for l in c.leases().to_vec() {
                        if c.release(l.id, far_future) {
                            retired.push(l.id);
                        }
                    }
                }
            }
            // Free pool never negative, allocation = Σ live leases ≤ nominal.
            let lease_sum = c
                .leases()
                .iter()
                .fold(ResourceVector::ZERO, |acc, l| acc + l.amounts);
            for r in ResourceType::ALL {
                prop_assert!(c.free().get(r) >= 0.0, "negative free {r}");
                prop_assert!(
                    (lease_sum.get(r) - c.allocated().get(r)).abs() < 1e-6,
                    "{r}: ledger {} != allocated {}",
                    lease_sum.get(r),
                    c.allocated().get(r)
                );
            }
            prop_assert!(c.allocated().fits_within(&nominal, 1e-6));
            // Retired ids are dead forever.
            for &id in &retired {
                prop_assert!(!c.release(id, far_future), "retired {id:?} released");
                prop_assert!(c.revoke(id).is_none(), "retired {id:?} re-revoked");
            }
        }
    }

    /// Scenario-plane invariant: after ANY sequence of partitions
    /// (interleaved with link degradations), a single `heal` restores
    /// full pairwise reachability — partitions are component labels,
    /// not destroyed state. Link factors are orthogonal: they survive
    /// the heal and stay symmetric and clamped ≥ 1.0 throughout.
    #[test]
    fn heal_restores_full_reachability_after_any_partition_sequence(
        n in 1usize..12,
        masks in prop::collection::vec(0u64..4096, 1..16),
        links in prop::collection::vec((0usize..12, 0usize..12, 0.25f64..8.0), 0..8),
    ) {
        let mut fed = Federation::new(
            (0..n).map(|_| center(1, HostingPolicy::hp(5))).collect(),
        );
        for &mask in &masks {
            fed.partition(mask);
        }
        for &(a, b, f) in &links {
            fed.set_link_factor(a, b, f);
        }
        let topo = fed.topology();
        let components_before = topo.components();
        prop_assert!(components_before >= 1 && components_before <= n);
        let version_before = fed.version();
        fed.heal();
        prop_assert_eq!(fed.version(), version_before + 1);
        let topo = fed.topology();
        prop_assert!(topo.fully_connected());
        prop_assert_eq!(topo.components(), 1);
        for a in 0..n {
            for b in 0..n {
                prop_assert!(topo.reachable(a, b), "heal must reconnect {a}<->{b}");
                // Degradations are not partitions: factors persist
                // through heal, symmetric and never below nominal.
                let f = topo.link_factor(a, b);
                prop_assert!(f >= 1.0, "factor {f} below nominal");
                prop_assert_eq!(f, topo.link_factor(b, a));
            }
        }
    }

    #[test]
    fn matching_prefers_finer_granularity(
        fine_bulk in 0.05f64..0.3,
        coarse_extra in 0.1f64..1.0,
        cpu in 0.05f64..5.0,
    ) {
        let fine = HostingPolicy::new(
            "fine", Some(fine_bulk), None, None, None, SimDuration::from_hours(3));
        let coarse = HostingPolicy::new(
            "coarse", Some(fine_bulk + coarse_extra), None, None, None, SimDuration::from_hours(3));
        // Coarse center is closer; fine must still win.
        let mut centers = vec![center(50, coarse), center(50, fine)];
        centers[1].spec.location = GeoPoint::new(40.0, 30.0);
        let req = ResourceRequest::new(
            OperatorId(1),
            ResourceVector::new(cpu, 0.0, 0.0, 0.0),
            GeoPoint::new(50.0, 10.0),
            DistanceClass::VeryFar,
        );
        let out = match_request(&mut Federation::new(centers), &req, SimTime::ZERO);
        prop_assert!(!out.grants.is_empty());
        prop_assert_eq!(out.grants[0].center_index, 1);
    }

    #[test]
    fn memoized_replay_equals_full_indexed_walk(
        policy in any_policy(),
        machines in 5u32..40,
        demands in prop::collection::vec((any_amounts(), 0u8..4), 1..24),
    ) {
        // The indexed walk is a pure function of its inputs: two
        // replicas with byte-identical ledgers, federation versions and
        // index states, driven through the same random demand/fault
        // sequence, produce the same outcomes grant for grant and the
        // same center ledgers lease for lease.
        use mmog_datacenter::matching::{
            match_request_indexed, CandidateIndex, MatchOutcome, MatchStats,
        };
        let origin = GeoPoint::new(50.0, 10.0);
        let mut live = Federation::new(vec![center(machines, policy.clone())]);
        let mut replay = live.clone();
        let mut live_index = CandidateIndex::new(origin, DistanceClass::VeryFar);
        let mut replay_index = live_index.clone();
        let mut stats = MatchStats::current();
        let (mut out, mut replayed) = (MatchOutcome::default(), MatchOutcome::default());
        for (i, (amounts, fault)) in demands.iter().enumerate() {
            match fault {
                1 => {
                    let _ = live.fail(0);
                    let _ = replay.fail(0);
                }
                2 => {
                    live.repair(0);
                    replay.repair(0);
                }
                _ => {}
            }
            let req = ResourceRequest::new(
                OperatorId(1),
                *amounts,
                origin,
                DistanceClass::VeryFar,
            );
            let now = SimTime(i as u64);
            match_request_indexed(&mut live, &mut live_index, &req, now, &mut out, &mut stats);
            match_request_indexed(&mut replay, &mut replay_index, &req, now, &mut replayed, &mut stats);
            prop_assert_eq!(&out, &replayed, "walk diverged on identical inputs");
            prop_assert_eq!(
                format!("{:?}", live.centers()[0].leases()),
                format!("{:?}", replay.centers()[0].leases()),
                "ledgers diverged structurally"
            );
        }
    }
}

/// Reference ledger for [`DataCenter`]: a plain `Vec` searched with a
/// `position` scan and shrunk with `swap_remove`, plus the capacity
/// arithmetic of an unfaulted-or-down center.
struct LedgerModel {
    capacity: ResourceVector,
    down: bool,
    allocated: ResourceVector,
    leases: Vec<Lease>,
    next: u64,
    time_bulk: SimDuration,
}

impl LedgerModel {
    fn grant(
        &mut self,
        operator: OperatorId,
        amounts: ResourceVector,
        now: SimTime,
    ) -> Option<LeaseId> {
        let capacity = if self.down {
            ResourceVector::ZERO
        } else {
            self.capacity
        };
        let free = (capacity - self.allocated).clamp_non_negative();
        if self.down || amounts.is_negligible(1e-9) || !amounts.fits_within(&free, 1e-9) {
            return None;
        }
        let id = LeaseId(self.next);
        self.next += 1;
        self.allocated += amounts;
        self.leases.push(Lease {
            id,
            operator,
            amounts,
            start: now,
            earliest_release: now + self.time_bulk,
        });
        Some(id)
    }

    fn remove(&mut self, idx: usize) -> Lease {
        let l = self.leases.swap_remove(idx);
        self.allocated = (self.allocated - l.amounts).clamp_non_negative();
        l
    }

    fn release(&mut self, id: LeaseId, now: SimTime) -> bool {
        match self.leases.iter().position(|l| l.id == id) {
            Some(idx) if now >= self.leases[idx].earliest_release => {
                self.remove(idx);
                true
            }
            _ => false,
        }
    }

    fn revoke(&mut self, id: LeaseId) -> Option<Lease> {
        let idx = self.leases.iter().position(|l| l.id == id)?;
        Some(self.remove(idx))
    }

    fn revoke_oldest(&mut self) -> Option<Lease> {
        let oldest = self.leases.iter().min_by_key(|l| (l.start, l.id))?.id;
        self.revoke(oldest)
    }

    fn fail(&mut self) -> Vec<Lease> {
        self.down = true;
        self.allocated = ResourceVector::ZERO;
        std::mem::take(&mut self.leases)
    }
}

proptest! {
    /// The center's `LeaseId → slot` index changes lookup cost only:
    /// driven through random grant/release/revoke/revoke-oldest/fail/
    /// repair sequences, every return value, the ledger order, the
    /// `(operator, cpu)` mirror and the allocated total equal a plain
    /// position-scan ledger's, and every live id resolves to itself.
    /// Ops are integer-coded: 0–2 grant, 3–4 release, 5 revoke,
    /// 6 revoke oldest, 7 fail, 8 repair.
    #[test]
    fn indexed_ledger_matches_position_scan_model(
        machines in 1u32..40,
        ops in prop::collection::vec(
            (0u8..9, 0u64..1_000_000, 0.0f64..0.6, 0.0f64..1.5, 0u64..400),
            1..160,
        ),
    ) {
        let policy = HostingPolicy::hp(3);
        let time_bulk = policy.time_bulk;
        let mut fed = Federation::new(vec![center(machines, policy)]);
        let mut model = LedgerModel {
            capacity: fed.centers()[0].spec.capacity(),
            down: false,
            allocated: ResourceVector::ZERO,
            leases: Vec::new(),
            next: 0,
            time_bulk,
        };
        for &(code, pick, cpu, mem, t) in &ops {
            let now = SimTime(t);
            // Ids up to two past the newest: live, retired and never issued.
            let id = LeaseId(pick % (model.next + 2));
            match code {
                7 => prop_assert_eq!(fed.fail(0), model.fail()),
                8 => {
                    fed.repair(0);
                    model.down = false;
                }
                _ => {}
            }
            let c = &mut fed.centers_mut()[0];
            match code {
                0..=2 => {
                    let amounts = ResourceVector::new(cpu, mem, 0.0, 0.0);
                    let op = OperatorId((pick % 7) as u32);
                    prop_assert_eq!(c.grant(op, amounts, now), model.grant(op, amounts, now));
                }
                3 | 4 => prop_assert_eq!(c.release(id, now), model.release(id, now)),
                5 => prop_assert_eq!(c.revoke(id), model.revoke(id)),
                6 => prop_assert_eq!(c.revoke_oldest(), model.revoke_oldest()),
                _ => {}
            }
            prop_assert_eq!(c.leases(), model.leases.as_slice());
            let mirror: Vec<(u32, f64)> =
                model.leases.iter().map(|l| (l.operator.0, l.amounts.cpu)).collect();
            prop_assert_eq!(c.lease_cpu(), mirror.as_slice());
            prop_assert_eq!(c.allocated(), model.allocated);
            for l in &model.leases {
                prop_assert_eq!(c.lease(l.id), Some(l));
            }
        }
    }
}
