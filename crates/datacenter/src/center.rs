//! Data centers: machine pools, capacity accounting and lease ledgers.
//!
//! Sec. II-B: "each data center consists of a single cluster of
//! computing resources, and … a resource owner (hoster) possesses only
//! one data center. … The allocated resources are reserved for MMOG
//! execution for the whole duration of the game operator's request,
//! i.e., task preemption or migration are not supported." The time bulk
//! of the hosting policy sets the earliest release: Sec. V-B notes "the
//! deallocation of resources was allowed only at least six hours after
//! the start of the allocation".

use crate::policy::HostingPolicy;
use crate::request::OperatorId;
use crate::resource::ResourceVector;
use mmog_util::geo::GeoPoint;
use mmog_util::time::SimTime;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a data center (hoster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataCenterId(pub u32);

/// Identifier of a lease within one data center.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LeaseId(pub u64);

/// Static description of one data center.
#[derive(Debug, Clone)]
pub struct DataCenterSpec {
    /// Identifier.
    pub id: DataCenterId,
    /// Display name (e.g. "US East (1)").
    pub name: String,
    /// Country, for the Table III inventory.
    pub country: String,
    /// Continent, for the Table III inventory.
    pub continent: String,
    /// Geographic location (drives the latency-tolerance matching).
    pub location: GeoPoint,
    /// Machine count.
    pub machines: u32,
    /// Per-machine capacity in units. Sec. V-A: "Each machine … is
    /// capable of handling at least one game server at full load."
    pub machine_capacity: ResourceVector,
    /// The hosting policy in force.
    pub policy: HostingPolicy,
}

impl DataCenterSpec {
    /// Total capacity: machines × per-machine capacity.
    #[must_use]
    pub fn capacity(&self) -> ResourceVector {
        self.machine_capacity * f64::from(self.machines)
    }

    /// The default per-machine capacity: one game-server unit of CPU
    /// and outbound bandwidth with headroom, plus the memory and
    /// inbound bandwidth a full server needs.
    #[must_use]
    pub fn default_machine_capacity() -> ResourceVector {
        ResourceVector::new(1.2, 4.0, 6.0, 1.2)
    }
}

/// Hasher for the ledger's `LeaseId → slot` index. Lease ids are
/// sequential per center, and one multiply by an odd constant keeps
/// the low bits a bijection of the id's low bits (a run of consecutive
/// ids fills distinct buckets) while mixing the high bits the table's
/// tag bytes use — far cheaper than SipHash for a key that is never
/// chosen from outside the program.
#[derive(Debug, Clone, Copy, Default)]
struct LeaseIdHasher(u64);

impl Hasher for LeaseIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A granted lease.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lease {
    /// Lease identifier (unique within the center).
    pub id: LeaseId,
    /// The operator holding the lease.
    pub operator: OperatorId,
    /// Amounts granted (already bulk-rounded).
    pub amounts: ResourceVector,
    /// Grant time.
    pub start: SimTime,
    /// Earliest release time (`start + time bulk`).
    pub earliest_release: SimTime,
}

/// Availability state of a data center (the fault plane's state
/// machine). With fault injection disabled every center stays [`Up`]
/// forever and the accounting below is exactly the pre-fault-plane
/// arithmetic.
///
/// [`Up`]: Availability::Up
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Availability {
    /// Fully operational at nominal capacity.
    #[default]
    Up,
    /// Operational at a fraction of nominal capacity. Existing leases
    /// keep running (even if they now exceed the usable pool — the free
    /// pool just clamps to zero); new grants see the reduced capacity.
    Degraded {
        /// Usable fraction of nominal capacity in `[0, 1]`.
        fraction: f64,
    },
    /// Full outage: zero usable capacity, no grants, all leases revoked
    /// when the outage struck.
    Down,
}

/// A data center with live allocation state.
#[derive(Debug, Clone)]
pub struct DataCenter {
    /// Static description.
    pub spec: DataCenterSpec,
    allocated: ResourceVector,
    leases: Vec<Lease>,
    /// Compact `(operator, cpu)` mirror of `leases`, index-for-index:
    /// the engine's per-tick usage-attribution walk streams 16 bytes
    /// per lease from here instead of pulling whole `Lease` records
    /// through the cache. Every `leases` mutation updates both.
    lease_cpu: Vec<(u32, f64)>,
    /// `LeaseId → index into leases` for every live lease, so release,
    /// revoke and lookup cost O(1) instead of a ledger scan. Sized by
    /// the live leases, not by every id ever issued.
    slots: HashMap<u64, u32, BuildHasherDefault<LeaseIdHasher>>,
    next_lease: u64,
    availability: Availability,
}

impl DataCenter {
    /// Wraps a spec with empty allocation state.
    #[must_use]
    pub fn new(spec: DataCenterSpec) -> Self {
        Self {
            spec,
            allocated: ResourceVector::ZERO,
            leases: Vec::new(),
            lease_cpu: Vec::new(),
            slots: HashMap::default(),
            next_lease: 0,
            availability: Availability::Up,
        }
    }

    /// Currently allocated totals.
    #[must_use]
    pub fn allocated(&self) -> ResourceVector {
        self.allocated
    }

    /// Current availability state.
    #[must_use]
    pub fn availability(&self) -> Availability {
        self.availability
    }

    /// Whether the center is in full outage ([`Availability::Down`]).
    /// The live telemetry tap counts down centers with this instead of
    /// matching on the state machine at every call site.
    #[must_use]
    pub fn is_down(&self) -> bool {
        matches!(self.availability, Availability::Down)
    }

    /// Capacity usable in the current availability state.
    #[must_use]
    pub fn effective_capacity(&self) -> ResourceVector {
        match self.availability {
            // `Up` returns nominal capacity directly (not `× 1.0`) so
            // unfaulted runs reproduce the historical float math
            // bit-for-bit.
            Availability::Up => self.spec.capacity(),
            Availability::Degraded { fraction } => self.spec.capacity() * fraction,
            Availability::Down => ResourceVector::ZERO,
        }
    }

    /// Remaining free capacity (under the effective, not nominal,
    /// capacity — a degraded center offers less, a down center nothing).
    #[must_use]
    pub fn free(&self) -> ResourceVector {
        (self.effective_capacity() - self.allocated).clamp_non_negative()
    }

    /// Full outage: the center goes [`Availability::Down`] and every
    /// lease is revoked (leases are center-local and cannot migrate out
    /// of a failed cluster). Returns the revoked leases so callers can
    /// notify their holders; the ids are retired and will never be
    /// reissued or release-able again.
    pub(crate) fn fail(&mut self) -> Vec<Lease> {
        self.availability = Availability::Down;
        self.allocated = ResourceVector::ZERO;
        self.lease_cpu.clear();
        self.slots.clear();
        std::mem::take(&mut self.leases)
    }

    /// Repair: the center returns to [`Availability::Up`] at nominal
    /// capacity. Leases revoked by a prior [`fail`] stay revoked.
    ///
    /// [`fail`]: Self::fail
    pub(crate) fn repair(&mut self) {
        self.availability = Availability::Up;
    }

    /// Partial degradation to `fraction` of nominal capacity (clamped
    /// to `[0, 1]`). Existing leases keep running.
    pub(crate) fn degrade(&mut self, fraction: f64) {
        self.availability = Availability::Degraded {
            fraction: fraction.clamp(0.0, 1.0),
        };
    }

    /// Force-revokes one lease regardless of its earliest-release time
    /// (the fault plane's mid-term reclamation). Returns the revoked
    /// lease, or `None` when the id is not live — so a revoked or
    /// released lease can never be double-released.
    pub fn revoke(&mut self, lease: LeaseId) -> Option<Lease> {
        let idx = self.slot(lease)?;
        Some(self.remove_at(idx))
    }

    /// Ledger index of a live lease.
    fn slot(&self, lease: LeaseId) -> Option<usize> {
        self.slots.get(&lease.0).map(|&i| i as usize)
    }

    /// Removes the lease at ledger index `idx` by `swap_remove` and
    /// re-points the slot of the lease that fills the hole. The usage
    /// walk sums floats in ledger order, so this order is load-bearing.
    fn remove_at(&mut self, idx: usize) -> Lease {
        let l = self.leases.swap_remove(idx);
        self.lease_cpu.swap_remove(idx);
        self.slots.remove(&l.id.0);
        if let Some(moved) = self.leases.get(idx) {
            self.slots.insert(moved.id.0, idx as u32);
        }
        self.allocated = (self.allocated - l.amounts).clamp_non_negative();
        l
    }

    /// Revokes the oldest active lease (ties broken by id). Returns
    /// `None` when the center holds no leases.
    pub fn revoke_oldest(&mut self) -> Option<Lease> {
        let (idx, _) = self
            .leases
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.start, l.id))?;
        Some(self.remove_at(idx))
    }

    /// Active leases.
    #[must_use]
    pub fn leases(&self) -> &[Lease] {
        &self.leases
    }

    /// The live lease with id `lease`, if any.
    #[must_use]
    pub fn lease(&self, lease: LeaseId) -> Option<&Lease> {
        self.slot(lease).map(|i| &self.leases[i])
    }

    /// Compact `(operator id, cpu)` view of the active leases, in the
    /// same order as [`leases`] — the hot input of the engine's
    /// per-tick usage attribution.
    ///
    /// [`leases`]: Self::leases
    #[must_use]
    pub fn lease_cpu(&self) -> &[(u32, f64)] {
        &self.lease_cpu
    }

    /// Grants a lease for exactly `amounts` (caller must have
    /// bulk-rounded; [`crate::matching`] does). Returns `None` when the
    /// amounts do not fit the free capacity or are all zero.
    pub fn grant(
        &mut self,
        operator: OperatorId,
        amounts: ResourceVector,
        now: SimTime,
    ) -> Option<LeaseId> {
        if self.availability == Availability::Down {
            return None;
        }
        if amounts.is_negligible(1e-9) {
            return None;
        }
        if !amounts.fits_within(&self.free(), 1e-9) {
            return None;
        }
        let id = LeaseId(self.next_lease);
        self.next_lease += 1;
        self.allocated += amounts;
        self.slots.insert(id.0, self.leases.len() as u32);
        self.leases.push(Lease {
            id,
            operator,
            amounts,
            start: now,
            earliest_release: now + self.spec.policy.time_bulk,
        });
        self.lease_cpu.push((operator.0, amounts.cpu));
        Some(id)
    }

    /// Releases one lease. Fails (returns `false`, leaving the lease in
    /// place) before its earliest release time — the time bulk is a
    /// contractual minimum.
    pub fn release(&mut self, lease: LeaseId, now: SimTime) -> bool {
        match self.slot(lease) {
            Some(idx) if now >= self.leases[idx].earliest_release => {
                self.remove_at(idx);
                true
            }
            _ => false,
        }
    }

    /// Total amounts held by one operator.
    #[must_use]
    pub fn held_by(&self, operator: OperatorId) -> ResourceVector {
        self.leases
            .iter()
            .filter(|l| l.operator == operator)
            .fold(ResourceVector::ZERO, |acc, l| acc + l.amounts)
    }

    /// Distance to a point, km.
    #[must_use]
    pub fn distance_km(&self, from: &GeoPoint) -> f64 {
        self.spec.location.distance_km(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(machines: u32, policy: HostingPolicy) -> DataCenterSpec {
        DataCenterSpec {
            id: DataCenterId(0),
            name: "test".into(),
            country: "NL".into(),
            continent: "Europe".into(),
            location: GeoPoint::new(52.37, 4.9),
            machines,
            machine_capacity: DataCenterSpec::default_machine_capacity(),
            policy,
        }
    }

    fn dc() -> DataCenter {
        DataCenter::new(spec(10, HostingPolicy::hp(5)))
    }

    #[test]
    fn capacity_scales_with_machines() {
        let c = dc();
        let cap = c.spec.capacity();
        assert!((cap.cpu - 12.0).abs() < 1e-9);
        assert!((cap.memory - 40.0).abs() < 1e-9);
        assert_eq!(c.free(), cap);
    }

    #[test]
    fn grant_reduces_free_capacity() {
        let mut c = dc();
        let amounts = ResourceVector::new(1.11, 2.0, 0.0, 0.0);
        let lease = c.grant(OperatorId(1), amounts, SimTime::ZERO).unwrap();
        assert!((c.free().cpu - (12.0 - 1.11)).abs() < 1e-9);
        assert_eq!(c.leases().len(), 1);
        assert_eq!(c.leases()[0].id, lease);
        assert_eq!(c.held_by(OperatorId(1)), amounts);
        assert_eq!(c.held_by(OperatorId(2)), ResourceVector::ZERO);
    }

    #[test]
    fn grant_rejects_over_capacity() {
        let mut c = dc();
        let too_much = ResourceVector::new(1000.0, 0.0, 0.0, 0.0);
        assert!(c.grant(OperatorId(1), too_much, SimTime::ZERO).is_none());
        assert!(c
            .grant(OperatorId(1), ResourceVector::ZERO, SimTime::ZERO)
            .is_none());
        assert!(c.leases().is_empty());
    }

    #[test]
    fn release_respects_time_bulk() {
        let mut c = dc(); // HP-5: 180-minute time bulk
        let amounts = ResourceVector::new(0.37, 2.0, 0.0, 0.0);
        let lease = c.grant(OperatorId(1), amounts, SimTime::ZERO).unwrap();
        // Too early: one minute before the bulk expires.
        let early = SimTime::from_minutes(178);
        assert!(!c.release(lease, early));
        assert_eq!(c.leases().len(), 1);
        // On time.
        let due = SimTime::from_minutes(180);
        assert!(c.release(lease, due));
        assert!(c.leases().is_empty());
        assert_eq!(c.free(), c.spec.capacity());
    }

    #[test]
    fn release_unknown_lease_is_false() {
        let mut c = dc();
        assert!(!c.release(LeaseId(77), SimTime::from_days(10)));
    }

    #[test]
    fn lease_lookup_follows_swap_remove() {
        let mut c = dc();
        let a = ResourceVector::new(0.37, 2.0, 0.0, 0.0);
        let ids: Vec<LeaseId> = (0..4)
            .map(|i| c.grant(OperatorId(i), a, SimTime::ZERO).unwrap())
            .collect();
        // Releasing the first lease moves the last one into its slot.
        assert!(c.release(ids[0], SimTime::from_days(1)));
        let order: Vec<LeaseId> = c.leases().iter().map(|l| l.id).collect();
        assert_eq!(order, [ids[3], ids[1], ids[2]]);
        for &id in &ids[1..] {
            assert_eq!(c.lease(id).map(|l| l.id), Some(id));
        }
        assert!(c.lease(ids[0]).is_none());
        // The moved lease is still revocable through its new slot.
        assert_eq!(c.revoke(ids[3]).map(|l| l.id), Some(ids[3]));
        assert_eq!(c.leases().len(), 2);
        assert_eq!(c.lease_cpu().len(), 2);
    }

    #[test]
    fn outage_revokes_leases_and_blocks_grants() {
        let mut c = dc();
        let a = ResourceVector::new(0.37, 2.0, 0.0, 0.0);
        let l1 = c.grant(OperatorId(1), a, SimTime::ZERO).unwrap();
        let _l2 = c.grant(OperatorId(2), a, SimTime::ZERO).unwrap();
        let lost = c.fail();
        assert_eq!(lost.len(), 2);
        assert_eq!(c.availability(), Availability::Down);
        assert_eq!(c.allocated(), ResourceVector::ZERO);
        assert_eq!(c.free(), ResourceVector::ZERO, "down center offers nothing");
        // Down centers never grant.
        assert!(c.grant(OperatorId(1), a, SimTime::ZERO).is_none());
        // Revoked leases can never be double-released or re-revoked.
        assert!(!c.release(l1, SimTime::from_days(10)));
        assert!(c.revoke(l1).is_none());
        // Repair restores capacity but not the revoked leases.
        c.repair();
        assert_eq!(c.availability(), Availability::Up);
        assert_eq!(c.free(), c.spec.capacity());
        assert!(c.leases().is_empty());
        // Fresh grants get fresh ids: no id reuse after an outage.
        let l3 = c.grant(OperatorId(1), a, SimTime::ZERO).unwrap();
        assert!(l3 != l1);
    }

    #[test]
    fn degradation_shrinks_free_pool_but_keeps_leases() {
        let mut c = dc(); // capacity 12 CPU
        let a = ResourceVector::new(7.4, 2.0, 0.0, 0.0);
        let lease = c.grant(OperatorId(1), a, SimTime::ZERO).unwrap();
        c.degrade(0.5); // effective 6 CPU < 7.4 allocated
        assert_eq!(c.availability(), Availability::Degraded { fraction: 0.5 });
        assert_eq!(c.leases().len(), 1, "existing leases keep running");
        assert_eq!(c.free().cpu, 0.0, "free clamps at zero, never negative");
        // A new grant cannot fit the degraded pool.
        assert!(c.grant(OperatorId(2), a, SimTime::ZERO).is_none());
        // Matured release still works while degraded.
        assert!(c.release(lease, SimTime::from_days(1)));
        assert!((c.free().cpu - 6.0).abs() < 1e-9);
        c.repair();
        assert_eq!(c.free(), c.spec.capacity());
        // The clamp keeps pathological fractions inside [0, 1].
        c.degrade(7.0);
        assert_eq!(c.availability(), Availability::Degraded { fraction: 1.0 });
    }

    #[test]
    fn revoke_oldest_ignores_time_bulk() {
        let mut c = dc(); // HP-5: 180-minute time bulk
        let a = ResourceVector::new(0.37, 2.0, 0.0, 0.0);
        let l1 = c.grant(OperatorId(1), a, SimTime::ZERO).unwrap();
        let _l2 = c.grant(OperatorId(2), a, SimTime::from_minutes(2)).unwrap();
        // Well before earliest_release, revocation still removes it.
        let revoked = c.revoke_oldest().unwrap();
        assert_eq!(revoked.id, l1, "oldest lease goes first");
        assert_eq!(c.leases().len(), 1);
        assert_eq!(c.held_by(OperatorId(1)), ResourceVector::ZERO);
        // Empty center: nothing to revoke.
        let mut empty = dc();
        assert!(empty.revoke_oldest().is_none());
    }

    #[test]
    fn many_grants_fill_capacity_exactly() {
        let mut c = DataCenter::new(spec(1, HostingPolicy::hp(5)));
        let unit = ResourceVector::new(0.37, 2.0, 0.0, 0.0);
        let mut granted = 0;
        while c.grant(OperatorId(1), unit, SimTime::ZERO).is_some() {
            granted += 1;
        }
        // 1.2 CPU / 0.37 = 3 grants (memory: 4/2 = 2 → binding at 2).
        assert_eq!(granted, 2, "memory should bind first");
        assert!(c.free().memory < 2.0);
    }
}
