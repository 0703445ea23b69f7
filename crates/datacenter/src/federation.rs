//! The hosting platform as one object: the federation of data centers
//! that the request–offer matcher searches as a whole (Sec. II-B/II-C).
//!
//! A [`Federation`] owns a run's centers, their [`Topology`] and one
//! version. Only it changes a center's availability or the topology,
//! and every such change bumps the version by exactly one, so a cached
//! view of the platform ([`crate::matching::CandidateIndex`]) is stale
//! exactly when its stored version differs. Ledger operations (grant, release,
//! revoke) go to the centers through [`Federation::centers_mut`] and
//! leave the version alone; callers must not change a center's location
//! or policy there.

use crate::center::{DataCenter, Lease};
use crate::resource::ResourceType;
use crate::topology::Topology;

/// The run's data centers, their topology and one platform version.
#[derive(Debug, Clone)]
pub struct Federation {
    centers: Vec<DataCenter>,
    topology: Topology,
    version: u64,
    /// Policies are static, so this is computed once, in `new`.
    finest_bulks: [Option<f64>; 4],
}

impl Federation {
    /// A federation over `centers` with the nominal topology: every
    /// center reachable, every link factor 1.0.
    #[must_use]
    pub fn new(centers: Vec<DataCenter>) -> Self {
        let finest_bulks = ResourceType::ALL.map(|r| {
            centers
                .iter()
                .try_fold(f64::INFINITY, |min, c| {
                    c.spec.policy.bulk(r).map(|b| min.min(b))
                })
                .filter(|b| b.is_finite())
        });
        Self {
            topology: Topology::new(centers.len()),
            centers,
            version: 0,
            finest_bulks,
        }
    }

    /// The centers, in index order.
    #[must_use]
    pub fn centers(&self) -> &[DataCenter] {
        &self.centers
    }

    /// The centers, for ledger operations.
    #[must_use]
    pub fn centers_mut(&mut self) -> &mut [DataCenter] {
        &mut self.centers
    }

    /// The network topology the matcher routes over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Availability and topology changes so far.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Finest bulk per resource across the platform, in
    /// [`ResourceType::ALL`] order (`None`: some center grants it exactly).
    #[must_use]
    pub fn finest_bulks(&self) -> [Option<f64>; 4] {
        self.finest_bulks
    }

    /// Full outage of `center`: returns its leases, revoked for good.
    pub fn fail(&mut self, center: usize) -> Vec<Lease> {
        self.version += 1;
        self.centers[center].fail()
    }

    /// Repairs `center` to nominal capacity (revoked leases stay gone).
    pub fn repair(&mut self, center: usize) {
        self.version += 1;
        self.centers[center].repair();
    }

    /// Degrades `center` to `fraction` (clamped to `[0, 1]`) of nominal.
    pub fn degrade(&mut self, center: usize, fraction: f64) {
        self.version += 1;
        self.centers[center].degrade(fraction);
    }

    /// Cuts the centers whose index bit is set in `mask` off from the
    /// rest of their current component.
    pub fn partition(&mut self, mask: u64) {
        self.version += 1;
        self.topology.partition(mask);
    }

    /// Heals every partition; link factors are untouched.
    pub fn heal(&mut self) {
        self.version += 1;
        self.topology.heal();
    }

    /// Sets the symmetric distance multiplier of link `a`↔`b` (clamped
    /// to ≥ 1.0). A self-link or out-of-range index changes nothing.
    pub fn set_link_factor(&mut self, a: usize, b: usize, factor: f64) {
        if self.topology.set_link_factor(a, b, factor) {
            self.version += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::center::{DataCenterId, DataCenterSpec};
    use crate::policy::HostingPolicy;
    use mmog_util::geo::GeoPoint;

    fn federation(n: u32, hp: usize) -> Federation {
        Federation::new(
            (0..n)
                .map(|i| {
                    DataCenter::new(DataCenterSpec {
                        id: DataCenterId(i),
                        name: format!("dc{i}"),
                        country: "NL".into(),
                        continent: "Europe".into(),
                        location: GeoPoint::new(52.37, 4.9),
                        machines: 10,
                        machine_capacity: DataCenterSpec::default_machine_capacity(),
                        policy: HostingPolicy::hp(hp),
                    })
                })
                .collect(),
        )
    }

    #[test]
    fn two_federations_never_move_each_others_version() {
        let mut a = federation(2, 5);
        let mut b = federation(2, 5);
        let _ = b.fail(0);
        b.partition(0b01);
        assert_eq!(a.version(), 0, "another federation's changes");
        a.degrade(1, 0.5);
        assert_eq!((a.version(), b.version()), (1, 2));
    }

    #[test]
    fn each_mutator_moves_the_version_by_exactly_one() {
        let mut f = federation(3, 5);
        let mutators: [fn(&mut Federation); 6] = [
            |f| drop(f.fail(0)),
            |f| f.repair(0),
            |f| f.degrade(1, 0.5),
            |f| f.partition(0b001),
            |f| f.heal(),
            |f| f.set_link_factor(0, 2, 2.0),
        ];
        for (i, mutate) in mutators.iter().enumerate() {
            let before = f.version();
            mutate(&mut f);
            assert_eq!(f.version(), before + 1, "mutator {i}");
        }
        // Even a no-op cut or a repeated factor counts as a change.
        f.partition(0);
        f.set_link_factor(0, 2, 2.0);
        assert_eq!(f.version(), 8);
    }

    #[test]
    fn inert_link_factors_leave_the_version_unchanged() {
        let mut f = federation(2, 5);
        f.set_link_factor(1, 1, 4.0);
        f.set_link_factor(0, 7, 4.0);
        f.set_link_factor(9, 9, 4.0);
        assert_eq!(f.version(), 0);
        assert!((f.topology().link_factor(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_operations_leave_the_version_unchanged() {
        use crate::request::OperatorId;
        use crate::resource::ResourceVector;
        use mmog_util::time::SimTime;
        let mut f = federation(1, 5);
        let c = &mut f.centers_mut()[0];
        let a = ResourceVector::new(0.37, 2.0, 0.0, 0.0);
        let lease = c.grant(OperatorId(1), a, SimTime::ZERO).unwrap();
        assert!(c.revoke(lease).is_some());
        assert_eq!(f.version(), 0);
    }

    #[test]
    fn finest_bulks_span_every_center() {
        // HP-3 has the finer CPU bulk; HP-1 grants memory exactly.
        let mut centers = federation(1, 3).centers;
        centers.extend(federation(1, 1).centers);
        let f = Federation::new(centers);
        let cpu = f.finest_bulks()[ResourceType::Cpu as usize];
        assert_eq!(cpu, HostingPolicy::hp(3).bulk(ResourceType::Cpu));
        assert_eq!(f.finest_bulks()[ResourceType::Memory as usize], None);
    }
}
