//! Steady-state provisioning fixtures shared by the criterion benches
//! and the allocation smoke test.

use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec};
use mmog_datacenter::matching::MatchStats;
use mmog_datacenter::policy::HostingPolicy;
use mmog_datacenter::request::OperatorId;
use mmog_datacenter::resource::ResourceVector;
use mmog_datacenter::Federation;
use mmog_predict::simple::LastValue;
use mmog_sim::demand::DemandModel;
use mmog_sim::provision::{AdjustOutcome, GroupProvisioner};
use mmog_util::geo::{DistanceClass, GeoPoint};
use mmog_util::time::{SimDuration, SimTime};
use mmog_world::update::UpdateModel;

/// CPU bulk. A power of two keeps every sum of leases exact, so no
/// bulk rounding ever overshoots.
const CPU_LEASE: f64 = 0.25;
/// Outbound bandwidth of one network lease (granted exactly).
const NET_LEASE: f64 = 0.25;
/// Leases of each kind held in the steady state.
const PER_KIND: u32 = 38;
/// Time bulk, in ticks: one grant per tick leaves 70 leases immature.
const TIME_BULK: u64 = 70;

/// One server group in a `fine_churn`-shaped steady state: 76 held
/// leases, 6 or 7 of them matured, and every [`step`](Self::step)
/// (one tick) releases one matured lease and is granted one new one.
///
/// The group holds CPU-only and network-only leases in alternating
/// grant order. Steps alternate between two targets: one a CPU lease
/// (and a little more) lower and a network lease higher, the other the
/// reverse, so each step's surplus releases the oldest matured lease of
/// one kind while its deficit is granted as a lease of the other. The
/// CPU-dropping step leaves a sliver of surplus, so phase 1b scans the
/// matured leases phase 1 kept. [`idle`](Self::idle) is the step that
/// walks the same ledger and changes nothing.
pub struct ChurnRig {
    platform: Federation,
    stats: MatchStats,
    group: GroupProvisioner,
    now: SimTime,
}

impl ChurnRig {
    /// Builds the group and grows its ledger to the steady state, one
    /// grant per tick.
    #[must_use]
    pub fn new() -> Self {
        let origin = GeoPoint::new(52.37, 4.90);
        let policy = HostingPolicy::new(
            "churn",
            Some(CPU_LEASE),
            Some(2.0),
            None,
            None,
            SimDuration(TIME_BULK),
        );
        let platform = Federation::new(vec![DataCenter::new(DataCenterSpec {
            id: DataCenterId(0),
            name: "dc".into(),
            country: "NL".into(),
            continent: "Europe".into(),
            location: origin,
            machines: 20,
            machine_capacity: DataCenterSpec::default_machine_capacity(),
            policy,
        })]);
        let group = GroupProvisioner::new(
            OperatorId(1),
            0,
            origin,
            DistanceClass::VeryFar,
            DemandModel::paper(UpdateModel::Quadratic),
            1.0,
            Box::new(LastValue::new()),
        );
        let mut rig = Self {
            platform,
            stats: MatchStats::current(),
            group,
            now: SimTime::ZERO,
        };
        // Even ticks grant a network lease, odd ticks a CPU lease.
        for k in 1..=2 * PER_KIND {
            let target = held(k / 2, k.div_ceil(2));
            let out = rig.adjust(&target);
            assert_eq!((out.granted, out.released), (1, 0), "warm-up tick {k}");
        }
        rig
    }

    /// One steady-state tick: one release, one grant.
    pub fn step(&mut self) -> AdjustOutcome {
        let target = if self.now.0.is_multiple_of(2) {
            // Release a CPU lease (leaving a sliver of surplus), gain a
            // network lease.
            held(PER_KIND - 1, PER_KIND + 1) - ResourceVector::new(CPU_LEASE / 2.0, 0.0, 0.0, 0.0)
        } else {
            held(PER_KIND, PER_KIND)
        };
        self.adjust(&target)
    }

    /// A step that walks the ledger and changes nothing, at the clock
    /// of the next [`step`](Self::step), which it does not advance.
    /// Meant right after [`new`](Self::new): the target sits half a CPU
    /// lease under the held amounts, so none of the 7 matured leases
    /// fits the surplus and none would be re-granted smaller.
    pub fn idle(&mut self) -> AdjustOutcome {
        let target = held(PER_KIND, PER_KIND) - ResourceVector::new(CPU_LEASE / 2.0, 0.0, 0.0, 0.0);
        self.group
            .adjust(&mut self.platform, &mut self.stats, &target, self.now)
    }

    /// Publishes the matcher tallies, as the engine does at the end of
    /// every settle stage.
    pub fn flush_stats(&mut self) {
        self.stats.flush();
    }

    fn adjust(&mut self, target: &ResourceVector) -> AdjustOutcome {
        let out = self
            .group
            .adjust(&mut self.platform, &mut self.stats, target, self.now);
        self.now += SimDuration::TICK;
        out
    }
}

impl Default for ChurnRig {
    fn default() -> Self {
        Self::new()
    }
}

/// The amounts of `cpu` CPU leases and `net` network leases.
fn held(cpu: u32, net: u32) -> ResourceVector {
    ResourceVector::new(
        CPU_LEASE * f64::from(cpu),
        0.0,
        0.0,
        NET_LEASE * f64::from(net),
    )
}
