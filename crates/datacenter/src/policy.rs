//! Hosting policies — resource and time bulks (Sec. II-B, Table IV).
//!
//! "We define the **resource bulk** as the minimum number of resources
//! that can be allocated for one request, expressed as the multiple of a
//! minimal resource size. Similarly, we define the **time bulk** as the
//! minimum duration for which a resource allocation can be made. … A
//! space-time policy expresses the sizes for the resource and of the
//! time bulks."
//!
//! Table IV lists the eleven policies used in Section V. An `n/a` bulk
//! means the data center does not quantise that resource type — requests
//! for it are granted exactly.

use crate::resource::{ResourceType, ResourceVector};
use mmog_util::time::SimDuration;

/// A data center's space-time renting policy.
#[derive(Debug, Clone, PartialEq)]
pub struct HostingPolicy {
    /// Policy name ("HP-1" … "HP-11" or custom).
    pub name: String,
    /// Resource bulk per type (`None` = not quantised / exact grants).
    pub bulks: [Option<f64>; 4],
    /// Minimum lease duration.
    pub time_bulk: SimDuration,
}

impl HostingPolicy {
    /// Creates a custom policy.
    ///
    /// # Panics
    /// Panics if any bulk is non-positive or the time bulk is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        cpu: Option<f64>,
        memory: Option<f64>,
        ext_net_in: Option<f64>,
        ext_net_out: Option<f64>,
        time_bulk: SimDuration,
    ) -> Self {
        let bulks = [cpu, memory, ext_net_in, ext_net_out];
        assert!(
            bulks.iter().flatten().all(|b| *b > 0.0),
            "resource bulks must be positive"
        );
        assert!(!time_bulk.is_zero(), "time bulk must be positive");
        Self {
            name: name.into(),
            bulks,
            time_bulk,
        }
    }

    /// The Table IV policy `HP-n` for `n` in `1..=11`.
    ///
    /// # Panics
    /// Panics for `n` outside `1..=11`.
    #[must_use]
    pub fn hp(n: usize) -> Self {
        let minutes = |m: u64| SimDuration::from_minutes_ceil(m);
        match n {
            1 => Self::new(
                "HP-1",
                Some(0.25),
                None,
                Some(6.0),
                Some(0.33),
                minutes(360),
            ),
            2 => Self::new("HP-2", Some(0.25), None, Some(4.0), Some(0.5), minutes(360)),
            3 => Self::new("HP-3", Some(0.22), Some(2.0), None, None, minutes(180)),
            4 => Self::new("HP-4", Some(0.28), Some(2.0), None, None, minutes(180)),
            5 => Self::new("HP-5", Some(0.37), Some(2.0), None, None, minutes(180)),
            6 => Self::new("HP-6", Some(0.56), Some(2.0), None, None, minutes(180)),
            7 => Self::new("HP-7", Some(1.11), Some(2.0), None, None, minutes(180)),
            8 => Self::new("HP-8", Some(0.37), Some(2.0), None, None, minutes(360)),
            9 => Self::new("HP-9", Some(0.37), Some(2.0), None, None, minutes(720)),
            10 => Self::new("HP-10", Some(0.37), Some(2.0), None, None, minutes(1440)),
            11 => Self::new("HP-11", Some(0.37), Some(2.0), None, None, minutes(2880)),
            _ => panic!("Table IV defines HP-1..HP-11, got HP-{n}"),
        }
    }

    /// All eleven Table IV policies.
    #[must_use]
    pub fn table4() -> Vec<Self> {
        (1..=11).map(Self::hp).collect()
    }

    /// Bulk for one resource type.
    #[must_use]
    pub fn bulk(&self, r: ResourceType) -> Option<f64> {
        let idx = ResourceType::ALL
            .iter()
            .position(|t| *t == r)
            .expect("ALL is complete");
        self.bulks[idx]
    }

    /// Rounds one amount **up** to the bulk grid (requests can only be
    /// granted in whole bulks).
    #[must_use]
    pub fn round_up(&self, r: ResourceType, amount: f64) -> f64 {
        if amount <= 0.0 {
            return 0.0;
        }
        match self.bulk(r) {
            None => amount,
            Some(b) => (amount / b).ceil() * b,
        }
    }

    /// Rounds one amount **down** to the bulk grid (what can be carved
    /// out of a limited free pool).
    #[must_use]
    pub fn round_down(&self, r: ResourceType, amount: f64) -> f64 {
        if amount <= 0.0 {
            return 0.0;
        }
        match self.bulk(r) {
            None => amount,
            Some(b) => (amount / b + 1e-9).floor() * b,
        }
    }

    /// Rounds a whole request up to the bulk grid.
    #[must_use]
    pub fn round_request(&self, req: &ResourceVector) -> ResourceVector {
        req.map(|r, v| self.round_up(r, v))
    }

    /// Granularity score used by the matching mechanism's third
    /// criterion ("selects first the finer grained resources"): the CPU
    /// bulk, with non-quantised CPU counting as perfectly fine (0).
    #[must_use]
    pub fn granularity(&self) -> f64 {
        self.bulk(ResourceType::Cpu).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_values() {
        let hp1 = HostingPolicy::hp(1);
        assert_eq!(hp1.bulk(ResourceType::Cpu), Some(0.25));
        assert_eq!(hp1.bulk(ResourceType::Memory), None);
        assert_eq!(hp1.bulk(ResourceType::ExtNetIn), Some(6.0));
        assert_eq!(hp1.bulk(ResourceType::ExtNetOut), Some(0.33));
        assert_eq!(hp1.time_bulk.minutes(), 360);

        let hp7 = HostingPolicy::hp(7);
        assert_eq!(hp7.bulk(ResourceType::Cpu), Some(1.11));
        assert_eq!(hp7.time_bulk.minutes(), 180);

        let hp11 = HostingPolicy::hp(11);
        assert_eq!(hp11.time_bulk.minutes(), 2880);
        assert_eq!(HostingPolicy::table4().len(), 11);
    }

    #[test]
    #[should_panic(expected = "HP-1..HP-11")]
    fn hp_out_of_range_panics() {
        let _ = HostingPolicy::hp(12);
    }

    #[test]
    fn round_up_quantises_to_bulk() {
        let hp5 = HostingPolicy::hp(5); // CPU bulk 0.37
        assert!((hp5.round_up(ResourceType::Cpu, 1.0) - 1.11).abs() < 1e-9);
        assert!((hp5.round_up(ResourceType::Cpu, 0.37) - 0.37).abs() < 1e-9);
        assert_eq!(hp5.round_up(ResourceType::Cpu, 0.0), 0.0);
        assert_eq!(hp5.round_up(ResourceType::Cpu, -3.0), 0.0);
        // Non-quantised type passes through.
        assert_eq!(hp5.round_up(ResourceType::ExtNetIn, 1.234), 1.234);
    }

    #[test]
    fn round_down_never_exceeds() {
        let hp3 = HostingPolicy::hp(3); // CPU bulk 0.22
        let down = hp3.round_down(ResourceType::Cpu, 1.0);
        assert!(down <= 1.0);
        assert!((down - 0.88).abs() < 1e-9);
        // Exact multiples survive (floating-point slack).
        assert!((hp3.round_down(ResourceType::Cpu, 0.66) - 0.66).abs() < 1e-9);
        assert_eq!(hp3.round_down(ResourceType::Cpu, -1.0), 0.0);
    }

    #[test]
    fn round_request_whole_vector() {
        let hp1 = HostingPolicy::hp(1);
        let req = ResourceVector::new(0.3, 1.5, 1.0, 0.1);
        let rounded = hp1.round_request(&req);
        assert!((rounded.cpu - 0.5).abs() < 1e-9);
        assert_eq!(rounded.memory, 1.5); // n/a bulk
        assert!((rounded.ext_net_in - 6.0).abs() < 1e-9);
        assert!((rounded.ext_net_out - 0.33).abs() < 1e-9);
        // Rounding is idempotent.
        let again = hp1.round_request(&rounded);
        assert!((again.cpu - rounded.cpu).abs() < 1e-9);
        assert!((again.ext_net_in - rounded.ext_net_in).abs() < 1e-9);
    }

    #[test]
    fn granularity_orders_hp3_to_hp7() {
        // HP-3 (0.22) finest … HP-7 (1.11) coarsest — the Figure 11 axis.
        let g: Vec<f64> = (3..=7)
            .map(|n| HostingPolicy::hp(n).granularity())
            .collect();
        for w in g.windows(2) {
            assert!(w[0] < w[1], "{w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bulk_rejected() {
        let _ = HostingPolicy::new(
            "bad",
            Some(0.0),
            None,
            None,
            None,
            SimDuration::from_hours(1),
        );
    }

    #[test]
    #[should_panic(expected = "time bulk")]
    fn zero_time_bulk_rejected() {
        let _ = HostingPolicy::new("bad", Some(1.0), None, None, None, SimDuration::ZERO);
    }
}
