//! Emulator configuration and the eight Table I trace presets.
//!
//! Table I of the paper parameterises each emulated data set by the
//! profile mix (Aggr./Scout/Team/Camp. percentages), whether peak hours
//! are modelled, the peak load, and two dynamics levels. The magnitude
//! columns of Table I are qualitative; Sec. IV-D.1 classifies the
//! resulting signals as **Type I** (high instantaneous, medium overall
//! dynamics — sets 2, 3, 4), **Type II** (low instantaneous — sets 6, 7,
//! 8) and **Type III** (medium instantaneous — sets 1 and 5), which is
//! what we encode here.

use crate::profile::{ProfileMix, ProfileSwitching};

/// Qualitative dynamics level (drives speed / relocation / noise knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DynamicsLevel {
    /// Stable signal (MMORPG-like).
    Low,
    /// In-between.
    Medium,
    /// Fast-paced (FPS-like) — "a large difference in the entity
    /// interaction over a short period of time".
    High,
}

impl DynamicsLevel {
    /// Entity-speed multiplier (instantaneous dynamics).
    #[must_use]
    pub fn speed_factor(self) -> f64 {
        match self {
            Self::Low => 0.5,
            Self::Medium => 1.5,
            Self::High => 4.0,
        }
    }

    /// Per-tick probability that a hotspot relocates (instantaneous
    /// dynamics: hotspot churn shuffles the entity distribution fast).
    #[must_use]
    pub fn hotspot_relocation_prob(self) -> f64 {
        match self {
            Self::Low => 0.01,
            Self::Medium => 0.05,
            Self::High => 0.20,
        }
    }

    /// Relative σ of the per-tick population noise (instantaneous).
    #[must_use]
    pub fn population_noise(self) -> f64 {
        match self {
            Self::Low => 0.01,
            Self::Medium => 0.03,
            Self::High => 0.08,
        }
    }

    /// Amplitude of the day-scale population variation (overall
    /// dynamics): the population floor is `1 − amplitude` of the peak.
    #[must_use]
    pub fn daily_amplitude(self) -> f64 {
        match self {
            Self::Low => 0.2,
            Self::Medium => 0.5,
            Self::High => 0.8,
        }
    }
}

/// The three signal types of Sec. IV-D.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalType {
    /// High instantaneous, medium overall dynamics (sets 2, 3, 4).
    TypeI,
    /// Low instantaneous dynamics (sets 6, 7, 8).
    TypeII,
    /// Medium instantaneous dynamics (sets 1, 5).
    TypeIII,
}

/// Full parameter set for one emulator run.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulatorConfig {
    /// World edge length in world units.
    pub world_size: f64,
    /// Sub-zones per world edge (the paper's sub-zone partitioning).
    pub grid: u32,
    /// Peak number of concurrent entities ("peak load" in Table I).
    pub peak_entities: usize,
    /// Behaviour profile mix (a Table I row).
    pub profile_mix: ProfileMix,
    /// Whether to model peak hours ("the periods with high player count
    /// in online gaming such as late afternoon").
    pub peak_hours: bool,
    /// Day-scale variability of the entity interaction.
    pub overall_dynamics: DynamicsLevel,
    /// Two-minute-scale variability of the entity interaction.
    pub instantaneous_dynamics: DynamicsLevel,
    /// Dynamic profile-switching parameters.
    pub switching: ProfileSwitching,
    /// Number of roaming interaction hotspots that attract aggressive
    /// players.
    pub hotspots: usize,
    /// Number of teams for team players.
    pub teams: u32,
    /// Area-of-interest radius in world units.
    pub aoi_radius: f64,
    /// Non-player characters maintained per avatar (Sec. II-A's bots:
    /// "mobile entities that have the ability to act independently").
    /// NPCs wander like scouts and contribute to the entity counts the
    /// predictors see. 0 disables them (the Table I experiments use
    /// avatars only).
    pub npc_ratio: f64,
}

impl Default for EmulatorConfig {
    fn default() -> Self {
        Self {
            world_size: 1000.0,
            grid: 16,
            peak_entities: 2000, // one fully loaded RuneScape server (Sec. V-A)
            profile_mix: ProfileMix::from_percent(25.0, 25.0, 25.0, 25.0),
            peak_hours: true,
            overall_dynamics: DynamicsLevel::Medium,
            instantaneous_dynamics: DynamicsLevel::Medium,
            switching: ProfileSwitching::default(),
            hotspots: 5,
            teams: 8,
            aoi_radius: 30.0,
            npc_ratio: 0.0,
        }
    }
}

impl EmulatorConfig {
    /// Validates internal consistency; returns a message for the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.world_size <= 0.0 {
            return Err("world_size must be positive".into());
        }
        if self.grid == 0 {
            return Err("grid must be at least 1".into());
        }
        if self.peak_entities == 0 {
            return Err("peak_entities must be at least 1".into());
        }
        if self.aoi_radius < 0.0 {
            return Err("aoi_radius must be non-negative".into());
        }
        if self.npc_ratio < 0.0 {
            return Err("npc_ratio must be non-negative".into());
        }
        if self.hotspots == 0 {
            return Err("at least one hotspot is required".into());
        }
        if self.teams == 0 {
            return Err("at least one team is required".into());
        }
        Ok(())
    }
}

/// The eight emulated trace data sets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceSet {
    /// 80/10/0/10, no peak hours — Type III.
    Set1,
    /// 60/10/0/20, no peak hours — Type I.
    Set2,
    /// 70/20/0/10, no peak hours — Type I.
    Set3,
    /// 70/30/0/0, no peak hours — Type I.
    Set4,
    /// 30/40/30/0, peak hours — Type III.
    Set5,
    /// 10/80/10/0, peak hours — Type II.
    Set6,
    /// 20/40/40/0, peak hours — Type II.
    Set7,
    /// 20/80/0/0, peak hours — Type II.
    Set8,
}

impl TraceSet {
    /// All eight sets in Table I order.
    pub const ALL: [Self; 8] = [
        Self::Set1,
        Self::Set2,
        Self::Set3,
        Self::Set4,
        Self::Set5,
        Self::Set6,
        Self::Set7,
        Self::Set8,
    ];

    /// Display name ("Set 1" … "Set 8").
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Set1 => "Set 1",
            Self::Set2 => "Set 2",
            Self::Set3 => "Set 3",
            Self::Set4 => "Set 4",
            Self::Set5 => "Set 5",
            Self::Set6 => "Set 6",
            Self::Set7 => "Set 7",
            Self::Set8 => "Set 8",
        }
    }

    /// Profile mix percentages (Aggr., Scout, Team, Camp.) — Table I.
    #[must_use]
    pub fn mix_percent(self) -> [f64; 4] {
        match self {
            Self::Set1 => [80.0, 10.0, 0.0, 10.0],
            Self::Set2 => [60.0, 10.0, 0.0, 20.0],
            Self::Set3 => [70.0, 20.0, 0.0, 10.0],
            Self::Set4 => [70.0, 30.0, 0.0, 0.0],
            Self::Set5 => [30.0, 40.0, 30.0, 0.0],
            Self::Set6 => [10.0, 80.0, 10.0, 0.0],
            Self::Set7 => [20.0, 40.0, 40.0, 0.0],
            Self::Set8 => [20.0, 80.0, 0.0, 0.0],
        }
    }

    /// Whether the set models peak hours — Table I.
    #[must_use]
    pub fn peak_hours(self) -> bool {
        matches!(self, Self::Set5 | Self::Set6 | Self::Set7 | Self::Set8)
    }

    /// The Sec. IV-D.1 signal classification.
    #[must_use]
    pub fn signal_type(self) -> SignalType {
        match self {
            Self::Set2 | Self::Set3 | Self::Set4 => SignalType::TypeI,
            Self::Set6 | Self::Set7 | Self::Set8 => SignalType::TypeII,
            Self::Set1 | Self::Set5 => SignalType::TypeIII,
        }
    }

    /// The full emulator configuration for this set.
    #[must_use]
    pub fn config(self) -> EmulatorConfig {
        let [a, s, t, c] = self.mix_percent();
        let (inst, overall) = match self.signal_type() {
            SignalType::TypeI => (DynamicsLevel::High, DynamicsLevel::Medium),
            SignalType::TypeII => (DynamicsLevel::Low, DynamicsLevel::Medium),
            SignalType::TypeIII => (DynamicsLevel::Medium, DynamicsLevel::Medium),
        };
        EmulatorConfig {
            profile_mix: ProfileMix::from_percent(a, s, t, c),
            peak_hours: self.peak_hours(),
            overall_dynamics: overall,
            instantaneous_dynamics: inst,
            ..EmulatorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        for set in TraceSet::ALL {
            let cfg = set.config();
            assert!(cfg.validate().is_ok(), "{}", set.name());
        }
    }

    #[test]
    fn mixes_sum_to_table1_totals() {
        // Table I as printed: every set sums to 100 except Set 2, whose
        // row (60/10/0/20) totals 90. Sampling normalises regardless.
        for set in TraceSet::ALL {
            let sum: f64 = set.mix_percent().iter().sum();
            let expected = if set == TraceSet::Set2 { 90.0 } else { 100.0 };
            assert!((sum - expected).abs() < 1e-9, "{}: {sum}", set.name());
        }
    }

    #[test]
    fn peak_hours_split_matches_table1() {
        assert!(!TraceSet::Set1.peak_hours());
        assert!(!TraceSet::Set4.peak_hours());
        assert!(TraceSet::Set5.peak_hours());
        assert!(TraceSet::Set8.peak_hours());
    }

    #[test]
    fn signal_types_match_section_4d1() {
        use SignalType::*;
        assert_eq!(TraceSet::Set2.signal_type(), TypeI);
        assert_eq!(TraceSet::Set3.signal_type(), TypeI);
        assert_eq!(TraceSet::Set4.signal_type(), TypeI);
        assert_eq!(TraceSet::Set6.signal_type(), TypeII);
        assert_eq!(TraceSet::Set7.signal_type(), TypeII);
        assert_eq!(TraceSet::Set8.signal_type(), TypeII);
        assert_eq!(TraceSet::Set1.signal_type(), TypeIII);
        assert_eq!(TraceSet::Set5.signal_type(), TypeIII);
    }

    #[test]
    fn dynamics_levels_are_ordered() {
        assert!(DynamicsLevel::Low.speed_factor() < DynamicsLevel::High.speed_factor());
        assert!(
            DynamicsLevel::Low.hotspot_relocation_prob()
                < DynamicsLevel::High.hotspot_relocation_prob()
        );
        assert!(DynamicsLevel::Low.population_noise() < DynamicsLevel::High.population_noise());
        assert!(DynamicsLevel::Low.daily_amplitude() < DynamicsLevel::High.daily_amplitude());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = [
            EmulatorConfig {
                grid: 0,
                ..EmulatorConfig::default()
            },
            EmulatorConfig {
                peak_entities: 0,
                ..EmulatorConfig::default()
            },
            EmulatorConfig {
                world_size: -1.0,
                ..EmulatorConfig::default()
            },
            EmulatorConfig {
                aoi_radius: -0.1,
                ..EmulatorConfig::default()
            },
            EmulatorConfig {
                npc_ratio: -0.5,
                ..EmulatorConfig::default()
            },
            EmulatorConfig {
                hotspots: 0,
                ..EmulatorConfig::default()
            },
            EmulatorConfig {
                teams: 0,
                ..EmulatorConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn set_names_unique() {
        let mut names: Vec<&str> = TraceSet::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
