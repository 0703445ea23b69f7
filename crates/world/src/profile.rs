//! The AI behaviour profiles of Sec. IV-D.1.
//!
//! "The emulated players are driven by several Artificial Intelligence
//! (AI) profiles which determine their behavior during a simulation: the
//! *aggressive* profile determines the player to seek and interact with
//! opponents; the *team player* profile causes the player to act in a
//! group together with its teammates; the *scout* profile leads the
//! entity for discovering uncharted zones of the game world (not
//! guaranteeing any interaction); and the *camper* player simulates a
//! well-known tactic in FPS games to hide and wait for the opponent."
//!
//! The four profiles match "the four behavioral profiles most encountered
//! in MMOGs: the achiever, the explorer, the socializer, and the killer".

use mmog_util::rng::Rng64;

/// One of the four behaviour profiles driving an emulated player.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AiProfile {
    /// Seeks and interacts with opponents (Bartle's *killer*): steers
    /// toward interaction hotspots, producing dense clusters.
    Aggressive,
    /// Discovers uncharted zones (Bartle's *explorer*): wanders toward
    /// low-density areas, "not guaranteeing any interaction".
    Scout,
    /// Acts in a group with teammates (Bartle's *socializer*): follows
    /// the team centroid, producing mid-size co-moving groups.
    TeamPlayer,
    /// Hides and waits (the FPS camping tactic, Bartle's *achiever* in
    /// the paper's mapping): mostly stationary.
    Camper,
}

impl AiProfile {
    /// All four profiles, in the column order of Table I
    /// (Aggr., Scout, Team, Camp.).
    pub const ALL: [Self; 4] = [
        Self::Aggressive,
        Self::Scout,
        Self::TeamPlayer,
        Self::Camper,
    ];

    /// Baseline movement speed in world-units per tick, before the
    /// instantaneous-dynamics multiplier. Aggressive players chase, team
    /// players keep formation, scouts roam steadily, campers creep.
    #[must_use]
    pub fn base_speed(self) -> f64 {
        match self {
            Self::Aggressive => 8.0,
            Self::Scout => 5.0,
            Self::TeamPlayer => 4.0,
            Self::Camper => 0.5,
        }
    }

    /// Relative propensity to generate player-to-player interactions;
    /// used by the interaction-weighted load model.
    #[must_use]
    pub fn interactivity(self) -> f64 {
        match self {
            Self::Aggressive => 1.0,
            Self::TeamPlayer => 0.7,
            Self::Camper => 0.3,
            Self::Scout => 0.1,
        }
    }

    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Aggressive => "aggressive",
            Self::Scout => "scout",
            Self::TeamPlayer => "team",
            Self::Camper => "camper",
        }
    }
}

/// A probability mix over the four profiles — one row of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileMix {
    /// Weights in Table I column order (Aggr., Scout, Team, Camp.).
    /// They need not sum to 1; sampling normalises.
    pub weights: [f64; 4],
}

impl ProfileMix {
    /// Creates a mix from percentage weights (the Table I convention).
    ///
    /// # Panics
    /// Panics if all weights are zero or any is negative.
    #[must_use]
    pub fn from_percent(aggressive: f64, scout: f64, team: f64, camper: f64) -> Self {
        let weights = [aggressive, scout, team, camper];
        assert!(weights.iter().all(|w| *w >= 0.0), "negative profile weight");
        assert!(
            weights.iter().sum::<f64>() > 0.0,
            "profile mix must be non-empty"
        );
        Self { weights }
    }

    /// Samples a profile according to the weights.
    pub fn sample(&self, rng: &mut Rng64) -> AiProfile {
        let idx = rng
            .weighted_index(&self.weights)
            .expect("constructor guarantees positive total weight");
        AiProfile::ALL[idx]
    }

    /// Fraction of the mix assigned to `profile`, in `[0,1]`.
    #[must_use]
    pub fn fraction(&self, profile: AiProfile) -> f64 {
        let total: f64 = self.weights.iter().sum();
        let idx = AiProfile::ALL
            .iter()
            .position(|p| *p == profile)
            .expect("ALL is complete");
        self.weights[idx] / total
    }
}

/// Governs the "mixed behavior encountered in deployed MMOGs": each tick
/// an entity may temporarily switch away from its preferred profile, and
/// switched entities revert with a fixed probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSwitching {
    /// Per-tick probability that an entity playing its preferred profile
    /// temporarily adopts a random other profile.
    pub switch_prob: f64,
    /// Per-tick probability that a switched entity reverts.
    pub revert_prob: f64,
}

impl Default for ProfileSwitching {
    fn default() -> Self {
        Self {
            switch_prob: 0.02,
            revert_prob: 0.25,
        }
    }
}

impl ProfileSwitching {
    /// Applies one tick of switching dynamics, returning the next active
    /// profile for an entity currently at `active` preferring `preferred`.
    pub fn step(&self, preferred: AiProfile, active: AiProfile, rng: &mut Rng64) -> AiProfile {
        if active == preferred {
            if rng.chance(self.switch_prob) {
                // Pick uniformly among the other three profiles.
                let others: Vec<AiProfile> = AiProfile::ALL
                    .iter()
                    .copied()
                    .filter(|p| *p != preferred)
                    .collect();
                others[rng.index(others.len())]
            } else {
                active
            }
        } else if rng.chance(self.revert_prob) {
            preferred
        } else {
            active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_sampling_matches_weights() {
        // Table I, Set 1: 80/10/0/10.
        let mix = ProfileMix::from_percent(80.0, 10.0, 0.0, 10.0);
        let mut rng = Rng64::seed_from(1);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            let p = mix.sample(&mut rng);
            let idx = AiProfile::ALL.iter().position(|q| *q == p).unwrap();
            counts[idx] += 1;
        }
        assert_eq!(counts[2], 0, "zero-weight profile must never be sampled");
        let frac_aggr = counts[0] as f64 / 40_000.0;
        assert!(
            (frac_aggr - 0.8).abs() < 0.02,
            "aggressive fraction {frac_aggr}"
        );
    }

    #[test]
    fn fraction_normalises() {
        let mix = ProfileMix::from_percent(2.0, 1.0, 1.0, 0.0);
        assert!((mix.fraction(AiProfile::Aggressive) - 0.5).abs() < 1e-12);
        assert_eq!(mix.fraction(AiProfile::Camper), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_mix_rejected() {
        let _ = ProfileMix::from_percent(0.0, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_weight_rejected() {
        let _ = ProfileMix::from_percent(-1.0, 2.0, 0.0, 0.0);
    }

    #[test]
    fn switching_eventually_switches_and_reverts() {
        let sw = ProfileSwitching {
            switch_prob: 0.5,
            revert_prob: 0.5,
        };
        let mut rng = Rng64::seed_from(2);
        let mut switched = false;
        let mut reverted = false;
        let preferred = AiProfile::Scout;
        let mut active = preferred;
        for _ in 0..200 {
            let next = sw.step(preferred, active, &mut rng);
            if next != preferred {
                switched = true;
            }
            if active != preferred && next == preferred {
                reverted = true;
            }
            active = next;
        }
        assert!(switched, "never switched");
        assert!(reverted, "never reverted");
    }

    #[test]
    fn switching_never_yields_preferred_as_switch_target() {
        let sw = ProfileSwitching {
            switch_prob: 1.0,
            revert_prob: 0.0,
        };
        let mut rng = Rng64::seed_from(3);
        for _ in 0..50 {
            let next = sw.step(AiProfile::Camper, AiProfile::Camper, &mut rng);
            assert_ne!(next, AiProfile::Camper);
        }
    }

    #[test]
    fn zero_probabilities_freeze_state() {
        let sw = ProfileSwitching {
            switch_prob: 0.0,
            revert_prob: 0.0,
        };
        let mut rng = Rng64::seed_from(4);
        assert_eq!(
            sw.step(AiProfile::Scout, AiProfile::Scout, &mut rng),
            AiProfile::Scout
        );
        assert_eq!(
            sw.step(AiProfile::Scout, AiProfile::Aggressive, &mut rng),
            AiProfile::Aggressive
        );
    }

    #[test]
    fn profile_speed_ordering() {
        assert!(AiProfile::Aggressive.base_speed() > AiProfile::Scout.base_speed());
        assert!(AiProfile::Scout.base_speed() > AiProfile::Camper.base_speed());
    }

    #[test]
    fn interactivity_ordering_matches_paper() {
        // Aggressive seeks interaction; scouts guarantee none.
        assert!(AiProfile::Aggressive.interactivity() > AiProfile::TeamPlayer.interactivity());
        assert!(AiProfile::TeamPlayer.interactivity() > AiProfile::Scout.interactivity());
    }
}
