//! Global population events.
//!
//! Figure 2 of the paper shows the two kinds of shock that dominate
//! MMOG population dynamics:
//!
//! - a **highly unpopular decision** (10 December 2007): "the number of
//!   active concurrent players drops by over 30,000 units (a quarter of
//!   its value) in less than one day. Under intense pressure, the game
//!   operators agree to amend the changes; the number of active
//!   concurrent players raises again, but to only 95% of the previous
//!   value";
//! - **new content releases** (18 December 2007, 15 January 2008): "a
//!   period of about one week after each release sees an over 50% surge
//!   of the number of active concurrent players".
//!
//! Each event contributes a multiplicative factor to the population;
//! [`PopulationEvent::multiplier`] evaluates it at a given time and the
//! factors compose across events.

use mmog_util::time::{SimTime, TICKS_PER_DAY};

/// A population-level shock applied multiplicatively to a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PopulationEvent {
    /// Mass account cancellation after an unpopular change.
    UnpopularDecision {
        /// When the decision lands.
        at: SimTime,
        /// Fraction of the population lost at the trough (0.25 in Fig. 2).
        drop: f64,
        /// Days until the drop bottoms out (under one day in Fig. 2).
        crash_days: f64,
        /// Days the recovery takes once the change is amended.
        recovery_days: f64,
        /// Long-run level relative to before the event (0.95 in Fig. 2).
        recovery_level: f64,
    },
    /// A content release attracting a temporary surge.
    ContentRelease {
        /// Release time.
        at: SimTime,
        /// Peak surge fraction (0.5 for "an over 50% surge").
        surge: f64,
        /// Days until the surge peaks.
        ramp_days: f64,
        /// Days over which the surge decays back to baseline.
        duration_days: f64,
    },
}

impl PopulationEvent {
    /// The Figure 2 event sequence, relative to a trace starting
    /// `lead_days` before the unpopular decision.
    #[must_use]
    pub fn figure2_sequence(lead_days: u64) -> Vec<Self> {
        let day = |d: u64| SimTime::from_days(lead_days + d);
        vec![
            // 10 December 2007: the unpopular decision.
            Self::UnpopularDecision {
                at: day(0),
                drop: 0.25,
                crash_days: 0.75,
                recovery_days: 4.0,
                recovery_level: 0.95,
            },
            // 18 December 2007: first new content.
            Self::ContentRelease {
                at: day(8),
                surge: 0.5,
                ramp_days: 1.5,
                duration_days: 7.0,
            },
            // 15 January 2008: second new content.
            Self::ContentRelease {
                at: day(36),
                surge: 0.5,
                ramp_days: 1.5,
                duration_days: 7.0,
            },
        ]
    }

    /// Multiplicative population factor contributed by this event at
    /// time `t` (1.0 before the event starts).
    #[must_use]
    pub fn multiplier(&self, t: SimTime) -> f64 {
        match *self {
            Self::UnpopularDecision {
                at,
                drop,
                crash_days,
                recovery_days,
                recovery_level,
            } => {
                if t < at {
                    return 1.0;
                }
                let days = t.since(at).ticks() as f64 / TICKS_PER_DAY as f64;
                if days <= crash_days {
                    // Linear crash to the trough.
                    1.0 - drop * (days / crash_days.max(f64::MIN_POSITIVE))
                } else {
                    // Exponential recovery towards the (reduced) plateau.
                    let trough = 1.0 - drop;
                    let tau = (recovery_days / 3.0).max(f64::MIN_POSITIVE);
                    let progress = 1.0 - (-(days - crash_days) / tau).exp();
                    trough + (recovery_level - trough) * progress
                }
            }
            Self::ContentRelease {
                at,
                surge,
                ramp_days,
                duration_days,
            } => {
                if t < at {
                    return 1.0;
                }
                let days = t.since(at).ticks() as f64 / TICKS_PER_DAY as f64;
                if days <= ramp_days {
                    1.0 + surge * (days / ramp_days.max(f64::MIN_POSITIVE))
                } else {
                    // Exponential decay of the surge after the peak.
                    let tau = (duration_days / 2.0).max(f64::MIN_POSITIVE);
                    1.0 + surge * (-(days - ramp_days) / tau).exp()
                }
            }
        }
    }
}

/// Composes the multipliers of several events at time `t`.
#[must_use]
pub fn combined_multiplier(events: &[PopulationEvent], t: SimTime) -> f64 {
    events.iter().map(|e| e.multiplier(t)).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_util::time::SimDuration;

    fn decision() -> PopulationEvent {
        PopulationEvent::UnpopularDecision {
            at: SimTime::from_days(10),
            drop: 0.25,
            crash_days: 0.75,
            recovery_days: 4.0,
            recovery_level: 0.95,
        }
    }

    fn release() -> PopulationEvent {
        PopulationEvent::ContentRelease {
            at: SimTime::from_days(10),
            surge: 0.5,
            ramp_days: 1.5,
            duration_days: 7.0,
        }
    }

    #[test]
    fn neutral_before_event() {
        assert_eq!(decision().multiplier(SimTime::from_days(9)), 1.0);
        assert_eq!(release().multiplier(SimTime::ZERO), 1.0);
    }

    #[test]
    fn decision_bottoms_at_quarter_drop_within_a_day() {
        let e = decision();
        let trough = e.multiplier(SimTime::from_days(10) + SimDuration::from_hours(18));
        assert!((trough - 0.75).abs() < 1e-9, "trough {trough}");
        // Less than one day to lose a quarter — the Fig. 2 claim.
        let after_day = e.multiplier(SimTime::from_days(11));
        assert!(after_day >= 0.75);
    }

    #[test]
    fn decision_recovers_to_95_percent() {
        let e = decision();
        let late = e.multiplier(SimTime::from_days(40));
        assert!((late - 0.95).abs() < 0.005, "late {late}");
        // Monotone recovery after the trough.
        let mut prev = 0.0;
        for d in 11..30 {
            let m = e.multiplier(SimTime::from_days(d));
            assert!(m >= prev - 1e-12, "non-monotone at day {d}");
            prev = m;
        }
    }

    #[test]
    fn release_peaks_at_surge_then_decays() {
        let e = release();
        let peak = e.multiplier(SimTime::from_days(10) + SimDuration::from_hours(36));
        assert!((peak - 1.5).abs() < 1e-9, "peak {peak}");
        let mid = e.multiplier(SimTime::from_days(15));
        assert!(mid > 1.0 && mid < 1.5, "mid {mid}");
        let late = e.multiplier(SimTime::from_days(40));
        assert!((late - 1.0).abs() < 0.01, "late {late}");
    }

    #[test]
    fn surge_lasts_about_a_week() {
        // "a period of about one week after each release sees an over
        // 50% surge" — the factor should still exceed ~1.1 six days in.
        let e = release();
        let day6 = e.multiplier(SimTime::from_days(16));
        assert!(day6 > 1.1, "day-6 factor {day6}");
    }

    #[test]
    fn combined_multiplier_composes() {
        let events = vec![decision(), release()];
        let t = SimTime::from_days(12);
        let product: f64 = events.iter().map(|e| e.multiplier(t)).product();
        assert!((combined_multiplier(&events, t) - product).abs() < 1e-12);
        assert_eq!(combined_multiplier(&[], t), 1.0);
    }

    #[test]
    fn figure2_sequence_shape() {
        let events = PopulationEvent::figure2_sequence(7);
        assert_eq!(events.len(), 3);
        // Before everything: neutral.
        assert_eq!(combined_multiplier(&events, SimTime::from_days(2)), 1.0);
        // Shortly after the decision: a clear dip.
        let dip = combined_multiplier(&events, SimTime::from_days(8));
        assert!(dip < 0.85, "dip {dip}");
        // During the first release surge (post-recovery): above baseline.
        let surge = combined_multiplier(&events, SimTime::from_days(17));
        assert!(surge > 1.1, "surge {surge}");
    }
}
