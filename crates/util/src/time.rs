//! Simulation time.
//!
//! The paper samples every signal — player counts, predictions, metric
//! evaluations — on a fixed two-minute grid ("the traces are sampled every
//! two minutes", Sec. III-A; "the game operators perform a prediction of
//! the game load every two minutes", Sec. V). We therefore model time as a
//! monotone tick counter at [`TICK_MINUTES`]-minute resolution, with thin
//! wrappers that keep instants and durations from being mixed up.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Minutes per simulation tick (the paper's 2-minute sampling interval).
pub const TICK_MINUTES: u64 = 2;

/// Ticks per simulated hour.
pub const TICKS_PER_HOUR: u64 = 60 / TICK_MINUTES;

/// Ticks per simulated day (720 at 2-minute resolution — the lag at which
/// Figure 3's autocorrelation peaks).
pub const TICKS_PER_DAY: u64 = 24 * TICKS_PER_HOUR;

/// An instant on the simulation clock, counted in ticks since the start
/// of the simulated period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulation time, counted in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (tick 0).
    pub const ZERO: Self = Self(0);

    /// Constructs an instant from whole simulated minutes (rounding down
    /// to the tick grid).
    #[must_use]
    pub fn from_minutes(minutes: u64) -> Self {
        Self(minutes / TICK_MINUTES)
    }

    /// Constructs an instant from whole simulated hours.
    #[must_use]
    pub fn from_hours(hours: u64) -> Self {
        Self(hours * TICKS_PER_HOUR)
    }

    /// Constructs an instant from whole simulated days.
    #[must_use]
    pub fn from_days(days: u64) -> Self {
        Self(days * TICKS_PER_DAY)
    }

    /// The tick index.
    #[must_use]
    pub fn tick(self) -> u64 {
        self.0
    }

    /// Total simulated minutes since the epoch.
    #[must_use]
    pub fn minutes(self) -> u64 {
        self.0 * TICK_MINUTES
    }

    /// Fractional hour-of-day in `[0, 24)` — drives the diurnal player
    /// pattern in the workload generator.
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        (self.0 % TICKS_PER_DAY) as f64 * TICK_MINUTES as f64 / 60.0
    }

    /// Day index since the epoch.
    #[must_use]
    pub fn day(self) -> u64 {
        self.0 / TICKS_PER_DAY
    }

    /// Day of week in `0..7` (day 0 is a Monday by convention); the trace
    /// generator uses this for the weekend effect noted in Sec. III-C.
    #[must_use]
    pub fn day_of_week(self) -> u64 {
        self.day() % 7
    }

    /// True on Saturday or Sunday.
    #[must_use]
    pub fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// The next tick.
    #[must_use]
    pub fn next(self) -> Self {
        Self(self.0 + 1)
    }

    /// Saturating difference to an earlier instant.
    #[must_use]
    pub fn since(self, earlier: Self) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: Self = Self(0);

    /// A single tick.
    pub const TICK: Self = Self(1);

    /// From whole simulated minutes, rounding **up** to the tick grid
    /// (a lease of 3 minutes still occupies 2 ticks = 4 minutes).
    #[must_use]
    pub fn from_minutes_ceil(minutes: u64) -> Self {
        Self(minutes.div_ceil(TICK_MINUTES))
    }

    /// From whole simulated hours.
    #[must_use]
    pub fn from_hours(hours: u64) -> Self {
        Self(hours * TICKS_PER_HOUR)
    }

    /// From whole simulated days.
    #[must_use]
    pub fn from_days(days: u64) -> Self {
        Self(days * TICKS_PER_DAY)
    }

    /// Tick count.
    #[must_use]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Total minutes.
    #[must_use]
    pub fn minutes(self) -> u64 {
        self.0 * TICK_MINUTES
    }

    /// Total fractional hours.
    #[must_use]
    pub fn hours(self) -> f64 {
        self.minutes() as f64 / 60.0
    }

    /// True when zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: Self) -> Self {
        Self(self.0 + other.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mins = self.minutes();
        write!(
            f,
            "d{} {:02}:{:02}",
            self.day(),
            (mins / 60) % 24,
            mins % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}min", self.minutes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_grid_constants() {
        assert_eq!(TICKS_PER_HOUR, 30);
        assert_eq!(TICKS_PER_DAY, 720); // the Figure-3 ACF peak lag
    }

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_days(2);
        assert_eq!(t.tick(), 1440);
        assert_eq!(t.day(), 2);
        assert_eq!(t.minutes(), 2 * 24 * 60);
        assert_eq!(SimTime::from_hours(24), SimTime::from_days(1));
        assert_eq!(SimTime::from_minutes(120), SimTime::from_hours(2));
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = SimTime::from_days(3) + SimDuration::from_hours(13);
        assert!((t.hour_of_day() - 13.0).abs() < 1e-12);
        assert_eq!(SimTime::ZERO.hour_of_day(), 0.0);
    }

    #[test]
    fn weekend_detection() {
        assert!(!SimTime::from_days(0).is_weekend()); // Monday
        assert!(!SimTime::from_days(4).is_weekend()); // Friday
        assert!(SimTime::from_days(5).is_weekend()); // Saturday
        assert!(SimTime::from_days(6).is_weekend()); // Sunday
        assert!(!SimTime::from_days(7).is_weekend()); // next Monday
    }

    #[test]
    fn duration_ceil_rounding() {
        assert_eq!(SimDuration::from_minutes_ceil(3).ticks(), 2);
        assert_eq!(SimDuration::from_minutes_ceil(4).ticks(), 2);
        assert_eq!(SimDuration::from_minutes_ceil(0).ticks(), 0);
        assert_eq!(SimDuration::from_minutes_ceil(1).minutes(), 2);
    }

    #[test]
    fn arithmetic_saturates() {
        let t = SimTime(5);
        assert_eq!((t - SimDuration(10)).tick(), 0);
        assert_eq!(t.since(SimTime(10)).ticks(), 0);
        assert_eq!(SimTime(10).since(t).ticks(), 5);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(1) + SimDuration::from_hours(2) + SimDuration::TICK;
        assert_eq!(t.to_string(), "d1 02:02");
        assert_eq!(SimDuration::from_hours(6).to_string(), "360min");
    }
}
