//! `mmog-faults` — the deterministic fault-injection plane.
//!
//! The paper's evaluation (Sec. V) assumes every data center is always
//! up and every granted lease survives its full term. Resource-management
//! work for cloud data centers treats failure handling as a first-class
//! concern next to allocation efficiency, so this crate supplies the
//! missing uncertainty: a [`FaultSchedule`] of timed events — full
//! center outages with repair times, partial capacity degradation,
//! spontaneous lease revocations, and predictor dropouts — that the
//! simulation engine applies from its serial sections.
//!
//! Determinism contract: a schedule is a pure function of a
//! [`FaultSpec`] (or an explicit event list), the tick horizon and the
//! platform size. Generation draws from per-center
//! [`mmog_util::rng::stream_seed`] streams, so the same spec produces
//! the same events regardless of thread count, and runs with faults
//! disabled take code paths byte-identical to a build without this
//! crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod scenario;

pub use scenario::{ScenarioEvent, ScenarioEventKind, ScenarioSpec, ScenarioTimeline};

use mmog_util::rng::Rng64;
use mmog_util::time::{TICKS_PER_DAY, TICK_MINUTES};
use serde::{Deserialize, Serialize};

/// What a single fault event does when the engine applies it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Full outage: the center goes `Down` and every lease it holds is
    /// revoked (Sec. II-B leases are center-local, so they cannot
    /// migrate out of a failed cluster).
    CenterDown,
    /// Repair: the center returns to `Up` at nominal capacity.
    CenterUp,
    /// Partial degradation: the center stays up but only `fraction` of
    /// its nominal capacity is usable. Existing leases keep running;
    /// new grants see the reduced free pool.
    CenterDegraded {
        /// Usable fraction of nominal capacity in `[0, 1]`.
        fraction: f64,
    },
    /// Spontaneous revocation of the oldest active lease at the center
    /// (e.g. the hoster reclaims capacity mid-term).
    LeaseRevoked,
    /// A tick on which the predictor returns no forecast; the engine
    /// falls back to last-value prediction for every group. The
    /// `center` field of the event is ignored.
    PredictorDropout,
}

impl FaultKind {
    /// Stable lower-case label used in trace events.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::CenterDown => "center_down",
            Self::CenterUp => "center_up",
            Self::CenterDegraded { .. } => "center_degraded",
            Self::LeaseRevoked => "lease_revoked",
            Self::PredictorDropout => "predictor_dropout",
        }
    }

    /// Ordering rank used to sort same-tick events deterministically
    /// (repairs before new failures so a back-to-back repair/outage
    /// pair on one center resolves to the outage).
    fn rank(&self) -> u8 {
        match self {
            Self::CenterUp => 0,
            Self::CenterDown => 1,
            Self::CenterDegraded { .. } => 2,
            Self::LeaseRevoked => 3,
            Self::PredictorDropout => 4,
        }
    }
}

/// One timed fault event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Tick at which the event strikes (applied before the tick's
    /// scoring, so its impact is visible the same tick).
    pub tick: u64,
    /// Index of the affected center in the simulation's platform list
    /// (ignored for [`FaultKind::PredictorDropout`]).
    pub center: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// Declarative fault-model parameters, parseable from the `--faults`
/// CLI flag / `MMOG_FAULTS` environment variable.
///
/// Spec strings are comma-separated `key=value` pairs:
///
/// ```text
/// seed=7,outages=0.5,repair=240,degrade=0.25,dfrac=0.5,dmins=120,revoke=2,dropout=0.01
/// ```
///
/// | key       | meaning                                              |
/// |-----------|------------------------------------------------------|
/// | `seed`    | master seed of the fault streams                     |
/// | `outages` | expected full outages per center per simulated day   |
/// | `repair`  | mean repair time, minutes                            |
/// | `degrade` | expected degradation episodes per center per day     |
/// | `dfrac`   | usable capacity fraction while degraded              |
/// | `dmins`   | mean degradation duration, minutes                   |
/// | `revoke`  | expected spontaneous lease revocations per center/day|
/// | `dropout` | probability a tick is a global predictor dropout     |
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Master seed of the fault streams (independent of the
    /// simulation's `master_seed`, so the same workload can be replayed
    /// under different failure histories).
    pub seed: u64,
    /// Expected full outages per center per simulated day.
    pub outages_per_center_day: f64,
    /// Mean repair time, minutes (exponentially distributed, min one
    /// tick).
    pub repair_minutes: u64,
    /// Expected degradation episodes per center per simulated day.
    pub degrade_per_center_day: f64,
    /// Usable capacity fraction while degraded, in `[0, 1]`.
    pub degrade_fraction: f64,
    /// Mean degradation duration, minutes.
    pub degrade_minutes: u64,
    /// Expected spontaneous lease revocations per center per day.
    pub revocations_per_center_day: f64,
    /// Probability that any given tick is a global predictor dropout.
    pub dropout_per_tick: f64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0xFA17,
            outages_per_center_day: 0.0,
            repair_minutes: 240,
            degrade_per_center_day: 0.0,
            degrade_fraction: 0.5,
            degrade_minutes: 120,
            revocations_per_center_day: 0.0,
            dropout_per_tick: 0.0,
        }
    }
}

impl FaultSpec {
    /// The default nonzero fault model the `fig_faults` experiment
    /// sweeps around: a quarter outage per center-day with four-hour
    /// mean repairs, occasional degradations and revocations, and a 1%
    /// predictor-dropout rate.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            outages_per_center_day: 0.25,
            degrade_per_center_day: 0.25,
            revocations_per_center_day: 1.0,
            dropout_per_tick: 0.01,
            ..Self::default()
        }
    }

    /// Parses a declarative spec string (see the type docs for the
    /// grammar). Whitespace around `=` and `,` is ignored and empty
    /// segments are allowed; unknown keys and malformed values are
    /// errors that name the offending token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec segment `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad =
                |e: &dyn std::fmt::Display| format!("fault spec `{key}`: bad value `{value}`: {e}");
            match key {
                "seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "outages" => {
                    out.outages_per_center_day = value.parse().map_err(|e| bad(&e))?;
                }
                "repair" => out.repair_minutes = value.parse().map_err(|e| bad(&e))?,
                "degrade" => {
                    out.degrade_per_center_day = value.parse().map_err(|e| bad(&e))?;
                }
                "dfrac" => out.degrade_fraction = value.parse().map_err(|e| bad(&e))?,
                "dmins" => out.degrade_minutes = value.parse().map_err(|e| bad(&e))?,
                "revoke" => {
                    out.revocations_per_center_day = value.parse().map_err(|e| bad(&e))?;
                }
                "dropout" => out.dropout_per_tick = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        for (key, rate) in [
            ("outages", out.outages_per_center_day),
            ("degrade", out.degrade_per_center_day),
            ("revoke", out.revocations_per_center_day),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!("{key} {rate} is not a finite rate ≥ 0"));
            }
        }
        if !(0.0..=1.0).contains(&out.degrade_fraction) {
            return Err(format!("dfrac {} outside [0, 1]", out.degrade_fraction));
        }
        if !(0.0..=1.0).contains(&out.dropout_per_tick) {
            return Err(format!("dropout {} outside [0, 1]", out.dropout_per_tick));
        }
        Ok(out)
    }

    /// True when every event rate is zero — such a spec generates an
    /// empty schedule and callers should run the unfaulted code path.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.outages_per_center_day == 0.0
            && self.degrade_per_center_day == 0.0
            && self.revocations_per_center_day == 0.0
            && self.dropout_per_tick == 0.0
    }

    /// Scales every event rate by `factor` (the `fig_faults` sweep
    /// axis). Repair/degradation durations and the seed are unchanged.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            outages_per_center_day: self.outages_per_center_day * factor,
            degrade_per_center_day: self.degrade_per_center_day * factor,
            revocations_per_center_day: self.revocations_per_center_day * factor,
            dropout_per_tick: (self.dropout_per_tick * factor).min(1.0),
            ..self.clone()
        }
    }

    /// Canonical compact label, stable across runs — embedded in the
    /// trace chunk label so faulted runs sort deterministically and
    /// never collide with unfaulted ones.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "seed={} out={} rep={} deg={}@{}x{} rev={} drop={}",
            self.seed,
            self.outages_per_center_day,
            self.repair_minutes,
            self.degrade_per_center_day,
            self.degrade_fraction,
            self.degrade_minutes,
            self.revocations_per_center_day,
            self.dropout_per_tick
        )
    }
}

/// Stream index offsets keeping the per-center fault streams disjoint
/// (availability episodes, revocations) from the global dropout stream.
const STREAM_AVAILABILITY: u64 = 0;
const STREAM_REVOCATION: u64 = 1 << 20;
const STREAM_DROPOUT: u64 = 1 << 21;

/// A deterministic, pre-materialised list of fault events sorted by
/// `(tick, center, kind)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    label: String,
}

impl FaultSchedule {
    /// Builds a schedule from explicit events (tests, bespoke
    /// scenarios). Events are sorted into the canonical order.
    #[must_use]
    pub fn from_events(label: &str, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| (e.tick, e.center, e.kind.rank()));
        Self {
            events,
            label: label.to_string(),
        }
    }

    /// Generates a schedule from a declarative spec over `ticks` ticks
    /// and `centers` data centers.
    ///
    /// Per center, one seed stream drives an alternating
    /// availability walk — at every healthy tick an outage strikes with
    /// probability `outages/720` (going `Down`, all leases revoked,
    /// repair after an exponential holding time) or a degradation with
    /// probability `degrade/720`; episodes never overlap on a center. A
    /// second per-center stream draws spontaneous single-lease
    /// revocations, and one global stream draws predictor-dropout
    /// ticks. Streams are indexed statelessly from `spec.seed`, so the
    /// schedule is a pure function of `(spec, ticks, centers)`.
    #[must_use]
    pub fn from_spec(spec: &FaultSpec, ticks: u64, centers: usize) -> Self {
        let mut events = Vec::new();
        let p_out = (spec.outages_per_center_day / TICKS_PER_DAY as f64).clamp(0.0, 1.0);
        let p_deg = (spec.degrade_per_center_day / TICKS_PER_DAY as f64).clamp(0.0, 1.0);
        let p_rev = (spec.revocations_per_center_day / TICKS_PER_DAY as f64).clamp(0.0, 1.0);
        let repair_ticks_mean = (spec.repair_minutes as f64 / TICK_MINUTES as f64).max(1.0);
        let degrade_ticks_mean = (spec.degrade_minutes as f64 / TICK_MINUTES as f64).max(1.0);
        for center in 0..centers {
            if p_out > 0.0 || p_deg > 0.0 {
                let mut rng = Rng64::stream(spec.seed, STREAM_AVAILABILITY + center as u64);
                let mut busy_until = 0u64;
                for t in 0..ticks {
                    if t < busy_until {
                        continue;
                    }
                    // One draw decides outage vs degradation vs nothing;
                    // the episode length comes from the same stream so
                    // the walk stays self-contained.
                    let roll = rng.f64();
                    let (kind, mean) = if roll < p_out {
                        (FaultKind::CenterDown, repair_ticks_mean)
                    } else if roll < p_out + p_deg {
                        (
                            FaultKind::CenterDegraded {
                                fraction: spec.degrade_fraction,
                            },
                            degrade_ticks_mean,
                        )
                    } else {
                        continue;
                    };
                    let duration = (rng.exponential(1.0 / mean).ceil() as u64).max(1);
                    events.push(FaultEvent {
                        tick: t,
                        center,
                        kind,
                    });
                    events.push(FaultEvent {
                        tick: t.saturating_add(duration),
                        center,
                        kind: FaultKind::CenterUp,
                    });
                    busy_until = t.saturating_add(duration);
                }
            }
            if p_rev > 0.0 {
                let mut rng = Rng64::stream(spec.seed, STREAM_REVOCATION + center as u64);
                for t in 0..ticks {
                    if rng.chance(p_rev) {
                        events.push(FaultEvent {
                            tick: t,
                            center,
                            kind: FaultKind::LeaseRevoked,
                        });
                    }
                }
            }
        }
        if spec.dropout_per_tick > 0.0 {
            let mut rng = Rng64::stream(spec.seed, STREAM_DROPOUT);
            for t in 0..ticks {
                if rng.chance(spec.dropout_per_tick) {
                    events.push(FaultEvent {
                        tick: t,
                        center: 0,
                        kind: FaultKind::PredictorDropout,
                    });
                }
            }
        }
        // Repair events may land past the horizon; the engine simply
        // never reaches them, but they keep the schedule self-contained
        // if the run is extended.
        Self::from_events(&spec.label(), events)
    }

    /// The events, sorted by `(tick, center, kind)`.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The schedule's label (spec-derived or caller-supplied).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True when the schedule contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Number of events at ticks `<= tick` — how many the engine has
    /// applied once it finishes that tick (events are sorted by tick).
    /// The live telemetry tap reports this as its `fault_events` gauge.
    #[must_use]
    pub fn applied_through(&self, tick: u64) -> u64 {
        self.events.partition_point(|e| e.tick <= tick) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_round_trip() {
        let s = FaultSpec::parse(
            "seed=9,outages=0.5,repair=240,degrade=0.25,dfrac=0.4,dmins=60,revoke=2,dropout=0.02",
        )
        .unwrap();
        assert_eq!(s.seed, 9);
        assert_eq!(s.outages_per_center_day, 0.5);
        assert_eq!(s.repair_minutes, 240);
        assert_eq!(s.degrade_per_center_day, 0.25);
        assert_eq!(s.degrade_fraction, 0.4);
        assert_eq!(s.degrade_minutes, 60);
        assert_eq!(s.revocations_per_center_day, 2.0);
        assert_eq!(s.dropout_per_tick, 0.02);
        assert!(!s.is_zero());
        // Re-parsing the label-ish canonical form is not required, but
        // an empty spec is the zero model.
        let zero = FaultSpec::parse("").unwrap();
        assert!(zero.is_zero());
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(FaultSpec::parse("bogus=1").is_err());
        assert!(FaultSpec::parse("outages").is_err());
        assert!(FaultSpec::parse("outages=abc").is_err());
        assert!(FaultSpec::parse("dfrac=1.5").is_err());
        assert!(FaultSpec::parse("dropout=-0.1").is_err());
    }

    #[test]
    fn spec_rejects_non_finite_and_negative_rates() {
        for bad in [
            "outages=NaN",
            "outages=-1",
            "outages=inf",
            "degrade=1e309",
            "revoke=-0.5",
            "revoke=NaN",
            "dfrac=NaN",
            "dropout=inf",
        ] {
            assert!(FaultSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
        // Huge but finite values stay legal and compile.
        let s = FaultSpec::parse("outages=1e300,repair=18446744073709551615").unwrap();
        assert!(!FaultSchedule::from_spec(&s, 50, 2).events().is_empty());
    }

    #[test]
    fn spec_accepts_whitespace_around_separators() {
        let s = FaultSpec::parse("  outages = 0.5 ,\trepair =\t240 , seed= 7 ").unwrap();
        assert_eq!(s.outages_per_center_day, 0.5);
        assert_eq!(s.repair_minutes, 240);
        assert_eq!(s.seed, 7);
    }

    #[test]
    fn spec_errors_name_the_offending_token() {
        let err = FaultSpec::parse("outages=abc").unwrap_err();
        assert!(err.contains("`outages`"), "missing key in: {err}");
        assert!(err.contains("`abc`"), "missing value token in: {err}");
        let err = FaultSpec::parse("repair = 12x").unwrap_err();
        assert!(err.contains("`12x`"), "missing value token in: {err}");
        let err = FaultSpec::parse("bogus=1").unwrap_err();
        assert!(err.contains("`bogus`"), "missing key token in: {err}");
        let err = FaultSpec::parse("outages").unwrap_err();
        assert!(err.contains("`outages`"), "missing segment token in: {err}");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FaultSpec::parse("seed=7,outages=1,revoke=3,dropout=0.05,degrade=0.5").unwrap();
        let a = FaultSchedule::from_spec(&spec, 1440, 17);
        let b = FaultSchedule::from_spec(&spec, 1440, 17);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // A different seed moves the events.
        let other = FaultSpec { seed: 8, ..spec };
        assert_ne!(a, FaultSchedule::from_spec(&other, 1440, 17));
    }

    #[test]
    fn zero_spec_generates_nothing() {
        let schedule = FaultSchedule::from_spec(&FaultSpec::default(), 1440, 17);
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
    }

    #[test]
    fn availability_episodes_never_overlap_per_center() {
        let spec = FaultSpec::parse("seed=3,outages=20,repair=120,degrade=20,dmins=60").unwrap();
        let schedule = FaultSchedule::from_spec(&spec, 2000, 4);
        for c in 0..4 {
            let mut down = false;
            for e in schedule.events().iter().filter(|e| e.center == c) {
                match e.kind {
                    FaultKind::CenterDown | FaultKind::CenterDegraded { .. } => {
                        assert!(!down, "episode started while previous one open at {e:?}");
                        down = true;
                    }
                    FaultKind::CenterUp => {
                        assert!(down, "repair without episode at {e:?}");
                        down = false;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn events_sorted_by_tick() {
        let spec = FaultSpec::parse("seed=5,outages=4,revoke=4,dropout=0.05").unwrap();
        let schedule = FaultSchedule::from_spec(&spec, 1000, 6);
        let ticks: Vec<u64> = schedule.events().iter().map(|e| e.tick).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted);
    }

    #[test]
    fn scaled_spec_multiplies_rates() {
        let spec = FaultSpec::paper_default();
        let double = spec.scaled(2.0);
        assert_eq!(
            double.outages_per_center_day,
            spec.outages_per_center_day * 2.0
        );
        let zero = spec.scaled(0.0);
        assert!(zero.is_zero());
        assert!(FaultSchedule::from_spec(&zero, 1440, 17).is_empty());
    }

    #[test]
    fn explicit_events_sort_canonically() {
        let schedule = FaultSchedule::from_events(
            "test",
            vec![
                FaultEvent {
                    tick: 10,
                    center: 1,
                    kind: FaultKind::CenterDown,
                },
                FaultEvent {
                    tick: 10,
                    center: 1,
                    kind: FaultKind::CenterUp,
                },
                FaultEvent {
                    tick: 5,
                    center: 0,
                    kind: FaultKind::LeaseRevoked,
                },
            ],
        );
        assert_eq!(schedule.events()[0].tick, 5);
        assert_eq!(schedule.events()[1].kind, FaultKind::CenterUp);
        assert_eq!(schedule.events()[2].kind, FaultKind::CenterDown);
        assert_eq!(schedule.label(), "test");
    }
}
