//! `mmog-faults` — the deterministic effect timelines.
//!
//! The paper's evaluation (Sec. V) assumes every data center is always
//! up and every granted lease survives its full term. Resource-management
//! work for cloud data centers treats failure handling as a first-class
//! concern next to allocation efficiency, so this crate supplies the
//! missing uncertainty as two planes of timed events, both held in one
//! sorted list type, [`Timeline`]: a [`FaultSchedule`] — full center
//! outages with repair times, partial capacity degradation, spontaneous
//! lease revocations, and predictor dropouts — and a [`scenario`]
//! timeline. The simulation engine merges both into one effect timeline
//! applied from its serial sections.
//!
//! Determinism contract: a timeline is a pure function of a spec (or an
//! explicit event list), the tick horizon and the platform size.
//! Generation draws from per-class [`mmog_util::rng::stream_seed`]
//! streams, so the same spec produces the same events regardless of
//! thread count, and runs with neither plane take code paths
//! byte-identical to a build without this crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod scenario;

pub use scenario::{
    ScenarioEvent, ScenarioEventKind, ScenarioParams, ScenarioSpec, ScenarioTimeline,
};

use mmog_util::rng::Rng64;
use mmog_util::time::{TICKS_PER_DAY, TICK_MINUTES};
use std::fmt::{Debug, Display};
use std::str::FromStr;

/// An event a [`Timeline`] can hold.
pub trait TimelineEvent: Copy {
    /// Settings that apply to the whole timeline, not to one event.
    type Params: Copy + Debug + Default + PartialEq;
    /// The canonical sort key; its first component is the tick.
    fn sort_key(&self) -> [u64; 4];
}

/// A deterministic, pre-materialised event list in canonical
/// ([`TimelineEvent::sort_key`]) order, with the label its runs trace
/// under and the timeline-wide parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline<E: TimelineEvent> {
    events: Vec<E>,
    label: String,
    params: E::Params,
}

impl<E: TimelineEvent> Timeline<E> {
    /// Builds a timeline from explicit events (tests, bespoke
    /// scenarios) with default parameters. Events are sorted into the
    /// canonical order; the sort is stable.
    #[must_use]
    pub fn from_events(label: &str, mut events: Vec<E>) -> Self {
        events.sort_by_key(E::sort_key);
        Self {
            events,
            label: label.to_string(),
            params: E::Params::default(),
        }
    }

    /// Replaces the timeline-wide parameters (builder style).
    #[must_use]
    pub fn with_params(mut self, params: E::Params) -> Self {
        self.params = params;
        self
    }

    /// The timeline-wide parameters.
    #[must_use]
    pub fn params(&self) -> E::Params {
        self.params
    }

    /// The events, in canonical order.
    #[must_use]
    pub fn events(&self) -> &[E] {
        &self.events
    }

    /// The timeline's label (spec-derived or caller-supplied).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// True when the timeline contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }
}

/// One trimmed `key=value` segment of a `grammar` (`fault`,
/// `scenario`) spec string.
struct Pair<'a> {
    grammar: &'static str,
    key: &'a str,
    value: &'a str,
}

impl Pair<'_> {
    /// Parses the value into `slot`; a malformed value is an error that
    /// names the key and the value token.
    fn set<T: FromStr<Err: Display>>(&self, slot: &mut T) -> Result<(), String> {
        let (grammar, key, value) = (self.grammar, self.key, self.value);
        *slot = value
            .parse()
            .map_err(|e| format!("{grammar} spec `{key}`: bad value `{value}`: {e}"))?;
        Ok(())
    }

    /// The error for a key the grammar does not define.
    fn unknown(&self) -> Result<(), String> {
        Err(format!("unknown {} spec key `{}`", self.grammar, self.key))
    }
}

/// The parse loop both spec grammars share: splits `spec` into
/// comma-separated `key=value` pairs and hands each to `set`.
/// Whitespace around `=` and `,` is ignored and empty segments are
/// skipped; a segment without `=` is an error naming it.
fn parse_pairs(
    grammar: &'static str,
    spec: &str,
    mut set: impl FnMut(&Pair<'_>) -> Result<(), String>,
) -> Result<(), String> {
    for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{grammar} spec segment `{part}` is not key=value"))?;
        set(&Pair {
            grammar,
            key: key.trim(),
            value: value.trim(),
        })?;
    }
    Ok(())
}

/// Rejects any `(key, rate)` whose rate is not finite and ≥ 0.
fn check_rates(rates: &[(&str, f64)]) -> Result<(), String> {
    match rates.iter().find(|(_, r)| !r.is_finite() || *r < 0.0) {
        Some((key, rate)) => Err(format!("{key} {rate} is not a finite rate ≥ 0")),
        None => Ok(()),
    }
}

/// A per-day rate as a per-tick probability.
fn per_tick(rate_per_day: f64) -> f64 {
    (rate_per_day / TICKS_PER_DAY as f64).clamp(0.0, 1.0)
}

/// A mean duration in minutes as a mean in ticks (at least one).
fn mean_ticks(minutes: u64) -> f64 {
    (minutes as f64 / TICK_MINUTES as f64).max(1.0)
}

/// An episode's exponential holding time with mean `mean` ticks,
/// rounded up to at least one tick.
fn holding_ticks(rng: &mut Rng64, mean: f64) -> u64 {
    (rng.exponential(1.0 / mean).ceil() as u64).max(1)
}

/// Memoryless per-tick draws from stream `stream` of `seed`: every tick
/// of `0..ticks` fires with probability `p`, and `event` builds the
/// tick's event, drawing any payload from the same stream right after
/// the hit. A zero rate draws nothing.
fn per_tick_draws<E>(
    events: &mut Vec<E>,
    (seed, stream): (u64, u64),
    p: f64,
    ticks: u64,
    mut event: impl FnMut(u64, &mut Rng64) -> E,
) {
    if p <= 0.0 {
        return;
    }
    let mut rng = Rng64::stream(seed, stream);
    for t in 0..ticks {
        if rng.chance(p) {
            events.push(event(t, &mut rng));
        }
    }
}

/// What a single fault event does when the engine applies it.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One timed fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
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

impl TimelineEvent for FaultEvent {
    type Params = ();

    /// `(tick, center, kind rank)`. Repairs rank before new failures,
    /// so a back-to-back repair/outage pair on one center resolves to
    /// the outage.
    fn sort_key(&self) -> [u64; 4] {
        let rank = match self.kind {
            FaultKind::CenterUp => 0,
            FaultKind::CenterDown => 1,
            FaultKind::CenterDegraded { .. } => 2,
            FaultKind::LeaseRevoked => 3,
            FaultKind::PredictorDropout => 4,
        };
        [self.tick, self.center as u64, rank, 0]
    }
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
#[derive(Debug, Clone, PartialEq)]
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
        parse_pairs("fault", spec, |p| match p.key {
            "seed" => p.set(&mut out.seed),
            "outages" => p.set(&mut out.outages_per_center_day),
            "repair" => p.set(&mut out.repair_minutes),
            "degrade" => p.set(&mut out.degrade_per_center_day),
            "dfrac" => p.set(&mut out.degrade_fraction),
            "dmins" => p.set(&mut out.degrade_minutes),
            "revoke" => p.set(&mut out.revocations_per_center_day),
            "dropout" => p.set(&mut out.dropout_per_tick),
            _ => p.unknown(),
        })?;
        check_rates(&[
            ("outages", out.outages_per_center_day),
            ("degrade", out.degrade_per_center_day),
            ("revoke", out.revocations_per_center_day),
        ])?;
        if !(0.0..=1.0).contains(&out.degrade_fraction) {
            return Err(format!("dfrac {} outside [0, 1]", out.degrade_fraction));
        }
        if !(0.0..=1.0).contains(&out.dropout_per_tick) {
            return Err(format!("dropout {} outside [0, 1]", out.dropout_per_tick));
        }
        Ok(out)
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

/// The fault plane: a [`Timeline`] of [`FaultEvent`]s.
pub type FaultSchedule = Timeline<FaultEvent>;

impl Timeline<FaultEvent> {
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
        let p_out = per_tick(spec.outages_per_center_day);
        let p_deg = per_tick(spec.degrade_per_center_day);
        let repair_ticks_mean = mean_ticks(spec.repair_minutes);
        let degrade_ticks_mean = mean_ticks(spec.degrade_minutes);
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
                    busy_until = t.saturating_add(holding_ticks(&mut rng, mean));
                    events.push(FaultEvent {
                        tick: t,
                        center,
                        kind,
                    });
                    events.push(FaultEvent {
                        tick: busy_until,
                        center,
                        kind: FaultKind::CenterUp,
                    });
                }
            }
            let stream = (spec.seed, STREAM_REVOCATION + center as u64);
            let p_rev = per_tick(spec.revocations_per_center_day);
            per_tick_draws(&mut events, stream, p_rev, ticks, |tick, _| {
                let kind = FaultKind::LeaseRevoked;
                FaultEvent { tick, center, kind }
            });
        }
        let (stream, p) = ((spec.seed, STREAM_DROPOUT), spec.dropout_per_tick);
        per_tick_draws(&mut events, stream, p, ticks, |tick, _| {
            let kind = FaultKind::PredictorDropout;
            FaultEvent {
                tick,
                center: 0,
                kind,
            }
        });
        // Repair events may land past the horizon; the engine simply
        // never reaches them, but they keep the schedule self-contained
        // if the run is extended.
        Self::from_events(&spec.label(), events)
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
        // An empty spec is the zero model.
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
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
        let cases = [
            (
                "outages=abc",
                "fault spec `outages`: bad value `abc`: invalid float literal",
            ),
            (
                "repair = 12x",
                "fault spec `repair`: bad value `12x`: invalid digit found in string",
            ),
            ("bogus=1", "unknown fault spec key `bogus`"),
            ("outages", "fault spec segment `outages` is not key=value"),
            ("revoke=-0.5", "revoke -0.5 is not a finite rate ≥ 0"),
            ("dfrac=1.5", "dfrac 1.5 outside [0, 1]"),
            ("dropout=2", "dropout 2 outside [0, 1]"),
        ];
        for (spec, err) in cases {
            assert_eq!(FaultSpec::parse(spec).unwrap_err(), err);
        }
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
    fn zero_specs_generate_nothing() {
        let faults = FaultSchedule::from_spec(&FaultSpec::default(), 1440, 17);
        assert!(faults.is_empty());
        assert_eq!(faults.len(), 0);
        let scenario = ScenarioTimeline::from_spec(&ScenarioSpec::default(), 1440, 12);
        assert!(scenario.is_empty());
        assert_eq!(scenario.len(), 0);
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

    /// True when `events` are in canonical order.
    fn is_canonical<E: TimelineEvent>(events: &[E]) -> bool {
        events
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key())
    }

    #[test]
    fn compiled_timelines_are_in_canonical_order() {
        let spec = FaultSpec::parse("seed=5,outages=4,revoke=4,dropout=0.05").unwrap();
        assert!(is_canonical(
            FaultSchedule::from_spec(&spec, 1000, 6).events()
        ));
        let spec =
            ScenarioSpec::parse("seed=5,partition=4,migrate=8,flash=4,failover=2,link=4").unwrap();
        assert!(is_canonical(
            ScenarioTimeline::from_spec(&spec, 1000, 6).events()
        ));
    }

    #[test]
    fn scaled_spec_multiplies_rates() {
        let spec = FaultSpec::paper_default();
        let double = spec.scaled(2.0);
        assert_eq!(
            double.outages_per_center_day,
            spec.outages_per_center_day * 2.0
        );
        assert!(FaultSchedule::from_spec(&spec.scaled(0.0), 1440, 17).is_empty());
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
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule.params(), ());
        // Same tick, same rank: the payload breaks the tie.
        let timeline = ScenarioTimeline::from_events(
            "test",
            vec![
                ScenarioEvent {
                    tick: 3,
                    kind: ScenarioEventKind::Migrate { pick: 9 },
                },
                ScenarioEvent {
                    tick: 3,
                    kind: ScenarioEventKind::Migrate { pick: 4 },
                },
                ScenarioEvent {
                    tick: 3,
                    kind: ScenarioEventKind::Heal,
                },
            ],
        );
        let kinds: Vec<_> = timeline.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                ScenarioEventKind::Heal,
                ScenarioEventKind::Migrate { pick: 4 },
                ScenarioEventKind::Migrate { pick: 9 },
            ]
        );
        assert_eq!(timeline.params(), ScenarioParams::default());
        let costly = ScenarioParams {
            migration_cost_ticks: 7,
        };
        assert_eq!(timeline.with_params(costly).params(), costly);
    }
}
