//! The scenario plane: topology mutations, zone migration and demand
//! surges compiled into a timed event list.
//!
//! Where the fault plane ([`crate::FaultSchedule`]) perturbs center
//! *availability*, a scenario perturbs everything around it: the
//! network between centers (partitions, link degradation), the homes
//! of server groups (zone migration, region failover) and the demand
//! itself (flash crowds). A [`ScenarioSpec`] — parsed from the
//! `--scenario` CLI flag / `MMOG_SCENARIO` environment variable through
//! the same `key=value` parse loop as [`crate::FaultSpec`] — compiles
//! into a [`ScenarioTimeline`]: a [`Timeline`] of [`ScenarioEvent`]s
//! that the simulation engine merges with the fault schedule into one
//! effect timeline and applies from its serial sections only.
//!
//! Determinism contract: a timeline is a pure function of
//! `(spec, ticks, centers)`. Generation draws from dedicated
//! [`mmog_util::rng::stream_seed`] streams whose indices are disjoint
//! from the fault plane's, so scenarios compose with fault schedules
//! without perturbing either's event history, and the same spec
//! produces the same timeline regardless of thread count.
//!
//! Events that target a *group* or a *region* (migration, flash
//! crowds) cannot know the group count at compile time — the platform
//! is the engine's business. They therefore carry an opaque `pick`
//! drawn from the stream; the engine resolves it against its own group
//! and region tables (`pick % n`), mirroring how
//! [`crate::FaultKind::LeaseRevoked`] picks a center at compile time
//! but a lease at apply time.

use crate::{
    check_rates, holding_ticks, mean_ticks, parse_pairs, per_tick, per_tick_draws, Timeline,
    TimelineEvent,
};
use mmog_util::rng::Rng64;

/// What a single scenario event does when the engine applies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEventKind {
    /// All partitions heal: every center rejoins one component.
    Heal,
    /// The link `a`↔`b` returns to its nominal distance factor.
    LinkRestore {
        /// One endpoint (center index).
        a: u32,
        /// The other endpoint (center index).
        b: u32,
    },
    /// The federation splits along `mask`: centers whose index bit is
    /// set are cut off from centers whose bit is clear (component
    /// refinement — composes with earlier partitions).
    Partition {
        /// Bit `i` set ⇒ center `i` goes to the set-side component.
        mask: u64,
    },
    /// The link `a`↔`b` degrades: its effective distance is inflated
    /// by `factor` until the matching restore.
    LinkDegrade {
        /// One endpoint (center index).
        a: u32,
        /// The other endpoint (center index).
        b: u32,
        /// Distance multiplier (≥ 1).
        factor: f64,
    },
    /// A flash crowd subsides: the targeted region's demand multiplier
    /// returns to 1.
    FlashEnd {
        /// Opaque draw; the engine resolves `pick % n_regions`.
        pick: u64,
    },
    /// A flash crowd begins: every group homed in the targeted region
    /// sees its player demand multiplied by `factor`.
    FlashBegin {
        /// Opaque draw; the engine resolves `pick % n_regions`.
        pick: u64,
        /// Demand multiplier while the crowd lasts (≥ 1).
        factor: f64,
    },
    /// One server group migrates between centers: all its leases are
    /// dropped (to be re-acquired wherever the matcher now prefers)
    /// and its players are charged the migration cost.
    Migrate {
        /// Opaque draw; the engine resolves `pick % n_groups`.
        pick: u64,
    },
    /// A whole center is administratively drained: every group holding
    /// leases there migrates away at once.
    RegionFailover {
        /// Index of the drained center.
        center: u32,
    },
}

/// One timed scenario event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEvent {
    /// Tick at which the event strikes (applied before the tick's
    /// scoring, so its impact is visible the same tick).
    pub tick: u64,
    /// What happens.
    pub kind: ScenarioEventKind,
}

impl TimelineEvent for ScenarioEvent {
    type Params = ScenarioParams;

    /// `(tick, kind rank, payload)`. Recoveries (heal, restore, flash
    /// end) rank before new disruptions, so a back-to-back end/begin
    /// pair resolves to the disruption — the same convention as the
    /// fault plane's repair-before-outage rank.
    fn sort_key(&self) -> [u64; 4] {
        use ScenarioEventKind as K;
        let (rank, a, b) = match self.kind {
            K::Heal => (0, 0, 0),
            K::LinkRestore { a, b } => (1, a.into(), b.into()),
            K::FlashEnd { pick } => (2, pick, 0),
            K::Partition { mask } => (3, mask, 0),
            K::LinkDegrade { a, b, .. } => (4, a.into(), b.into()),
            K::FlashBegin { pick, .. } => (5, pick, 0),
            K::Migrate { pick } => (6, pick, 0),
            K::RegionFailover { center } => (7, center.into(), 0),
        };
        [self.tick, rank, a, b]
    }
}

/// Timeline-wide scenario settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioParams {
    /// Unserved player-ticks charged per player each time a group
    /// migrates (copied from [`ScenarioSpec::migration_cost_ticks`]).
    pub migration_cost_ticks: u64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            migration_cost_ticks: ScenarioSpec::default().migration_cost_ticks,
        }
    }
}

/// Declarative scenario parameters, parseable from the `--scenario`
/// CLI flag / `MMOG_SCENARIO` environment variable.
///
/// Spec strings are comma-separated `key=value` pairs (whitespace
/// around `=` and `,` is ignored):
///
/// ```text
/// seed=7,partition=0.5,pmins=180,migrate=2,mcost=2,flash=1,fpeak=2.5,fmins=240
/// ```
///
/// | key        | meaning                                               |
/// |------------|-------------------------------------------------------|
/// | `seed`     | master seed of the scenario streams                   |
/// | `partition`| expected network partitions per simulated day         |
/// | `pmins`    | mean partition duration, minutes                      |
/// | `migrate`  | expected zone (group) migrations per day              |
/// | `mcost`    | migration cost: unserved ticks charged per player     |
/// | `flash`    | expected flash crowds per day                         |
/// | `fpeak`    | demand multiplier while a flash crowd lasts           |
/// | `fmins`    | mean flash-crowd duration, minutes                    |
/// | `failover` | expected region failovers (center drains) per day     |
/// | `link`     | expected link-degradation episodes per day            |
/// | `lfactor`  | distance multiplier while a link is degraded          |
/// | `lmins`    | mean link-degradation duration, minutes               |
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed of the scenario streams (independent of both the
    /// simulation's `master_seed` and the fault spec's seed).
    pub seed: u64,
    /// Expected network partitions per simulated day.
    pub partitions_per_day: f64,
    /// Mean partition duration, minutes (exponential, min one tick).
    pub partition_minutes: u64,
    /// Expected zone (group) migrations per simulated day.
    pub migrations_per_day: f64,
    /// Migration cost: unserved player-ticks charged per player moved.
    pub migration_cost_ticks: u64,
    /// Expected flash crowds per simulated day.
    pub flash_per_day: f64,
    /// Demand multiplier while a flash crowd lasts (≥ 1).
    pub flash_peak: f64,
    /// Mean flash-crowd duration, minutes.
    pub flash_minutes: u64,
    /// Expected region failovers (whole-center drains) per day.
    pub failovers_per_day: f64,
    /// Expected link-degradation episodes per day.
    pub links_per_day: f64,
    /// Distance multiplier while a link is degraded (≥ 1).
    pub link_factor: f64,
    /// Mean link-degradation duration, minutes.
    pub link_minutes: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            seed: 0x5CE0,
            partitions_per_day: 0.0,
            partition_minutes: 180,
            migrations_per_day: 0.0,
            migration_cost_ticks: 2,
            flash_per_day: 0.0,
            flash_peak: 2.0,
            flash_minutes: 240,
            failovers_per_day: 0.0,
            links_per_day: 0.0,
            link_factor: 3.0,
            link_minutes: 120,
        }
    }
}

impl ScenarioSpec {
    /// The default nonzero scenario the `fig_scenarios` experiment
    /// sweeps around: a partition every other day with three-hour mean
    /// heals, a couple of zone migrations and one flash crowd per day,
    /// an occasional whole-center drain, and one backbone link
    /// degradation per day.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            partitions_per_day: 0.5,
            migrations_per_day: 2.0,
            flash_per_day: 1.0,
            failovers_per_day: 0.25,
            links_per_day: 1.0,
            ..Self::default()
        }
    }

    /// Parses a declarative spec string (see the type docs for the
    /// grammar). Whitespace around `=` and `,` is ignored and empty
    /// segments are allowed; unknown keys and malformed values are
    /// errors that name the offending token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        parse_pairs("scenario", spec, |p| match p.key {
            "seed" => p.set(&mut out.seed),
            "partition" => p.set(&mut out.partitions_per_day),
            "pmins" => p.set(&mut out.partition_minutes),
            "migrate" => p.set(&mut out.migrations_per_day),
            "mcost" => p.set(&mut out.migration_cost_ticks),
            "flash" => p.set(&mut out.flash_per_day),
            "fpeak" => p.set(&mut out.flash_peak),
            "fmins" => p.set(&mut out.flash_minutes),
            "failover" => p.set(&mut out.failovers_per_day),
            "link" => p.set(&mut out.links_per_day),
            "lfactor" => p.set(&mut out.link_factor),
            "lmins" => p.set(&mut out.link_minutes),
            _ => p.unknown(),
        })?;
        check_rates(&[
            ("partition", out.partitions_per_day),
            ("migrate", out.migrations_per_day),
            ("flash", out.flash_per_day),
            ("failover", out.failovers_per_day),
            ("link", out.links_per_day),
        ])?;
        if !out.flash_peak.is_finite() || out.flash_peak < 1.0 {
            return Err(format!(
                "fpeak {} is not a finite factor ≥ 1 (flash crowds only add demand)",
                out.flash_peak
            ));
        }
        if !out.link_factor.is_finite() || out.link_factor < 1.0 {
            return Err(format!(
                "lfactor {} is not a finite factor ≥ 1 (degraded links only look farther)",
                out.link_factor
            ));
        }
        Ok(out)
    }

    /// Scales every event rate by `factor` (the `fig_scenarios` sweep
    /// axis). Durations, multipliers, the migration cost and the seed
    /// are unchanged.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            partitions_per_day: self.partitions_per_day * factor,
            migrations_per_day: self.migrations_per_day * factor,
            flash_per_day: self.flash_per_day * factor,
            failovers_per_day: self.failovers_per_day * factor,
            links_per_day: self.links_per_day * factor,
            ..self.clone()
        }
    }

    /// Canonical compact label, stable across runs — embedded in the
    /// trace chunk label so scenario runs sort deterministically and
    /// never collide with scenario-free ones.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "seed={} part={}@{} mig={}x{} flash={}@{}x{} fo={} link={}@{}x{}",
            self.seed,
            self.partitions_per_day,
            self.partition_minutes,
            self.migrations_per_day,
            self.migration_cost_ticks,
            self.flash_per_day,
            self.flash_peak,
            self.flash_minutes,
            self.failovers_per_day,
            self.links_per_day,
            self.link_factor,
            self.link_minutes
        )
    }
}

/// Stream index offsets for the scenario streams. They start at
/// `1 << 22`, strictly above the fault plane's offsets
/// (`STREAM_DROPOUT = 1 << 21` plus a per-center index), so a fault
/// schedule and a scenario timeline sharing one seed still draw from
/// disjoint streams.
const STREAM_PARTITION: u64 = 1 << 22;
const STREAM_MIGRATION: u64 = 1 << 23;
const STREAM_FLASH: u64 = 1 << 24;
const STREAM_FAILOVER: u64 = 1 << 25;
const STREAM_LINK: u64 = 1 << 26;

/// The scenario plane: a [`Timeline`] of [`ScenarioEvent`]s.
pub type ScenarioTimeline = Timeline<ScenarioEvent>;

/// Non-overlapping begin/end episodes from stream `stream` of `seed`:
/// while no episode is open, each tick starts one with probability
/// `p`. `begin` draws the episode's payload from the stream and returns
/// its (begin, end) kinds; an exponential holding time of mean `mean`
/// ticks then places the end. A zero rate draws nothing.
fn episodes(
    events: &mut Vec<ScenarioEvent>,
    (seed, stream): (u64, u64),
    p: f64,
    mean: f64,
    ticks: u64,
    mut begin: impl FnMut(&mut Rng64) -> (ScenarioEventKind, ScenarioEventKind),
) {
    if p <= 0.0 {
        return;
    }
    let mut rng = Rng64::stream(seed, stream);
    let mut busy_until = 0u64;
    for t in 0..ticks {
        if t < busy_until || !rng.chance(p) {
            continue;
        }
        let (start, end) = begin(&mut rng);
        busy_until = t.saturating_add(holding_ticks(&mut rng, mean));
        for (tick, kind) in [(t, start), (busy_until, end)] {
            events.push(ScenarioEvent { tick, kind });
        }
    }
}

impl Timeline<ScenarioEvent> {
    /// Compiles a declarative spec into a timeline over `ticks` ticks
    /// and `centers` data centers.
    ///
    /// Partition, flash-crowd and link episodes follow non-overlapping
    /// begin/end walks (one active episode of each class at a time, as
    /// in the fault plane's availability walk); migrations and
    /// failovers are memoryless per-tick draws. Every class draws from
    /// its own stateless stream of `spec.seed`, so the timeline is a
    /// pure function of `(spec, ticks, centers)`.
    #[must_use]
    pub fn from_spec(spec: &ScenarioSpec, ticks: u64, centers: usize) -> Self {
        use ScenarioEventKind as K;
        let mut events = Vec::new();
        let seed = spec.seed;
        // Masks address at most the low 63 center bits; federations
        // beyond that (none exist) would leave the tail uncut. A split is
        // non-trivial: at least one center on each side.
        let maskable = centers.min(63) as u32;
        if maskable >= 2 {
            let all = (1u64 << maskable) - 1;
            let stream = (seed, STREAM_PARTITION);
            let p = per_tick(spec.partitions_per_day);
            let mean = mean_ticks(spec.partition_minutes);
            episodes(&mut events, stream, p, mean, ticks, |rng| {
                let mask = 1 + rng.below(all - 1);
                (K::Partition { mask }, K::Heal)
            });
        }
        if centers >= 2 {
            let stream = (seed, STREAM_LINK);
            let (p, mean) = (per_tick(spec.links_per_day), mean_ticks(spec.link_minutes));
            episodes(&mut events, stream, p, mean, ticks, |rng| {
                let a = rng.below(centers as u64) as u32;
                let mut b = rng.below(centers as u64 - 1) as u32;
                if b >= a {
                    b += 1;
                }
                let factor = spec.link_factor;
                (K::LinkDegrade { a, b, factor }, K::LinkRestore { a, b })
            });
        }
        let stream = (seed, STREAM_FLASH);
        let (p, mean) = (per_tick(spec.flash_per_day), mean_ticks(spec.flash_minutes));
        episodes(&mut events, stream, p, mean, ticks, |rng| {
            let (pick, factor) = (rng.next_u64(), spec.flash_peak);
            (K::FlashBegin { pick, factor }, K::FlashEnd { pick })
        });
        let (stream, p) = ((seed, STREAM_MIGRATION), per_tick(spec.migrations_per_day));
        per_tick_draws(&mut events, stream, p, ticks, |tick, rng| {
            let pick = rng.next_u64();
            let kind = K::Migrate { pick };
            ScenarioEvent { tick, kind }
        });
        if centers > 0 {
            let (stream, p) = ((seed, STREAM_FAILOVER), per_tick(spec.failovers_per_day));
            per_tick_draws(&mut events, stream, p, ticks, |tick, rng| {
                let center = rng.below(centers as u64) as u32;
                let kind = K::RegionFailover { center };
                ScenarioEvent { tick, kind }
            });
        }
        let migration_cost_ticks = spec.migration_cost_ticks;
        Self::from_events(&spec.label(), events).with_params(ScenarioParams {
            migration_cost_ticks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_round_trip_with_whitespace() {
        let s = ScenarioSpec::parse(
            " seed = 9 , partition=0.5, pmins = 90 ,migrate=2,mcost=3,flash=1.5,\
             fpeak=2.5,fmins=60,failover=0.1,link=1,lfactor=4,lmins=30",
        )
        .unwrap();
        assert_eq!(s.seed, 9);
        assert_eq!(s.partitions_per_day, 0.5);
        assert_eq!(s.partition_minutes, 90);
        assert_eq!(s.migrations_per_day, 2.0);
        assert_eq!(s.migration_cost_ticks, 3);
        assert_eq!(s.flash_per_day, 1.5);
        assert_eq!(s.flash_peak, 2.5);
        assert_eq!(s.flash_minutes, 60);
        assert_eq!(s.failovers_per_day, 0.1);
        assert_eq!(s.links_per_day, 1.0);
        assert_eq!(s.link_factor, 4.0);
        assert_eq!(s.link_minutes, 30);
        assert_eq!(ScenarioSpec::parse("").unwrap(), ScenarioSpec::default());
    }

    #[test]
    fn spec_errors_name_the_offending_token() {
        let cases = [
            (
                "partition=abc",
                "scenario spec `partition`: bad value `abc`: invalid float literal",
            ),
            (
                "mcost=-2",
                "scenario spec `mcost`: bad value `-2`: invalid digit found in string",
            ),
            ("bogus=1", "unknown scenario spec key `bogus`"),
            ("flash", "scenario spec segment `flash` is not key=value"),
            ("failover=-0.25", "failover -0.25 is not a finite rate ≥ 0"),
            (
                "fpeak=0.5",
                "fpeak 0.5 is not a finite factor ≥ 1 (flash crowds only add demand)",
            ),
            (
                "lfactor=0.9",
                "lfactor 0.9 is not a finite factor ≥ 1 (degraded links only look farther)",
            ),
        ];
        for (spec, err) in cases {
            assert_eq!(ScenarioSpec::parse(spec).unwrap_err(), err);
        }
    }

    #[test]
    fn spec_rejects_non_finite_and_negative_values() {
        for bad in [
            "fpeak=NaN",
            "fpeak=inf",
            "lfactor=NaN",
            "lfactor=1e309",
            "partition=-1",
            "migrate=NaN",
            "flash=inf",
            "failover=-0.25",
            "link=NaN",
        ] {
            assert!(ScenarioSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
        // Huge but finite values stay legal and compile.
        let s = ScenarioSpec::parse("flash=1e300,fmins=18446744073709551615").unwrap();
        assert!(!ScenarioTimeline::from_spec(&s, 50, 2).events().is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let spec =
            ScenarioSpec::parse("seed=7,partition=2,migrate=4,flash=2,failover=1,link=2").unwrap();
        let a = ScenarioTimeline::from_spec(&spec, 1440, 12);
        let b = ScenarioTimeline::from_spec(&spec, 1440, 12);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let other = ScenarioSpec { seed: 8, ..spec };
        assert_ne!(a, ScenarioTimeline::from_spec(&other, 1440, 12));
    }

    #[test]
    fn partition_episodes_never_overlap_and_masks_are_nontrivial() {
        let spec = ScenarioSpec::parse("seed=3,partition=40,pmins=60").unwrap();
        let timeline = ScenarioTimeline::from_spec(&spec, 2000, 5);
        let mut open = false;
        let mut cuts = 0;
        for e in timeline.events() {
            match e.kind {
                ScenarioEventKind::Partition { mask } => {
                    assert!(!open, "partition while previous one open at {e:?}");
                    assert!(mask != 0 && mask != 0b11111, "trivial mask {mask:#b}");
                    open = true;
                    cuts += 1;
                }
                ScenarioEventKind::Heal => {
                    assert!(open, "heal without partition at {e:?}");
                    open = false;
                }
                _ => {}
            }
        }
        assert!(cuts > 5, "expected many partitions, got {cuts}");
    }

    #[test]
    fn link_endpoints_are_distinct_and_in_range() {
        let spec = ScenarioSpec::parse("seed=5,link=40,lmins=30").unwrap();
        let timeline = ScenarioTimeline::from_spec(&spec, 2000, 4);
        let mut degrades = 0;
        for e in timeline.events() {
            if let ScenarioEventKind::LinkDegrade { a, b, factor } = e.kind {
                assert_ne!(a, b);
                assert!(a < 4 && b < 4);
                assert_eq!(factor, 3.0);
                degrades += 1;
            }
        }
        assert!(degrades > 5, "expected many degrades, got {degrades}");
    }

    #[test]
    fn flash_end_carries_the_begin_pick() {
        let spec = ScenarioSpec::parse("seed=11,flash=20,fmins=60").unwrap();
        let timeline = ScenarioTimeline::from_spec(&spec, 2000, 4);
        let mut active: Option<u64> = None;
        for e in timeline.events() {
            match e.kind {
                ScenarioEventKind::FlashBegin { pick, .. } => {
                    assert!(active.is_none());
                    active = Some(pick);
                }
                ScenarioEventKind::FlashEnd { pick } => {
                    assert_eq!(active.take(), Some(pick), "end must target the begin");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn scaled_spec_multiplies_rates_only() {
        let spec = ScenarioSpec::paper_default();
        let double = spec.scaled(2.0);
        assert_eq!(double.partitions_per_day, spec.partitions_per_day * 2.0);
        assert_eq!(double.migrations_per_day, spec.migrations_per_day * 2.0);
        assert_eq!(double.flash_peak, spec.flash_peak);
        assert_eq!(double.migration_cost_ticks, spec.migration_cost_ticks);
        assert!(ScenarioTimeline::from_spec(&spec.scaled(0.0), 1440, 12).is_empty());
    }

    #[test]
    fn single_center_platforms_skip_topology_events() {
        let spec = ScenarioSpec::parse("seed=3,partition=40,link=40,migrate=40").unwrap();
        let timeline = ScenarioTimeline::from_spec(&spec, 500, 1);
        assert!(timeline
            .events()
            .iter()
            .all(|e| matches!(e.kind, ScenarioEventKind::Migrate { .. })));
        assert!(!timeline.is_empty(), "migrations still fire");
    }
}
