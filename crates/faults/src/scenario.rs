//! The deterministic scenario engine: topology mutations, zone
//! migration and demand surges compiled into a timed event list.
//!
//! Where the fault plane ([`crate::FaultSchedule`]) perturbs center
//! *availability*, a scenario perturbs everything around it: the
//! network between centers (partitions, link degradation), the homes
//! of server groups (zone migration, region failover) and the demand
//! itself (flash crowds). A [`ScenarioSpec`] — parsed from the
//! `--scenario` CLI flag / `MMOG_SCENARIO` environment variable in the
//! same `key=value` grammar as [`crate::FaultSpec`] — compiles into a
//! [`ScenarioTimeline`]: a pre-materialised, canonically sorted list of
//! [`ScenarioEvent`]s the simulation engine applies from its serial
//! sections only.
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

use mmog_util::rng::Rng64;
use mmog_util::time::{TICKS_PER_DAY, TICK_MINUTES};
use serde::{Deserialize, Serialize};

/// What a single scenario event does when the engine applies it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

impl ScenarioEventKind {
    /// Stable lower-case label used in trace events.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Heal => "heal",
            Self::LinkRestore { .. } | Self::LinkDegrade { .. } => "topology_change",
            Self::Partition { .. } => "partition",
            Self::FlashEnd { .. } | Self::FlashBegin { .. } => "flash_crowd",
            Self::Migrate { .. } | Self::RegionFailover { .. } => "migration",
        }
    }

    /// Ordering rank for same-tick events: recoveries (heal, restore,
    /// flash end) before new disruptions, so a back-to-back end/begin
    /// pair resolves to the disruption — the same convention as the
    /// fault plane's repair-before-outage rank.
    fn rank(&self) -> u8 {
        match self {
            Self::Heal => 0,
            Self::LinkRestore { .. } => 1,
            Self::FlashEnd { .. } => 2,
            Self::Partition { .. } => 3,
            Self::LinkDegrade { .. } => 4,
            Self::FlashBegin { .. } => 5,
            Self::Migrate { .. } => 6,
            Self::RegionFailover { .. } => 7,
        }
    }

    /// Payload tiebreaker for the canonical sort (same tick, same rank).
    fn sort_payload(&self) -> (u64, u64) {
        match *self {
            Self::Heal => (0, 0),
            Self::LinkRestore { a, b } | Self::LinkDegrade { a, b, .. } => {
                (u64::from(a), u64::from(b))
            }
            Self::Partition { mask } => (mask, 0),
            Self::FlashEnd { pick } | Self::FlashBegin { pick, .. } => (pick, 0),
            Self::Migrate { pick } => (pick, 0),
            Self::RegionFailover { center } => (u64::from(center), 0),
        }
    }
}

/// One timed scenario event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// Tick at which the event strikes (applied before the tick's
    /// demand fill, so its impact is visible the same tick).
    pub tick: u64,
    /// What happens.
    pub kind: ScenarioEventKind,
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("scenario spec segment `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |e: &dyn std::fmt::Display| {
                format!("scenario spec `{key}`: bad value `{value}`: {e}")
            };
            match key {
                "seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
                "partition" => out.partitions_per_day = value.parse().map_err(|e| bad(&e))?,
                "pmins" => out.partition_minutes = value.parse().map_err(|e| bad(&e))?,
                "migrate" => out.migrations_per_day = value.parse().map_err(|e| bad(&e))?,
                "mcost" => out.migration_cost_ticks = value.parse().map_err(|e| bad(&e))?,
                "flash" => out.flash_per_day = value.parse().map_err(|e| bad(&e))?,
                "fpeak" => out.flash_peak = value.parse().map_err(|e| bad(&e))?,
                "fmins" => out.flash_minutes = value.parse().map_err(|e| bad(&e))?,
                "failover" => out.failovers_per_day = value.parse().map_err(|e| bad(&e))?,
                "link" => out.links_per_day = value.parse().map_err(|e| bad(&e))?,
                "lfactor" => out.link_factor = value.parse().map_err(|e| bad(&e))?,
                "lmins" => out.link_minutes = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown scenario spec key `{other}`")),
            }
        }
        for (key, rate) in [
            ("partition", out.partitions_per_day),
            ("migrate", out.migrations_per_day),
            ("flash", out.flash_per_day),
            ("failover", out.failovers_per_day),
            ("link", out.links_per_day),
        ] {
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!("{key} {rate} is not a finite rate ≥ 0"));
            }
        }
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

    /// True when every event rate is zero — such a spec generates an
    /// empty timeline and callers should run the scenario-free code
    /// path.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.partitions_per_day == 0.0
            && self.migrations_per_day == 0.0
            && self.flash_per_day == 0.0
            && self.failovers_per_day == 0.0
            && self.links_per_day == 0.0
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

/// A deterministic, pre-materialised list of scenario events sorted by
/// `(tick, kind rank, payload)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTimeline {
    events: Vec<ScenarioEvent>,
    label: String,
    /// Unserved player-ticks charged per player each time a group
    /// migrates (copied from [`ScenarioSpec::migration_cost_ticks`]).
    migration_cost_ticks: u64,
}

impl ScenarioTimeline {
    /// Builds a timeline from explicit events (tests, bespoke
    /// scenarios). Events are sorted into the canonical order; the
    /// migration cost is the spec default (override with
    /// [`with_migration_cost`](Self::with_migration_cost)).
    #[must_use]
    pub fn from_events(label: &str, mut events: Vec<ScenarioEvent>) -> Self {
        events.sort_by_key(|e| (e.tick, e.kind.rank(), e.kind.sort_payload()));
        Self {
            events,
            label: label.to_string(),
            migration_cost_ticks: ScenarioSpec::default().migration_cost_ticks,
        }
    }

    /// Sets the per-player migration cost (builder style).
    #[must_use]
    pub fn with_migration_cost(mut self, ticks: u64) -> Self {
        self.migration_cost_ticks = ticks;
        self
    }

    /// Unserved player-ticks charged per player moved by a migration.
    #[must_use]
    pub fn migration_cost_ticks(&self) -> u64 {
        self.migration_cost_ticks
    }

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
        let mut events = Vec::new();
        let per_tick = |rate: f64| (rate / TICKS_PER_DAY as f64).clamp(0.0, 1.0);
        let mean_ticks = |minutes: u64| (minutes as f64 / TICK_MINUTES as f64).max(1.0);
        // Masks address at most the low 63 center bits; federations
        // beyond that (none exist) would leave the tail uncut.
        let maskable = centers.min(63) as u32;
        let p_part = per_tick(spec.partitions_per_day);
        if p_part > 0.0 && maskable >= 2 {
            let mut rng = Rng64::stream(spec.seed, STREAM_PARTITION);
            let mean = mean_ticks(spec.partition_minutes);
            let all = (1u64 << maskable) - 1;
            let mut busy_until = 0u64;
            for t in 0..ticks {
                if t < busy_until || !rng.chance(p_part) {
                    continue;
                }
                // Non-trivial split: at least one center on each side.
                let mask = 1 + rng.below(all - 1);
                let duration = (rng.exponential(1.0 / mean).ceil() as u64).max(1);
                events.push(ScenarioEvent {
                    tick: t,
                    kind: ScenarioEventKind::Partition { mask },
                });
                events.push(ScenarioEvent {
                    tick: t.saturating_add(duration),
                    kind: ScenarioEventKind::Heal,
                });
                busy_until = t.saturating_add(duration);
            }
        }
        let p_link = per_tick(spec.links_per_day);
        if p_link > 0.0 && centers >= 2 {
            let mut rng = Rng64::stream(spec.seed, STREAM_LINK);
            let mean = mean_ticks(spec.link_minutes);
            let mut busy_until = 0u64;
            for t in 0..ticks {
                if t < busy_until || !rng.chance(p_link) {
                    continue;
                }
                let a = rng.below(centers as u64) as u32;
                let mut b = rng.below(centers as u64 - 1) as u32;
                if b >= a {
                    b += 1;
                }
                let duration = (rng.exponential(1.0 / mean).ceil() as u64).max(1);
                events.push(ScenarioEvent {
                    tick: t,
                    kind: ScenarioEventKind::LinkDegrade {
                        a,
                        b,
                        factor: spec.link_factor,
                    },
                });
                events.push(ScenarioEvent {
                    tick: t.saturating_add(duration),
                    kind: ScenarioEventKind::LinkRestore { a, b },
                });
                busy_until = t.saturating_add(duration);
            }
        }
        let p_flash = per_tick(spec.flash_per_day);
        if p_flash > 0.0 {
            let mut rng = Rng64::stream(spec.seed, STREAM_FLASH);
            let mean = mean_ticks(spec.flash_minutes);
            let mut busy_until = 0u64;
            for t in 0..ticks {
                if t < busy_until || !rng.chance(p_flash) {
                    continue;
                }
                let pick = rng.next_u64();
                let duration = (rng.exponential(1.0 / mean).ceil() as u64).max(1);
                events.push(ScenarioEvent {
                    tick: t,
                    kind: ScenarioEventKind::FlashBegin {
                        pick,
                        factor: spec.flash_peak,
                    },
                });
                events.push(ScenarioEvent {
                    tick: t.saturating_add(duration),
                    kind: ScenarioEventKind::FlashEnd { pick },
                });
                busy_until = t.saturating_add(duration);
            }
        }
        let p_mig = per_tick(spec.migrations_per_day);
        if p_mig > 0.0 {
            let mut rng = Rng64::stream(spec.seed, STREAM_MIGRATION);
            for t in 0..ticks {
                if rng.chance(p_mig) {
                    events.push(ScenarioEvent {
                        tick: t,
                        kind: ScenarioEventKind::Migrate {
                            pick: rng.next_u64(),
                        },
                    });
                }
            }
        }
        let p_fo = per_tick(spec.failovers_per_day);
        if p_fo > 0.0 && centers > 0 {
            let mut rng = Rng64::stream(spec.seed, STREAM_FAILOVER);
            for t in 0..ticks {
                if rng.chance(p_fo) {
                    events.push(ScenarioEvent {
                        tick: t,
                        kind: ScenarioEventKind::RegionFailover {
                            center: rng.below(centers as u64) as u32,
                        },
                    });
                }
            }
        }
        Self::from_events(&spec.label(), events).with_migration_cost(spec.migration_cost_ticks)
    }

    /// The events, sorted by `(tick, kind rank, payload)`.
    #[must_use]
    pub fn events(&self) -> &[ScenarioEvent] {
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

    /// Number of events at ticks `<= tick` — how many the engine has
    /// applied once it finishes that tick (events are sorted by tick).
    /// The live telemetry tap reports this as its `scenario_events`
    /// gauge.
    #[must_use]
    pub fn applied_through(&self, tick: u64) -> u64 {
        self.events.partition_point(|e| e.tick <= tick) as u64
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
        assert!(!s.is_zero());
        assert!(ScenarioSpec::parse("").unwrap().is_zero());
    }

    #[test]
    fn spec_errors_name_the_offending_token() {
        let err = ScenarioSpec::parse("partition=abc").unwrap_err();
        assert!(err.contains("`partition`"), "missing key in: {err}");
        assert!(err.contains("`abc`"), "missing value token in: {err}");
        let err = ScenarioSpec::parse("bogus=1").unwrap_err();
        assert!(err.contains("`bogus`"), "missing key token in: {err}");
        let err = ScenarioSpec::parse("flash").unwrap_err();
        assert!(err.contains("`flash`"), "missing segment token in: {err}");
        assert!(ScenarioSpec::parse("fpeak=0.5").is_err());
        assert!(ScenarioSpec::parse("lfactor=0.9").is_err());
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
    fn zero_spec_generates_nothing() {
        let timeline = ScenarioTimeline::from_spec(&ScenarioSpec::default(), 1440, 12);
        assert!(timeline.is_empty());
        assert_eq!(timeline.len(), 0);
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
    fn events_sorted_by_tick_then_rank() {
        let spec =
            ScenarioSpec::parse("seed=5,partition=4,migrate=8,flash=4,failover=2,link=4").unwrap();
        let timeline = ScenarioTimeline::from_spec(&spec, 1000, 6);
        let keys: Vec<(u64, u8)> = timeline
            .events()
            .iter()
            .map(|e| (e.tick, e.kind.rank()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn scaled_spec_multiplies_rates_only() {
        let spec = ScenarioSpec::paper_default();
        let double = spec.scaled(2.0);
        assert_eq!(double.partitions_per_day, spec.partitions_per_day * 2.0);
        assert_eq!(double.migrations_per_day, spec.migrations_per_day * 2.0);
        assert_eq!(double.flash_peak, spec.flash_peak);
        assert_eq!(double.migration_cost_ticks, spec.migration_cost_ticks);
        let zero = spec.scaled(0.0);
        assert!(zero.is_zero());
        assert!(ScenarioTimeline::from_spec(&zero, 1440, 12).is_empty());
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

    #[test]
    fn labels_are_stable_and_kind_labels_cover_the_event_kinds() {
        let spec = ScenarioSpec::paper_default();
        assert_eq!(spec.label(), ScenarioSpec::paper_default().label());
        assert_eq!(ScenarioEventKind::Heal.label(), "heal");
        assert_eq!(
            ScenarioEventKind::Partition { mask: 1 }.label(),
            "partition"
        );
        assert_eq!(
            ScenarioEventKind::LinkDegrade {
                a: 0,
                b: 1,
                factor: 2.0
            }
            .label(),
            "topology_change"
        );
        assert_eq!(
            ScenarioEventKind::FlashBegin {
                pick: 0,
                factor: 2.0
            }
            .label(),
            "flash_crowd"
        );
        assert_eq!(ScenarioEventKind::Migrate { pick: 0 }.label(), "migration");
        assert_eq!(
            ScenarioEventKind::RegionFailover { center: 0 }.label(),
            "migration"
        );
    }
}
