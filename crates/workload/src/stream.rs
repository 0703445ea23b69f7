//! The RuneScape-like trace protocol, with two drain orders.
//!
//! [`StreamingTrace`] is the one implementation of the random protocol
//! behind the Sec. III workload ([`crate::runescape`] says what it
//! models). Construction splits one stream per region, then one per
//! group, in enumeration order, and samples each group's profile. Each
//! region and group then advances on its own stream with O(1) state:
//! the AR(1) noise register, the outage countdown, and fixed-capacity
//! episode buffers sized by the protocol's ramp/hold bounds.
//!
//! - [`StreamingTrace::next_tick`] drains tick-major: every group by one
//!   tick into the caller's row, with no allocation (asserted by
//!   `crates/bench/tests/alloc_smoke.rs`). The engine's streaming worlds
//!   use it, so their memory does not grow with the trace.
//! - [`StreamingTrace::into_trace`] drains group-major: per region, the
//!   surge episode over every tick, then each group over every tick,
//!   into a [`GameTrace`]. [`crate::runescape::generate`] is this drain.
//!
//! # Byte-identity contract
//!
//! Both orders yield bit-identical values. Every region and group draws
//! from its own split stream, so the order in which they advance cannot
//! change a draw, and each factor has one formula (below). The digests
//! in `crates/workload/tests/trace_digest.rs` pin both drains;
//! `tests::tick_drain_matches_group_drain` and the bench crate's
//! paper-scale determinism test compare them value by value.
//!
//! # Periodic factors
//!
//! A group's diurnal factor and a region's surge-start odds depend on
//! the tick only through [`SimTime::hour_of_day`], i.e. on
//! `tick % TICKS_PER_DAY`. The group-major drain evaluates each over the
//! 720 phases of a day into a reused day buffer and reads it at
//! `tick % 720`; the tick-major drain passes an empty buffer and runs
//! the same expression per tick, so it keeps no tables. The
//! population-event multiplier is computed once per tick (the
//! group-major drain skips it without events: the empty product is 1.0).

use crate::events::combined_multiplier;
use crate::runescape::{RegionSpec, RuneScapeConfig};
use crate::trace::{GameTrace, RegionId, RegionTrace, ServerGroupId, ServerGroupTrace};
use mmog_util::rng::Rng64;
use mmog_util::time::{SimTime, TICKS_PER_DAY};

/// Ticks in one day: the period of every periodic factor.
const DAY: usize = TICKS_PER_DAY as usize;

/// Maximum length of a regional surge episode: ramp ≤ 4 (`range_u64(1,
/// 5)`), hold ≤ 60 (`range_u64(10, 61)`), so `2·ramp + hold ≤ 68`.
const REGION_EPISODE_CAP: usize = 2 * 4 + 60;

/// Maximum length of a group flash episode: ramp ≤ 8 (`range_u64(3,
/// 9)`), hold ≤ 60, so `2·ramp + hold ≤ 76`.
const FLASH_EPISODE_CAP: usize = 2 * 8 + 60;

/// The diurnal shape in `[0, 1]` at local hour `h`: 0 at 07:00, 1 at
/// 19:00.
fn diurnal(h: f64) -> f64 {
    0.5 * (1.0 - (2.0 * std::f64::consts::PI * (h - 7.0) / 24.0).cos())
}

/// A group's diurnal load factor at `tick`: peak at 19:00 local, trough
/// at 07:00 local.
fn daily_factor(cfg: &RuneScapeConfig, spec: &RegionSpec, phase_jitter: f64, tick: usize) -> f64 {
    let local_hour = SimTime(tick as u64).hour_of_day() + spec.utc_offset_hours + phase_jitter;
    (1.0 - cfg.diurnal_amplitude) + cfg.diurnal_amplitude * diurnal(local_hour)
}

/// A region's surge-start odds at `tick`, clustered at its peak hours
/// (scheduled in-game events run when players are online).
fn surge_odds(cfg: &RuneScapeConfig, spec: &RegionSpec, tick: usize) -> f64 {
    let d = diurnal(SimTime(tick as u64).hour_of_day() + spec.utc_offset_hours);
    cfg.regional_flash_prob_per_tick * 2.0 * d * d
}

/// `day[tick % DAY]`, or `formula(tick)` when `day` is empty.
fn periodic(day: &[f64], tick: usize, formula: impl FnOnce(usize) -> f64) -> f64 {
    if day.is_empty() {
        formula(tick)
    } else {
        day[tick % DAY]
    }
}

/// Ramped boost episodes: with per-tick start probability `prob` an
/// episode starts, ramping to a magnitude in ±`[lo, hi]` over 1–4
/// ticks, holding, then ramping back. The level sequence is staged in a
/// fixed-capacity buffer.
#[derive(Debug, Clone)]
struct EpisodeStream {
    rng: Rng64,
    lo: f64,
    hi: f64,
    /// Pending episode levels; `cursor..levels.len()` is still to serve.
    levels: Vec<f64>,
    cursor: usize,
}

impl EpisodeStream {
    fn new(rng: Rng64, lo: f64, hi: f64, cap: usize) -> Self {
        Self {
            rng,
            lo,
            hi,
            levels: Vec::with_capacity(cap),
            cursor: 0,
        }
    }

    /// The boost level at the next tick (calls must be made for `t = 0,
    /// 1, 2, …` in order); `prob` is the caller-evaluated per-tick
    /// episode-start probability at that tick.
    fn next(&mut self, prob: f64) -> f64 {
        if self.cursor < self.levels.len() {
            let v = self.levels[self.cursor];
            self.cursor += 1;
            return v;
        }
        // Outside an episode: a start is drawn only here, never while
        // an episode plays out.
        if self.rng.chance(prob) {
            let magnitude = self.rng.range_f64(self.lo, self.hi)
                * if self.rng.chance(0.6) { 1.0 } else { -1.0 };
            let ramp = self.rng.range_u64(1, 5) as usize;
            let hold = self.rng.range_u64(10, 61) as usize;
            let mut level = 0.0;
            let step = magnitude / ramp as f64;
            self.levels.clear();
            self.cursor = 0;
            for phase in 0..(2 * ramp + hold) {
                if phase < ramp {
                    level += step;
                } else if phase >= ramp + hold {
                    level -= step;
                }
                self.levels.push(level);
            }
            let v = self.levels[0];
            self.cursor = 1;
            v
        } else {
            0.0
        }
    }
}

/// Per-group latent state, sampled once at construction.
#[derive(Debug, Clone)]
struct GroupProfile {
    /// Relative popularity in (0, 1]; spreads the peak-hour loads so the
    /// cross-group median sits ~50 % above the minimum.
    popularity: f64,
    /// Pinned at 95 % load?
    always_full: bool,
    /// Shows the weekend effect?
    weekend: bool,
    /// Small per-group phase shift of the diurnal peak (hours).
    phase_jitter: f64,
}

/// One server group's stream: the profile plus the loop state carried
/// from tick to tick.
#[derive(Debug, Clone)]
struct GroupStream {
    rng: Rng64,
    profile: GroupProfile,
    /// AR(1) multiplicative noise: keeps the 2-minute signal smooth but
    /// wandering, like real login churn.
    noise: f64,
    /// Remaining outage ticks.
    outage_left: u32,
    /// Current flash boost and the reversed delta plan being consumed.
    flash_boost: f64,
    flash_plan: Vec<f64>,
}

impl GroupStream {
    fn new(mut rng: Rng64, cfg: &RuneScapeConfig) -> Self {
        let profile = GroupProfile {
            popularity: rng.triangular(0.55, 1.0, 0.85),
            always_full: rng.chance(cfg.always_full_fraction),
            weekend: rng.chance(cfg.weekend_fraction),
            phase_jitter: rng.range_f64(-1.0, 1.0),
        };
        Self {
            rng,
            profile,
            noise: 0.0,
            outage_left: 0,
            flash_boost: 0.0,
            flash_plan: Vec::with_capacity(FLASH_EPISODE_CAP),
        }
    }

    /// The group's load at `tick` (calls must be made for consecutive
    /// ticks). `regional` is the region's surge level and `event_mult`
    /// the population-event multiplier at `tick`; `daily` is this
    /// group's diurnal factor by phase of day, or empty to evaluate it
    /// per tick (module docs, "Periodic factors"). Inlined into both
    /// drains: as an outlined call, `next_tick` ran ≈ 13% slower.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn next(
        &mut self,
        tick: usize,
        regional: f64,
        event_mult: f64,
        daily: &[f64],
        spec: &RegionSpec,
        cfg: &RuneScapeConfig,
        outage_prob_per_tick: f64,
    ) -> f64 {
        // Outages hit all groups, including the always-full ones
        // ("always 95%, except for outages").
        if self.outage_left > 0 {
            self.outage_left -= 1;
            return 0.0;
        }
        if self.rng.chance(outage_prob_per_tick) {
            // 10–60 minutes: "few and short-lived".
            self.outage_left = self.rng.range_u64(5, 31) as u32;
            return 0.0;
        }

        // Flash episodes: ramp up over 3-8 ticks, hold 10-60, ramp down.
        if self.flash_plan.is_empty()
            && self.flash_boost == 0.0
            && self.rng.chance(cfg.flash_prob_per_tick)
        {
            let magnitude =
                self.rng.range_f64(0.10, 0.25) * if self.rng.chance(0.6) { 1.0 } else { -1.0 };
            let ramp = self.rng.range_u64(3, 9) as usize;
            let hold = self.rng.range_u64(10, 61) as usize;
            let step = magnitude / ramp as f64;
            // Reversed delta plan (consumed back to front): ramp down,
            // hold, ramp up, into the pre-sized buffer.
            self.flash_plan.clear();
            self.flash_plan.extend(std::iter::repeat_n(-step, ramp));
            self.flash_plan.extend(std::iter::repeat_n(0.0, hold));
            self.flash_plan.extend(std::iter::repeat_n(step, ramp));
        }
        if let Some(delta) = self.flash_plan.pop() {
            self.flash_boost += delta;
            if self.flash_plan.is_empty() {
                self.flash_boost = 0.0; // cancel rounding drift
            }
        }

        let load = if self.profile.always_full {
            0.95 * spec.peak_players * event_mult.min(1.05)
        } else {
            let phase_jitter = self.profile.phase_jitter;
            let daily = periodic(daily, tick, |t| daily_factor(cfg, spec, phase_jitter, t));
            let weekend = if self.profile.weekend && SimTime(tick as u64).is_weekend() {
                1.2
            } else {
                1.0
            };
            let (rho, sigma) = (0.98, 0.015);
            self.noise = rho * self.noise + sigma * self.rng.normal();
            spec.peak_players
                * self.profile.popularity
                * daily
                * weekend
                * event_mult
                * (1.0 + self.noise)
                * (1.0 + self.flash_boost)
                * (1.0 + regional)
        };
        load.clamp(0.0, spec.peak_players * 1.05).round()
    }
}

/// One region's streams: the shared surge episode plus every group.
#[derive(Debug, Clone)]
struct RegionStream {
    spec: RegionSpec,
    episodes: EpisodeStream,
    groups: Vec<GroupStream>,
}

impl RegionStream {
    /// The region's surge level at `tick` (calls must be made for
    /// consecutive ticks); `odds` holds the surge-start odds by phase of
    /// day, or is empty to evaluate them per tick.
    fn surge(&mut self, tick: usize, odds: &[f64], cfg: &RuneScapeConfig) -> f64 {
        let prob = periodic(odds, tick, |t| surge_odds(cfg, &self.spec, t));
        self.episodes.next(prob)
    }
}

/// The whole configuration as a lazy tick source.
///
/// Group order is region-major (region 0's groups, then region 1's, …)
/// — the same global order in which a [`GameTrace`] enumerates its
/// groups, and the order the simulation engine assigns group indices.
#[derive(Debug, Clone)]
pub struct StreamingTrace {
    cfg: RuneScapeConfig,
    regions: Vec<RegionStream>,
    ticks: usize,
    t: usize,
    group_count: usize,
    outage_prob_per_tick: f64,
}

impl StreamingTrace {
    /// Builds the per-region / per-group streams: one split for each
    /// region's surges, then one for each of its groups, in order.
    #[must_use]
    pub fn new(cfg: &RuneScapeConfig) -> Self {
        let mut rng = Rng64::seed_from(cfg.seed);
        let ticks = (cfg.days * TICKS_PER_DAY) as usize;
        let mut regions = Vec::with_capacity(cfg.regions.len());
        let mut group_count = 0usize;
        for spec in &cfg.regions {
            let region_rng = rng.split();
            // Surge magnitudes sit near the |Υ| = 1% event threshold on
            // purpose: super-linear update models amplify the same surge
            // into a larger resource shortfall (the Figure 10 separation).
            let episodes = EpisodeStream::new(region_rng, 0.04, 0.13, REGION_EPISODE_CAP);
            let mut groups = Vec::with_capacity(spec.groups as usize);
            for _ in 0..spec.groups {
                let group_rng = rng.split();
                groups.push(GroupStream::new(group_rng, cfg));
            }
            group_count += groups.len();
            regions.push(RegionStream {
                spec: spec.clone(),
                episodes,
                groups,
            });
        }
        Self {
            outage_prob_per_tick: cfg.outage_prob_per_day / TICKS_PER_DAY as f64,
            cfg: cfg.clone(),
            regions,
            ticks,
            t: 0,
            group_count,
        }
    }

    /// The configuration this stream was built from.
    #[must_use]
    pub fn config(&self) -> &RuneScapeConfig {
        &self.cfg
    }

    /// Total ticks the stream will produce (`days × TICKS_PER_DAY`).
    #[must_use]
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The next tick index to be generated.
    #[must_use]
    pub fn tick(&self) -> usize {
        self.t
    }

    /// Total server groups across all regions.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Generates one tick of demand for every group into `out`
    /// (region-major group order). Returns `false` — writing nothing —
    /// once the configured trace length is exhausted.
    ///
    /// Performs no allocation: the only mutable state is the per-group
    /// registers and the pre-sized episode buffers.
    ///
    /// # Panics
    /// Panics when `out` is shorter than [`Self::group_count`].
    pub fn next_tick(&mut self, out: &mut [f64]) -> bool {
        if self.t >= self.ticks {
            return false;
        }
        assert!(
            out.len() >= self.group_count,
            "output slice holds {} groups, stream has {}",
            out.len(),
            self.group_count
        );
        let t = self.t;
        let event_mult = combined_multiplier(&self.cfg.events, SimTime(t as u64));
        let mut out = out.iter_mut();
        for region in &mut self.regions {
            // The surge level first: it is shared by the region's groups.
            let regional = region.surge(t, &[], &self.cfg);
            let (spec, p_out) = (&region.spec, self.outage_prob_per_tick);
            for (group, load) in region.groups.iter_mut().zip(&mut out) {
                *load = group.next(t, regional, event_mult, &[], spec, &self.cfg, p_out);
            }
        }
        self.t += 1;
        true
    }

    /// Drains the remaining ticks group by group into a materialized
    /// trace: per region, the surge episode over every tick into one
    /// buffer, then each group over every tick into its series, with the
    /// periodic factors read from a day buffer (module docs).
    #[must_use]
    pub fn into_trace(mut self) -> GameTrace {
        let (cfg, p_out, first) = (&self.cfg, self.outage_prob_per_tick, self.t);
        let ticks = first..self.ticks;
        let events: Option<Vec<f64>> = (!cfg.events.is_empty()).then(|| {
            let mult = |t: usize| combined_multiplier(&cfg.events, SimTime(t as u64));
            ticks.clone().map(mult).collect()
        });
        let event_mult = |t: usize| events.as_ref().map_or(1.0, |m| m[t - first]);
        let mut surge = vec![0.0f64; ticks.len()];
        let mut day = [0.0f64; DAY];
        let mut regions = Vec::with_capacity(self.regions.len());
        for (ri, region) in self.regions.iter_mut().enumerate() {
            for (phase, odds) in day.iter_mut().enumerate() {
                *odds = surge_odds(cfg, &region.spec, phase);
            }
            for (t, level) in ticks.clone().zip(&mut surge) {
                *level = region.surge(t, &day, cfg);
            }
            let (spec, region_id) = (&region.spec, RegionId(ri as u8));
            let mut groups = Vec::with_capacity(region.groups.len());
            for (group, gi) in region.groups.iter_mut().zip(0u32..) {
                // An always-full group never reads its diurnal factor.
                if !group.profile.always_full {
                    let jitter = group.profile.phase_jitter;
                    for (phase, daily) in day.iter_mut().enumerate() {
                        *daily = daily_factor(cfg, spec, jitter, phase);
                    }
                }
                let series = ticks.clone().zip(&surge).map(|(t, &regional)| {
                    group.next(t, regional, event_mult(t), &day, spec, cfg, p_out)
                });
                groups.push(ServerGroupTrace {
                    region: region_id,
                    group: ServerGroupId(gi),
                    series: series.collect(),
                });
            }
            regions.push(RegionTrace {
                region: region_id,
                name: spec.name.clone(),
                groups,
            });
        }
        GameTrace { regions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tick-major drain (per-tick formulas) against the group-major
    /// drain (day buffers), value by value.
    fn check_drains_agree(cfg: &RuneScapeConfig) {
        let trace = StreamingTrace::new(cfg).into_trace();
        let mut stream = StreamingTrace::new(cfg);
        let groups: Vec<&crate::trace::ServerGroupTrace> =
            trace.regions.iter().flat_map(|r| &r.groups).collect();
        assert_eq!(stream.group_count(), groups.len());
        let mut out = vec![0.0f64; stream.group_count()];
        for t in 0..stream.ticks() {
            assert!(stream.next_tick(&mut out));
            for (gi, g) in groups.iter().enumerate() {
                let expect = g.series.values()[t];
                let got = out[gi];
                assert!(
                    expect.to_bits() == got.to_bits(),
                    "tick {t} group {gi}: tick drain {got} != group drain {expect}"
                );
            }
        }
        assert!(!stream.next_tick(&mut out), "stream must end at ticks()");
    }

    #[test]
    fn tick_drain_matches_group_drain() {
        let mut cfg = RuneScapeConfig::paper_default(2, 99);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 6;
        cfg.regions[1].groups = 3;
        check_drains_agree(&cfg);
    }

    #[test]
    fn tick_drain_matches_group_drain_with_outages_and_events() {
        let mut cfg = RuneScapeConfig::with_figure2_events(3, 41, 1);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 4;
        cfg.regions[1].groups = 4;
        cfg.outage_prob_per_day = 2.0; // force outage branches
        check_drains_agree(&cfg);
    }

    #[test]
    fn tick_drain_matches_group_drain_always_full() {
        let mut cfg = RuneScapeConfig::paper_default(1, 7);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 3;
        cfg.always_full_fraction = 1.0;
        check_drains_agree(&cfg);
    }

    #[test]
    fn group_drain_takes_the_remaining_ticks() {
        let mut cfg = RuneScapeConfig::paper_default(2, 5);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 3;
        cfg.regions[1].groups = 2;
        let whole = StreamingTrace::new(&cfg).into_trace();
        let mut stream = StreamingTrace::new(&cfg);
        let mut row = vec![0.0f64; stream.group_count()];
        for _ in 0..100 {
            assert!(stream.next_tick(&mut row));
        }
        let rest = stream.into_trace();
        for (w, r) in whole.regions.iter().zip(&rest.regions) {
            assert_eq!(w.name, r.name);
            for (wg, rg) in w.groups.iter().zip(&r.groups) {
                assert_eq!(wg.group, rg.group);
                assert_eq!(&wg.series.values()[100..], rg.series.values());
            }
        }
    }

    #[test]
    fn episode_buffers_never_outgrow_their_caps() {
        let mut cfg = RuneScapeConfig::paper_default(4, 13);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 5;
        cfg.flash_prob_per_tick = 0.05; // plenty of episodes
        cfg.regional_flash_prob_per_tick = 0.05;
        let mut stream = StreamingTrace::new(&cfg);
        let mut out = vec![0.0f64; stream.group_count()];
        while stream.next_tick(&mut out) {
            for region in &stream.regions {
                assert!(region.episodes.levels.capacity() <= REGION_EPISODE_CAP);
                for g in &region.groups {
                    assert!(g.flash_plan.capacity() <= FLASH_EPISODE_CAP);
                }
            }
        }
    }

    #[test]
    fn tick_cursor_advances() {
        let mut cfg = RuneScapeConfig::paper_default(1, 3);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 2;
        let mut stream = StreamingTrace::new(&cfg);
        assert_eq!(stream.tick(), 0);
        let mut out = [0.0f64; 2];
        assert!(stream.next_tick(&mut out));
        assert_eq!(stream.tick(), 1);
        assert_eq!(stream.ticks(), TICKS_PER_DAY as usize);
    }
}
