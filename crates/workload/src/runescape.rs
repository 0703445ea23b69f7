//! The calibrated RuneScape-like trace generator.
//!
//! The paper's input workload is ten months of scraped RuneScape player
//! counts; this generator is the substitution (DESIGN.md §2). It
//! reproduces every statistical property Sec. III reports:
//!
//! - five geographical regions, with region 0 (Europe) holding 40 server
//!   groups (Fig. 3 analyses "40 different server groups");
//! - a diurnal pattern whose autocorrelation peaks at lag 720 (24 h of
//!   2-minute samples) with a negative peak at lag 360 (12 h);
//! - cross-group popularity spread such that at peak hours "the median is
//!   about 50% higher than the minimum";
//! - "the load of 2-5% of the servers is always 95%, except for outages";
//! - rare, short-lived server-group outages ("few and short-lived");
//! - a weekend effect on roughly one third of the traces (Sec. III-C:
//!   "This behavior is typical for one third of our traces");
//! - optional global population events (Figure 2's mass-quit and
//!   content-release shocks) via [`PopulationEvent`].
//!
//! # One protocol, two drain orders
//!
//! The random protocol itself lives in [`crate::stream`]:
//! [`generate`] is [`StreamingTrace::into_trace`], the group-major drain
//! that tabulates each periodic factor over one day, and the engine's
//! streaming worlds drain the same [`StreamingTrace`] tick by tick. Both
//! orders yield bit-identical values (the stream module's "Byte-identity
//! contract" and "Periodic factors").

use crate::events::PopulationEvent;
use crate::stream::StreamingTrace;
use crate::trace::GameTrace;

/// Parameters of one geographical region.
#[derive(Debug, Clone)]
pub struct RegionSpec {
    /// Region name (for reports).
    pub name: String,
    /// Number of server groups hosted for this region.
    pub groups: u32,
    /// Player capacity of one fully loaded server group (2 000 for
    /// RuneScape, Sec. V-A).
    pub peak_players: f64,
    /// Offset of the local clock from trace time, in hours; shifts the
    /// diurnal peak so regions peak at their own late afternoon.
    pub utc_offset_hours: f64,
}

/// Full generator configuration.
#[derive(Debug, Clone)]
pub struct RuneScapeConfig {
    /// Regions to generate.
    pub regions: Vec<RegionSpec>,
    /// Length of the trace in days.
    pub days: u64,
    /// Deterministic seed.
    pub seed: u64,
    /// Global population events applied to every group.
    pub events: Vec<PopulationEvent>,
    /// Fraction of groups pinned at 95 % load (paper: 2–5 %).
    pub always_full_fraction: f64,
    /// Fraction of groups showing a weekend effect (paper: one third).
    pub weekend_fraction: f64,
    /// Per-group probability of an outage starting on any given day.
    pub outage_prob_per_day: f64,
    /// Amplitude of the diurnal swing (0 = flat, 1 = empty at trough).
    pub diurnal_amplitude: f64,
    /// Per-tick probability that a group starts a flash episode — a
    /// ±10–25 % load swing ramping over a few ticks (world hops,
    /// minigame schedules). These drive the short-term dynamics that
    /// Sec. III shows are "more dynamic than previously believed".
    pub flash_prob_per_tick: f64,
    /// Per-tick probability that a whole region surges together — the
    /// scheduled in-game events (minigame rounds, boss spawns) that move
    /// players across every server group of a region at once. These
    /// correlated ramps are what defeat lagging predictors.
    pub regional_flash_prob_per_tick: f64,
}

impl RuneScapeConfig {
    /// The five-region layout calibrated to the paper: ~130 groups with
    /// 2 000-player capacity each, giving a maximal global concurrent
    /// population around 250 000 (Sec. III-B).
    #[must_use]
    pub fn paper_default(days: u64, seed: u64) -> Self {
        Self {
            regions: vec![
                RegionSpec {
                    name: "Europe".into(),
                    groups: 40,
                    peak_players: 2000.0,
                    utc_offset_hours: 1.0,
                },
                RegionSpec {
                    name: "US East".into(),
                    groups: 30,
                    peak_players: 2000.0,
                    utc_offset_hours: -5.0,
                },
                RegionSpec {
                    name: "US West".into(),
                    groups: 25,
                    peak_players: 2000.0,
                    utc_offset_hours: -8.0,
                },
                RegionSpec {
                    name: "US Central".into(),
                    groups: 20,
                    peak_players: 2000.0,
                    utc_offset_hours: -6.0,
                },
                RegionSpec {
                    name: "Oceania".into(),
                    groups: 15,
                    peak_players: 2000.0,
                    utc_offset_hours: 10.0,
                },
            ],
            days,
            seed,
            events: Vec::new(),
            always_full_fraction: 0.03,
            weekend_fraction: 1.0 / 3.0,
            outage_prob_per_day: 0.03,
            diurnal_amplitude: 0.65,
            flash_prob_per_tick: 0.004,
            regional_flash_prob_per_tick: 0.01,
        }
    }

    /// Like [`Self::paper_default`] but with the Figure 2 event sequence
    /// attached (mass-quit at `lead_days`, releases after).
    #[must_use]
    pub fn with_figure2_events(days: u64, seed: u64, lead_days: u64) -> Self {
        let mut cfg = Self::paper_default(days, seed);
        cfg.events = PopulationEvent::figure2_sequence(lead_days);
        cfg
    }
}

/// Generates a full multi-region trace.
#[must_use]
pub fn generate(cfg: &RuneScapeConfig) -> GameTrace {
    StreamingTrace::new(cfg).into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_util::stats;
    use mmog_util::time::TICKS_PER_DAY;

    fn small_cfg() -> RuneScapeConfig {
        let mut cfg = RuneScapeConfig::paper_default(4, 99);
        // Shrink for test speed: two regions, few groups.
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 10;
        cfg.regions[1].groups = 5;
        cfg
    }

    #[test]
    fn deterministic() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.global_series().values(), b.global_series().values());
    }

    #[test]
    fn shape_matches_config() {
        let t = generate(&small_cfg());
        assert_eq!(t.regions.len(), 2);
        assert_eq!(t.total_groups(), 15);
        assert_eq!(t.global_series().len(), 4 * TICKS_PER_DAY as usize);
    }

    #[test]
    fn loads_within_capacity() {
        let t = generate(&small_cfg());
        for r in &t.regions {
            for g in &r.groups {
                for &v in g.series.values() {
                    assert!(v >= 0.0);
                    assert!(v <= 2000.0 * 1.05 + 0.5, "load {v} beyond capacity");
                }
            }
        }
    }

    #[test]
    fn diurnal_pattern_has_daily_acf_peak() {
        let mut cfg = small_cfg();
        cfg.days = 6;
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        // Regional aggregate should autocorrelate at 24 h (lag 720) and
        // anti-correlate at 12 h (lag 360) — the Figure 3 structure.
        let agg = t.regions[0].aggregate();
        let acf = stats::autocorrelation(agg.values(), 760);
        assert!(acf[720] > 0.6, "24h ACF {}", acf[720]);
        assert!(acf[360] < -0.3, "12h ACF {}", acf[360]);
    }

    #[test]
    fn peak_hour_median_roughly_fifty_pct_above_min() {
        // Sec. III-C: "the median is about 50% higher than the minimum"
        // during peak hours. Exclude pinned/always-full groups (they are
        // outliers above) and outage zeros (below).
        let mut cfg = RuneScapeConfig::paper_default(2, 5);
        cfg.regions.truncate(1);
        cfg.always_full_fraction = 0.0;
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        // Peak local hour for Europe (+1): 19:00 local = 18:00 trace.
        let tick = (18 * 30) as usize;
        let cross = t.regions[0].cross_section(tick);
        let med = stats::median(&cross).unwrap();
        let min = cross.iter().copied().fold(f64::INFINITY, f64::min);
        let ratio = med / min;
        assert!((1.2..2.2).contains(&ratio), "median/min at peak: {ratio}");
    }

    #[test]
    fn always_full_groups_sit_at_95_pct() {
        let mut cfg = small_cfg();
        cfg.always_full_fraction = 1.0;
        cfg.outage_prob_per_day = 0.0;
        cfg.events.clear();
        let t = generate(&cfg);
        for r in &t.regions {
            for g in &r.groups {
                let mean = g.series.mean().unwrap();
                assert!((mean - 1900.0).abs() < 10.0, "mean {mean}");
            }
        }
    }

    #[test]
    fn outages_drop_load_to_zero_briefly() {
        let mut cfg = small_cfg();
        cfg.outage_prob_per_day = 2.0; // force some outages
        let t = generate(&cfg);
        let zeros: usize = t
            .regions
            .iter()
            .flat_map(|r| &r.groups)
            .map(|g| g.series.values().iter().filter(|v| **v == 0.0).count())
            .sum();
        assert!(zeros > 0, "no outages generated");
        // Still short-lived overall: far less than 20% of all samples.
        let total: usize = t
            .regions
            .iter()
            .flat_map(|r| &r.groups)
            .map(|g| g.series.len())
            .sum();
        assert!((zeros as f64) < 0.2 * total as f64);
    }

    #[test]
    fn figure2_events_shape_global_series() {
        let mut cfg = RuneScapeConfig::with_figure2_events(24, 3, 8);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 8;
        cfg.regions[1].groups = 6;
        let t = generate(&cfg);
        let global = t.global_series();
        // Daily means to smooth the diurnal cycle out.
        let daily = global.downsample_mean(TICKS_PER_DAY as usize);
        let before = daily.values()[6]; // day 6: pre-event baseline
        let crash = daily.values()[9]; // day 9: right after the decision
        let surge = daily.values()[18]; // day 18: first release surge
        assert!(crash < 0.9 * before, "crash {crash} vs before {before}");
        assert!(surge > before, "surge {surge} vs before {before}");
    }

    #[test]
    fn weekend_fraction_respected_in_aggregate() {
        // With weekends boosted for a third of groups, weekend loads
        // should exceed weekday loads slightly in aggregate.
        let mut cfg = RuneScapeConfig::paper_default(14, 11);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 30;
        cfg.outage_prob_per_day = 0.0;
        cfg.always_full_fraction = 0.0;
        let t = generate(&cfg);
        let daily = t.global_series().downsample_mean(TICKS_PER_DAY as usize);
        let vals = daily.values();
        // Days 5,6,12,13 are weekends under the Monday-epoch convention.
        let weekend_mean = (vals[5] + vals[6] + vals[12] + vals[13]) / 4.0;
        let weekday_mean = (0..14)
            .filter(|d| ![5usize, 6, 12, 13].contains(d))
            .map(|d| vals[d])
            .sum::<f64>()
            / 10.0;
        assert!(
            weekend_mean > weekday_mean * 1.02,
            "weekend {weekend_mean} weekday {weekday_mean}"
        );
    }

    #[test]
    fn global_peak_near_quarter_million_with_paper_layout() {
        let mut cfg = RuneScapeConfig::paper_default(2, 17);
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        let peak = t.global_series().max().unwrap();
        // Sec. III-B: maximum global concurrent players ≈ 250 000. The
        // regions peak at different trace hours, so the global peak sits
        // below the 260 000 theoretical capacity.
        assert!((120_000.0..260_000.0).contains(&peak), "global peak {peak}");
    }
}
