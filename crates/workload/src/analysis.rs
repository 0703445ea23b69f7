//! Regional workload analysis — the computations behind Figures 2 and 3.
//!
//! Figure 3 has three sub-plots for region 0 (Europe): (top) the
//! minimum / median / maximum load across server groups at every time
//! step; (middle) the interquartile range of the per-group loads over
//! time; (bottom) the autocorrelation function of every group's load.
//! This module computes all three, plus the dominant-period detection
//! used to verify the 24-hour cycle and a weekend-effect measure.

use crate::trace::RegionTrace;
use mmog_util::series::TimeSeries;
use mmog_util::stats;
use mmog_util::time::TICKS_PER_DAY;

/// Min/median/max envelope of a region's per-group loads over time
/// (top sub-plot of Figure 3).
#[derive(Debug, Clone)]
pub struct LoadEnvelope {
    /// Minimum group load at each tick.
    pub min: TimeSeries,
    /// Median group load at each tick.
    pub median: TimeSeries,
    /// Maximum group load at each tick.
    pub max: TimeSeries,
}

/// Computes the load envelope of a region.
#[must_use]
pub fn load_envelope(region: &RegionTrace) -> LoadEnvelope {
    let ticks = region.ticks();
    let mut min = TimeSeries::with_capacity(ticks);
    let mut median = TimeSeries::with_capacity(ticks);
    let mut max = TimeSeries::with_capacity(ticks);
    let mut buf: Vec<f64> = Vec::with_capacity(region.group_count());
    for t in 0..ticks {
        buf.clear();
        buf.extend(region.groups.iter().map(|g| g.series.values()[t]));
        buf.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
        min.push(buf[0]);
        median.push(stats::quantile_sorted(&buf, 0.5));
        max.push(buf[buf.len() - 1]);
    }
    LoadEnvelope { min, median, max }
}

/// Interquartile range of the per-group loads at every tick (middle
/// sub-plot of Figure 3).
#[must_use]
pub fn iqr_series(region: &RegionTrace) -> TimeSeries {
    let ticks = region.ticks();
    let mut out = TimeSeries::with_capacity(ticks);
    let mut buf: Vec<f64> = Vec::with_capacity(region.group_count());
    for t in 0..ticks {
        buf.clear();
        buf.extend(region.groups.iter().map(|g| g.series.values()[t]));
        buf.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
        out.push(stats::quantile_sorted(&buf, 0.75) - stats::quantile_sorted(&buf, 0.25));
    }
    out
}

/// Autocorrelation function for every group of a region, up to
/// `max_lag` (bottom sub-plot of Figure 3). Groups with constant load
/// (e.g. always-full pinned at exactly one level) yield empty vectors.
#[must_use]
pub fn acf_per_group(region: &RegionTrace, max_lag: usize) -> Vec<Vec<f64>> {
    region
        .groups
        .iter()
        .map(|g| stats::autocorrelation(g.series.values(), max_lag))
        .collect()
}

/// Finds the lag (> `min_lag`) with the largest ACF value — the
/// dominant period of a signal. Returns `None` when the ACF is shorter
/// than `min_lag` or empty.
#[must_use]
pub fn dominant_period(acf: &[f64], min_lag: usize) -> Option<usize> {
    if acf.len() <= min_lag {
        return None;
    }
    acf.iter()
        .enumerate()
        .skip(min_lag.max(1))
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("ACF values are finite"))
        .map(|(lag, _)| lag)
}

/// Fraction of a region's groups whose load cycles daily: ACF at lag
/// 720 (24 h) above `threshold`. Sec. III-C observes that most groups
/// cycle but "the load of 2-5% of the servers is always 95%".
#[must_use]
pub fn diurnal_fraction(region: &RegionTrace, threshold: f64) -> f64 {
    let lag = TICKS_PER_DAY as usize;
    let acfs = acf_per_group(region, lag);
    if acfs.is_empty() {
        return 0.0;
    }
    let diurnal = acfs
        .iter()
        .filter(|acf| acf.len() > lag && acf[lag] > threshold)
        .count();
    diurnal as f64 / acfs.len() as f64
}

/// Weekend effect strength of a series: mean weekend load divided by
/// mean weekday load (1.0 = no effect). Returns `None` for traces
/// shorter than one week.
#[must_use]
pub fn weekend_effect(series: &TimeSeries) -> Option<f64> {
    if series.len() < 7 * TICKS_PER_DAY as usize {
        return None;
    }
    let (mut we_sum, mut we_n, mut wd_sum, mut wd_n) = (0.0, 0u64, 0.0, 0u64);
    for (t, v) in series.iter() {
        if t.is_weekend() {
            we_sum += v;
            we_n += 1;
        } else {
            wd_sum += v;
            wd_n += 1;
        }
    }
    if we_n == 0 || wd_n == 0 || wd_sum == 0.0 {
        return None;
    }
    Some((we_sum / we_n as f64) / (wd_sum / wd_n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runescape::{generate, RuneScapeConfig};
    use crate::trace::{RegionId, ServerGroupId, ServerGroupTrace};

    fn synthetic_region() -> RegionTrace {
        // Three groups, sinusoidal with different amplitudes.
        let mk = |amp: f64, gid: u32| ServerGroupTrace {
            region: RegionId(0),
            group: ServerGroupId(gid),
            series: (0..(3 * TICKS_PER_DAY) as usize)
                .map(|i| {
                    1000.0
                        + amp * (2.0 * std::f64::consts::PI * i as f64 / TICKS_PER_DAY as f64).sin()
                })
                .collect(),
        };
        RegionTrace {
            region: RegionId(0),
            name: "synthetic".into(),
            groups: vec![mk(100.0, 0), mk(200.0, 1), mk(300.0, 2)],
        }
    }

    #[test]
    fn envelope_orders_min_median_max() {
        let r = synthetic_region();
        let e = load_envelope(&r);
        assert_eq!(e.min.len(), r.ticks());
        for t in 0..e.min.len() {
            let (mn, md, mx) = (e.min.values()[t], e.median.values()[t], e.max.values()[t]);
            assert!(mn <= md && md <= mx, "t={t}: {mn} {md} {mx}");
        }
    }

    #[test]
    fn iqr_positive_when_groups_differ() {
        let r = synthetic_region();
        let iqr = iqr_series(&r);
        // At the sinusoid peak the three groups differ by amplitude.
        let q = iqr.values()[(TICKS_PER_DAY / 4) as usize];
        assert!(q > 0.0, "IQR {q}");
    }

    #[test]
    fn acf_detects_daily_period() {
        let r = synthetic_region();
        let acfs = acf_per_group(&r, TICKS_PER_DAY as usize + 50);
        for acf in &acfs {
            let p = dominant_period(acf, 100).unwrap();
            let err = (p as i64 - TICKS_PER_DAY as i64).abs();
            assert!(err <= 5, "period {p}");
        }
    }

    #[test]
    fn dominant_period_edge_cases() {
        assert_eq!(dominant_period(&[], 10), None);
        assert_eq!(dominant_period(&[1.0, 0.5], 10), None);
        // Monotone decreasing ACF: max after min_lag is at min_lag.
        let acf: Vec<f64> = (0..100).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_eq!(dominant_period(&acf, 10), Some(10));
    }

    #[test]
    fn diurnal_fraction_high_for_generated_region() {
        let mut cfg = RuneScapeConfig::paper_default(5, 21);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 12;
        cfg.outage_prob_per_day = 0.0;
        let t = generate(&cfg);
        let frac = diurnal_fraction(&t.regions[0], 0.4);
        // Almost all groups cycle; only always-full ones do not.
        assert!(frac > 0.8, "diurnal fraction {frac}");
    }

    #[test]
    fn weekend_effect_detects_boost() {
        // 14 days, 20% louder on weekends.
        let series: TimeSeries = (0..(14 * TICKS_PER_DAY) as usize)
            .map(|i| {
                let day = i as u64 / TICKS_PER_DAY;
                if day % 7 >= 5 {
                    120.0
                } else {
                    100.0
                }
            })
            .collect();
        let eff = weekend_effect(&series).unwrap();
        assert!((eff - 1.2).abs() < 1e-9, "effect {eff}");
    }

    #[test]
    fn weekend_effect_none_for_short_series() {
        let series: TimeSeries = (0..100).map(|_| 1.0).collect();
        assert_eq!(weekend_effect(&series), None);
    }
}
