//! The three evaluation metrics of Section V.
//!
//! - **Resource over-allocation** (Eq. 1): Ω(t) = 100 · Σαₘ/Σλₘ. The
//!   paper's tables report the over-allocation *excess*, Ω − 100 (e.g.
//!   Table V's "25.90 %" for the Neural predictor means 25.9 % more CPU
//!   allocated than needed).
//! - **Resource under-allocation** (Eq. 2): Υ(t) = 100 · Σ min(αₘ−λₘ,0)/M,
//!   with M the number of machines in the session. "An over-allocation
//!   at one moment of time does not reduce impact of an under-allocation
//!   at another, and the two metrics are not correlated."
//! - **Significant under-allocation events**: 2-minute samples with
//!   |Υ| > 1 % — "if the game is slowed down for more than 2 minutes,
//!   players become frustrated and may quit the game".
//!
//! The engine evaluates the min of Eq. 2 **per server group** (the
//! natural machine-equivalent of this simulation: one fully loaded game
//! server per group) and passes the summed shortfall in; a surplus on
//! one group never hides a deficit on another, exactly as in the
//! per-machine formula. M is the server-group count (recorded as a
//! deviation in DESIGN.md §8).

use mmog_datacenter::resource::{ResourceType, ResourceVector};
use mmog_util::series::TimeSeries;
use mmog_util::stats::OnlineStats;
use mmog_util::time::SimTime;

/// Threshold beyond which an under-allocation sample counts as a
/// significant event (|Υ| > 1 %).
pub const EVENT_THRESHOLD_PCT: f64 = 1.0;

/// Per-resource metric accumulators plus the recorded CPU time series.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    /// Ω − 100 per resource type (indexed in `ResourceType::ALL` order).
    over: [OnlineStats; 4],
    /// Υ per resource type.
    under: [OnlineStats; 4],
    /// Number of significant under-allocation events.
    events: u64,
    /// Cumulative event count over time (Figures 7 and 10).
    cumulative_events: TimeSeries,
    /// CPU over-allocation excess over time (Figures 8, 9).
    over_cpu_series: TimeSeries,
    /// CPU under-allocation over time (Figure 9).
    under_cpu_series: TimeSeries,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsCollector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self {
            over: [OnlineStats::new(); 4],
            under: [OnlineStats::new(); 4],
            events: 0,
            cumulative_events: TimeSeries::new(),
            over_cpu_series: TimeSeries::new(),
            under_cpu_series: TimeSeries::new(),
        }
    }

    /// Records one 2-minute sample.
    ///
    /// `allocated` and `demand` are the aggregates (for Ω); `shortfall`
    /// is Σₘ min(αₘ − λₘ, 0) evaluated per machine-equivalent by the
    /// caller (each component ≤ 0); `machines` is M of Eq. 2.
    pub fn record(
        &mut self,
        _t: SimTime,
        allocated: &ResourceVector,
        demand: &ResourceVector,
        shortfall: &ResourceVector,
        machines: f64,
    ) {
        let machines = machines.max(1.0);
        let mut event = false;
        for (i, r) in ResourceType::ALL.into_iter().enumerate() {
            let (a, l) = (allocated.get(r), demand.get(r));
            if l > 1e-9 {
                // Ω − 100: percentage allocated beyond the necessary.
                self.over[i].record(100.0 * a / l - 100.0);
            }
            let upsilon = 100.0 * shortfall.get(r).min(0.0) / machines;
            self.under[i].record(upsilon);
            // Events are scored on the compute shortfall: in the paper's
            // Table V the predictors with zero network under-allocation
            // still accumulate events, so the counter tracks CPU Υ.
            if r == ResourceType::Cpu && upsilon.abs() > EVENT_THRESHOLD_PCT {
                event = true;
            }
            if r == ResourceType::Cpu {
                self.over_cpu_series
                    .push(if l > 1e-9 { 100.0 * a / l - 100.0 } else { 0.0 });
                self.under_cpu_series.push(upsilon);
            }
        }
        if event {
            self.events += 1;
        }
        self.cumulative_events.push(self.events as f64);
    }

    /// Average over-allocation excess (Ω − 100) for one resource type.
    #[must_use]
    pub fn avg_over(&self, r: ResourceType) -> f64 {
        self.over[Self::idx(r)].mean()
    }

    /// Average under-allocation Υ for one resource type (≤ 0).
    #[must_use]
    pub fn avg_under(&self, r: ResourceType) -> f64 {
        self.under[Self::idx(r)].mean()
    }

    /// Total significant under-allocation events.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Cumulative events over time (the Figure 7 / Figure 10 series).
    #[must_use]
    pub fn cumulative_events(&self) -> &TimeSeries {
        &self.cumulative_events
    }

    /// CPU over-allocation excess over time (Figures 8–9).
    #[must_use]
    pub fn over_cpu_series(&self) -> &TimeSeries {
        &self.over_cpu_series
    }

    /// CPU under-allocation over time (Figure 9).
    #[must_use]
    pub fn under_cpu_series(&self) -> &TimeSeries {
        &self.under_cpu_series
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.cumulative_events.len() as u64
    }

    fn idx(r: ResourceType) -> usize {
        ResourceType::ALL
            .iter()
            .position(|t| *t == r)
            .expect("ALL is complete")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(cpu: f64, out: f64) -> ResourceVector {
        ResourceVector::new(cpu, 0.0, 0.0, out)
    }

    /// Records a sample where the whole session behaves as one machine:
    /// shortfall = min(alloc − demand, 0).
    fn record_single(
        m: &mut MetricsCollector,
        t: u64,
        alloc: ResourceVector,
        demand: ResourceVector,
        machines: f64,
    ) {
        let shortfall = (alloc - demand).min(&ResourceVector::ZERO);
        m.record(SimTime(t), &alloc, &demand, &shortfall, machines);
    }

    #[test]
    fn exact_allocation_scores_zero_over_and_under() {
        let mut m = MetricsCollector::new();
        record_single(&mut m, 0, v(10.0, 5.0), v(10.0, 5.0), 10.0);
        assert!(m.avg_over(ResourceType::Cpu).abs() < 1e-9);
        assert!(m.avg_under(ResourceType::Cpu).abs() < 1e-9);
        assert_eq!(m.events(), 0);
    }

    #[test]
    fn over_allocation_is_excess_percentage() {
        let mut m = MetricsCollector::new();
        // 25% more than demanded.
        record_single(&mut m, 0, v(12.5, 0.0), v(10.0, 0.0), 10.0);
        assert!((m.avg_over(ResourceType::Cpu) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn under_allocation_normalised_by_machines() {
        let mut m = MetricsCollector::new();
        // Shortfall 0.5 over 10 machines → Υ = −5 %.
        record_single(&mut m, 0, v(9.5, 0.0), v(10.0, 0.0), 10.0);
        assert!((m.avg_under(ResourceType::Cpu) + 5.0).abs() < 1e-9);
        assert_eq!(m.events(), 1, "|Υ|=5% > 1% is an event");
    }

    #[test]
    fn small_shortfall_is_not_an_event() {
        let mut m = MetricsCollector::new();
        // Shortfall 0.05 over 10 machines → Υ = −0.5 %: no event.
        record_single(&mut m, 0, v(9.95, 0.0), v(10.0, 0.0), 10.0);
        assert_eq!(m.events(), 0);
    }

    #[test]
    fn per_machine_shortfall_not_hidden_by_aggregate_surplus() {
        // Machine A: alloc 5, demand 2 (surplus 3); machine B: alloc 1,
        // demand 3 (deficit 2). Eq. 2 reports the deficit even though
        // the aggregate allocation (6) exceeds the aggregate demand (5).
        let mut m = MetricsCollector::new();
        let alloc = v(6.0, 0.0);
        let demand = v(5.0, 0.0);
        let shortfall = v(-2.0, 0.0); // Σ min per machine
        m.record(SimTime(0), &alloc, &demand, &shortfall, 2.0);
        assert!((m.avg_under(ResourceType::Cpu) + 100.0).abs() < 1e-9);
        assert_eq!(m.events(), 1);
        // Ω still sees the aggregate surplus.
        assert!(m.avg_over(ResourceType::Cpu) > 0.0);
    }

    #[test]
    fn over_and_under_not_correlated() {
        // Over-allocation on CPU does not cancel under-allocation on
        // the network — and vice versa across time.
        let mut m = MetricsCollector::new();
        record_single(&mut m, 0, v(20.0, 1.0), v(10.0, 2.0), 10.0);
        assert!(m.avg_over(ResourceType::Cpu) > 0.0);
        assert!(m.avg_under(ResourceType::ExtNetOut) < 0.0);
        // A later over-allocation does not reduce the recorded under.
        let before = m.avg_under(ResourceType::ExtNetOut);
        record_single(&mut m, 1, v(20.0, 10.0), v(10.0, 2.0), 10.0);
        assert!(m.avg_under(ResourceType::ExtNetOut) >= before);
    }

    #[test]
    fn zero_demand_skips_over_metric() {
        let mut m = MetricsCollector::new();
        record_single(&mut m, 0, v(5.0, 0.0), v(0.0, 0.0), 1.0);
        // No over-allocation sample recorded for CPU (undefined ratio).
        assert_eq!(m.avg_over(ResourceType::Cpu), 0.0);
        // Under is fine: allocation exceeds demand.
        assert_eq!(m.avg_under(ResourceType::Cpu), 0.0);
    }

    #[test]
    fn cumulative_event_series_monotone() {
        let mut m = MetricsCollector::new();
        for i in 0..10 {
            let alloc = if i % 3 == 0 {
                v(5.0, 0.0)
            } else {
                v(10.0, 0.0)
            };
            record_single(&mut m, i, alloc, v(10.0, 0.0), 10.0);
        }
        let series = m.cumulative_events();
        assert_eq!(series.len(), 10);
        for w in series.values().windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(series.values()[9], m.events() as f64);
        assert_eq!(m.events(), 4); // i = 0, 3, 6, 9
        assert_eq!(m.samples(), 10);
    }

    #[test]
    fn series_lengths_match_samples() {
        let mut m = MetricsCollector::new();
        for i in 0..5 {
            record_single(&mut m, i, v(1.0, 1.0), v(1.0, 1.0), 1.0);
        }
        assert_eq!(m.over_cpu_series().len(), 5);
        assert_eq!(m.under_cpu_series().len(), 5);
    }

    #[test]
    fn machines_clamped_to_one() {
        let mut m = MetricsCollector::new();
        record_single(&mut m, 0, v(0.0, 0.0), v(0.5, 0.0), 0.0);
        // Division by max(machines, 1): Υ = -50%, not -inf.
        assert!((m.avg_under(ResourceType::Cpu) + 50.0).abs() < 1e-9);
    }
}
