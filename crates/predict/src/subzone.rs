//! Per-sub-zone prediction banks.
//!
//! Sec. IV-B: "The game world is partitioned into sub-zones… The
//! predictor uses as input the entity count for each sub-zone at
//! equidistant past time intervals (steps), and delivers as output the
//! entity counts at the next time step. The predicted entity count for
//! the entire game world is the sum of all the sub-zone predictions."
//!
//! [`SubZoneBank`] holds one independent predictor per sub-zone and
//! exposes both the per-zone forecast map (what the load model needs to
//! weigh interactions) and the world aggregate.

use crate::traits::Predictor;

/// One predictor per sub-zone.
pub struct SubZoneBank {
    predictors: Vec<Box<dyn Predictor + Send>>,
}

impl SubZoneBank {
    /// Creates a bank of `zones` predictors from a factory.
    #[must_use]
    pub fn new<F>(zones: usize, make: F) -> Self
    where
        F: Fn(usize) -> Box<dyn Predictor + Send>,
    {
        Self {
            predictors: (0..zones).map(make).collect(),
        }
    }

    /// Number of sub-zones.
    #[must_use]
    pub fn zones(&self) -> usize {
        self.predictors.len()
    }

    /// Feeds the entity-count map of the current step.
    ///
    /// # Panics
    /// Panics if `counts.len()` differs from the bank size.
    pub fn observe(&mut self, counts: &[f64]) {
        assert_eq!(
            counts.len(),
            self.predictors.len(),
            "count map size mismatch"
        );
        for (p, &c) in self.predictors.iter_mut().zip(counts) {
            p.observe(c);
        }
    }

    /// Convenience for integer count maps.
    pub fn observe_u32(&mut self, counts: &[u32]) {
        assert_eq!(
            counts.len(),
            self.predictors.len(),
            "count map size mismatch"
        );
        for (p, &c) in self.predictors.iter_mut().zip(counts) {
            p.observe(f64::from(c));
        }
    }

    /// The whole-world forecast: sum of the sub-zone predictions.
    #[must_use]
    pub fn predict_total(&self) -> f64 {
        self.predictors.iter().map(|p| p.predict().max(0.0)).sum()
    }

    /// Resets every predictor's history.
    pub fn reset(&mut self) {
        for p in &mut self.predictors {
            p.reset();
        }
    }
}

impl std::fmt::Debug for SubZoneBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubZoneBank")
            .field("zones", &self.predictors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::LastValue;

    fn last_value_bank(zones: usize) -> SubZoneBank {
        SubZoneBank::new(zones, |_| Box::new(LastValue::new()))
    }

    #[test]
    fn total_is_sum_of_zones() {
        let mut bank = last_value_bank(4);
        bank.observe(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(bank.predict_total(), 10.0);
    }

    #[test]
    fn observe_u32_matches_f64() {
        let mut a = last_value_bank(3);
        let mut b = last_value_bank(3);
        a.observe(&[5.0, 6.0, 7.0]);
        b.observe_u32(&[5, 6, 7]);
        assert_eq!(a.predict_total(), b.predict_total());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn size_mismatch_panics() {
        let mut bank = last_value_bank(3);
        bank.observe(&[1.0, 2.0]);
    }

    #[test]
    fn reset_clears_all_zones() {
        let mut bank = last_value_bank(2);
        bank.observe(&[9.0, 9.0]);
        bank.reset();
        assert_eq!(bank.predict_total(), 0.0);
    }

    #[test]
    fn negative_forecasts_clamped() {
        struct AlwaysNegative;
        impl Predictor for AlwaysNegative {
            fn name(&self) -> &str {
                "neg"
            }
            fn observe(&mut self, _: f64) {}
            fn predict(&self) -> f64 {
                -5.0
            }
            fn reset(&mut self) {}
        }
        let bank = SubZoneBank::new(2, |_| Box::new(AlwaysNegative) as _);
        assert_eq!(bank.predict_total(), 0.0);
    }

    #[test]
    fn zones_reported() {
        assert_eq!(last_value_bank(16).zones(), 16);
        assert_eq!(last_value_bank(0).zones(), 0);
        assert_eq!(last_value_bank(0).predict_total(), 0.0);
    }
}
