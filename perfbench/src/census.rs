//! Training-input census: how many of the predictor models a workload
//! trains see an input some other model of the workload already saw.
//!
//! A group's training input is fully determined by its configuration:
//! the predictor kind, the group's random stream (`stream_seed` of the
//! run's master seed and the group's index) and the leading
//! `train_ticks` of its player series. The census reads those straight
//! from the configurations, before any simulation is built, so it
//! measures what a training memo could save without one existing.

use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{GameWorkload, SimulationConfig};
use std::collections::BTreeSet;

/// FNV-1a over the bit patterns of a series prefix.
fn hash_prefix(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[derive(Default)]
pub struct Census {
    /// Models the configurations train.
    pub models: u64,
    inputs: BTreeSet<(&'static str, u64, u64)>,
}

impl Census {
    /// Adds every training group of `cfg`, numbered as the engine
    /// numbers them (configuration order across games).
    pub fn add(&mut self, cfg: &SimulationConfig) {
        let mut index = 0u64;
        for game in &cfg.games {
            // Only the neural predictor has an offline training phase.
            if game.predictor == PredictorKind::Neural && cfg.train_ticks > 0 {
                let GameWorkload::Trace(trace) = &game.workload else {
                    panic!("the census reads training prefixes from materialized traces only");
                };
                for (i, group) in trace.regions.iter().flat_map(|r| &r.groups).enumerate() {
                    let values = group.series.values();
                    let prefix = hash_prefix(&values[..cfg.train_ticks.min(values.len())]);
                    let seed = mmog_util::rng::stream_seed(cfg.master_seed, index + i as u64);
                    self.models += 1;
                    self.inputs.insert((game.predictor.label(), seed, prefix));
                }
            }
            index += game.workload.group_count() as u64;
        }
    }

    /// Share of trained models whose input repeats an earlier one.
    pub fn repeat_share(&self) -> f64 {
        if self.models == 0 {
            0.0
        } else {
            1.0 - self.inputs.len() as f64 / self.models as f64
        }
    }
}
