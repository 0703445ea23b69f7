//! The neural-network load predictor of Sec. IV-C.
//!
//! "We have developed a neural network-based predictor which uses
//! historical information collected by tracing the execution of MMOGs…
//! It is a three layered MLP with a (6,3,1) structure (input, hidden and
//! output neuron layers). The signal preprocessors are based on several
//! polynomial functions which have the purpose of removing the unwanted
//! noise from the processed signal.
//!
//! Two off-line phases are required before deploying: the **data set
//! collection phase** … and the **training phase** [which] uses most of
//! the previously collected samples as training sets, and the remaining
//! samples as test sets. The training phase runs for a number of
//! training eras, until a convergence criterion is fulfilled."

use crate::mlp::{self, Mlp};
use crate::preprocess::{poly_extrapolate, poly_smooth_into, Normalizer, PolyScratch};
use crate::traits::Predictor;
use mmog_util::rng::Rng64;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Hyper-parameters of the neural predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuralConfig {
    /// Input window length (6 in the paper).
    pub window: usize,
    /// Hidden layer width (3 in the paper).
    pub hidden: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// SGD momentum.
    pub momentum: f64,
    /// Maximum training eras.
    pub max_eras: usize,
    /// Convergence criterion: stop when the test loss improves by less
    /// than this relative amount for three consecutive eras.
    pub convergence_tol: f64,
    /// Fraction of the collected samples used for training (the rest
    /// become the test sets of step (3) of each era).
    pub train_fraction: f64,
    /// Degree of the polynomial noise-removal preprocessor.
    pub poly_degree: usize,
    /// Whether to keep adapting online after deployment.
    pub online_learning: bool,
    /// Weight-initialisation seed.
    pub seed: u64,
}

impl Default for NeuralConfig {
    fn default() -> Self {
        Self {
            window: 6,
            hidden: 3,
            // Per-sample SGD: heavy momentum (>0.5) oscillates on the
            // tiny (6,3,1) network, so stay conservative.
            learning_rate: 0.05,
            momentum: 0.3,
            max_eras: 200,
            convergence_tol: 1e-4,
            train_fraction: 0.8,
            poly_degree: 2,
            online_learning: true,
            seed: 0x5EED,
        }
    }
}

/// Outcome of the offline training phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingReport {
    /// Eras actually run before convergence (or the cap).
    pub eras: usize,
    /// Final RMSE on the held-out test set, in normalised units.
    pub test_rmse: f64,
    /// Number of training samples.
    pub train_samples: usize,
    /// Number of test samples.
    pub test_samples: usize,
}

/// Reusable per-predictor buffers: the MLP forward/backprop scratch
/// and the polynomial-preprocessor workspace. Held in a [`RefCell`] so
/// the read-only [`Predictor::predict`] path can run the network
/// without allocating.
#[derive(Debug, Clone, Default)]
struct Buffers {
    mlp: mlp::Scratch,
    poly: PolyScratch,
}

/// The deployable neural predictor.
#[derive(Debug, Clone)]
pub struct NeuralPredictor {
    cfg: NeuralConfig,
    net: Mlp,
    normalizer: Normalizer,
    window: VecDeque<f64>,
    /// Features of the previous step's window, kept so online learning
    /// can do one supervised step when the true value arrives. The
    /// buffer is recycled tick to tick; `has_features` says whether it
    /// currently holds a live feature vector.
    last_features: Vec<f64>,
    has_features: bool,
    scratch: RefCell<Buffers>,
}

impl NeuralPredictor {
    /// Creates an untrained predictor (weights are random; accuracy
    /// comes from online learning only). `scale_hint` should be near the
    /// expected maximum load.
    #[must_use]
    pub fn untrained(cfg: NeuralConfig, scale_hint: f64) -> Self {
        let mut rng = Rng64::seed_from(cfg.seed);
        let net = Mlp::new(&[cfg.window, cfg.hidden, 1], &mut rng);
        Self {
            cfg,
            net,
            normalizer: Normalizer::new(scale_hint.max(1.0)),
            window: VecDeque::with_capacity(cfg.window + 1),
            last_features: Vec::with_capacity(cfg.window),
            has_features: false,
            scratch: RefCell::new(Buffers::default()),
        }
    }

    /// Offline training phase on a collected series. Splits into
    /// training/test sets per `cfg.train_fraction`, runs training eras
    /// until the convergence criterion holds, and returns the deployable
    /// predictor plus a report.
    #[must_use]
    pub fn train(cfg: NeuralConfig, series: &[f64]) -> (Self, TrainingReport) {
        let _span = mmog_obs::span("predict/neural/train");
        let scale = series.iter().copied().fold(1.0_f64, f64::max) * 1.2;
        let mut predictor = Self::untrained(cfg, scale);
        if series.len() <= cfg.window {
            let report = TrainingReport {
                eras: 0,
                test_rmse: f64::NAN,
                train_samples: 0,
                test_samples: 0,
            };
            return (predictor, report);
        }
        // Build the (features, target) pairs as one contiguous feature
        // matrix (row `i` at `i·window`) plus a target column — the era
        // loop below then streams cache-line-friendly rows instead of
        // chasing a pointer per sample.
        let window = cfg.window;
        let n_samples = series.len() - window;
        let mut feats: Vec<f64> = Vec::with_capacity(n_samples * window);
        let mut targets: Vec<f64> = Vec::with_capacity(n_samples);
        {
            let mut bufs = predictor.scratch.borrow_mut();
            let mut row: Vec<f64> = Vec::with_capacity(window);
            for w in series.windows(window + 1) {
                compute_features(
                    &cfg,
                    &predictor.normalizer,
                    &w[..window],
                    &mut bufs.poly,
                    &mut row,
                );
                feats.extend_from_slice(&row);
                targets.push(predictor.normalizer.norm(w[window]));
            }
        }
        let split = ((n_samples as f64) * cfg.train_fraction).round() as usize;
        let split = split.clamp(1, n_samples.saturating_sub(1).max(1));
        let split = split.min(n_samples);
        let test_count = n_samples - split;
        // The test rows, gathered once into a contiguous batch: every
        // era's convergence check (and the final RMSE) then runs one
        // batched forward instead of `test_count` per-row calls. The
        // batch kernel is bit-pinned to the per-row path, and the error
        // sum below keeps its index order, so losses are unchanged.
        let mut test_feats = mlp::FeatureMatrix::with_capacity(window.max(1), test_count);
        for i in split..n_samples {
            test_feats.push_row(&feats[i * window..(i + 1) * window]);
        }
        let mut test_out = vec![0.0; test_count];

        let mut prev_loss = f64::INFINITY;
        let mut stable = 0;
        let mut eras = 0;
        // Present the training sets in a different (deterministic) order
        // each era: plain in-order SGD tracks the signal phase instead of
        // learning its shape.
        let mut order: Vec<usize> = (0..split).collect();
        let mut shuffle_rng = Rng64::seed_from(cfg.seed ^ 0x9E37_79B9);
        // One scratch serves every sample of every era — the training
        // loop performs no heap allocation.
        let bufs = predictor.scratch.get_mut();
        for era in 0..cfg.max_eras {
            eras = era + 1;
            // (1) present all training sets; (2) adjust weights.
            shuffle_rng.shuffle(&mut order);
            for &i in &order {
                predictor.net.train_step_scratch(
                    &mut bufs.mlp,
                    &feats[i * window..(i + 1) * window],
                    &[targets[i]],
                    cfg.learning_rate,
                    cfg.momentum,
                );
            }
            // (3) test the prediction capability.
            let test_loss = if test_count == 0 {
                0.0
            } else {
                predictor
                    .net
                    .forward_batch(&mut bufs.mlp, &test_feats, &mut test_out);
                let mut sum = 0.0;
                for (o, t) in test_out.iter().zip(&targets[split..]) {
                    sum += (o - t) * (o - t);
                }
                sum / test_count as f64
            };
            let improvement = (prev_loss - test_loss) / prev_loss.max(1e-12);
            if improvement.abs() < cfg.convergence_tol {
                stable += 1;
                if stable >= 3 {
                    break;
                }
            } else {
                stable = 0;
            }
            prev_loss = test_loss;
        }
        let test_rmse = if test_count == 0 {
            0.0
        } else {
            predictor
                .net
                .forward_batch(&mut bufs.mlp, &test_feats, &mut test_out);
            let mut sum = 0.0;
            for (o, t) in test_out.iter().zip(&targets[split..]) {
                sum += (o - t) * (o - t);
            }
            (sum / test_count as f64).sqrt()
        };
        // Era totals are data/seed-determined and the add is commutative,
        // so this stays deterministic under parallel per-group training.
        mmog_obs::counter("predict.train.eras", mmog_obs::Domain::Semantic).add(eras as u64);
        mmog_obs::counter("predict.train.models", mmog_obs::Domain::Semantic).incr();
        let report = TrainingReport {
            eras,
            test_rmse,
            train_samples: split,
            test_samples: test_count,
        };
        (predictor, report)
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &NeuralConfig {
        &self.cfg
    }
}

/// Free-function feature builder (smoothing + normalisation + centring
/// into `[-1, 1]`) writing into a reusable buffer; a free function so
/// callers can split-borrow predictor fields.
fn compute_features(
    cfg: &NeuralConfig,
    normalizer: &Normalizer,
    window: &[f64],
    poly: &mut PolyScratch,
    out: &mut Vec<f64>,
) {
    poly_smooth_into(window, cfg.poly_degree, poly, out);
    for x in out.iter_mut() {
        *x = 2.0 * normalizer.norm(*x) - 1.0;
    }
}

impl Predictor for NeuralPredictor {
    fn name(&self) -> &str {
        "Neural"
    }

    fn observe(&mut self, value: f64) {
        // Online learning: the arriving value is the ground truth for
        // the forecast computed from `last_features`.
        if self.cfg.online_learning {
            if self.has_features {
                self.has_features = false;
                let target = self.normalizer.norm_mut(value);
                let bufs = self.scratch.get_mut();
                self.net.train_step_scratch(
                    &mut bufs.mlp,
                    &self.last_features,
                    &[target],
                    self.cfg.learning_rate,
                    self.cfg.momentum,
                );
            }
        } else {
            // Still adapt the scale so predictions stay in range.
            let _ = self.normalizer.norm_mut(value);
        }
        self.window.push_back(value);
        if self.window.len() > self.cfg.window {
            self.window.pop_front();
        }
        if self.window.len() == self.cfg.window {
            // The deque is read in place (`make_contiguous` preserves
            // order) and the feature vector recycles its buffer — the
            // per-tick observe path performs no steady-state allocation.
            let bufs = self.scratch.get_mut();
            let w: &[f64] = self.window.make_contiguous();
            compute_features(
                &self.cfg,
                &self.normalizer,
                w,
                &mut bufs.poly,
                &mut self.last_features,
            );
            self.has_features = true;
        }
    }

    fn predict(&self) -> f64 {
        if self.window.len() < self.cfg.window {
            // Cold start: fall back to polynomial extrapolation of what
            // little history exists (or zero with none at all).
            let w: Vec<f64> = self.window.iter().copied().collect();
            return match poly_extrapolate(&w, 1) {
                Some(v) if v.is_finite() => v.max(0.0),
                _ => self.window.back().copied().unwrap_or(0.0),
            };
        }
        assert!(self.has_features, "window full implies features");
        let mut bufs = self.scratch.borrow_mut();
        let out = self.net.forward_scratch(&self.last_features, &mut bufs.mlp)[0];
        self.normalizer.denorm(out).max(0.0)
    }

    fn reset(&mut self) {
        self.window.clear();
        self.has_features = false;
    }

    fn observe_predict(&mut self, value: f64) -> f64 {
        self.observe(value);
        if self.window.len() < self.cfg.window {
            return self.predict(); // cold start: rare, keep it simple
        }
        assert!(self.has_features, "window full implies features");
        // Same arithmetic as `predict`, but through the exclusive
        // borrow `observe` already holds a right to — no RefCell
        // bookkeeping on the per-tick hot path.
        let bufs = self.scratch.get_mut();
        let out = self.net.forward_scratch(&self.last_features, &mut bufs.mlp)[0];
        self.normalizer.denorm(out).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simple::LastValue;
    use crate::traits::predictions_for;

    /// A noisy diurnal-like signal for training tests.
    fn diurnal_series(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::seed_from(seed);
        (0..n)
            .map(|i| {
                let base = 500.0 + 400.0 * (i as f64 * 2.0 * std::f64::consts::PI / 720.0).sin();
                (base + 15.0 * rng.normal()).max(0.0)
            })
            .collect()
    }

    #[test]
    fn training_converges_and_reports() {
        let series = diurnal_series(1500, 1);
        let (_p, report) = NeuralPredictor::train(NeuralConfig::default(), &series);
        assert!(report.eras > 0);
        assert!(report.eras <= NeuralConfig::default().max_eras);
        assert!(report.test_rmse < 0.1, "test rmse {}", report.test_rmse);
        assert!(report.train_samples > report.test_samples);
    }

    #[test]
    fn trained_predictor_beats_cold_one() {
        let series = diurnal_series(2000, 2);
        let (train, eval) = series.split_at(1500);
        let (mut trained, _) = NeuralPredictor::train(NeuralConfig::default(), train);
        let mut cold = NeuralPredictor::untrained(NeuralConfig::default(), 1000.0);
        let err = |p: &mut NeuralPredictor| -> f64 {
            p.reset();
            let preds = predictions_for(p, eval);
            preds
                .iter()
                .zip(eval)
                .skip(10)
                .map(|(pred, actual)| (pred - actual).abs())
                .sum::<f64>()
        };
        let e_trained = err(&mut trained);
        let e_cold = err(&mut cold);
        assert!(
            e_trained < e_cold,
            "trained {e_trained} should beat cold {e_cold}"
        );
    }

    #[test]
    fn observe_predict_is_bitwise_split_equivalent() {
        // The fused hot-path entry point must be indistinguishable from
        // observe-then-predict, across cold start, window fill, and
        // online learning — byte-determinism of reports depends on it.
        let series = diurnal_series(400, 7);
        let (train, eval) = series.split_at(300);
        let (trained, _) = NeuralPredictor::train(NeuralConfig::default(), train);
        let mut fused = trained.clone();
        let mut split = trained;
        for &x in eval {
            let f = fused.observe_predict(x);
            split.observe(x);
            let s = split.predict();
            assert_eq!(f.to_bits(), s.to_bits(), "fused {f} vs split {s}");
        }
    }

    #[test]
    fn beats_last_value_on_smooth_signal() {
        // On a smooth periodic signal the network should out-predict the
        // persistence forecast — the Figure 5 headline claim.
        let series = diurnal_series(2500, 3);
        let (train, eval) = series.split_at(2000);
        let (mut neural, _) = NeuralPredictor::train(NeuralConfig::default(), train);
        let mut last = LastValue::new();
        // Warm both on the tail of training data.
        for &x in &train[train.len() - 50..] {
            neural.observe(x);
            last.observe(x);
        }
        let abs_err = |preds: &[f64]| -> f64 {
            preds
                .iter()
                .zip(eval)
                .map(|(p, a)| (p - a).abs())
                .sum::<f64>()
        };
        let e_n = abs_err(&predictions_for(&mut neural, eval));
        let e_l = abs_err(&predictions_for(&mut last, eval));
        assert!(e_n < e_l * 1.05, "neural {e_n} vs last-value {e_l}");
    }

    #[test]
    fn cold_start_uses_extrapolation() {
        let mut p = NeuralPredictor::untrained(NeuralConfig::default(), 100.0);
        assert_eq!(p.predict(), 0.0);
        p.observe(10.0);
        p.observe(20.0);
        // Linear extrapolation of [10, 20] → 30.
        assert!((p.predict() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn predictions_never_negative() {
        let mut p = NeuralPredictor::untrained(NeuralConfig::default(), 10.0);
        for x in [5.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0] {
            p.observe(x);
        }
        assert!(p.predict() >= 0.0);
    }

    #[test]
    fn reset_clears_history_keeps_weights() {
        let series = diurnal_series(1200, 5);
        let (mut p, _) = NeuralPredictor::train(NeuralConfig::default(), &series);
        for &x in &series[..20] {
            p.observe(x);
        }
        p.reset();
        assert_eq!(p.predict(), 0.0); // no history
                                      // Weights survived: after re-warming predictions are close again.
        for &x in &series[..20] {
            p.observe(x);
        }
        let pred = p.predict();
        assert!(
            (pred - series[20]).abs() < 200.0,
            "pred {pred} vs {}",
            series[20]
        );
    }

    #[test]
    fn short_series_training_is_graceful() {
        let (p, report) = NeuralPredictor::train(NeuralConfig::default(), &[1.0, 2.0, 3.0]);
        assert_eq!(report.train_samples, 0);
        assert!(report.test_rmse.is_nan());
        assert_eq!(p.config().window, 6);
    }

    #[test]
    fn deterministic_training() {
        let series = diurnal_series(1000, 7);
        let (a, ra) = NeuralPredictor::train(NeuralConfig::default(), &series);
        let (b, rb) = NeuralPredictor::train(NeuralConfig::default(), &series);
        assert_eq!(ra.eras, rb.eras);
        assert_eq!(ra.test_rmse, rb.test_rmse);
        let mut a = a;
        let mut b = b;
        for &x in &series[..10] {
            a.observe(x);
            b.observe(x);
        }
        assert_eq!(a.predict(), b.predict());
    }

    #[test]
    fn online_learning_adapts_to_regime_change() {
        let cfg = NeuralConfig {
            online_learning: true,
            ..NeuralConfig::default()
        };
        let mut p = NeuralPredictor::untrained(cfg, 100.0);
        // Feed a constant regime long enough for online SGD to latch on.
        for _ in 0..300 {
            p.observe(50.0);
        }
        let pred = p.predict();
        assert!((pred - 50.0).abs() < 10.0, "pred {pred} after constant 50s");
    }
}
