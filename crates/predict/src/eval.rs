//! The prediction bake-off harness behind Figures 5 and 6.
//!
//! Sec. IV-D.2 defines the score: "we define the un-normalized sample
//! prediction error as the absolute value of the difference between the
//! sample and the prediction made by \[the\] algorithm for that sample…
//! the prediction error for an input trace data set \[is\] the ratio
//! between the sum of un-normalized sample prediction errors for all
//! samples and the sum of all samples in the trace data set, expressed
//! as a percentage."

use crate::ar::ArPredictor;
use crate::neural::{NeuralConfig, NeuralPredictor};
use crate::simple::{
    ExpSmoothing, Holt, LastValue, MovingAverage, RunningAverage, SeasonalNaive,
    SlidingWindowMedian,
};
use crate::traits::Predictor;
use std::time::Instant;

/// The paper's data-set prediction error, in percent. `skip` initial
/// samples are excluded from scoring (cold-start warm-up) but the
/// corresponding actual values still count toward alignment.
///
/// # Panics
/// Panics if the two slices differ in length.
#[must_use]
pub fn prediction_error(actual: &[f64], predicted: &[f64], skip: usize) -> f64 {
    assert_eq!(actual.len(), predicted.len(), "series must align");
    let skip = skip.min(actual.len());
    let err: f64 = actual[skip..]
        .iter()
        .zip(&predicted[skip..])
        .map(|(a, p)| (a - p).abs())
        .sum();
    let total: f64 = actual[skip..].iter().sum();
    if total <= 0.0 {
        return if err == 0.0 { 0.0 } else { 100.0 };
    }
    100.0 * err / total
}

/// Identifies one of the evaluated prediction algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The neural predictor of Sec. IV-C.
    Neural,
    /// Running mean of the whole history.
    Average,
    /// Mean over a sliding window (10 samples).
    MovingAverage,
    /// Persistence forecast.
    LastValue,
    /// Exponential smoothing α = 0.25.
    ExpSmoothing25,
    /// Exponential smoothing α = 0.5.
    ExpSmoothing50,
    /// Exponential smoothing α = 0.75.
    ExpSmoothing75,
    /// Median over a sliding window (10 samples).
    SlidingWindowMedian,
    /// AR(p) via Yule–Walker (extension).
    Ar,
    /// Holt double exponential smoothing (extension).
    Holt,
    /// Daily seasonal-naïve forecast (extension).
    Seasonal,
}

impl PredictorKind {
    /// The seven algorithms of Figure 5, in legend order.
    pub const FIGURE5: [Self; 7] = [
        Self::Neural,
        Self::Average,
        Self::MovingAverage,
        Self::LastValue,
        Self::ExpSmoothing25,
        Self::ExpSmoothing50,
        Self::ExpSmoothing75,
    ];

    /// The six predictors driving Table V (exp. smoothing collapsed to
    /// α = 0.5 as in the table, plus sliding-window median).
    pub const TABLE5: [Self; 6] = [
        Self::Neural,
        Self::Average,
        Self::LastValue,
        Self::MovingAverage,
        Self::SlidingWindowMedian,
        Self::ExpSmoothing50,
    ];

    /// Display name matching the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Neural => "Neural",
            Self::Average => "Average",
            Self::MovingAverage => "Moving average",
            Self::LastValue => "Last value",
            Self::ExpSmoothing25 => "Exp. Smoothing 25%",
            Self::ExpSmoothing50 => "Exp. Smoothing 50%",
            Self::ExpSmoothing75 => "Exp. Smoothing 75%",
            Self::SlidingWindowMedian => "Sliding window median",
            Self::Ar => "AR(p)",
            Self::Holt => "Holt",
            Self::Seasonal => "Seasonal naive",
        }
    }

    /// Builds the predictor; `training` supplies the collected data for
    /// algorithms with an offline phase (only the neural one uses it).
    #[must_use]
    pub fn build(self, training: &[f64]) -> Box<dyn Predictor + Send> {
        self.build_seeded(training, NeuralConfig::default().seed)
    }

    /// Like [`build`], with an explicit seed for the stochastic offline
    /// phase (weight initialisation and sample shuffling of the neural
    /// predictor; the closed-form algorithms ignore it). The simulation
    /// engine derives one seed per server group from its master seed so
    /// that groups train uncorrelated models deterministically,
    /// independent of construction order or thread count.
    ///
    /// [`build`]: Self::build
    #[must_use]
    pub fn build_seeded(self, training: &[f64], seed: u64) -> Box<dyn Predictor + Send> {
        match self {
            Self::Neural => {
                let cfg = NeuralConfig {
                    seed,
                    ..NeuralConfig::default()
                };
                let (p, _report) = NeuralPredictor::train(cfg, training);
                Box::new(p)
            }
            Self::Average => Box::new(RunningAverage::new()),
            Self::MovingAverage => Box::new(MovingAverage::new(10)),
            Self::LastValue => Box::new(LastValue::new()),
            Self::ExpSmoothing25 => Box::new(ExpSmoothing::new(0.25)),
            Self::ExpSmoothing50 => Box::new(ExpSmoothing::new(0.5)),
            Self::ExpSmoothing75 => Box::new(ExpSmoothing::new(0.75)),
            Self::SlidingWindowMedian => Box::new(SlidingWindowMedian::new(10)),
            Self::Ar => Box::new(ArPredictor::default_paper()),
            Self::Holt => Box::new(Holt::new(0.6, 0.3)),
            Self::Seasonal => Box::new(SeasonalNaive::daily()),
        }
    }
}

/// One row of the Figure 5 comparison.
#[derive(Debug, Clone)]
pub struct AccuracyResult {
    /// Algorithm label.
    pub name: String,
    /// Paper-metric prediction error in percent.
    pub error_pct: f64,
}

/// Evaluates the given algorithms on a series: the first
/// `train_fraction` becomes the offline collection phase (the neural
/// predictor trains on it; every algorithm also warms up on it), and
/// the error is scored on the remainder.
#[must_use]
pub fn evaluate_accuracy(
    series: &[f64],
    kinds: &[PredictorKind],
    train_fraction: f64,
) -> Vec<AccuracyResult> {
    let split = ((series.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
    let split = split.min(series.len().saturating_sub(1));
    let (train, eval) = series.split_at(split);
    kinds
        .iter()
        .map(|kind| {
            let mut p = kind.build(train);
            // Warm-up pass over the training span (live observation).
            for &x in train {
                p.observe(x);
            }
            let mut preds = Vec::with_capacity(eval.len());
            for &x in eval {
                preds.push(p.predict());
                p.observe(x);
            }
            AccuracyResult {
                name: kind.label().to_string(),
                error_pct: prediction_error(eval, &preds, 0),
            }
        })
        .collect()
}

/// Latency sample set for one algorithm (Figure 6): nanoseconds per
/// `predict()` call, measured in batches to defeat timer resolution.
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Algorithm label.
    pub name: String,
    /// Per-call latencies in nanoseconds (one per measured batch).
    pub samples_ns: Vec<f64>,
}

/// Measures per-prediction latency: feeds the series, then times
/// `batches` batches of `batch_size` `predict()` calls each.
#[must_use]
pub fn measure_latency(
    kind: PredictorKind,
    series: &[f64],
    batches: usize,
    batch_size: usize,
) -> LatencyResult {
    let _span = mmog_obs::span("predict/measure_latency");
    let split = series.len() / 2;
    let mut p = kind.build(&series[..split]);
    for &x in series {
        p.observe(x);
    }
    // Wall-clock samples are inherently run-dependent: Timing domain,
    // masked out by the determinism suite.
    let hist = mmog_obs::histogram(
        "predict.latency_us",
        mmog_obs::Domain::Timing,
        &[0.01, 0.1, 1.0, 10.0, 100.0],
    );
    let mut samples = Vec::with_capacity(batches);
    let mut sink = 0.0;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..batch_size {
            sink += p.predict();
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        let per_call = elapsed / batch_size as f64;
        hist.record(per_call / 1_000.0);
        samples.push(per_call);
    }
    // Keep the sink alive so the calls are not optimised away.
    assert!(sink.is_finite());
    LatencyResult {
        name: kind.label().to_string(),
        samples_ns: samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_util::rng::Rng64;

    fn noisy_sine(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::seed_from(seed);
        (0..n)
            .map(|i| {
                (500.0
                    + 300.0 * (i as f64 * 2.0 * std::f64::consts::PI / 200.0).sin()
                    + 10.0 * rng.normal())
                .max(0.0)
            })
            .collect()
    }

    #[test]
    fn error_metric_matches_paper_definition() {
        let actual = [10.0, 20.0, 30.0];
        let predicted = [12.0, 18.0, 33.0];
        // Σ|err| = 2+2+3 = 7; Σ actual = 60 → 11.666%.
        let e = prediction_error(&actual, &predicted, 0);
        assert!((e - 100.0 * 7.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_prediction_is_zero_error() {
        let xs = [5.0, 6.0, 7.0];
        assert_eq!(prediction_error(&xs, &xs, 0), 0.0);
    }

    #[test]
    fn skip_excludes_cold_start() {
        let actual = [100.0, 10.0, 10.0];
        let predicted = [0.0, 10.0, 10.0];
        assert!(prediction_error(&actual, &predicted, 0) > 0.0);
        assert_eq!(prediction_error(&actual, &predicted, 1), 0.0);
    }

    #[test]
    fn zero_total_edge_case() {
        assert_eq!(prediction_error(&[0.0, 0.0], &[0.0, 0.0], 0), 0.0);
        assert_eq!(prediction_error(&[0.0], &[5.0], 0), 100.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        let _ = prediction_error(&[1.0], &[1.0, 2.0], 0);
    }

    #[test]
    fn all_kinds_build_and_predict() {
        let train = noisy_sine(400, 1);
        for kind in [
            PredictorKind::Neural,
            PredictorKind::Average,
            PredictorKind::MovingAverage,
            PredictorKind::LastValue,
            PredictorKind::ExpSmoothing25,
            PredictorKind::ExpSmoothing50,
            PredictorKind::ExpSmoothing75,
            PredictorKind::SlidingWindowMedian,
            PredictorKind::Ar,
            PredictorKind::Holt,
            PredictorKind::Seasonal,
        ] {
            let mut p = kind.build(&train);
            for &x in &train[..50] {
                p.observe(x);
            }
            let pred = p.predict();
            assert!(pred.is_finite(), "{}: {pred}", kind.label());
        }
    }

    #[test]
    fn figure5_set_has_seven_members() {
        assert_eq!(PredictorKind::FIGURE5.len(), 7);
        assert_eq!(PredictorKind::TABLE5.len(), 6);
        assert_eq!(PredictorKind::FIGURE5[0].label(), "Neural");
    }

    #[test]
    fn average_is_the_outlier_on_periodic_signals() {
        // Table V's headline: the Average predictor is the poor
        // performer on diurnal signals.
        let series = noisy_sine(1200, 3);
        let results = evaluate_accuracy(
            &series,
            &[
                PredictorKind::Average,
                PredictorKind::LastValue,
                PredictorKind::Neural,
            ],
            0.5,
        );
        let err = |name: &str| {
            results
                .iter()
                .find(|r| r.name == name)
                .map(|r| r.error_pct)
                .unwrap()
        };
        assert!(err("Average") > 2.0 * err("Last value"), "avg should trail");
        assert!(err("Neural") < err("Average"));
    }

    #[test]
    fn neural_competitive_with_last_value_on_smooth_signal() {
        let series = noisy_sine(1600, 5);
        let results = evaluate_accuracy(
            &series,
            &[PredictorKind::Neural, PredictorKind::LastValue],
            0.5,
        );
        let neural = results[0].error_pct;
        let last = results[1].error_pct;
        assert!(neural < last * 1.3, "neural {neural}% vs last {last}%");
    }

    #[test]
    fn latency_measurement_produces_positive_samples() {
        let series = noisy_sine(300, 7);
        let res = measure_latency(PredictorKind::LastValue, &series, 5, 1000);
        assert_eq!(res.samples_ns.len(), 5);
        assert!(res.samples_ns.iter().all(|&ns| ns >= 0.0));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let series = noisy_sine(800, 9);
        let a = evaluate_accuracy(&series, &PredictorKind::FIGURE5, 0.5);
        let b = evaluate_accuracy(&series, &PredictorKind::FIGURE5, 0.5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.error_pct, y.error_pct, "{}", x.name);
        }
    }
}
