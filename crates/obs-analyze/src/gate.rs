//! The baseline regression gate.
//!
//! Both comparisons read one `OBS_summary.json`, against two kinds of
//! committed baseline:
//!
//! - `results/BASELINE_obs.json` holds the **semantic** metrics section
//!   of a quick-suite summary. Semantic instruments use only
//!   commutative integer operations and the workload caches build once
//!   per key, so a fresh-process quick-suite run reproduces the section
//!   byte-for-byte on any machine at any `--jobs` — the gate compares
//!   **exactly** and any drift fails the build.
//! - A timing baseline (`results/BASELINE_bench.json` for the quick
//!   suite, `results/BASELINE_scale.json` for the `scale_bench` ladder)
//!   holds the summary's stage totals (`timing.spans[].total_ns`), p99
//!   tails (`timing.latency[*].p99_ns`), wall clock and the
//!   `obs.jobs`/`obs.logical_cpus` gauges. Wall-clock is
//!   machine-dependent, so the gate is **threshold-tolerant** (default:
//!   fail past a 25% slowdown on stages above a noise floor) and
//!   environment-honest: when the current run's parallelism or core
//!   count differs from the baseline's, timing verdicts downgrade to
//!   warnings — cross-machine noise must never fail a build, but
//!   semantic drift always does.

use crate::diff::first_text_divergence;
use mmog_obs::json::Node;
use mmog_obs::{Document, Metrics, Summary};
use std::collections::BTreeMap;

/// Schema identifier of both baseline documents.
pub const GATE_SCHEMA: &str = "mmog-obs-gate/v1";

/// Default slowdown threshold, percent.
pub const DEFAULT_MAX_SLOWDOWN_PCT: f64 = 25.0;

/// Default noise floor: stages faster than this in the baseline are
/// never judged.
pub const DEFAULT_MIN_STAGE_MS: f64 = 50.0;

/// Default p99 tail-latency slowdown threshold, percent. Wider than the
/// total-time threshold: the latency histogram quantizes to sub-octave
/// buckets (≤ 1.5× between adjacent bounds), so a genuine regression
/// must clear two bucket steps before it is distinguishable from
/// bucket-boundary jitter.
pub const DEFAULT_MAX_P99_SLOWDOWN_PCT: f64 = 100.0;

/// Default p99 noise floor, microseconds: baseline tails faster than
/// this are scheduler noise, never judged.
pub const DEFAULT_MIN_P99_US: f64 = 20.0;

/// Tunable thresholds for [`check_timing`]. `..Default::default()` keeps
/// call sites stable as gates grow new knobs.
#[derive(Debug, Clone, Copy)]
pub struct TimingThresholds {
    /// Stage/wall slowdown that fails the gate, percent.
    pub max_slowdown_pct: f64,
    /// Stages (and a wall clock) faster than this in the baseline are
    /// never judged, ms.
    pub min_stage_ms: f64,
    /// p99 tail slowdown that fails the gate, percent.
    pub max_p99_slowdown_pct: f64,
    /// Baseline p99 tails faster than this are never judged, µs.
    pub min_p99_us: f64,
    /// When set, stages and latency paths the baseline has never seen
    /// — work the gate is silently not judging — fail instead of
    /// warning. Either way the verdict lists every missing path by
    /// name. Off by default: exploratory runs add paths legitimately;
    /// CI turns it on so a renamed kernel can't dodge the p99 gate.
    pub strict_paths: bool,
}

impl Default for TimingThresholds {
    fn default() -> Self {
        Self {
            max_slowdown_pct: DEFAULT_MAX_SLOWDOWN_PCT,
            min_stage_ms: DEFAULT_MIN_STAGE_MS,
            max_p99_slowdown_pct: DEFAULT_MAX_P99_SLOWDOWN_PCT,
            min_p99_us: DEFAULT_MIN_P99_US,
            strict_paths: false,
        }
    }
}

/// The gate's verdict: hard failures, advisory warnings, and notes.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Violations that must fail the build.
    pub failures: Vec<String>,
    /// Suspicious but non-fatal observations.
    pub warnings: Vec<String>,
    /// Informational lines (improvements, skipped comparisons).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passes (no failures; warnings allowed).
    #[must_use]
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the verdict as the report `obs_gate` prints.
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{title}: {}\n", if self.pass() { "PASS" } else { "FAIL" });
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        for w in &self.warnings {
            let _ = writeln!(out, "  warn: {w}");
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// Merges another outcome into this one.
    pub fn merge(&mut self, other: GateOutcome) {
        self.failures.extend(other.failures);
        self.warnings.extend(other.warnings);
        self.notes.extend(other.notes);
    }
}

/// The `source` every baseline names.
const SOURCE: &str = "OBS_summary.json";

/// Reads a baseline document, which must carry [`GATE_SCHEMA`].
fn read_baseline<T: Node>(text: &str, what: &str) -> Result<T, String> {
    let doc = mmog_obs::json::parse(text).map_err(|e| format!("{what}: {e}"))?;
    T::from_value(&doc).map_err(|e| format!("{what}: {e}"))
}

mmog_obs::object_node! {
    /// `BASELINE_obs.json`: the semantic section of a suite's summary.
    struct ObsBaseline {
        source: String,
        suite: String,
        semantic: Metrics,
    }
    schema = GATE_SCHEMA,
}

/// Builds the `BASELINE_obs.json` document from an `OBS_summary.json`.
///
/// # Errors
/// Returns a message when the summary doesn't parse as `mmog-obs/v1`.
pub fn make_obs_baseline(summary_text: &str, suite: &str) -> Result<String, String> {
    let baseline = ObsBaseline {
        source: SOURCE.to_string(),
        suite: suite.to_string(),
        semantic: Summary::parse(summary_text)?.semantic,
    };
    Ok(baseline.to_value().render_pretty())
}

/// Compares a summary's semantic section exactly against the committed
/// baseline. Mismatches are localized via line diff over the
/// pretty-printed sections.
///
/// # Errors
/// Returns a message when either document is malformed (a broken
/// baseline is an error, not a failure — it means the gate itself is
/// mis-set-up).
pub fn check_obs(baseline_text: &str, summary_text: &str) -> Result<GateOutcome, String> {
    let baseline: ObsBaseline = read_baseline(baseline_text, "BASELINE_obs.json")?;
    let expected = baseline.semantic.to_value().render_pretty();
    let actual = Summary::parse(summary_text)?
        .semantic
        .to_value()
        .render_pretty();
    let mut outcome = GateOutcome::default();
    if expected == actual {
        outcome.notes.push(format!(
            "semantic section matches the {} baseline exactly",
            baseline.suite
        ));
    } else {
        let delta = first_text_divergence(&expected, &actual)
            .map_or_else(|| "sections differ".to_string(), |d| d.message());
        outcome.failures.push(format!(
            "semantic metrics drifted from the committed baseline — {delta}"
        ));
    }
    Ok(outcome)
}

mmog_obs::object_node! {
    /// One span path's total over every call.
    struct Stage {
        path: String,
        total_ms: f64,
    }
}

mmog_obs::object_node! {
    /// The timing essentials the gate compares, read from an
    /// `OBS_summary.json` or from a timing baseline, the document this
    /// struct renders as.
    struct Timing {
        source: String,
        jobs: u64,
        logical_cpus: u64,
        wall_ms: Option<f64>,
        stages: Vec<Stage>,
        /// Latency path → p99 nanoseconds.
        p99_ns: BTreeMap<String, u64>,
    }
    schema = GATE_SCHEMA,
}

/// Reads the timing essentials of a summary: the span totals, the p99
/// of every non-empty latency histogram, and the
/// `obs.wall_ms`/`obs.jobs`/`obs.logical_cpus` gauges the runners
/// record through `mmog_obs::note_run`.
fn summary_timing(summary_text: &str) -> Result<Timing, String> {
    let summary = Summary::parse(summary_text)?;
    let gauge = |name: &str| summary.timing.gauges.get(name).copied();
    let env = |name: &str| {
        gauge(name)
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| {
                format!("OBS summary: missing timing gauge {name} (recorded by mmog_obs::note_run)")
            })
    };
    let stages = summary
        .spans
        .iter()
        .map(|(path, s)| Stage {
            path: path.clone(),
            total_ms: (s.total_ns as f64 / 1e3).round() / 1e3,
        })
        .collect();
    let p99_ns = summary
        .latency
        .iter()
        .filter_map(|(path, s)| Some((path.clone(), s.p99()?)))
        .collect();
    Ok(Timing {
        source: SOURCE.to_string(),
        jobs: env("obs.jobs")?,
        logical_cpus: env("obs.logical_cpus")?,
        wall_ms: gauge("obs.wall_ms").map(|ms| ms as f64),
        stages,
        p99_ns,
    })
}

/// Builds a timing baseline (`BASELINE_bench.json`,
/// `BASELINE_scale.json`) from an `OBS_summary.json`: per-stage span
/// totals, per-path p99 tails, the wall clock, and `jobs` and
/// `logical_cpus` kept honest so comparisons on a differently-shaped
/// machine degrade to warnings.
///
/// # Errors
/// Returns a message when the summary is malformed or lacks the
/// environment gauges.
pub fn make_timing_baseline(summary_text: &str) -> Result<String, String> {
    Ok(summary_timing(summary_text)?.to_value().render_pretty())
}

/// Compares a summary's timing section against a timing baseline:
/// stages above [`TimingThresholds::min_stage_ms`] in the baseline that
/// slowed down more than [`TimingThresholds::max_slowdown_pct`] fail
/// the gate, and so do p99 tails above
/// [`TimingThresholds::min_p99_us`] that slowed past
/// [`TimingThresholds::max_p99_slowdown_pct`] — unless the environment
/// (`jobs`, `logical_cpus`) differs from the baseline's, in which case
/// every timing verdict is a warning. Stages and latency paths absent
/// from the baseline are listed by name: warnings by default, hard
/// failures under [`TimingThresholds::strict_paths`].
///
/// # Errors
/// Returns a message when either document is malformed.
pub fn check_timing(
    baseline_text: &str,
    summary_text: &str,
    thresholds: &TimingThresholds,
) -> Result<GateOutcome, String> {
    let base: Timing = read_baseline(baseline_text, "timing baseline")?;
    let cur = summary_timing(summary_text)?;
    let mut outcome = GateOutcome::default();
    let comparable = base.jobs == cur.jobs && base.logical_cpus == cur.logical_cpus;
    if !comparable {
        outcome.notes.push(format!(
            "environment differs from baseline (jobs {}→{}, logical_cpus {}→{}); timing \
             verdicts downgraded to warnings",
            base.jobs, cur.jobs, base.logical_cpus, cur.logical_cpus
        ));
    }
    let verdict = |outcome: &mut GateOutcome, message: String| {
        if comparable {
            outcome.failures.push(message);
        } else {
            outcome.warnings.push(message);
        }
    };
    let max_slowdown_pct = thresholds.max_slowdown_pct;
    for Stage {
        path,
        total_ms: base_ms,
    } in &base.stages
    {
        let Some(Stage {
            total_ms: cur_ms, ..
        }) = cur.stages.iter().find(|s| s.path == *path)
        else {
            outcome
                .warnings
                .push(format!("stage `{path}` missing from the current run"));
            continue;
        };
        if *base_ms < thresholds.min_stage_ms {
            continue;
        }
        let slowdown_pct = (cur_ms / base_ms - 1.0) * 100.0;
        if slowdown_pct > max_slowdown_pct {
            verdict(
                &mut outcome,
                format!(
                    "stage `{path}` slowed down {slowdown_pct:.1}% ({base_ms:.1} ms → {cur_ms:.1} \
                     ms, threshold {max_slowdown_pct:.0}%)"
                ),
            );
        } else if slowdown_pct < -max_slowdown_pct {
            outcome.notes.push(format!(
                "stage `{path}` sped up {:.1}% ({base_ms:.1} ms → {cur_ms:.1} ms) — consider \
                 refreshing the baseline",
                -slowdown_pct
            ));
        }
    }
    // The p99 gate is independent of the stage floor: a short stage can
    // still carry a meaningful tail (many fast ticks, a few
    // pathological ones).
    for (path, base_ns) in &base.p99_ns {
        let base_p99 = *base_ns as f64 / 1e3;
        if base_p99 < thresholds.min_p99_us {
            continue;
        }
        let Some(cur_ns) = cur.p99_ns.get(path) else {
            outcome.warnings.push(format!(
                "latency path `{path}` missing from the current run"
            ));
            continue;
        };
        let cur_p99 = *cur_ns as f64 / 1e3;
        let slowdown_pct = (cur_p99 / base_p99 - 1.0) * 100.0;
        if slowdown_pct > thresholds.max_p99_slowdown_pct {
            verdict(
                &mut outcome,
                format!(
                    "p99 of `{path}` regressed {slowdown_pct:.0}% ({base_p99:.1} µs → \
                     {cur_p99:.1} µs, threshold {:.0}%)",
                    thresholds.max_p99_slowdown_pct
                ),
            );
        }
    }
    // The reverse direction: work the current run does that the
    // baseline has never seen is work the gate silently isn't judging.
    // A renamed or newly-added kernel path would otherwise dodge the
    // gate forever, so surface every one by name and point at
    // --update. Under `strict_paths` (the CI posture) an ungated path
    // is a hard failure, not a warning.
    let mut ungated = |message: String| {
        if thresholds.strict_paths {
            outcome.failures.push(message);
        } else {
            outcome.warnings.push(message);
        }
    };
    for Stage { path, .. } in &cur.stages {
        if !base.stages.iter().any(|s| s.path == *path) {
            ungated(format!(
                "stage `{path}` is not in the baseline — ungated; refresh the baseline with \
                 --update"
            ));
        }
    }
    for path in cur.p99_ns.keys() {
        if !base.p99_ns.contains_key(path) {
            ungated(format!(
                "latency path `{path}` is not in the baseline — its p99 is ungated; refresh \
                 the baseline with --update"
            ));
        }
    }
    // The wall clock is judged like a stage, floor included: a sweep of
    // a few tens of milliseconds is all scheduler noise.
    let base_wall = base.wall_ms.filter(|ms| *ms >= thresholds.min_stage_ms);
    if let (Some(base_wall), Some(cur_wall)) = (base_wall, cur.wall_ms) {
        let slowdown_pct = (cur_wall / base_wall - 1.0) * 100.0;
        if slowdown_pct > max_slowdown_pct {
            verdict(
                &mut outcome,
                format!(
                    "wall clock slowed down {slowdown_pct:.1}% ({base_wall:.0} ms → {cur_wall:.0} \
                     ms)"
                ),
            );
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_obs::{LatencyHisto, SpanSnapshot};

    /// A summary with one semantic counter, `sim.ticks`.
    fn semantic_summary(ticks: u64) -> String {
        let mut summary = Summary::default();
        summary
            .semantic
            .counters
            .insert("sim.ticks".to_string(), ticks);
        summary.to_json()
    }

    #[test]
    fn obs_gate_round_trip_and_perturbation() {
        let baseline = make_obs_baseline(&semantic_summary(40), "quick").unwrap();
        let clean = check_obs(&baseline, &semantic_summary(40)).unwrap();
        assert!(clean.pass(), "{:?}", clean.failures);

        let bad = check_obs(&baseline, &semantic_summary(41)).unwrap();
        assert!(!bad.pass());
        let msg = &bad.failures[0];
        assert!(msg.contains("sim.ticks"), "{msg}");
        assert!(msg.contains("drifted"), "{msg}");
    }

    /// The timing half of a summary the gate tests perturb.
    struct Run {
        /// `(gauge, value)` pairs in the timing section.
        gauges: Vec<(&'static str, i64)>,
        /// `sim/run` total, ms; the sub-floor `tiny` stage stays at 1 ms.
        run_ms: u64,
        tiny_ms: u64,
        /// The single `sim/run/tick` sample, which is its p99; the
        /// sub-floor `sim/run/reduce` path holds one 500 ns sample.
        tick_p99_ns: u64,
        reduce_p99_ns: u64,
        /// The second stage's and latency path's names.
        tiny_path: &'static str,
        reduce_path: &'static str,
    }

    impl Run {
        fn to_json(&self) -> String {
            let latency = |ns: u64| {
                let h = LatencyHisto::new();
                h.record(ns);
                h.snapshot()
            };
            let span = |ms: u64| SpanSnapshot {
                calls: 1,
                total_ns: ms * 1_000_000,
                max_ns: 1,
            };
            let mut summary = Summary::default();
            for &(name, v) in &self.gauges {
                summary.timing.gauges.insert(name.to_string(), v);
            }
            summary.spans = vec![
                ("sim/run".to_string(), span(self.run_ms)),
                (self.tiny_path.to_string(), span(self.tiny_ms)),
            ];
            summary.latency = BTreeMap::from([
                ("sim/run/tick".to_string(), latency(self.tick_p99_ns)),
                (self.reduce_path.to_string(), latency(self.reduce_p99_ns)),
            ]);
            summary.to_json()
        }
    }

    /// A summary whose timing section carries two stages (`sim/run`
    /// and the sub-floor `tiny`), two latency paths (`sim/run/tick` and
    /// the sub-floor `sim/run/reduce`) and the environment gauges.
    fn run(jobs: i64, cpus: i64, run_ms: u64, tick_p99_ns: u64) -> Run {
        Run {
            gauges: vec![
                ("obs.jobs", jobs),
                ("obs.logical_cpus", cpus),
                ("obs.wall_ms", 10_000),
            ],
            run_ms,
            tiny_ms: 1,
            tick_p99_ns,
            reduce_p99_ns: 500,
            tiny_path: "tiny",
            reduce_path: "sim/run/reduce",
        }
    }

    fn summary(jobs: i64, cpus: i64, run_ms: u64, tick_p99_ns: u64) -> String {
        run(jobs, cpus, run_ms, tick_p99_ns).to_json()
    }

    fn with_wall_ms(wall_ms: i64) -> String {
        let mut r = run(1, 1, 1000, 80_000);
        r.gauges[2].1 = wall_ms;
        r.to_json()
    }

    #[test]
    fn timing_gate_thresholds_and_environment_honesty() {
        let t = TimingThresholds::default();
        let baseline = make_timing_baseline(&summary(1, 1, 1000, 80_000)).unwrap();
        // Within threshold: pass.
        let ok = check_timing(&baseline, &summary(1, 1, 1200, 80_000), &t).unwrap();
        assert!(ok.pass(), "{:?}", ok.failures);
        // Past threshold on the same environment: fail.
        let slow = check_timing(&baseline, &summary(1, 1, 1500, 80_000), &t).unwrap();
        assert!(!slow.pass());
        assert!(slow.failures[0].contains("sim/run"), "{:?}", slow.failures);
        // Same slowdown on different hardware: warning, not failure.
        let other = check_timing(&baseline, &summary(4, 4, 1500, 80_000), &t).unwrap();
        assert!(other.pass());
        assert_eq!(other.warnings.len(), 1);
        // Stages under the noise floor are never judged: `tiny` grows
        // 100x without tripping anything.
        let noisy = Run {
            tiny_ms: 100,
            ..run(1, 1, 1000, 80_000)
        };
        let out = check_timing(&baseline, &noisy.to_json(), &t).unwrap();
        assert!(out.pass(), "{:?}", out.failures);
        // The wall clock is judged like a stage.
        let out = check_timing(&baseline, &with_wall_ms(20_000), &t).unwrap();
        assert!(
            !out.pass() && out.failures[0].contains("wall clock"),
            "{out:?}"
        );
        // ... floor included: a 10 ms sweep is noise, even doubled.
        let short_baseline = make_timing_baseline(&with_wall_ms(10)).unwrap();
        let out = check_timing(&short_baseline, &with_wall_ms(20), &t).unwrap();
        assert!(out.pass(), "{out:?}");
    }

    #[test]
    fn p99_gate_catches_injected_tail_regressions() {
        let t = TimingThresholds::default();
        let baseline = make_timing_baseline(&summary(1, 1, 100, 80_000)).unwrap();
        assert!(
            baseline.contains(r#""sim/run/tick": 80000"#),
            "baseline must carry the p99 tails: {baseline}"
        );
        // Identical tail: pass.
        let ok = check_timing(&baseline, &summary(1, 1, 100, 80_000), &t).unwrap();
        assert!(ok.pass(), "{:?}", ok.failures);
        // 10x p99 on the same environment: hard failure naming the path.
        let slow = check_timing(&baseline, &summary(1, 1, 100, 800_000), &t).unwrap();
        assert!(!slow.pass());
        assert!(
            slow.failures[0].contains("sim/run/tick") && slow.failures[0].contains("p99"),
            "{:?}",
            slow.failures
        );
        // Same regression on different hardware: warning only.
        let other = check_timing(&baseline, &summary(2, 2, 100, 800_000), &t).unwrap();
        assert!(other.pass(), "{:?}", other.failures);
        assert!(!other.warnings.is_empty());
        // Tails under the µs noise floor are never judged: the 0.5 µs
        // `sim/run/reduce` entry grows 100x without tripping anything.
        let noisy = Run {
            reduce_p99_ns: 50_000,
            ..run(1, 1, 100, 80_000)
        };
        let out = check_timing(&baseline, &noisy.to_json(), &t).unwrap();
        assert!(out.pass(), "{:?}", out.failures);
        // The p99 gate is independent of the stage wall-clock floor: a
        // run whose stages are all too short for total-time gating
        // (quick-suite scale) still fails on a regressed tail.
        let short_baseline = make_timing_baseline(&summary(1, 1, 1, 80_000)).unwrap();
        let out = check_timing(&short_baseline, &summary(1, 1, 1, 800_000), &t).unwrap();
        assert!(
            !out.pass() && out.failures[0].contains("p99"),
            "sub-floor stages must still be p99-gated: {out:?}"
        );
    }

    #[test]
    fn paths_unknown_to_the_baseline_warn_instead_of_dodging_the_gate() {
        let t = TimingThresholds::default();
        let baseline = make_timing_baseline(&summary(1, 1, 100, 80_000)).unwrap();
        // A latency path added since the baseline (a renamed kernel,
        // say) must be called out as ungated, not silently passed.
        let with_new_path = Run {
            reduce_path: "sim/run/match_skip",
            ..run(1, 1, 100, 80_000)
        };
        let out = check_timing(&baseline, &with_new_path.to_json(), &t).unwrap();
        assert!(out.pass(), "new paths warn, they don't fail: {out:?}");
        assert!(
            out.warnings
                .iter()
                .any(|w| w.contains("sim/run/match_skip") && w.contains("--update")),
            "missing ungated-path warning: {out:?}"
        );
        // Same for a whole stage the baseline has never seen.
        let with_new_stage = Run {
            tiny_path: "sim/build",
            ..run(1, 1, 100, 80_000)
        };
        let out = check_timing(&baseline, &with_new_stage.to_json(), &t).unwrap();
        assert!(
            out.warnings
                .iter()
                .any(|w| w.contains("sim/build") && w.contains("--update")),
            "missing ungated-stage warning: {out:?}"
        );
        // An identical run stays warning-free in both directions.
        let clean = check_timing(&baseline, &summary(1, 1, 100, 80_000), &t).unwrap();
        assert!(clean.warnings.is_empty(), "{clean:?}");
    }

    #[test]
    fn strict_paths_promotes_ungated_paths_to_failures() {
        let strict = TimingThresholds {
            strict_paths: true,
            ..Default::default()
        };
        let baseline = make_timing_baseline(&summary(1, 1, 100, 80_000)).unwrap();
        // A new latency path fails under --strict-paths, still naming
        // the exact path.
        let with_new_path = Run {
            reduce_path: "sim/run/match_skip",
            ..run(1, 1, 100, 80_000)
        };
        let out = check_timing(&baseline, &with_new_path.to_json(), &strict).unwrap();
        assert!(!out.pass(), "strict mode must fail on ungated paths");
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("sim/run/match_skip") && f.contains("--update")),
            "failure must name the missing path: {out:?}"
        );
        // Same for a stage the baseline has never seen.
        let with_new_stage = Run {
            tiny_path: "sim/build",
            ..run(1, 1, 100, 80_000)
        };
        let out = check_timing(&baseline, &with_new_stage.to_json(), &strict).unwrap();
        assert!(
            out.failures.iter().any(|f| f.contains("sim/build")),
            "failure must name the missing stage: {out:?}"
        );
        // A clean run passes strict mode — the flag only bites when
        // paths actually went ungated.
        let clean = check_timing(&baseline, &summary(1, 1, 100, 80_000), &strict).unwrap();
        assert!(clean.pass(), "{clean:?}");
    }

    #[test]
    fn malformed_baselines_are_errors_not_failures() {
        let t = TimingThresholds::default();
        let good = summary(1, 1, 1, 1);
        assert!(check_obs("{}", &semantic_summary(40)).is_err());
        assert!(check_timing("{}", &good, &t).is_err());
        assert!(make_obs_baseline("{}", "quick").is_err());
        assert!(make_timing_baseline("{}").is_err());
        // A summary without the environment gauges cannot be judged
        // honestly, so it is malformed rather than silently comparable.
        let mut no_env = run(1, 1, 1, 1);
        no_env.gauges.remove(0);
        let err = make_timing_baseline(&no_env.to_json()).unwrap_err();
        assert!(err.contains("obs.jobs"), "{err}");
        // A baseline p99 entry that is not a count is malformed, not
        // ignorable.
        let baseline = make_timing_baseline(&good).unwrap();
        let bad = baseline.replace(r#""sim/run/tick": 1"#, r#""sim/run/tick": "fast""#);
        assert_ne!(bad, baseline, "fixture shape");
        assert!(check_timing(&bad, &good, &t).is_err());
    }
}
