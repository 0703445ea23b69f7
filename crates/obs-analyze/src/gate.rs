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
use mmog_obs::json::Value;

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

fn parse_doc(text: &str, what: &str) -> Result<Value, String> {
    mmog_obs::json::parse(text).map_err(|e| format!("{what}: {e}"))
}

fn check_gate_schema(doc: &Value, what: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Value::as_str) {
        Some(GATE_SCHEMA) => Ok(()),
        Some(other) => Err(format!("{what}: unknown schema {other:?}")),
        None => Err(format!("{what}: missing schema field")),
    }
}

/// Builds the `BASELINE_obs.json` document from an `OBS_summary.json`.
///
/// # Errors
/// Returns a message when the summary doesn't validate against
/// `mmog-obs/v1`.
pub fn make_obs_baseline(summary_text: &str, suite: &str) -> Result<String, String> {
    mmog_obs::validate_summary(summary_text)?;
    let doc = parse_doc(summary_text, "OBS summary")?;
    let semantic = doc.get("semantic").ok_or("missing semantic section")?;
    let baseline = Value::Obj(vec![
        ("schema".to_string(), Value::Str(GATE_SCHEMA.to_string())),
        (
            "source".to_string(),
            Value::Str("OBS_summary.json".to_string()),
        ),
        ("suite".to_string(), Value::Str(suite.to_string())),
        ("semantic".to_string(), semantic.clone()),
    ]);
    Ok(baseline.render_pretty())
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
    let baseline = parse_doc(baseline_text, "BASELINE_obs.json")?;
    check_gate_schema(&baseline, "BASELINE_obs.json")?;
    mmog_obs::validate_summary(summary_text)?;
    let summary = parse_doc(summary_text, "OBS summary")?;
    let expected = baseline
        .get("semantic")
        .ok_or("BASELINE_obs.json: missing semantic section")?;
    let actual = summary
        .get("semantic")
        .ok_or("OBS summary: missing semantic section")?;
    let mut outcome = GateOutcome::default();
    if expected == actual {
        let suite = baseline.get("suite").and_then(Value::as_str).unwrap_or("?");
        outcome.notes.push(format!(
            "semantic section matches the {suite} baseline exactly"
        ));
    } else {
        let delta = first_text_divergence(&expected.render_pretty(), &actual.render_pretty())
            .map_or_else(|| "sections differ".to_string(), |d| d.message());
        outcome.failures.push(format!(
            "semantic metrics drifted from the committed baseline — {delta}"
        ));
    }
    Ok(outcome)
}

/// The timing essentials the gate compares, read from an
/// `OBS_summary.json` or from a timing baseline built out of one.
struct Timing {
    jobs: u64,
    logical_cpus: u64,
    wall_ms: Option<f64>,
    /// Span path → total milliseconds over every call.
    stages: Vec<(String, f64)>,
    /// Latency path → p99 nanoseconds.
    p99_ns: Vec<(String, u64)>,
}

/// Reads the timing essentials of a summary: `timing.spans[].total_ns`,
/// `timing.latency[*].p99_ns` (empty histograms have no tail and are
/// skipped) and the `obs.wall_ms`/`obs.jobs`/`obs.logical_cpus` gauges
/// the runners record through `mmog_obs::note_run`.
fn summary_timing(summary_text: &str) -> Result<Timing, String> {
    mmog_obs::validate_summary(summary_text)?;
    let doc = parse_doc(summary_text, "OBS summary")?;
    let timing = doc
        .get("timing")
        .ok_or("OBS summary: missing timing section")?;
    let gauge = |name: &str| timing.get("gauges").and_then(|g| g.get(name));
    let env = |name: &str| {
        gauge(name).and_then(Value::as_u64).ok_or_else(|| {
            format!("OBS summary: missing timing gauge {name} (recorded by mmog_obs::note_run)")
        })
    };
    let stages = timing
        .get("spans")
        .and_then(Value::as_arr)
        .ok_or("OBS summary: missing timing.spans")?
        .iter()
        .filter_map(|s| {
            let path = s.get("path").and_then(Value::as_str)?;
            let total_ns = s.get("total_ns").and_then(Value::as_u64)?;
            Some((path.to_string(), (total_ns as f64 / 1e3).round() / 1e3))
        })
        .collect();
    let p99_ns = timing
        .get("latency")
        .and_then(Value::as_obj)
        .map(|entries| {
            entries
                .iter()
                .filter_map(|(path, snap)| {
                    Some((path.clone(), snap.get("p99_ns").and_then(Value::as_u64)?))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(Timing {
        jobs: env("obs.jobs")?,
        logical_cpus: env("obs.logical_cpus")?,
        wall_ms: gauge("obs.wall_ms").and_then(Value::as_f64),
        stages,
        p99_ns,
    })
}

fn baseline_timing(baseline_text: &str) -> Result<Timing, String> {
    const WHAT: &str = "timing baseline";
    let doc = parse_doc(baseline_text, WHAT)?;
    check_gate_schema(&doc, WHAT)?;
    let env = |field: &str| {
        doc.get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{WHAT}: missing {field}"))
    };
    let stages = doc
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{WHAT}: missing stages array"))?
        .iter()
        .map(|s| {
            let path = s.get("path").and_then(Value::as_str);
            let total_ms = s.get("total_ms").and_then(Value::as_f64);
            path.zip(total_ms)
                .map(|(p, ms)| (p.to_string(), ms))
                .ok_or_else(|| format!("{WHAT}: stages entries need path and total_ms"))
        })
        .collect::<Result<_, _>>()?;
    let p99_ns = doc
        .get("p99_ns")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{WHAT}: missing p99_ns object"))?
        .iter()
        .map(|(path, ns)| {
            ns.as_u64()
                .map(|ns| (path.clone(), ns))
                .ok_or_else(|| format!("{WHAT}: p99_ns entry `{path}` must be a u64"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Timing {
        jobs: env("jobs")?,
        logical_cpus: env("logical_cpus")?,
        wall_ms: doc.get("wall_ms").and_then(Value::as_f64),
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
    let t = summary_timing(summary_text)?;
    let stages = t
        .stages
        .into_iter()
        .map(|(path, ms)| {
            Value::Obj(vec![
                ("path".to_string(), Value::Str(path)),
                ("total_ms".to_string(), Value::Num(ms)),
            ])
        })
        .collect();
    let p99 = t
        .p99_ns
        .into_iter()
        .map(|(path, ns)| (path, Value::UInt(ns)))
        .collect();
    let baseline = Value::Obj(vec![
        ("schema".to_string(), Value::Str(GATE_SCHEMA.to_string())),
        (
            "source".to_string(),
            Value::Str("OBS_summary.json".to_string()),
        ),
        ("jobs".to_string(), Value::UInt(t.jobs)),
        ("logical_cpus".to_string(), Value::UInt(t.logical_cpus)),
        (
            "wall_ms".to_string(),
            t.wall_ms.map_or(Value::Null, Value::Num),
        ),
        ("stages".to_string(), Value::Arr(stages)),
        ("p99_ns".to_string(), Value::Obj(p99)),
    ]);
    Ok(baseline.render_pretty())
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
    let base = baseline_timing(baseline_text)?;
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
    for (path, base_ms) in &base.stages {
        let Some((_, cur_ms)) = cur.stages.iter().find(|(p, _)| p == path) else {
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
        let Some((_, cur_ns)) = cur.p99_ns.iter().find(|(p, _)| p == path) else {
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
    for (path, _) in &cur.stages {
        if !base.stages.iter().any(|(p, _)| p == path) {
            ungated(format!(
                "stage `{path}` is not in the baseline — ungated; refresh the baseline with \
                 --update"
            ));
        }
    }
    for (path, _) in &cur.p99_ns {
        if !base.p99_ns.iter().any(|(p, _)| p == path) {
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

    const SUMMARY: &str = r#"{"schema":"mmog-obs/v1","semantic":{"counters":{"sim.ticks":40},"gauges":{},"histograms":{}},"timing":{"counters":{},"gauges":{},"histograms":{},"spans":[]}}"#;

    #[test]
    fn obs_gate_round_trip_and_perturbation() {
        let baseline = make_obs_baseline(SUMMARY, "quick").unwrap();
        let clean = check_obs(&baseline, SUMMARY).unwrap();
        assert!(clean.pass(), "{:?}", clean.failures);

        let perturbed = SUMMARY.replace(r#""sim.ticks":40"#, r#""sim.ticks":41"#);
        let bad = check_obs(&baseline, &perturbed).unwrap();
        assert!(!bad.pass());
        let msg = &bad.failures[0];
        assert!(msg.contains("sim.ticks"), "{msg}");
        assert!(msg.contains("drifted"), "{msg}");
    }

    /// A summary whose timing section carries two stages (`sim/run`
    /// and the sub-floor `tiny`), two latency paths (`sim/run/tick` and
    /// the sub-floor `sim/run/reduce`) and the environment gauges.
    fn summary(jobs: u64, cpus: u64, run_ms: u64, tick_p99_ns: u64) -> String {
        let latency = |p99_ns: u64| {
            format!(
                r#"{{"count":1,"mean_ns":1,"p99_ns":{p99_ns},"min_ns":1,"max_ns":1,"buckets":[[0,1]]}}"#
            )
        };
        format!(
            r#"{{"schema":"mmog-obs/v1","semantic":{{"counters":{{}},"gauges":{{}},"histograms":{{}}}},"timing":{{"counters":{{}},"gauges":{{"obs.jobs":{jobs},"obs.logical_cpus":{cpus},"obs.wall_ms":10000}},"histograms":{{}},"spans":[{{"path":"sim/run","calls":1,"total_ns":{},"max_ns":1}},{{"path":"tiny","calls":1,"total_ns":1000000,"max_ns":1}}],"latency":{{"sim/run/tick":{},"sim/run/reduce":{}}}}}}}"#,
            run_ms * 1_000_000,
            latency(tick_p99_ns),
            latency(500),
        )
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
        let noisy = summary(1, 1, 1000, 80_000)
            .replace(r#""total_ns":1000000,"#, r#""total_ns":100000000,"#);
        let out = check_timing(&baseline, &noisy, &t).unwrap();
        assert!(out.pass(), "{:?}", out.failures);
        // The wall clock is judged like a stage.
        let slow_wall =
            summary(1, 1, 1000, 80_000).replace(r#""obs.wall_ms":10000"#, r#""obs.wall_ms":20000"#);
        let out = check_timing(&baseline, &slow_wall, &t).unwrap();
        assert!(
            !out.pass() && out.failures[0].contains("wall clock"),
            "{out:?}"
        );
        // ... floor included: a 10 ms sweep is noise, even doubled.
        let short = |wall: &str| {
            summary(1, 1, 1000, 80_000).replace(
                r#""obs.wall_ms":10000"#,
                &format!(r#""obs.wall_ms":{wall}"#),
            )
        };
        let short_baseline = make_timing_baseline(&short("10")).unwrap();
        let out = check_timing(&short_baseline, &short("20"), &t).unwrap();
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
        let noisy = summary(1, 1, 100, 80_000).replace(r#""p99_ns":500"#, r#""p99_ns":50000"#);
        let out = check_timing(&baseline, &noisy, &t).unwrap();
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
        let with_new_path =
            summary(1, 1, 100, 80_000).replace(r#""sim/run/reduce""#, r#""sim/run/match_skip""#);
        let out = check_timing(&baseline, &with_new_path, &t).unwrap();
        assert!(out.pass(), "new paths warn, they don't fail: {out:?}");
        assert!(
            out.warnings
                .iter()
                .any(|w| w.contains("sim/run/match_skip") && w.contains("--update")),
            "missing ungated-path warning: {out:?}"
        );
        // Same for a whole stage the baseline has never seen.
        let with_new_stage =
            summary(1, 1, 100, 80_000).replace(r#""path":"tiny""#, r#""path":"sim/build""#);
        let out = check_timing(&baseline, &with_new_stage, &t).unwrap();
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
        let with_new_path =
            summary(1, 1, 100, 80_000).replace(r#""sim/run/reduce""#, r#""sim/run/match_skip""#);
        let out = check_timing(&baseline, &with_new_path, &strict).unwrap();
        assert!(!out.pass(), "strict mode must fail on ungated paths");
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("sim/run/match_skip") && f.contains("--update")),
            "failure must name the missing path: {out:?}"
        );
        // Same for a stage the baseline has never seen.
        let with_new_stage =
            summary(1, 1, 100, 80_000).replace(r#""path":"tiny""#, r#""path":"sim/build""#);
        let out = check_timing(&baseline, &with_new_stage, &strict).unwrap();
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
        assert!(check_obs("{}", SUMMARY).is_err());
        assert!(check_timing("{}", &good, &t).is_err());
        assert!(make_obs_baseline("{}", "quick").is_err());
        assert!(make_timing_baseline("{}").is_err());
        // A summary without the environment gauges cannot be judged
        // honestly, so it is malformed rather than silently comparable.
        let no_env = good.replace(r#""obs.jobs":1,"#, "");
        let err = make_timing_baseline(&no_env).unwrap_err();
        assert!(err.contains("obs.jobs"), "{err}");
        // A baseline p99 entry that is not a count is malformed, not
        // ignorable.
        let baseline = make_timing_baseline(&good).unwrap();
        let bad = baseline.replace(r#""sim/run/tick": 1"#, r#""sim/run/tick": "fast""#);
        assert_ne!(bad, baseline, "fixture shape");
        assert!(check_timing(&bad, &good, &t).is_err());
    }
}
