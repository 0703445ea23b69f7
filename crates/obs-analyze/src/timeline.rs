//! Per-run timelines derived from the event stream.
//!
//! A trace holds one chunk per simulation run (scope); this module
//! folds each scope's events into a [`RunTimeline`] — the per-tick
//! demand/allocation curves, sampled per-center series, rejection
//! waterfall and per-group prediction error that the paper's Sec. V
//! evaluation plots (Figs. 8–14) — and renders the set as a
//! deterministic text report plus a `TIMELINE_<run>.json` document.
//!
//! Every number here is folded from semantic event fields in global
//! `seq` order, so the text and JSON outputs inherit the trace's
//! byte-stability across `--jobs` values.

use crate::reader::{read_trace, Query};
use mmog_obs::json::{Node, Value};
use mmog_obs::Event;
use std::collections::BTreeMap;

/// Schema identifier of the `TIMELINE_<run>.json` artifact.
pub const TIMELINE_SCHEMA: &str = "mmog-obs-timeline/v1";

mmog_obs::object_node! {
    /// One platform-wide tick sample (from `tick` events).
    #[derive(Debug, Clone, Copy)]
    pub struct TickRow {
        /// Tick index.
        pub tick: u64,
        /// Total CPU demand across groups.
        pub demand_cpu: f64,
        /// Total CPU allocated across groups.
        pub alloc_cpu: f64,
        /// Unmet CPU demand.
        pub shortfall_cpu: f64,
        /// CPU allocated beyond demand this tick (never negative).
        pub over_cpu: f64,
    }
}

mmog_obs::object_node! {
    /// One sampled per-center snapshot (from `center_tick` events).
    #[derive(Debug, Clone, Copy)]
    pub struct CenterSample {
        /// Tick index of the sample.
        pub tick: u64,
        /// CPU leased out of this center at the sample.
        pub alloc_cpu: f64,
        /// CPU free in this center at the sample.
        pub free_cpu: f64,
    }
}

mmog_obs::object_node! {
    /// The sampled allocation series of one data center.
    #[derive(Debug, Clone)]
    pub struct CenterSeries {
        /// Platform index of the center.
        pub center: u64,
        /// Samples in tick order.
        pub samples: Vec<CenterSample>,
    }
}

mmog_obs::object_node! {
    /// One group's prediction-error report (from `prediction_group`).
    #[derive(Debug, Clone)]
    pub struct PredictionRow {
        /// Group index.
        pub group: u64,
        /// Owning operator.
        pub operator: u64,
        /// Game name.
        pub game: String,
        /// Mean absolute prediction error, percent.
        pub error_pct: f64,
    }
}

mmog_obs::object_node! {
    /// One center's integrated usage attribution (from `center_usage`).
    #[derive(Debug, Clone)]
    pub struct UsageRow {
        /// Center name.
        pub name: String,
        /// CPU capacity of the center.
        pub capacity_cpu: f64,
        /// Allocated CPU integrated over post-warmup ticks.
        pub cpu_unit_ticks: f64,
        /// Free CPU integrated over post-warmup ticks.
        pub cpu_free_unit_ticks: f64,
    }
}

/// Everything the analytics layer derives from one run's events.
#[derive(Debug, Clone, Default)]
pub struct RunTimeline {
    /// The run's deterministic chunk label.
    pub scope: String,
    /// Allocation mode from `run_start` (when present).
    pub mode: Option<String>,
    /// Configured tick count from `run_start`.
    pub configured_ticks: Option<u64>,
    /// Platform-wide per-tick rows.
    pub ticks: Vec<TickRow>,
    /// Sampled per-center series, in center order.
    pub centers: Vec<CenterSeries>,
    /// Rejection-reason waterfall: reason → count.
    pub rejections: BTreeMap<String, u64>,
    /// Scenario-event waterfall: kind → count, over the five
    /// topology-mutation kinds (`partition`, `heal`, `topology_change`,
    /// `migration`, `flash_crowd`). Empty for scenario-free runs.
    pub scenario: BTreeMap<String, u64>,
    /// Player-ticks charged by zone migrations (sum of `migration`
    /// events' `cost` fields).
    pub migration_cost: f64,
    /// Per-group prediction error, in group-event order.
    pub prediction: Vec<PredictionRow>,
    /// Integrated per-center usage, in platform order.
    pub usage: Vec<UsageRow>,
}

impl RunTimeline {
    fn fold(&mut self, event: &Event<'_>) {
        match *event {
            Event::RunStart { mode, ticks, .. } => {
                self.mode = Some(mode.to_string());
                self.configured_ticks = Some(ticks);
            }
            Event::Tick {
                tick,
                demand_cpu,
                alloc_cpu,
                shortfall_cpu,
            } => self.ticks.push(TickRow {
                tick,
                demand_cpu,
                alloc_cpu,
                shortfall_cpu,
                over_cpu: (alloc_cpu - demand_cpu).max(0.0),
            }),
            Event::CenterTick {
                tick,
                center,
                alloc_cpu,
                free_cpu,
            } => {
                let sample = CenterSample {
                    tick,
                    alloc_cpu,
                    free_cpu,
                };
                match self.centers.iter_mut().find(|s| s.center == center) {
                    Some(series) => series.samples.push(sample),
                    None => self.centers.push(CenterSeries {
                        center,
                        samples: vec![sample],
                    }),
                }
            }
            Event::MatchReject { reason, .. } => {
                *self.rejections.entry(reason.to_string()).or_insert(0) += 1;
            }
            Event::Partition { .. }
            | Event::Heal { .. }
            | Event::TopologyChange { .. }
            | Event::Migration { .. }
            | Event::FlashCrowd { .. } => {
                if let Event::Migration { cost, .. } = *event {
                    self.migration_cost += cost;
                }
                *self.scenario.entry(event.kind().to_string()).or_insert(0) += 1;
            }
            Event::PredictionGroup {
                group,
                operator,
                game,
                error_pct,
            } => self.prediction.push(PredictionRow {
                group,
                operator,
                game: game.to_string(),
                error_pct,
            }),
            Event::CenterUsage {
                name,
                capacity_cpu,
                cpu_unit_ticks,
                cpu_free_unit_ticks,
            } => self.usage.push(UsageRow {
                name: name.to_string(),
                capacity_cpu,
                cpu_unit_ticks,
                cpu_free_unit_ticks,
            }),
            _ => {}
        }
    }
}

/// Folds a whole trace into one [`RunTimeline`] per scope, in the
/// trace's deterministic scope order. `query` pre-filters the events
/// that are folded (the default query folds everything).
///
/// # Errors
/// Returns the first malformed line (parse failure or field-schema
/// violation), with its line number.
pub fn analyze_trace(text: &str, query: &Query) -> Result<Vec<RunTimeline>, String> {
    let mut runs: Vec<RunTimeline> = Vec::new();
    read_trace(text, query, |line| {
        let run = match runs.iter_mut().position(|r| r.scope == line.scope) {
            Some(i) => &mut runs[i],
            None => {
                runs.push(RunTimeline {
                    scope: line.scope.to_string(),
                    ..RunTimeline::default()
                });
                runs.last_mut().expect("just pushed")
            }
        };
        run.fold(&line.event);
    })?;
    Ok(runs)
}

fn mean(values: impl Iterator<Item = f64>) -> Option<(f64, f64, usize)> {
    let mut sum = 0.0;
    let mut peak = f64::NEG_INFINITY;
    let mut n = 0usize;
    for v in values {
        sum += v;
        peak = peak.max(v);
        n += 1;
    }
    (n > 0).then(|| (sum / n as f64, peak, n))
}

/// Renders the timeline set as the deterministic text report
/// `trace_analyze` prints.
#[must_use]
pub fn render_timelines(runs: &[RunTimeline]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("Timeline report (mmog-obs-analyze)\n");
    for run in runs {
        let _ = write!(out, "\nscope: {}\n", run.scope);
        if let (Some(mode), Some(ticks)) = (&run.mode, run.configured_ticks) {
            let _ = writeln!(out, "  mode {mode}, {ticks} configured ticks");
        }
        if let Some((mean_d, peak_d, n)) = mean(run.ticks.iter().map(|t| t.demand_cpu)) {
            let _ = writeln!(
                out,
                "  demand_cpu: {n} ticks, mean {mean_d:.3}, peak {peak_d:.3}"
            );
        }
        if let Some((mean_a, peak_a, _)) = mean(run.ticks.iter().map(|t| t.alloc_cpu)) {
            let _ = writeln!(out, "  alloc_cpu:  mean {mean_a:.3}, peak {peak_a:.3}");
        }
        if let Some((mean_o, peak_o, _)) = mean(run.ticks.iter().map(|t| t.over_cpu)) {
            let _ = writeln!(
                out,
                "  over-allocation: mean {mean_o:.3} cpu, peak {peak_o:.3}"
            );
        }
        let short_ticks = run.ticks.iter().filter(|t| t.shortfall_cpu > 0.0).count();
        let short_total: f64 = run.ticks.iter().map(|t| t.shortfall_cpu).sum();
        let _ = writeln!(
            out,
            "  under-allocation: {short_ticks} ticks short, {short_total:.3} cpu-ticks total"
        );
        if !run.centers.is_empty() {
            let samples = run.centers.iter().map(|c| c.samples.len()).sum::<usize>();
            let _ = writeln!(
                out,
                "  center series: {} centers, {samples} samples",
                run.centers.len()
            );
        }
        if !run.rejections.is_empty() {
            let waterfall: Vec<String> = run
                .rejections
                .iter()
                .map(|(r, n)| format!("{r} {n}"))
                .collect();
            let _ = writeln!(out, "  rejections: {}", waterfall.join(", "));
        }
        if !run.scenario.is_empty() {
            let waterfall: Vec<String> = run
                .scenario
                .iter()
                .map(|(k, n)| format!("{k} {n}"))
                .collect();
            let _ = writeln!(out, "  scenario events: {}", waterfall.join(", "));
            if run.migration_cost > 0.0 {
                let _ = writeln!(
                    out,
                    "  migration cost: {:.3} player-ticks",
                    run.migration_cost
                );
            }
        }
        if let Some((mean_e, _, n)) = mean(run.prediction.iter().map(|p| p.error_pct.abs())) {
            let worst = run
                .prediction
                .iter()
                .max_by(|a, b| {
                    a.error_pct
                        .abs()
                        .partial_cmp(&b.error_pct.abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty prediction set");
            let _ = writeln!(
                out,
                "  prediction error: {n} groups, mean |err| {mean_e:.3}%, worst group {} ({}) {:.3}%",
                worst.group, worst.game, worst.error_pct
            );
        }
        if !run.usage.is_empty() {
            let used: f64 = run.usage.iter().map(|u| u.cpu_unit_ticks).sum();
            let free: f64 = run.usage.iter().map(|u| u.cpu_free_unit_ticks).sum();
            let _ = writeln!(
                out,
                "  center usage: {} centers, {used:.3} allocated cpu-ticks, {free:.3} free cpu-ticks",
                run.usage.len()
            );
        }
    }
    out
}

/// Builds the `TIMELINE_<run>.json` document for a timeline set.
#[must_use]
pub fn timelines_value(runs: &[RunTimeline]) -> Value {
    let scopes: Vec<Value> = runs
        .iter()
        .map(|run| {
            let mut fields = vec![
                ("scope".to_string(), run.scope.to_value()),
                ("mode".to_string(), run.mode.to_value()),
                (
                    "configured_ticks".to_string(),
                    run.configured_ticks.to_value(),
                ),
                ("ticks".to_string(), run.ticks.to_value()),
                ("centers".to_string(), run.centers.to_value()),
                ("rejections".to_string(), run.rejections.to_value()),
                ("prediction".to_string(), run.prediction.to_value()),
                ("usage".to_string(), run.usage.to_value()),
            ];
            // Scenario sections appear only for runs that saw scenario
            // events, so scenario-free documents stay byte-identical to
            // pre-scenario builds.
            if !run.scenario.is_empty() {
                fields.push(("scenario".to_string(), run.scenario.to_value()));
                fields.push(("migration_cost".to_string(), run.migration_cost.to_value()));
            }
            Value::Obj(fields)
        })
        .collect();
    Value::Obj(vec![
        (
            "schema".to_string(),
            Value::Str(TIMELINE_SCHEMA.to_string()),
        ),
        ("scopes".to_string(), Value::Arr(scopes)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> String {
        [
            r#"{"seq":0,"scope":"runA","kind":"run_start","mode":"dynamic","groups":2,"centers":2,"ticks":4,"warmup":0}"#,
            r#"{"seq":1,"scope":"runA","kind":"tick","tick":0,"demand_cpu":10,"alloc_cpu":12,"shortfall_cpu":0}"#,
            r#"{"seq":2,"scope":"runA","kind":"center_tick","tick":0,"center":0,"alloc_cpu":8,"free_cpu":2}"#,
            r#"{"seq":3,"scope":"runA","kind":"center_tick","tick":0,"center":1,"alloc_cpu":4,"free_cpu":6}"#,
            r#"{"seq":4,"scope":"runA","kind":"tick","tick":1,"demand_cpu":14,"alloc_cpu":12,"shortfall_cpu":2}"#,
            r#"{"seq":5,"scope":"runA","kind":"match_reject","tick":1,"operator":0,"center":1,"reason":"distance"}"#,
            r#"{"seq":6,"scope":"runA","kind":"match_reject","tick":1,"operator":0,"center":0,"reason":"exhausted"}"#,
            r#"{"seq":7,"scope":"runA","kind":"match_reject","tick":2,"operator":1,"center":1,"reason":"distance"}"#,
            r#"{"seq":8,"scope":"runA","kind":"prediction_group","group":0,"operator":0,"game":"rpg","error_pct":7.5}"#,
            r#"{"seq":9,"scope":"runA","kind":"prediction_group","group":1,"operator":1,"game":"fps","error_pct":-12.5}"#,
            r#"{"seq":10,"scope":"runA","kind":"center_usage","name":"c0","capacity_cpu":10,"cpu_unit_ticks":16,"cpu_free_unit_ticks":4}"#,
            r#"{"seq":11,"scope":"runA","kind":"run_end","ticks":4,"unmet_steps":1,"leases_granted":3,"leases_released":1}"#,
            r#"{"seq":12,"scope":"runB","kind":"tick","tick":0,"demand_cpu":1,"alloc_cpu":1,"shortfall_cpu":0}"#,
        ]
        .join("\n")
    }

    #[test]
    fn folds_scopes_independently() {
        let runs = analyze_trace(&sample_trace(), &Query::default()).unwrap();
        assert_eq!(runs.len(), 2);
        let a = &runs[0];
        assert_eq!(a.scope, "runA");
        assert_eq!(a.mode.as_deref(), Some("dynamic"));
        assert_eq!(a.ticks.len(), 2);
        assert!((a.ticks[0].over_cpu - 2.0).abs() < 1e-12);
        assert!(a.ticks[1].over_cpu.abs() < 1e-12);
        assert_eq!(a.centers.len(), 2);
        assert_eq!(
            a.rejections,
            BTreeMap::from([("distance".to_string(), 2), ("exhausted".to_string(), 1)])
        );
        assert_eq!(a.prediction.len(), 2);
        assert_eq!(a.usage.len(), 1);
        assert_eq!(runs[1].scope, "runB");
        assert_eq!(runs[1].ticks.len(), 1);
    }

    #[test]
    fn report_and_json_are_deterministic() {
        let runs = analyze_trace(&sample_trace(), &Query::default()).unwrap();
        let text_a = render_timelines(&runs);
        let json_a = timelines_value(&runs).render_pretty();
        let runs_b = analyze_trace(&sample_trace(), &Query::default()).unwrap();
        assert_eq!(text_a, render_timelines(&runs_b));
        assert_eq!(json_a, timelines_value(&runs_b).render_pretty());
        assert!(
            text_a.contains("rejections: distance 2, exhausted 1"),
            "{text_a}"
        );
        assert!(text_a.contains("worst group 1 (fps) -12.500%"), "{text_a}");
        let parsed = mmog_obs::json::parse(&json_a).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some(TIMELINE_SCHEMA)
        );
    }

    #[test]
    fn scenario_waterfall_folds_and_renders_only_when_present() {
        let trace = [
            r#"{"seq":0,"scope":"runS","kind":"partition","tick":5,"mask":9,"components":2}"#,
            r#"{"seq":1,"scope":"runS","kind":"migration","tick":6,"group":2,"center":1,"leases":3,"cost":84.5}"#,
            r#"{"seq":2,"scope":"runS","kind":"migration","tick":7,"group":0,"center":4,"leases":1,"cost":15.5}"#,
            r#"{"seq":3,"scope":"runS","kind":"flash_crowd","tick":8,"region":1,"factor":2.5,"groups":4}"#,
            r#"{"seq":4,"scope":"runS","kind":"topology_change","tick":8,"a":0,"b":3,"factor":3.5}"#,
            r#"{"seq":5,"scope":"runS","kind":"heal","tick":9,"components":1}"#,
        ]
        .join("\n");
        let runs = analyze_trace(&trace, &Query::default()).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(
            run.scenario,
            BTreeMap::from([
                ("flash_crowd".to_string(), 1),
                ("heal".to_string(), 1),
                ("migration".to_string(), 2),
                ("partition".to_string(), 1),
                ("topology_change".to_string(), 1),
            ])
        );
        assert!((run.migration_cost - 100.0).abs() < 1e-12);
        let text = render_timelines(&runs);
        assert!(
            text.contains("scenario events: flash_crowd 1, heal 1, migration 2, partition 1, topology_change 1"),
            "{text}"
        );
        assert!(
            text.contains("migration cost: 100.000 player-ticks"),
            "{text}"
        );
        let json = timelines_value(&runs).render_pretty();
        let parsed = mmog_obs::json::parse(&json).unwrap();
        let scope = &parsed.get("scopes").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(
            scope
                .get("scenario")
                .and_then(|s| s.get("migration"))
                .and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            scope.get("migration_cost").and_then(Value::as_f64),
            Some(100.0)
        );

        // Scenario-free runs render and serialize without the section —
        // byte-identical to pre-scenario builds.
        let plain = analyze_trace(&sample_trace(), &Query::default()).unwrap();
        let plain_text = render_timelines(&plain);
        assert!(!plain_text.contains("scenario events"), "{plain_text}");
        let plain_json = timelines_value(&plain).render_pretty();
        assert!(!plain_json.contains("\"scenario\""), "{plain_json}");
        assert!(!plain_json.contains("migration_cost"), "{plain_json}");
    }

    #[test]
    fn query_scoped_timelines() {
        let runs =
            analyze_trace(&sample_trace(), &Query::default().scope_contains("runB")).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].scope, "runB");
    }
}
