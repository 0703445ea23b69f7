//! The observability plane's determinism contract at experiment scale:
//! the JSONL event log and the `semantic` section of the metrics
//! summary are byte-identical between `--jobs 1` and `--jobs 4`, while
//! wall-clock data stays quarantined in the `timing` section.
//!
//! The two passes run side by side, each in its own scope
//! (`common::pass`): a fresh registry, so each summary holds exactly its
//! own pass, and its own jobs value. Each pass traces into its own
//! collector.
//!
//! Trace mismatches route through `mmog_obs_analyze::trace_diff`, so a
//! failure names the first diverging event (kind, tick, field) instead
//! of dumping two traces; every line of the real mini-suite trace is
//! also validated against the per-kind field schemas and folded into
//! timelines by the analytics reader.

mod common;

use common::passes;
use mmog_bench::experiments as exp;
use mmog_bench::RunOpts;
use mmog_obs::json::Node;
use mmog_obs::{Collector, Document, Summary};
use mmog_obs_analyze::{analyze_trace, first_text_divergence, trace_diff, Query};

fn tiny() -> RunOpts {
    RunOpts {
        days: 1,
        cap: Some(2),
        seed: 77,
        ..RunOpts::default()
    }
}

/// A mini-suite: fig08 drives the full engine pipeline (two Neural
/// simulations, events from every serial section), fig06 contributes
/// wall-clock latency instruments that must stay out of the semantic
/// section.
fn mini_suite(opts: &RunOpts) -> Vec<String> {
    vec![
        exp::fig08_static_vs_dynamic(opts),
        exp::fig06_prediction_time(opts),
    ]
}

/// Runs the mini-suite traced into a fresh collector and returns
/// `(summary json of the current scope, trace bytes)`.
fn traced_pass(opts: &RunOpts) -> (String, String) {
    let trace = Collector::trace("unused.jsonl");
    let mut opts = opts.clone();
    opts.sinks.trace = Some(trace.clone());
    let _reports = mini_suite(&opts);
    (mmog_obs::summary_json(), trace.render().remove(0).1)
}

#[test]
fn semantic_outputs_identical_across_jobs() {
    let opts = tiny();

    let [(summary_serial, trace_serial), (summary_parallel, trace_parallel)] =
        passes([1, 4], || traced_pass(&opts));

    // Both summaries parse back through the type that wrote them, and
    // their semantic sections — counters, gauges, histograms — are
    // byte-identical; only `timing` may differ.
    let semantic = |text: &str| {
        let summary = Summary::parse(text).expect("summary parses");
        summary.semantic.to_value().render()
    };
    let sem_serial = semantic(&summary_serial);
    let sem_parallel = semantic(&summary_parallel);
    if let Some(d) = first_text_divergence(&sem_serial, &sem_parallel) {
        panic!(
            "semantic metrics must be byte-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }
    // The settle skip accounting is part of the compared section.
    for counter in ["sim.runs", "sim.match.skips", "sim.match.full"] {
        assert!(
            sem_serial.contains(counter),
            "the engine recorded {counter}: {sem_serial}"
        );
    }

    // The event logs are byte-identical, non-empty, and well-formed.
    assert!(!trace_serial.is_empty(), "trace must contain events");
    if let Some(d) = trace_diff(&trace_serial, &trace_parallel) {
        panic!(
            "JSONL event log must be byte-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }
    for (i, line) in trace_serial.lines().enumerate() {
        let value = mmog_obs::json::parse(line).expect("line parses");
        // Every event of the real trace satisfies its kind's exact
        // field schema (names, order, types).
        let (seq, _scope, _event) =
            mmog_obs::parse_trace_line(&value).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(seq, i as u64, "sequence numbers are contiguous");
    }

    // The analytics reader folds the real trace into timelines: every
    // scope has per-tick rows, the sampled per-center series are
    // present, and the derived report/artifact are themselves
    // deterministic.
    let runs = analyze_trace(&trace_serial, &Query::default()).expect("trace analyzes cleanly");
    assert!(!runs.is_empty(), "mini-suite trace holds at least one run");
    for run in &runs {
        assert!(!run.ticks.is_empty(), "scope {} has tick rows", run.scope);
        assert!(
            !run.centers.is_empty(),
            "scope {} has center_tick series",
            run.scope
        );
    }
    let report = mmog_obs_analyze::render_timelines(&runs);
    let artifact = mmog_obs_analyze::timelines_value(&runs).render_pretty();
    let runs_again = analyze_trace(&trace_serial, &Query::default()).expect("re-analysis");
    assert_eq!(report, mmog_obs_analyze::render_timelines(&runs_again));
    assert_eq!(
        artifact,
        mmog_obs_analyze::timelines_value(&runs_again).render_pretty()
    );
}
