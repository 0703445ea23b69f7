//! The causal lease-lifecycle contract at experiment scale: every
//! lease the engine grants is reconstructible from the trace alone —
//! request → grant → (maturity) → exactly one terminal — with no
//! orphans, at `--jobs 1` and `--jobs 4` with byte-identical semantic
//! output. The time-series export rides the same contract: its
//! deterministic downsampling makes `TS_<run>.json` documents
//! byte-identical across job counts.
//!
//! The two passes run side by side, each in its own scope
//! (`common::pass`) with its own jobs value, tracing and exporting into
//! its own collectors.
//!
//! The mini-suite is chosen to exercise every terminal cause family:
//! fig08 drives plain dynamic provisioning (surplus/reshape/run_end
//! releases), fig_faults adds fault-plane revocations and center-down
//! drops, fig_scenarios adds migration and failover releases.

mod common;

use common::passes;
use mmog_bench::experiments as exp;
use mmog_bench::RunOpts;
use mmog_obs::json::Node;
use mmog_obs::{Collector, Document, TsDocument};
use mmog_obs_analyze::{analyze_lifecycle, check_lifecycle, render_lifecycle, trace_diff};

fn tiny() -> RunOpts {
    RunOpts {
        days: 1,
        cap: Some(2),
        seed: 77,
        ..RunOpts::default()
    }
}

fn mini_suite(opts: &RunOpts) -> Vec<String> {
    vec![
        exp::fig08_static_vs_dynamic(opts),
        exp::fig_faults(opts),
        exp::fig_scenarios(opts),
    ]
}

/// Runs the mini-suite traced and exporting time series into fresh
/// collectors, returning `(trace bytes, ts docs in write order)`.
fn traced_pass(opts: &RunOpts) -> (String, Vec<String>) {
    let (trace, ts) = (
        Collector::trace("unused.jsonl"),
        Collector::time_series("unused"),
    );
    let mut opts = opts.clone();
    opts.sinks.trace = Some(trace.clone());
    opts.sinks.ts = Some(ts.clone());
    let _reports = mini_suite(&opts);
    // The collector names documents in label order, so the sequence is
    // directly comparable across passes.
    let docs = ts
        .render()
        .into_iter()
        .map(|(path, body)| format!("{}\n{body}", path.file_name().unwrap().to_string_lossy()))
        .collect();
    (trace.render().remove(0).1, docs)
}

#[test]
fn lease_lifecycles_reconstruct_fully_across_jobs() {
    let opts = tiny();
    // No cache warm-up: the traces and time series hold no cache-build
    // counts, so the passes must agree however the caches start.
    let [(trace_serial, ts_serial), (trace_parallel, ts_parallel)] =
        passes([1, 4], || traced_pass(&opts));

    // The event logs (lifecycle events included) are byte-identical.
    if let Some(d) = trace_diff(&trace_serial, &trace_parallel) {
        panic!(
            "JSONL event log must be byte-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }

    // Every lease reconstructs: the causality invariants hold (every
    // grant has a request, no orphan terminals, no reused keys) and
    // 100% of granted leases reach exactly one terminal.
    let report = analyze_lifecycle(&trace_serial).expect("trace parses");
    check_lifecycle(&report).expect("causality invariants hold on the real suite");
    assert!(
        report.total_leases() > 0,
        "mini-suite must grant leases to make the check meaningful"
    );
    assert_eq!(
        report.total_closed(),
        report.total_leases(),
        "every granted lease must reach a terminal event"
    );
    for scope in &report.scopes {
        assert_eq!(
            scope.closed(),
            scope.leases.len(),
            "scope {} reconstructs 100% of its leases",
            scope.scope
        );
    }

    // The fault and scenario planes actually contributed terminal
    // causes beyond plain provisioning (the engine's own releases are
    // covered by every scope's run_end closure).
    let all_causes: Vec<String> = report
        .scopes
        .iter()
        .flat_map(|s| s.causes().into_keys())
        .collect();
    assert!(
        all_causes.iter().any(|c| c == "run_end"),
        "run-end closure must close surviving leases: {all_causes:?}"
    );
    assert!(
        all_causes.iter().any(|c| c == "revoked"),
        "fault suite must contribute revocations: {all_causes:?}"
    );

    // The rendered lifecycle report is pure semantic output, so it is
    // byte-identical across job counts (same input trace, same fold).
    let report_parallel = analyze_lifecycle(&trace_parallel).expect("trace parses");
    assert_eq!(
        render_lifecycle(&report),
        render_lifecycle(&report_parallel),
        "lifecycle report must be byte-identical across --jobs"
    );

    // Time-series exports: every document parses through
    // `TsDocument`, and the `semantic` sections (demand, allocation,
    // shortfall and the memo skip rate — sampled from serial sections
    // and downsampled by a pure function of the sample sequence) are
    // byte-identical across job counts. The `timing` sections (stage
    // latencies) are excluded, per the determinism contract.
    assert!(
        !ts_serial.is_empty(),
        "mini-suite must export at least one TS document"
    );
    let semantic_of = |doc: &String| {
        let (name, body) = doc.split_once('\n').expect("name header");
        let doc = TsDocument::parse(body).expect("ts doc parses");
        format!("{name}\n{}", doc.semantic.to_value().render_pretty())
    };
    let replayed = |doc: &String| {
        let body = doc.split_once('\n').expect("name header").1;
        let doc = TsDocument::parse(body).expect("ts doc parses");
        doc.semantic.match_skip_rate.points.iter().any(|&p| p > 0.0)
    };
    assert!(
        ts_serial.iter().any(replayed),
        "the compared skip rates must include memo replays"
    );
    let sem_serial: Vec<String> = ts_serial.iter().map(semantic_of).collect();
    let sem_parallel: Vec<String> = ts_parallel.iter().map(semantic_of).collect();
    assert_eq!(
        sem_serial, sem_parallel,
        "TS semantic sections must be byte-identical across --jobs"
    );
}
