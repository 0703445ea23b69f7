//! The fault plane's determinism contract: a faulted run's event trace
//! and simulation report are byte-identical between `--jobs 1` and
//! `--jobs 4`, and across repeated same-seed runs — fault events are
//! applied and emitted only from the engine's serial sections, so the
//! fan-out width can never reorder or drop them.
//!
//! Each pass runs in its own scope (`common::pass`) with its own jobs
//! value and traces into its own collector, so the passes run side by
//! side and the tests run under the parallel harness like any other.
//!
//! Mismatches route through `mmog-obs-analyze`'s first-divergence
//! helpers, so a failure names the first diverging event or line.

mod common;

use common::passes;
use mmog_faults::{
    FaultEvent, FaultKind, FaultSchedule, FaultSpec, ScenarioEvent, ScenarioEventKind,
    ScenarioParams, ScenarioSpec, ScenarioTimeline,
};
use mmog_obs_analyze::{
    analyze_lifecycle, analyze_trace, first_text_divergence, render_lifecycle, render_timelines,
    timelines_value, trace_diff, Query,
};
use mmog_sim::engine::{AllocationMode, Simulation, SimulationConfig};
use mmog_sim::scenario::{self, ScenarioOpts};
use std::fs;
use std::path::Path;

fn tiny() -> ScenarioOpts {
    ScenarioOpts {
        days: 1,
        seed: 77,
        group_cap: Some(2),
    }
}

/// Runs `cfg` traced into its own collector and returns `(report debug
/// fingerprint, trace bytes)`.
fn traced_run(mut cfg: SimulationConfig) -> (String, String) {
    let trace = mmog_obs::Collector::trace("unused.jsonl");
    cfg.sinks.trace = Some(trace.clone());
    let report = Simulation::new(cfg).run();
    (format!("{report:?}"), trace.render().remove(0).1)
}

/// One faulted simulation: paper-default spec, dynamic allocation.
fn faulted_pass() -> (String, String) {
    traced_run(scenario::fault_injection(
        &FaultSpec::paper_default(),
        AllocationMode::Dynamic,
        &tiny(),
    ))
}

#[test]
fn faulted_runs_identical_across_jobs_and_repeats() {
    let [(report_serial, trace_serial), (report_parallel, trace_parallel), (report_again, trace_again)] =
        passes([1, 4, 4], faulted_pass);

    if let Some(d) = first_text_divergence(&report_serial, &report_parallel) {
        panic!(
            "faulted SimReport must be bit-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }
    if let Some(d) = trace_diff(&trace_serial, &trace_parallel) {
        panic!(
            "faulted event trace must be byte-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }
    assert_eq!(report_parallel, report_again, "same-seed runs must agree");
    if let Some(d) = trace_diff(&trace_parallel, &trace_again) {
        panic!("same-seed traces must agree: {}", d.message());
    }

    // The trace actually exercises the fault plane: every lifecycle
    // event kind the acceptance criteria name is present, lines parse,
    // and sequence numbers are contiguous.
    assert!(!trace_serial.is_empty(), "trace must contain events");
    let mut kinds: Vec<&str> = Vec::new();
    for (i, line) in trace_serial.lines().enumerate() {
        let value = mmog_obs::json::parse(line).expect("line parses");
        let (seq, _scope, event) =
            mmog_obs::parse_trace_line(&value).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(seq, i as u64, "sequence numbers are contiguous");
        if !kinds.contains(&event.kind()) {
            kinds.push(event.kind());
        }
    }
    for required in ["center_down", "center_up", "lease_revoked", "reprovision"] {
        assert!(
            kinds.contains(&required),
            "trace must contain a `{required}` event; saw kinds {kinds:?}"
        );
    }
}

/// A composed scenario spec that fires every topology-mutation
/// primitive inside a 1-day run: partitions that heal, zone
/// migrations, a flash crowd, link degradations and a region failover.
fn busy_scenario_spec() -> ScenarioSpec {
    ScenarioSpec::parse(
        "partition=3,pmins=120,migrate=8,mcost=2,flash=3,fpeak=2.5,fmins=180,\
         failover=2,link=3,lfactor=4,lmins=90,seed=9",
    )
    .expect("valid spec")
}

/// One scenario simulation of the busy spec, dynamic allocation.
fn scenario_pass() -> (String, String) {
    let cfg = scenario::scenario_injection(&busy_scenario_spec(), AllocationMode::Dynamic, &tiny());
    assert!(cfg.scenario.is_some(), "busy spec must produce a timeline");
    traced_run(cfg)
}

/// Compares `actual` to the committed fixture in `tests/golden/`; set
/// `MMOG_UPDATE_GOLDEN=1` to regenerate after a deliberate
/// output-changing commit.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("MMOG_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}; run once with MMOG_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if let Some(d) = first_text_divergence(&expected, actual) {
        panic!(
            "{name} must stay byte-identical to the committed fixture: {}",
            d.message()
        );
    }
}

#[test]
fn scenario_determinism() {
    let [(report_serial, trace_serial), (report_parallel, trace_parallel), (report_again, trace_again)] =
        passes([1, 4, 4], scenario_pass);

    if let Some(d) = first_text_divergence(&report_serial, &report_parallel) {
        panic!(
            "scenario SimReport must be bit-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }
    if let Some(d) = trace_diff(&trace_serial, &trace_parallel) {
        panic!(
            "scenario event trace must be byte-identical between --jobs 1 and --jobs 4: {}",
            d.message()
        );
    }
    assert_eq!(report_parallel, report_again, "same-seed runs must agree");
    if let Some(d) = trace_diff(&trace_parallel, &trace_again) {
        panic!("same-seed traces must agree: {}", d.message());
    }

    // The run exercised the whole scenario plane: migrations charged a
    // player-visible cost, episodes recovered, and every new event kind
    // landed in the trace with a valid field set.
    assert!(
        !report_serial.contains("migration_player_ticks: 0.0")
            && !report_serial.contains("migrations: 0,"),
        "busy scenario must migrate and charge cost: {report_serial}"
    );
    assert!(
        !report_serial.contains("recovery_ticks: []"),
        "scenario episodes must open and recover: {report_serial}"
    );
    let mut kinds: Vec<&str> = Vec::new();
    for (i, line) in trace_serial.lines().enumerate() {
        let value = mmog_obs::json::parse(line).expect("line parses");
        let (seq, _scope, event) =
            mmog_obs::parse_trace_line(&value).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        assert_eq!(seq, i as u64, "sequence numbers are contiguous");
        if !kinds.contains(&event.kind()) {
            kinds.push(event.kind());
        }
    }
    for required in [
        "partition",
        "heal",
        "migration",
        "flash_crowd",
        "topology_change",
    ] {
        assert!(
            kinds.contains(&required),
            "trace must contain a `{required}` event; saw kinds {kinds:?}"
        );
    }

    // Golden fixture: an explicit partition + heal + migration timeline
    // pins the scenario plane's report to committed bytes.
    let golden_report = Simulation::new(golden_scenario_config()).run();
    check_golden(
        "scenario_partition_migrate_tiny.txt",
        &format!("{golden_report:?}\n"),
    );
}

/// The golden scenario run: last-value prediction on the tiny trace
/// under an explicit partition (tick 100), heal (160) and migration
/// (200).
fn golden_scenario_config() -> SimulationConfig {
    let mut cfg = scenario::prediction_impact(
        mmog_predict::eval::PredictorKind::LastValue,
        AllocationMode::Dynamic,
        &tiny(),
    );
    cfg.train_ticks = 0;
    cfg.scenario = Some(
        ScenarioTimeline::from_events(
            "golden partition+heal+migrate",
            vec![
                ScenarioEvent {
                    tick: 100,
                    kind: ScenarioEventKind::Partition { mask: 0b0011 },
                },
                ScenarioEvent {
                    tick: 160,
                    kind: ScenarioEventKind::Heal,
                },
                ScenarioEvent {
                    tick: 200,
                    kind: ScenarioEventKind::Migrate { pick: 1 },
                },
            ],
        )
        .with_params(ScenarioParams {
            migration_cost_ticks: 2,
        }),
    );
    cfg
}

/// The analyzers' output over one tiny traced run with both effect
/// planes: the golden scenario timeline plus one event of every fault
/// kind. Pins the timeline text, the `TIMELINE_*.json` document and
/// the lease-lifecycle report to committed bytes.
#[test]
fn analyzer_reports_match_golden() {
    let mut cfg = golden_scenario_config();
    let fault = |tick, center, kind| FaultEvent { tick, center, kind };
    cfg.faults = Some(FaultSchedule::from_events(
        "golden one of each fault kind",
        vec![
            fault(110, 8, FaultKind::CenterDown),
            fault(120, 12, FaultKind::CenterDegraded { fraction: 0.5 }),
            fault(130, 11, FaultKind::LeaseRevoked),
            fault(140, 0, FaultKind::PredictorDropout),
            fault(150, 8, FaultKind::CenterUp),
        ],
    ));
    cfg.ticks = Some(240);
    let (_, trace) = traced_run(cfg);
    let runs = analyze_trace(&trace, &Query::default()).expect("trace analyzes cleanly");
    let lifecycle = analyze_lifecycle(&trace).expect("trace replays cleanly");
    let actual = format!(
        "{}\n{}\n{}",
        render_timelines(&runs),
        timelines_value(&runs).render_pretty(),
        render_lifecycle(&lifecycle)
    );
    check_golden("analyzers_tiny.txt", &actual);
}
