//! Bit-exact oracle for everything one run publishes per tick.
//!
//! One tiny faulted scenario run feeds all four sinks at once: the
//! JSONL trace, the `TS_<run>.json` export, the live tap and the flight
//! recorder (with its end-of-run dump configured; the first fault
//! fires the dump). The test folds each
//! artifact into an FNV-1a digest and compares it with a pinned
//! constant:
//!
//! - the run's trace chunk;
//! - the time-series document's `semantic` section;
//! - the final live snapshot's `semantic` section;
//! - the flight dump, with only the `tick_latency` nanosecond values
//!   masked;
//! - the run's `semantic` metrics section.
//!
//! It also pins the call count of every `sim/run*` span and latency
//! histogram. The artifacts' wall-clock halves are left out. A change
//! that reorganises how the engine builds and hands out a tick's
//! outcome keeps every constant; a change that moves one published
//! value, or one recording of a stage, breaks one.

use mmog_datacenter::locations::table3_hp12;
use mmog_faults::{
    FaultEvent, FaultKind, FaultSchedule, ScenarioEvent, ScenarioEventKind, ScenarioTimeline,
};
use mmog_obs::json::Node;
use mmog_obs::{
    Collector, Document, FlightConfig, LiveConfig, LiveSnapshot, Registry, Sinks, Summary,
    TsDocument,
};
use mmog_predict::PredictorKind;
use mmog_sim::{AllocationMode, GameSpec, Simulation, SimulationConfig};
use mmog_util::geo::DistanceClass;
use mmog_workload::runescape::{generate, RuneScapeConfig};
use mmog_world::update::UpdateModel;
use std::path::Path;

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 240 ticks of ten groups on the HP-12 platform, with an outage, a
/// degradation, a predictor dropout and a revocation on the fault
/// plane, and a partition, a link degradation, a flash crowd and a
/// migration on the scenario plane.
fn config(sinks: Sinks) -> SimulationConfig {
    let mut trace = RuneScapeConfig::paper_default(1, 5);
    trace.regions.truncate(2);
    trace.regions[0].groups = 6;
    trace.regions[1].groups = 4;
    trace.outage_prob_per_day = 0.0;
    let fault = |tick, center, kind| FaultEvent { tick, center, kind };
    let faults = FaultSchedule::from_events(
        "oracle",
        vec![
            fault(100, 12, FaultKind::CenterDown),
            fault(130, 0, FaultKind::PredictorDropout),
            fault(150, 6, FaultKind::CenterDegraded { fraction: 0.5 }),
            fault(160, 12, FaultKind::CenterUp),
            fault(170, 6, FaultKind::LeaseRevoked),
        ],
    );
    let event = |tick, kind| ScenarioEvent { tick, kind };
    let scenario = ScenarioTimeline::from_events(
        "oracle",
        vec![
            event(
                60,
                ScenarioEventKind::FlashBegin {
                    pick: 1,
                    factor: 1.8,
                },
            ),
            event(90, ScenarioEventKind::FlashEnd { pick: 1 }),
            event(120, ScenarioEventKind::Partition { mask: 1 << 6 }),
            event(
                140,
                ScenarioEventKind::LinkDegrade {
                    a: 6,
                    b: 12,
                    factor: 3.0,
                },
            ),
            event(180, ScenarioEventKind::Migrate { pick: 7 }),
            event(200, ScenarioEventKind::Heal),
        ],
    );
    SimulationConfig {
        centers: table3_hp12(),
        games: vec![GameSpec {
            name: "game".into(),
            operator_base: 0,
            update_model: UpdateModel::Quadratic,
            tolerance: DistanceClass::VeryFar,
            headroom: 1.0,
            predictor: PredictorKind::LastValue,
            workload: generate(&trace).into(),
            static_peak_players: 2100.0,
            priority: 0,
        }],
        mode: AllocationMode::Dynamic,
        ticks: Some(240),
        warmup_ticks: 30,
        train_ticks: 0,
        master_seed: 5,
        faults: Some(faults),
        scenario: Some(scenario),
        sinks,
    }
}

/// Replaces the four nanosecond values of every `tick_latency` line.
fn mask_latency(dump: &str) -> String {
    let mut out = String::with_capacity(dump.len());
    for line in dump.lines() {
        if line.contains("\"kind\":\"tick_latency\"") {
            let mut rest = line;
            while let Some(at) = rest.find("_ns\":") {
                let (head, tail) = rest.split_at(at + "_ns\":".len());
                out.push_str(head);
                out.push('#');
                rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
            }
            out.push_str(rest);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Every `(path, calls)` of the `sim/run` spans and latency histograms.
type Calls = Vec<(String, u64)>;

struct Outputs {
    trace: String,
    ts_semantic: String,
    live_semantic: String,
    flight: String,
    metrics_semantic: String,
    spans: Calls,
    latency: Calls,
}

fn run_with_every_sink(dir: &Path) -> Outputs {
    let trace = Collector::trace(dir.join("trace.jsonl"));
    let ts = Collector::time_series(dir.join("ts"));
    let mut flight = FlightConfig::new(16);
    flight.dump_dir = dir.to_path_buf();
    flight.dump_at_end = true;
    let mut live = LiveConfig::new(&dir.join("OBS_live.json"));
    live.every_ticks = 16;
    let sinks = Sinks {
        trace: Some(trace.clone()),
        ts: Some(ts.clone()),
        flight: Some(flight),
        live: Some(live.clone()),
    };
    let registry = Registry::new();
    let (report, summary, spans, latency) = registry.scope(|| {
        let report = Simulation::new(config(sinks)).run();
        let run_paths = |path: &str| path.starts_with("sim/run");
        let spans = mmog_obs::snapshot_spans()
            .into_iter()
            .filter(|(path, _)| run_paths(path))
            .map(|(path, s)| (path, s.calls))
            .collect();
        let latency = mmog_obs::snapshot_latency()
            .into_iter()
            .filter(|(path, _)| run_paths(path))
            .map(|(path, s)| (path, s.count))
            .collect();
        (report, mmog_obs::summary_json(), spans, latency)
    });
    assert!(report.leases_revoked > 0, "the outage revoked leases");
    assert_eq!((report.fault_events, report.scenario_events), (5, 6));
    let dump = report.flight_dump.expect("the run dumped its flight ring");
    // The outage fires first, so the end-of-run dump is suppressed.
    assert_eq!((dump.trigger.as_str(), dump.trigger_tick), ("fault", 100));
    let flight = std::fs::read_to_string(&dump.path).expect("flight dump");
    let ts_files = ts.render();
    assert_eq!(ts_files.len(), 1, "one run, one TS document");
    let ts_doc = TsDocument::parse(&ts_files[0].1).expect("TS document parses");
    let live_text = std::fs::read_to_string(&live.path).expect("live snapshot");
    let live_doc = LiveSnapshot::parse(&live_text).expect("live snapshot parses");
    assert!(live_doc.done, "the final snapshot closes the run");
    let summary = Summary::parse(&summary).expect("summary parses");
    Outputs {
        trace: trace.render().remove(0).1,
        ts_semantic: ts_doc.semantic.to_value().render(),
        live_semantic: live_doc.semantic.to_value().render(),
        flight: mask_latency(&flight),
        metrics_semantic: summary.semantic.to_value().render(),
        spans,
        latency,
    }
}

#[test]
fn every_per_tick_output_is_pinned() {
    let dir = std::env::temp_dir().join(format!("mmog-tick-outputs-{}", std::process::id()));
    let out = run_with_every_sink(&dir);
    std::fs::remove_dir_all(&dir).expect("scratch directory");

    let digests = [
        ("trace", fnv(out.trace.as_bytes())),
        ("ts semantic", fnv(out.ts_semantic.as_bytes())),
        ("live semantic", fnv(out.live_semantic.as_bytes())),
        ("flight dump", fnv(out.flight.as_bytes())),
        ("metrics semantic", fnv(out.metrics_semantic.as_bytes())),
    ];
    let pinned = [
        ("trace", 0x2a3d_05b4_8dd3_009a),
        ("ts semantic", 0x3636_1304_1611_73f5),
        ("live semantic", 0x6188_16c1_0f9f_c5e5),
        ("flight dump", 0x2a58_e0ea_93d1_0d4a),
        ("metrics semantic", 0xf2dd_ba8d_ce24_3071),
    ];
    assert_eq!(digests, pinned);

    let calls = |pairs: &[(&str, u64)]| -> Calls {
        pairs.iter().map(|&(p, n)| (p.to_string(), n)).collect()
    };
    assert_eq!(
        out.spans,
        calls(&[
            ("sim/run", 1),
            ("sim/run/match_settle", 240),
            ("sim/run/predict_score", 240),
            ("sim/run/reduce", 240),
        ])
    );
    assert_eq!(
        out.latency,
        calls(&[
            ("sim/run/match_settle", 240),
            ("sim/run/match_skip", 119),
            ("sim/run/predict_score", 240),
            ("sim/run/reduce", 240),
            ("sim/run/tick", 240),
        ])
    );
}
