//! Command-line contracts: `trace_analyze --kind` accepts exactly the
//! kinds of the event schema, `latency_report` fails on an artifact
//! without latency, and the live snapshot, its `mmog_top --once` frame
//! and the time-series document stay byte-identical to their golden
//! fixtures.

use mmog_obs::{
    Document, Event, LiveCenter, LiveSemantic, LiveSnapshot, LiveTiming, StageP99, Summary,
    TsDocument,
};
use std::path::Path;
use std::process::Command;

const TRACE: &str = concat!(
    r#"{"seq":0,"scope":"a","kind":"run_start","mode":"dynamic","groups":1,"centers":1,"ticks":2,"warmup":0}"#,
    "\n",
    r#"{"seq":1,"scope":"a","kind":"tick","tick":0,"demand_cpu":1,"alloc_cpu":2,"shortfall_cpu":0}"#,
    "\n",
);

fn trace_analyze(kind: &str, dir: &std::path::Path) -> std::process::Output {
    std::fs::create_dir_all(dir).unwrap();
    let trace = dir.join("trace.jsonl");
    std::fs::write(&trace, TRACE).unwrap();
    Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
        .arg(&trace)
        .args(["--out", dir.to_str().unwrap(), "--kind", kind])
        .output()
        .expect("trace_analyze runs")
}

#[test]
fn misspelt_kind_is_rejected_with_the_known_kinds() {
    let dir = std::env::temp_dir().join(format!("trace_analyze_cli_bad_{}", std::process::id()));
    let out = trace_analyze("lease_relase", &dir);
    assert!(!out.status.success(), "a misspelt kind must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("lease_relase"), "{stderr}");
    for kind in Event::KINDS {
        assert!(
            stderr.contains(kind),
            "known kind {kind} not listed: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn known_kind_filters_the_trace() {
    let dir = std::env::temp_dir().join(format!("trace_analyze_cli_ok_{}", std::process::id()));
    let out = trace_analyze("tick", &dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("TIMELINE_trace.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

fn latency_report(summary: &str, name: &str) -> std::process::Output {
    let path =
        std::env::temp_dir().join(format!("latency_report_{name}_{}.json", std::process::id()));
    std::fs::write(&path, summary).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_latency_report"))
        .arg(&path)
        .output()
        .expect("latency_report runs");
    let _ = std::fs::remove_file(&path);
    out
}

#[test]
fn latency_report_fails_without_latency_and_renders_with_it() {
    let bare = Summary::default();
    let out = latency_report(&bare.to_json(), "bare");
    assert!(
        !out.status.success(),
        "an artifact without latency must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no latency sections"), "{stderr}");

    let h = mmog_obs::LatencyHisto::new();
    h.record(1_500);
    let with = Summary {
        latency: [("sim/run/tick".to_string(), h.snapshot())].into(),
        ..Summary::default()
    }
    .to_json();
    let out = latency_report(&with, "with");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("sim/run/tick"));

    // A schema-less document is rejected, exactly as `obs_check`
    // rejects it.
    let schemaless = with.replace("\"schema\"", "\"format\"");
    let out = latency_report(&schemaless, "schemaless");
    assert!(!out.status.success(), "a schema-less artifact must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("missing schema"), "{stderr}");
}

/// Compares `actual` to the committed fixture in `tests/golden/`. Set
/// `MMOG_UPDATE_GOLDEN=1` to regenerate after a deliberate
/// output-changing commit.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("MMOG_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}; run once with MMOG_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(actual, expected, "{name} must stay byte-identical");
}

/// A fixed mid-run snapshot: one center down, every stage p99 set.
fn golden_snapshot() -> LiveSnapshot {
    let center = |name: &str, alloc_cpu, capacity_cpu| LiveCenter {
        name: name.to_string(),
        alloc_cpu,
        capacity_cpu,
    };
    LiveSnapshot {
        run: "golden mode=Dynamic seed=7".to_string(),
        tick: 40,
        ticks_total: 96,
        done: false,
        semantic: LiveSemantic {
            demand_cpu: 12.5,
            alloc_cpu: 14.25,
            shortfall_cpu: 0.75,
            match_skip_rate: 0.375,
            leases_held: 9,
            fault_events: 2,
            scenario_events: 1,
            centers_down: 1,
            centers: vec![
                center("us-east", 8.0, 16.0),
                center("eu-west", 6.25, 0.0),
                center("Australia (1)", 0.1, 3.3),
            ],
        },
        timing: LiveTiming {
            tick_rate: 1234.5,
            stage_p99_us: StageP99 {
                predict_score: 32.75,
                reduce: 8.2,
                match_settle: 49.125,
                tick: 98.3,
            },
        },
    }
}

#[test]
fn live_snapshot_and_its_dashboard_frame_match_the_goldens() {
    let dir = std::env::temp_dir().join(format!("mmog_top_golden_{}", std::process::id()));
    let path = dir.join("OBS_live.json");
    mmog_obs::write_live(&path, &golden_snapshot()).expect("publish");
    let written = std::fs::read_to_string(&path).expect("published");
    check_golden("live_snapshot.json", &written);
    assert_eq!(LiveSnapshot::parse(&written), Ok(golden_snapshot()));

    let out = Command::new(env!("CARGO_BIN_EXE_mmog_top"))
        .arg(&path)
        .arg("--once")
        .output()
        .expect("mmog_top runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    check_golden("mmog_top_once.txt", &String::from_utf8_lossy(&out.stdout));
}

#[test]
fn time_series_document_matches_the_golden() {
    // The engine's eight series in the engine's order, over enough
    // ticks that the capacity-8 rings halve twice and end with a
    // pending partial bucket.
    let mut ts = TsDocument::recorder("golden mode=Dynamic seed=7", 21, 8);
    for t in 0..21u32 {
        let x = f64::from(t);
        let (semantic, timing) = (&mut ts.semantic, &mut ts.timing);
        semantic.demand_cpu.push(10.0 + x * 0.5);
        semantic.alloc_cpu.push(12.0 + x * 0.25);
        semantic
            .shortfall_cpu
            .push(if t % 7 == 3 { 1.5 } else { 0.0 });
        semantic.match_skip_rate.push(f64::from(t % 4) / 4.0);
        timing.predict_ns.push(1000.0 + x * 10.0);
        timing.reduce_ns.push(300.0 + x);
        timing
            .settle_ns
            .push(if t % 2 == 0 { 0.0 } else { 2000.0 + x });
        timing.tick_ns.push(4000.0 + x * 3.0);
    }
    let doc = ts.export().to_json();
    assert_eq!(TsDocument::parse(&doc), Ok(ts.export()));
    check_golden("ts_document.json", &doc);
}
