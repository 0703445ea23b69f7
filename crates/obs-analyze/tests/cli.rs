//! Command-line contracts: `trace_analyze --kind` accepts exactly the
//! kinds of the event schema, and `latency_report` fails on an artifact
//! without latency.

use mmog_obs::{Event, Summary};
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
