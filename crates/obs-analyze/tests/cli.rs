//! Command-line contract of `trace_analyze`: `--kind` accepts exactly
//! the kinds of the event schema.

use mmog_obs::Event;
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
