//! Validates observability artifacts: an `OBS_summary.json` against the
//! `mmog-obs/v1` schema, and optionally a JSONL event trace for
//! well-formedness, contiguous sequence numbers, and — per event — the
//! exact field set its `mmog_obs::Event` variant declares (names,
//! order, and types). Every line must also re-render from its parsed
//! event byte for byte, so no float or string can drift in the writer
//! unnoticed.
//!
//! Usage: `obs_check <OBS_summary.json> [trace.jsonl]`
//!        `obs_check --scale <BENCH_scale.json>`
//!        `obs_check --flight <FLIGHT_run.jsonl>`
//!        `obs_check --ts <TS_run.json | OBS_live.json>...`
//!
//! Trace validation also replays the causal lease-lifecycle chain
//! (`mmog_obs_analyze::lifecycle`): every grant must name a request,
//! lease keys must never be reused, and every granted lease must reach
//! exactly one terminal release/revocation — orphans fail the check.
//! The kind-coverage count is reported against `Event::KINDS.len()`,
//! so it tracks schema growth automatically.
//!
//! `--scale` validates a `scale_bench` document instead: the
//! `mmog-scale-bench/v1` or `/v2` schema tag, the gate-compatible
//! timing shape (`jobs`, `logical_cpus`, `stages[{path, total_ms}]`,
//! `wall_seconds`), the per-stage throughput fields, the v2 per-stage
//! `latency` sections (well-formed snapshots with monotone
//! percentiles), and the deterministic `semantic` section. Unknown
//! schema versions are rejected outright.
//!
//! `--flight` validates a flight-recorder dump: a `flight_meta` first
//! line, the standard trace envelope, per-kind field sets and byte-exact
//! re-rendering on every record, ticks monotone within the window the meta line declares,
//! and no more distinct ticks than `retain_ticks` — the recorder's
//! bounded-window guarantee, checked from the artifact alone.
//!
//! Exits non-zero with a diagnostic on the first violation — the CI
//! observability smoke job runs this against a quick-scale
//! `all_experiments` run, and the scale smoke job against
//! `scale_bench --quick` output.

use mmog_obs::json::Value;
use mmog_obs::Event;
use std::process::ExitCode;

fn check_summary(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    mmog_obs::validate_summary(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("OK summary {path}");
    Ok(())
}

/// Checks one line of a trace or flight dump: envelope, the kind's
/// exact field set, and a byte-exact re-render of the event body.
/// Returns the line's sequence number and the parsed value, which
/// `Event::parse` is known to accept.
fn check_line(line: &str) -> Result<(u64, Value), String> {
    let (seq, _scope, _kind, value) = mmog_obs::parse_trace_line(line)?;
    // Unknown kinds and field-set violations (missing/extra fields,
    // order skew, wrong types) fail here.
    let event = Event::parse(&value)?;
    let mut body = String::from(",");
    event.write(&mut body);
    body.push('}');
    if !line.ends_with(&body) {
        return Err(format!(
            "`{}` does not re-render byte for byte: {body:?}",
            event.kind()
        ));
    }
    Ok((seq, value))
}

fn check_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut count = 0u64;
    let mut seen = [false; Event::KINDS.len()];
    for (i, line) in text.lines().enumerate() {
        let (seq, value) = check_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if seq != i as u64 {
            return Err(format!(
                "{path}:{}: sequence number {seq}, expected {i}",
                i + 1
            ));
        }
        let kind = Event::parse(&value)?.kind();
        seen[Event::KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("parsed kinds are known")] = true;
        count += 1;
    }
    let kinds_seen = seen.iter().filter(|s| **s).count();
    if count == 0 {
        return Err(format!("{path}: trace is empty"));
    }
    // Causality invariants: reconstruct every lease's lifecycle and
    // fail on orphans, reused keys, or grants without requests.
    let report = mmog_obs_analyze::analyze_lifecycle(&text).map_err(|e| format!("{path}: {e}"))?;
    mmog_obs_analyze::check_lifecycle(&report).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "OK trace {path} ({count} events, {kinds_seen}/{} kinds, all field sets valid, \
         {} leases reconstructed)",
        Event::KINDS.len(),
        report.total_leases()
    );
    Ok(())
}

/// Validates a time-series (`TS_<run>.json`) or live-snapshot
/// (`OBS_live.json`) document, dispatching on the embedded schema tag.
fn check_ts(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = mmog_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(Value::as_str) {
        Some(mmog_obs::TS_SCHEMA) => {
            mmog_obs::validate_ts(&doc).map_err(|e| format!("{path}: {e}"))?;
            println!("OK time series {path}");
        }
        Some(mmog_obs::LIVE_SCHEMA) => {
            mmog_obs::validate_live(&doc).map_err(|e| format!("{path}: {e}"))?;
            println!("OK live snapshot {path}");
        }
        Some(other) => return Err(format!("{path}: unknown schema {other:?}")),
        None => return Err(format!("{path}: missing schema field")),
    }
    Ok(())
}

/// Validates a `BENCH_scale.json` document (the testable core is
/// [`check_scale_text`]; this wrapper adds file I/O).
fn check_scale(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    check_scale_text(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("OK scale bench {path}");
    Ok(())
}

fn check_scale_text(text: &str) -> Result<(), String> {
    let doc = mmog_obs::json::parse(text)?;
    // v1: pre-latency documents, still accepted (committed baselines
    // age slowly). v2: per-stage latency sections become mandatory.
    let latency_required = match doc.get("schema").and_then(Value::as_str) {
        Some("mmog-scale-bench/v1") => false,
        Some("mmog-scale-bench/v2") => true,
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("missing schema field".into()),
    };
    for field in ["jobs", "logical_cpus", "ticks", "seed"] {
        doc.get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing or non-integer {field}"))?;
    }
    doc.get("wall_seconds")
        .and_then(Value::as_f64)
        .ok_or("missing or non-numeric wall_seconds")?;
    let stages = doc
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or("missing stages array")?;
    if stages.is_empty() {
        return Err("stages array is empty".into());
    }
    for (i, s) in stages.iter().enumerate() {
        let path = s
            .get("path")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("stages[{i}]: missing path"))?;
        if !path.starts_with("scale/") {
            return Err(format!("stages[{i}]: path {path:?} must start with scale/"));
        }
        for field in ["total_ms", "players_per_sec", "ticks_per_sec"] {
            s.get(field)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stages[{i}]: missing or non-numeric {field}"))?;
        }
        for field in ["players", "worlds", "groups"] {
            s.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("stages[{i}]: missing or non-integer {field}"))?;
        }
        // peak_rss_kb is platform-dependent: integer or null, but
        // must be present.
        let rss = s
            .get("peak_rss_kb")
            .ok_or_else(|| format!("stages[{i}]: missing peak_rss_kb"))?;
        if rss.as_u64().is_none() && !matches!(rss, Value::Null) {
            return Err(format!("stages[{i}]: peak_rss_kb must be integer or null"));
        }
        // Match-skip telemetry: optional (absent from pre-memo
        // documents), but when present must be coherent.
        for field in ["match_skips", "match_full"] {
            if let Some(v) = s.get(field) {
                v.as_u64()
                    .ok_or_else(|| format!("stages[{i}]: {field} must be an integer"))?;
            }
        }
        if let Some(rate) = s.get("match_skip_rate") {
            let rate = rate
                .as_f64()
                .ok_or_else(|| format!("stages[{i}]: match_skip_rate must be numeric"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "stages[{i}]: match_skip_rate {rate} outside [0, 1]"
                ));
            }
        }
        match s.get("latency") {
            Some(latency) => check_stage_latency(latency, i)?,
            None if latency_required => {
                return Err(format!(
                    "stages[{i}]: v2 documents require a latency section"
                ))
            }
            None => {}
        }
    }
    let points = doc
        .get("semantic")
        .and_then(|s| s.get("points"))
        .and_then(Value::as_arr)
        .ok_or("missing semantic.points array")?;
    if points.len() != stages.len() {
        return Err(format!(
            "semantic.points has {} entries but stages has {}",
            points.len(),
            stages.len()
        ));
    }
    for (i, p) in points.iter().enumerate() {
        let worlds = p
            .get("worlds")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("semantic.points[{i}]: missing worlds array"))?;
        if worlds.is_empty() {
            return Err(format!("semantic.points[{i}]: worlds array is empty"));
        }
    }
    Ok(())
}

/// Validates one stage's `latency` object: every entry must parse as a
/// `LatencySnapshot` (which re-checks that bucket counts sum to the
/// recorded count) and report monotone percentiles.
fn check_stage_latency(latency: &Value, stage: usize) -> Result<(), String> {
    let entries = latency
        .as_obj()
        .ok_or_else(|| format!("stages[{stage}]: latency must be an object"))?;
    if entries.is_empty() {
        return Err(format!("stages[{stage}]: latency object is empty"));
    }
    for (path, value) in entries {
        let snap = mmog_obs::LatencySnapshot::from_value(value)
            .map_err(|e| format!("stages[{stage}]: latency {path}: {e}"))?;
        if snap.count == 0 {
            return Err(format!("stages[{stage}]: latency {path}: empty snapshot"));
        }
        let quantiles: Vec<u64> = [0.5, 0.9, 0.99, 0.999]
            .iter()
            .filter_map(|&p| snap.quantile(p))
            .collect();
        if quantiles.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!(
                "stages[{stage}]: latency {path}: percentiles not monotone: {quantiles:?}"
            ));
        }
    }
    Ok(())
}

/// Validates a `FLIGHT_<run>.jsonl` dump (the testable core is
/// [`check_flight_text`]; this wrapper adds file I/O).
fn check_flight(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (records, ticks) = check_flight_text(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("OK flight {path} ({records} records over {ticks} ticks, window bounded)");
    Ok(())
}

fn check_flight_text(text: &str) -> Result<(u64, u64), String> {
    let mut lines = text.lines().enumerate();
    let (_, meta_line) = lines.next().ok_or("dump is empty")?;
    let (seq, meta) = check_line(meta_line).map_err(|e| format!("line 1: {e}"))?;
    let Some(Event::FlightMeta {
        trigger,
        retain_ticks,
        tick_from,
        tick_to,
        records: declared_records,
        ..
    }) = Event::parse(&meta).ok().filter(|_| seq == 0)
    else {
        return Err(format!(
            "line 1: expected flight_meta at seq 0, found {:?} at seq {seq}",
            meta.get("kind").and_then(Value::as_str).unwrap_or_default()
        ));
    };
    if !matches!(
        trigger,
        "fault" | "partition" | "migration" | "deadline_overrun" | "gate_breach" | "explicit"
    ) {
        return Err(format!("line 1: unknown trigger {trigger:?}"));
    }
    if tick_from > tick_to {
        return Err(format!(
            "line 1: window [{tick_from}, {tick_to}] is inverted"
        ));
    }
    let mut records = 0u64;
    let mut distinct_ticks = 0u64;
    let mut last_tick: Option<u64> = None;
    for (i, line) in lines {
        let n = i + 1;
        let (seq, value) = check_line(line).map_err(|e| format!("line {n}: {e}"))?;
        if seq != i as u64 {
            return Err(format!("line {n}: sequence number {seq}, expected {i}"));
        }
        let tick = Event::parse(&value)?
            .tick()
            .ok_or_else(|| format!("line {n}: record without a tick"))?;
        if !(tick_from..=tick_to).contains(&tick) {
            return Err(format!(
                "line {n}: tick {tick} outside the declared window [{tick_from}, {tick_to}]"
            ));
        }
        if last_tick.is_some_and(|last| tick < last) {
            return Err(format!("line {n}: tick {tick} is not monotone"));
        }
        if last_tick != Some(tick) {
            distinct_ticks += 1;
            last_tick = Some(tick);
        }
        records += 1;
    }
    if records != declared_records {
        return Err(format!(
            "flight_meta declares {declared_records} records, dump has {records}"
        ));
    }
    // The recorder's contract: the retained window never exceeds the
    // configured tick span, no matter how long the run was.
    if distinct_ticks > retain_ticks {
        return Err(format!(
            "{distinct_ticks} distinct ticks exceed retain_ticks {retain_ticks}"
        ));
    }
    Ok((records, distinct_ticks))
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(first) = args.next() else {
        eprintln!(
            "usage: obs_check <OBS_summary.json> [trace.jsonl] | obs_check --scale \
             <BENCH_scale.json> | obs_check --flight <FLIGHT_run.jsonl> | obs_check --ts \
             <TS_run.json | OBS_live.json>..."
        );
        return ExitCode::FAILURE;
    };
    let result = if first == "--scale" {
        match args.next() {
            Some(path) => check_scale(&path),
            None => Err("--scale needs a path".into()),
        }
    } else if first == "--ts" {
        let paths: Vec<String> = args.collect();
        if paths.is_empty() {
            Err("--ts needs at least one path".into())
        } else {
            paths.iter().try_for_each(|p| check_ts(p))
        }
    } else if first == "--flight" {
        match args.next() {
            Some(path) => check_flight(&path),
            None => Err("--flight needs a path".into()),
        }
    } else {
        check_summary(&first).and_then(|()| match args.next() {
            Some(trace) => check_trace(&trace),
            None => Ok(()),
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("INVALID: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmog_obs::{FlightConfig, FlightRecorder, FlightTrigger};

    fn snapshot_json(values: &[u64]) -> String {
        let h = mmog_obs::LatencyHisto::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot().to_value().render()
    }

    fn scale_doc(schema: &str, latency: Option<&str>) -> String {
        let latency = latency.map_or(String::new(), |l| format!(r#", "latency": {l}"#));
        format!(
            r#"{{"schema":"{schema}","jobs":1,"logical_cpus":1,"ticks":30,"seed":7,
  "stages":[{{"path":"scale/10k","players":10000,"worlds":1,"groups":5,"total_ms":5.0,
    "players_per_sec":1.0,"ticks_per_sec":1.0,"peak_rss_kb":null{latency}}}],
  "semantic":{{"points":[{{"label":"10k","players":10000,"worlds":[{{"world":0}}]}}]}},
  "wall_seconds":0.005}}"#
        )
    }

    #[test]
    fn scale_schema_versions() {
        let snap = snapshot_json(&[1_000, 2_000, 3_000]);
        let latency = format!(r#"{{"sim/run/tick":{snap}}}"#);
        // v2 with a well-formed latency section passes.
        check_scale_text(&scale_doc("mmog-scale-bench/v2", Some(&latency))).unwrap();
        // v2 without latency fails; v1 without it passes.
        let err = check_scale_text(&scale_doc("mmog-scale-bench/v2", None)).unwrap_err();
        assert!(err.contains("latency"), "{err}");
        check_scale_text(&scale_doc("mmog-scale-bench/v1", None)).unwrap();
        // Unknown schema versions are rejected with a clear message.
        let err = check_scale_text(&scale_doc("mmog-scale-bench/v3", None)).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
        // A latency section whose bucket counts disagree with `count`
        // is malformed.
        let lying = latency.replace(r#""count":3"#, r#""count":4"#);
        assert!(check_scale_text(&scale_doc("mmog-scale-bench/v2", Some(&lying))).is_err());
    }

    fn dump_text(retain: u64, push_ticks: std::ops::Range<u64>) -> String {
        let dir = std::env::temp_dir().join(format!("obs_check_flight_{retain}"));
        let mut cfg = FlightConfig::new(retain);
        cfg.dump_dir.clone_from(&dir);
        let mut rec = FlightRecorder::new(cfg);
        for t in push_ticks {
            rec.begin_tick(t);
            rec.push(Event::Tick {
                tick: t,
                demand_cpu: 1.0,
                alloc_cpu: 2.0,
                shortfall_cpu: 0.0,
            });
            rec.push(Event::TickLatency {
                tick: t,
                predict_ns: 10,
                reduce_ns: 5,
                settle_ns: 0,
                tick_ns: 20,
            });
        }
        let path = rec
            .trigger(FlightTrigger::Explicit, 99, "check-test")
            .unwrap()
            .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text
    }

    #[test]
    fn flight_dump_round_trips_and_tampering_fails() {
        let text = dump_text(8, 0..100);
        let (records, ticks) = check_flight_text(&text).unwrap();
        assert_eq!(ticks, 8, "eviction keeps exactly retain_ticks ticks");
        assert_eq!(records, 16);

        // A record tick outside the declared window fails.
        let outside = text.replace(r#""tick":99,"#, r#""tick":3,"#);
        let err = check_flight_text(&outside).unwrap_err();
        assert!(err.contains("monotone") || err.contains("outside"), "{err}");

        // A lying record count fails.
        let lying = text.replace(r#""records":16"#, r#""records":7"#);
        assert!(check_flight_text(&lying).unwrap_err().contains("records"));

        // More distinct ticks than retain_ticks fails.
        let narrow = text.replace(r#""retain_ticks":8"#, r#""retain_ticks":4"#);
        let err = check_flight_text(&narrow).unwrap_err();
        assert!(err.contains("retain_ticks"), "{err}");

        // The meta line must come first.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.rotate_left(1);
        assert!(check_flight_text(&lines.join("\n")).is_err());
        assert!(check_flight_text("").is_err());
    }

    #[test]
    fn flight_triggers_whitelist_scenario_kinds() {
        let text = dump_text(4, 0..10);
        assert!(text.contains(r#""trigger":"explicit""#), "fixture shape");
        // Every trigger the engine can fire validates, including the
        // scenario plane's partition and migration dumps.
        for trigger in [
            "fault",
            "partition",
            "migration",
            "deadline_overrun",
            "gate_breach",
        ] {
            let swapped = text.replace(
                r#""trigger":"explicit""#,
                &format!(r#""trigger":"{trigger}""#),
            );
            check_flight_text(&swapped).unwrap_or_else(|e| panic!("trigger {trigger}: {e}"));
        }
        // Unknown triggers still fail loudly.
        let bogus = text.replace(r#""trigger":"explicit""#, r#""trigger":"gremlin""#);
        let err = check_flight_text(&bogus).unwrap_err();
        assert!(err.contains("unknown trigger"), "{err}");
    }
}
