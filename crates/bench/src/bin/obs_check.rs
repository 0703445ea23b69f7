//! Validates observability artifacts: an `OBS_summary.json` through
//! `mmog_obs::Summary::parse` (typed members, consistent histograms, and
//! the writer's exact bytes), and optionally a JSONL event trace for
//! well-formedness, contiguous sequence numbers, and — per event — the
//! exact field set its `mmog_obs::Event` variant declares (names,
//! order, and types). Every line must also re-render from its parsed
//! event byte for byte, so no float or string can drift in the writer
//! unnoticed.
//!
//! Usage: `obs_check <OBS_summary.json> [trace.jsonl]`
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
//! `--flight` validates a flight-recorder dump: a `flight_meta` first
//! line, the standard trace envelope, per-kind field sets and byte-exact
//! re-rendering on every record, ticks monotone within the window the meta line declares,
//! and no more distinct ticks than `retain_ticks` — the recorder's
//! bounded-window guarantee, checked from the artifact alone.
//!
//! Exits non-zero with a diagnostic on the first violation — CI runs
//! this against the summary and trace of a one-day and of the quick
//! `all_experiments` run, and against the summary and flight dumps of
//! `scale_bench --quick --metrics`.

use mmog_obs::json::{self, Value};
use mmog_obs::{Document, Event, FlightTrigger, LiveSnapshot, Summary, TsDocument};
use std::process::ExitCode;

fn check_summary(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Summary::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("OK summary {path}");
    Ok(())
}

/// Checks one parsed line of a trace or flight dump: envelope, the
/// kind's exact field set, and a byte-exact re-render of the event
/// body. Returns the line's sequence number and event.
fn check_line<'v>(line: &str, value: &'v Value) -> Result<(u64, Event<'v>), String> {
    // Unknown kinds and field-set violations (missing/extra fields,
    // order skew, wrong types) fail here.
    let (seq, _scope, event) = mmog_obs::parse_trace_line(value)?;
    let mut body = String::from(",");
    event.write(&mut body);
    body.push('}');
    if !line.ends_with(&body) {
        return Err(format!(
            "`{}` does not re-render byte for byte: {body:?}",
            event.kind()
        ));
    }
    Ok((seq, event))
}

fn check_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut count = 0u64;
    let mut seen = [false; Event::KINDS.len()];
    for (i, line) in text.lines().enumerate() {
        let value = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let (seq, event) =
            check_line(line, &value).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if seq != i as u64 {
            return Err(format!(
                "{path}:{}: sequence number {seq}, expected {i}",
                i + 1
            ));
        }
        seen[Event::KINDS
            .iter()
            .position(|k| *k == event.kind())
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

/// Parses a time-series (`TS_<run>.json`) or live-snapshot
/// (`OBS_live.json`) document through its type, chosen by the
/// embedded schema tag.
fn check_ts(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let what = match json::schema(&doc) {
        Some(mmog_obs::TS_SCHEMA) => TsDocument::parse(&text).map(|_| "time series"),
        Some(mmog_obs::LIVE_SCHEMA) => LiveSnapshot::parse(&text).map(|_| "live snapshot"),
        Some(other) => Err(format!("unknown schema {other:?}")),
        None => Err("missing schema field".to_string()),
    };
    println!("OK {} {path}", what.map_err(|e| format!("{path}: {e}"))?);
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
    let meta = json::parse(meta_line).map_err(|e| format!("line 1: {e}"))?;
    let (seq, meta) = check_line(meta_line, &meta).map_err(|e| format!("line 1: {e}"))?;
    let (
        Event::FlightMeta {
            trigger,
            retain_ticks,
            tick_from,
            tick_to,
            records: declared_records,
            ..
        },
        0,
    ) = (meta, seq)
    else {
        return Err(format!(
            "line 1: expected flight_meta at seq 0, found {:?} at seq {seq}",
            meta.kind()
        ));
    };
    if !FlightTrigger::ALL.iter().any(|t| t.label() == trigger) {
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
        let value = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let (seq, event) = check_line(line, &value).map_err(|e| format!("line {n}: {e}"))?;
        if seq != i as u64 {
            return Err(format!("line {n}: sequence number {seq}, expected {i}"));
        }
        let tick = event
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
            "usage: obs_check <OBS_summary.json> [trace.jsonl] | obs_check --flight \
             <FLIGHT_run.jsonl> | obs_check --ts <TS_run.json | OBS_live.json>..."
        );
        return ExitCode::FAILURE;
    };
    let result = if first == "--ts" {
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
    use mmog_obs::{FlightConfig, FlightRecorder, TickRecord};

    fn dump_text(retain: u64, push_ticks: std::ops::Range<u64>) -> String {
        let dir = std::env::temp_dir().join(format!("obs_check_flight_{retain}"));
        let mut cfg = FlightConfig::new(retain);
        cfg.dump_dir.clone_from(&dir);
        let mut rec = FlightRecorder::new(cfg);
        for t in push_ticks {
            let record = TickRecord {
                tick: t,
                demand_cpu: 1.0,
                alloc_cpu: 2.0,
                predict_ns: 10,
                reduce_ns: 5,
                tick_ns: 20,
                ..TickRecord::default()
            };
            rec.begin_tick(t);
            rec.push(record.tick_event());
            rec.push(record.latency_event());
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

        // An inverted window fails.
        let inverted = text.replace(
            r#""tick_from":92,"tick_to":99"#,
            r#""tick_from":99,"tick_to":92"#,
        );
        assert_ne!(inverted, text, "fixture shape");
        assert!(check_flight_text(&inverted)
            .unwrap_err()
            .contains("inverted"));

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
        // The whitelist is `FlightTrigger::ALL`; pin it independently so
        // a trigger dropped from `ALL` fails here.
        assert_eq!(
            FlightTrigger::ALL.map(FlightTrigger::label),
            [
                "fault",
                "partition",
                "migration",
                "deadline_overrun",
                "gate_breach",
                "explicit"
            ]
        );
        // Every trigger the engine can fire validates, including the
        // scenario plane's partition and migration dumps.
        for trigger in FlightTrigger::ALL.map(FlightTrigger::label) {
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
