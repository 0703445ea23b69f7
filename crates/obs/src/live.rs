//! The live telemetry tap: a compact `OBS_live.json` snapshot the
//! engine atomically rewrites every N ticks so an operator (or the
//! `mmog_top` dashboard) can watch a long run while it executes.
//!
//! Like the trace and flight paths, the tap is configured per run (the
//! `live` field of the run's [`Sinks`](crate::Sinks)) and disabled by
//! default — with no [`LiveConfig`], runs are byte-for-byte unaffected.
//! When enabled, the engine builds a [`LiveSnapshot`] inside its serial
//! sections (so the semantic half is byte-identical across `--jobs`
//! values at any given tick) and [`write_live`] publishes it with a
//! write-to-temp + rename, so a concurrent reader never observes a torn
//! file, even when several runs of one process publish to the same
//! path.
//!
//! The document (schema [`LIVE_SCHEMA`]) keeps the crate's
//! semantic/timing split: allocation state, shortfall and per-center
//! utilization are semantic; tick rate, stage p99s and the memo skip
//! rate are execution-dependent and live in the `timing` section that
//! determinism comparisons drop (the skip rate stays there with the
//! `sim.match.skips` counter until the skip accounting moves to the
//! semantic domain).

use crate::json::Value;
use std::path::{Path, PathBuf};

/// Schema identifier stamped into every live snapshot.
pub const LIVE_SCHEMA: &str = "mmog-obs-live/v1";

/// Live tap configuration, carried per run in
/// [`Sinks::live`](crate::Sinks::live).
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Snapshot path (conventionally `results/OBS_live.json`).
    pub path: PathBuf,
    /// Rewrite interval in ticks (clamped to ≥ 1 on use).
    pub every_ticks: u64,
}

impl LiveConfig {
    /// A config rewriting `path` every 64 ticks.
    #[must_use]
    pub fn new(path: &Path) -> Self {
        Self {
            path: path.to_path_buf(),
            every_ticks: 64,
        }
    }

    /// The rewrite interval, never zero.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.every_ticks.max(1)
    }
}

/// Per-center utilization line of a snapshot.
#[derive(Debug, Clone)]
pub struct LiveCenter {
    /// Center name.
    pub name: String,
    /// CPU currently allocated to leases.
    pub alloc_cpu: f64,
    /// Nominal CPU capacity (0 while the center is down).
    pub capacity_cpu: f64,
}

/// One snapshot of a running simulation. Semantic fields must be
/// derived from engine state inside a serial section; timing fields are
/// wall-clock and excluded from determinism comparison.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// Run label (same label the trace chunk uses).
    pub run: String,
    /// Current tick.
    pub tick: u64,
    /// Total ticks the run will execute.
    pub ticks_total: u64,
    /// Whether this is the final snapshot of the run.
    pub done: bool,
    /// Platform-wide CPU demand this tick.
    pub demand_cpu: f64,
    /// Platform-wide CPU allocation this tick.
    pub alloc_cpu: f64,
    /// Unmet CPU demand this tick.
    pub shortfall_cpu: f64,
    /// Fraction of groups whose match was memo-skipped this tick
    /// (timing, like the `sim.match.skips` counter).
    pub match_skip_rate: f64,
    /// Leases currently held across all groups.
    pub leases_held: u64,
    /// Fault-plane events applied so far.
    pub fault_events: u64,
    /// Scenario events applied so far.
    pub scenario_events: u64,
    /// Centers currently down.
    pub centers_down: u64,
    /// Per-center utilization.
    pub centers: Vec<LiveCenter>,
    /// Ticks per wall-clock second since run start (timing).
    pub tick_rate: f64,
    /// Per-stage p99 latency in microseconds (timing), in stable
    /// path order.
    pub stage_p99_us: Vec<(String, f64)>,
}

impl LiveSnapshot {
    /// Renders the snapshot document.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let centers = self
            .centers
            .iter()
            .map(|c| {
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(c.name.clone())),
                    ("alloc_cpu".to_string(), Value::Num(c.alloc_cpu)),
                    ("capacity_cpu".to_string(), Value::Num(c.capacity_cpu)),
                ])
            })
            .collect();
        let semantic = Value::Obj(vec![
            ("demand_cpu".to_string(), Value::Num(self.demand_cpu)),
            ("alloc_cpu".to_string(), Value::Num(self.alloc_cpu)),
            ("shortfall_cpu".to_string(), Value::Num(self.shortfall_cpu)),
            ("leases_held".to_string(), Value::UInt(self.leases_held)),
            ("fault_events".to_string(), Value::UInt(self.fault_events)),
            (
                "scenario_events".to_string(),
                Value::UInt(self.scenario_events),
            ),
            ("centers_down".to_string(), Value::UInt(self.centers_down)),
            ("centers".to_string(), Value::Arr(centers)),
        ]);
        let timing = Value::Obj(vec![
            ("tick_rate".to_string(), Value::Num(self.tick_rate)),
            (
                "match_skip_rate".to_string(),
                Value::Num(self.match_skip_rate),
            ),
            (
                "stage_p99_us".to_string(),
                Value::Obj(
                    self.stage_p99_us
                        .iter()
                        .map(|(p, v)| (p.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
        ]);
        Value::Obj(vec![
            ("schema".to_string(), Value::Str(LIVE_SCHEMA.to_string())),
            ("run".to_string(), Value::Str(self.run.clone())),
            ("tick".to_string(), Value::UInt(self.tick)),
            ("ticks_total".to_string(), Value::UInt(self.ticks_total)),
            ("done".to_string(), Value::Bool(self.done)),
            ("semantic".to_string(), semantic),
            ("timing".to_string(), timing),
        ])
    }
}

/// Validates a parsed `OBS_live.json` document against [`LIVE_SCHEMA`]:
/// envelope fields, the semantic gauge set with correct types, and the
/// per-center array shape.
///
/// # Errors
/// Returns a message naming the first violation.
pub fn validate_live(value: &Value) -> Result<(), String> {
    let schema = value
        .get("schema")
        .and_then(Value::as_str)
        .ok_or("missing schema field")?;
    if schema != LIVE_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{LIVE_SCHEMA}`"));
    }
    value
        .get("run")
        .and_then(Value::as_str)
        .ok_or("missing run label")?;
    let tick = value
        .get("tick")
        .and_then(Value::as_u64)
        .ok_or("missing tick")?;
    let total = value
        .get("ticks_total")
        .and_then(Value::as_u64)
        .ok_or("missing ticks_total")?;
    if tick > total {
        return Err(format!("tick {tick} exceeds ticks_total {total}"));
    }
    if !matches!(value.get("done"), Some(Value::Bool(_))) {
        return Err("missing done flag".to_string());
    }
    let semantic = value
        .get("semantic")
        .and_then(Value::as_obj)
        .ok_or("missing semantic section")?;
    for gauge in ["demand_cpu", "alloc_cpu", "shortfall_cpu"] {
        let v = semantic
            .iter()
            .find(|(n, _)| n == gauge)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("semantic.{gauge} missing"))?;
        if v.as_f64().is_none() {
            return Err(format!("semantic.{gauge} is not a number"));
        }
    }
    for count in [
        "leases_held",
        "fault_events",
        "scenario_events",
        "centers_down",
    ] {
        let v = semantic
            .iter()
            .find(|(n, _)| n == count)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("semantic.{count} missing"))?;
        if v.as_u64().is_none() {
            return Err(format!("semantic.{count} is not an unsigned integer"));
        }
    }
    let centers = semantic
        .iter()
        .find(|(n, _)| n == "centers")
        .and_then(|(_, v)| v.as_arr())
        .ok_or("semantic.centers missing or not an array")?;
    for (i, c) in centers.iter().enumerate() {
        if c.get("name").and_then(Value::as_str).is_none()
            || c.get("alloc_cpu").and_then(Value::as_f64).is_none()
            || c.get("capacity_cpu").and_then(Value::as_f64).is_none()
        {
            return Err(format!("semantic.centers[{i}] is malformed"));
        }
    }
    let timing = value
        .get("timing")
        .and_then(Value::as_obj)
        .ok_or("missing timing section")?;
    for rate in ["tick_rate", "match_skip_rate"] {
        if !timing.iter().any(|(n, _)| n == rate) {
            return Err(format!("timing.{rate} missing"));
        }
    }
    Ok(())
}

/// Atomically publishes a snapshot: the document is written to a
/// sibling temp file and renamed over `path`, so readers only ever see
/// a complete document. The temp name is unique to the writing process
/// and thread, so concurrent writers to one path never share (and tear)
/// a temp file; each rename publishes one whole document.
///
/// # Errors
/// Propagates the file-write or rename error (the engine reports and
/// continues — a failed live write must never fail the run).
pub fn write_live(path: &Path, doc: &Value) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let thread: String = format!("{:?}", std::thread::current().id())
        .chars()
        .filter(char::is_ascii_digit)
        .collect();
    let tmp = path.with_extension(format!("json.{}-{thread}.tmp", std::process::id()));
    std::fs::write(&tmp, doc.render_pretty())?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn snapshot() -> LiveSnapshot {
        LiveSnapshot {
            run: "quick seed=7".to_string(),
            tick: 40,
            ticks_total: 96,
            done: false,
            demand_cpu: 12.5,
            alloc_cpu: 14.0,
            shortfall_cpu: 0.0,
            match_skip_rate: 0.75,
            leases_held: 9,
            fault_events: 1,
            scenario_events: 0,
            centers_down: 1,
            centers: vec![
                LiveCenter {
                    name: "us-east".to_string(),
                    alloc_cpu: 8.0,
                    capacity_cpu: 16.0,
                },
                LiveCenter {
                    name: "eu-west".to_string(),
                    alloc_cpu: 6.0,
                    capacity_cpu: 0.0,
                },
            ],
            tick_rate: 1234.5,
            stage_p99_us: vec![("sim/run/tick".to_string(), 850.25)],
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_validator() {
        let doc = snapshot().to_value();
        validate_live(&doc).expect("self-rendered snapshot must validate");
        let reparsed = json::parse(&doc.render()).unwrap();
        validate_live(&reparsed).expect("snapshot must survive a parse round-trip");
    }

    #[test]
    fn validator_names_the_first_violation() {
        let bad = json::parse(r#"{"schema":"nope"}"#).unwrap();
        assert!(validate_live(&bad).unwrap_err().contains("schema"));

        let mut snap = snapshot();
        snap.tick = 200;
        let err = validate_live(&snap.to_value()).unwrap_err();
        assert!(err.contains("exceeds ticks_total"), "{err}");
    }

    #[test]
    fn write_live_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("mmog-live-test");
        let path = dir.join("OBS_live.json");
        let doc = snapshot().to_value();
        write_live(&path, &doc).expect("publish");
        let read = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        validate_live(&read).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files must be renamed away: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_writers_publish_whole_documents() {
        let dir = std::env::temp_dir().join(format!("mmog-live-race-{}", std::process::id()));
        let path = dir.join("OBS_live.json");
        // Every writer starts at once, so the writes overlap.
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for writer in 0..4u64 {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    let mut snap = snapshot();
                    start.wait();
                    for i in 0..50 {
                        snap.tick = (writer * 50 + i) % snap.ticks_total;
                        write_live(path, &snap.to_value()).expect("every write succeeds");
                        let text = std::fs::read_to_string(path).expect("published");
                        let doc = json::parse(&text).expect("whole document");
                        validate_live(&doc).expect("valid document");
                    }
                });
            }
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_sinks_install_no_tap() {
        assert!(crate::Sinks::default().live.is_none());
        let cfg = LiveConfig::new(Path::new("results/OBS_live.json"));
        assert_eq!(cfg.interval(), 64);
        let never = LiveConfig {
            every_ticks: 0,
            ..cfg
        };
        assert_eq!(never.interval(), 1, "a zero interval clamps to every tick");
    }
}
