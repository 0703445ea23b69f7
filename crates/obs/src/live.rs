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
//! semantic/timing split: allocation state, shortfall, the settle skip
//! rate and per-center utilization are semantic; tick rate and stage
//! p99s are execution-dependent and live in the `timing` section that
//! determinism comparisons drop.

use crate::json::Document;
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

crate::object_node! {
    /// One snapshot of a running simulation: the whole `OBS_live.json`
    /// [`Document`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct LiveSnapshot {
        /// Run label (same label the trace chunk uses).
        pub run: String,
        /// Current tick, below `ticks_total`.
        pub tick: u64,
        /// Total ticks the run will execute.
        pub ticks_total: u64,
        /// Whether this is the run's last tick.
        pub done: bool,
        /// Engine state, derived inside a serial section.
        pub semantic: LiveSemantic,
        /// Wall-clock data, excluded from determinism comparison.
        pub timing: LiveTiming,
    }
    schema = LIVE_SCHEMA,
    check = LiveSnapshot::check
}

crate::object_node! {
    /// The deterministic half of a snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LiveSemantic {
        /// Platform-wide CPU demand this tick.
        pub demand_cpu: f64,
        /// Platform-wide CPU allocation this tick.
        pub alloc_cpu: f64,
        /// Unmet CPU demand this tick.
        pub shortfall_cpu: f64,
        /// Fraction of settle steps that took the provisioner's idle
        /// exit this tick.
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
    }
}

crate::object_node! {
    /// Per-center utilization line of a snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LiveCenter {
        /// Center name.
        pub name: String,
        /// CPU currently allocated to leases.
        pub alloc_cpu: f64,
        /// Nominal CPU capacity (0 while the center is down).
        pub capacity_cpu: f64,
    }
}

crate::object_node! {
    /// The wall-clock half of a snapshot.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LiveTiming {
        /// Ticks per wall-clock second since run start.
        pub tick_rate: f64,
        /// Per-stage p99 latency so far.
        pub stage_p99_us: StageP99,
    }
}

crate::object_node! {
    /// The p99 latency of each `sim/run/*` tick stage, in microseconds.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StageP99 {
        /// `predict_score`.
        pub predict_score: f64,
        /// `reduce`.
        pub reduce: f64,
        /// `match_settle`.
        pub match_settle: f64,
        /// The whole tick.
        pub tick: f64,
    }
}

/// `OBS_live.json`; parsing also checks that the tick lies inside the
/// run, with `done` set exactly on its last tick.
impl Document for LiveSnapshot {}

impl LiveSnapshot {
    fn check(&self) -> Result<(), String> {
        let (tick, total) = (self.tick, self.ticks_total);
        if tick >= total {
            return Err(format!("tick {tick} is not below ticks_total {total}"));
        }
        if self.done != (tick + 1 == total) {
            return Err(format!("done is {} at tick {tick} of {total}", self.done));
        }
        Ok(())
    }
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
pub fn write_live(path: &Path, snap: &LiveSnapshot) -> std::io::Result<()> {
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
    std::fs::write(&tmp, snap.to_json())?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn snapshot() -> LiveSnapshot {
        LiveSnapshot {
            run: "quick seed=7".to_string(),
            tick: 40,
            ticks_total: 96,
            done: false,
            semantic: LiveSemantic {
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
            },
            timing: LiveTiming {
                tick_rate: 1234.5,
                stage_p99_us: StageP99 {
                    predict_score: 32.5,
                    reduce: 8.25,
                    match_settle: 49.0,
                    tick: 850.25,
                },
            },
        }
    }

    /// The snapshot's document with one section's members edited.
    fn edited(section: &str, edit: impl FnOnce(&mut Vec<(String, Value)>)) -> String {
        let mut doc = json::parse(&snapshot().to_json()).unwrap();
        let Value::Obj(members) = &mut doc else {
            unreachable!("a snapshot renders as an object")
        };
        let Some((_, Value::Obj(members))) = members.iter_mut().find(|(k, _)| k == section) else {
            unreachable!("the snapshot has a {section} object")
        };
        edit(members);
        doc.render_pretty()
    }

    #[test]
    fn snapshot_round_trips_through_the_parser() {
        let snap = snapshot();
        assert_eq!(LiveSnapshot::parse(&snap.to_json()), Ok(snap));
        let last = LiveSnapshot {
            tick: 95,
            done: true,
            ..snapshot()
        };
        assert_eq!(LiveSnapshot::parse(&last.to_json()), Ok(last));
    }

    #[test]
    fn parser_names_the_first_violation() {
        let err = |text: &str| LiveSnapshot::parse(text).unwrap_err();
        assert!(err(r#"{"schema":"nope"}"#).contains("schema"));

        for tick in [96, 200] {
            let past = LiveSnapshot { tick, ..snapshot() };
            let e = err(&past.to_json());
            assert!(e.contains("ticks_total"), "{e}");
        }
        let early = LiveSnapshot {
            done: true,
            ..snapshot()
        };
        assert!(err(&early.to_json()).contains("done is true at tick 40"));
        let late = LiveSnapshot {
            tick: 95,
            ..snapshot()
        };
        assert!(err(&late.to_json()).contains("done is false at tick 95"));

        let fast = edited("timing", |m| m[0].1 = Value::Str("fast".to_string()));
        let e = err(&fast);
        assert!(e.contains("tick_rate") && e.contains("not a number"), "{e}");
        let null = edited("semantic", |m| m[3].1 = Value::Null);
        assert!(err(&null).contains("match_skip_rate"));
        let missing = edited("timing", |m| m.retain(|(k, _)| k != "stage_p99_us"));
        assert!(err(&missing).contains("missing `stage_p99_us`"));
        let extra = edited("semantic", |m| m.push(("gpu".to_string(), Value::UInt(1))));
        assert!(err(&extra).contains("differs from the writer's rendering"));
    }

    #[test]
    fn write_live_is_atomic_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join("mmog-live-test");
        let path = dir.join("OBS_live.json");
        write_live(&path, &snapshot()).expect("publish");
        let read = LiveSnapshot::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(read, snapshot());
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
                        snap.done = snap.tick + 1 == snap.ticks_total;
                        write_live(path, &snap).expect("every write succeeds");
                        let text = std::fs::read_to_string(path).expect("published");
                        LiveSnapshot::parse(&text).expect("whole, valid document");
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
