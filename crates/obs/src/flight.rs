//! The flight recorder: a bounded ring buffer of full-detail per-tick
//! records that only materialises a `FLIGHT_<run>.jsonl` artifact when
//! something goes wrong.
//!
//! Always-on JSONL tracing is unusable at 1M/10M-player scale (PR 6's
//! streaming path), but *post-hoc* detail is exactly what a tail-latency
//! incident needs. The recorder squares that: the engine pushes
//! [`Event`]s (no allocation, no formatting) into a preallocated ring
//! retaining the last N ticks, and only a **trigger**
//! — a fault event, a tick-deadline overrun, a gate breach, or an
//! explicit `--flight-dump` — renders the ring to disk. The first
//! trigger per run wins; later triggers are counted and suppressed so a
//! fault storm cannot write the same window a thousand times.
//!
//! Dumped lines are trace events written by the same [`Event::write`]
//! as the trace: the first line is a `flight_meta` event describing the
//! window and trigger, every following line is a retained event
//! (`tick`, `tick_latency`, `provision`, the scenario kinds) with the
//! standard `seq`/`scope` envelope, so `obs_check` and the trace
//! tooling parse flight dumps with the machinery they already have.
//!
//! # Determinism
//!
//! The recorder is configured per run (the `flight` field of the run's
//! [`Sinks`](crate::Sinks)) and disabled by default, so runs without a
//! flight config are byte-for-byte unaffected. Fault and explicit
//! triggers depend only on the seed-driven schedule — *which* tick
//! range dumps is deterministic for a fixed seed. Deadline triggers are
//! wall-clock by nature and are opt-in via [`FlightConfig::deadline_ns`].
//! All recorder accounting exports under `obs.self.*` in the timing
//! section.

use crate::event::{write_envelope, Event};
use crate::json::Value;
use std::collections::VecDeque;
use std::path::PathBuf;

/// Why a flight dump fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightTrigger {
    /// A fault-plane event was applied this tick (seed-deterministic).
    Fault,
    /// A scenario network partition was applied this tick
    /// (seed-deterministic).
    Partition,
    /// A scenario zone migration (or region failover) was applied this
    /// tick (seed-deterministic).
    Migration,
    /// The whole-tick wall-clock exceeded [`FlightConfig::deadline_ns`].
    DeadlineOverrun,
    /// A regression gate reported a breach (wired by gate harnesses).
    GateBreach,
    /// `--flight-dump`: dump the final window unconditionally.
    Explicit,
}

impl FlightTrigger {
    /// Every trigger, in declaration order.
    pub const ALL: [Self; 6] = [
        Self::Fault,
        Self::Partition,
        Self::Migration,
        Self::DeadlineOverrun,
        Self::GateBreach,
        Self::Explicit,
    ];

    /// Stable label used in `flight_meta` and file reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlightTrigger::Fault => "fault",
            FlightTrigger::Partition => "partition",
            FlightTrigger::Migration => "migration",
            FlightTrigger::DeadlineOverrun => "deadline_overrun",
            FlightTrigger::GateBreach => "gate_breach",
            FlightTrigger::Explicit => "explicit",
        }
    }
}

/// Flight recorder configuration, carried per run in
/// [`Sinks::flight`](crate::Sinks::flight).
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// How many most-recent ticks the ring retains.
    pub retain_ticks: u64,
    /// Ring capacity in records; pushes beyond it evict the oldest
    /// record regardless of tick age.
    pub records_capacity: usize,
    /// Whole-tick wall-clock deadline; exceeding it triggers a dump.
    /// `None` disables deadline triggering (the deterministic default).
    pub deadline_ns: Option<u64>,
    /// Directory `FLIGHT_<run>.jsonl` artifacts are written to.
    pub dump_dir: PathBuf,
    /// Dump at run end even without a trigger (`--flight-dump`).
    pub dump_at_end: bool,
}

impl FlightConfig {
    /// A config retaining `retain_ticks` ticks with a capacity of 64
    /// records per retained tick (clamped to `[256, 1 << 20]`), no
    /// deadline, dumping into `results/`.
    #[must_use]
    pub fn new(retain_ticks: u64) -> Self {
        let cap = usize::try_from(retain_ticks.saturating_mul(64))
            .unwrap_or(usize::MAX)
            .clamp(256, 1 << 20);
        Self {
            retain_ticks,
            records_capacity: cap,
            deadline_ns: None,
            dump_dir: PathBuf::from("results"),
            dump_at_end: false,
        }
    }
}

/// Description of a dump that happened (also mirrored into the
/// simulation report so harnesses can assert on trigger decisions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightDumpInfo {
    /// Trigger label ([`FlightTrigger::label`]).
    pub trigger: &'static str,
    /// Tick the trigger fired on.
    pub trigger_tick: u64,
    /// Oldest tick in the dumped window.
    pub tick_from: u64,
    /// Newest tick in the dumped window.
    pub tick_to: u64,
    /// Number of event records dumped (excluding the meta line).
    pub records: u64,
    /// Artifact path.
    pub path: PathBuf,
}

/// A per-run flight recorder. Build one from the run's [`FlightConfig`]
/// at run start; it is single-owner mutable state, pushed to from the
/// engine's serial sections only.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    /// Retained events, oldest first. Only `Event<'static>` enters, so
    /// no event can borrow run state (a center name, a game name) that
    /// the ring would outlive.
    ring: VecDeque<Event<'static>>,
    pushed: u64,
    dropped: u64,
    suppressed: u64,
    dump: Option<FlightDumpInfo>,
}

impl FlightRecorder {
    /// A recorder with its ring fully preallocated (steady-state pushes
    /// never allocate).
    #[must_use]
    pub fn new(mut cfg: FlightConfig) -> Self {
        cfg.records_capacity = cfg.records_capacity.max(1);
        Self {
            ring: VecDeque::with_capacity(cfg.records_capacity),
            cfg,
            pushed: 0,
            dropped: 0,
            suppressed: 0,
            dump: None,
        }
    }

    /// The configured tick-deadline, if any.
    #[must_use]
    pub fn deadline_ns(&self) -> Option<u64> {
        self.cfg.deadline_ns
    }

    /// Records pushed over the recorder's lifetime.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Records evicted before their tick aged out (capacity pressure).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Triggers suppressed because a dump already happened.
    #[must_use]
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Number of records currently retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// The dump that happened this run, if any.
    #[must_use]
    pub fn dump_info(&self) -> Option<&FlightDumpInfo> {
        self.dump.as_ref()
    }

    /// Consumes the recorder, returning its dump info.
    #[must_use]
    pub fn into_dump_info(self) -> Option<FlightDumpInfo> {
        self.dump
    }

    /// Advances the retention window to tick `t`, evicting records older
    /// than `retain_ticks`. Allocation-free.
    pub fn begin_tick(&mut self, t: u64) {
        let cutoff = t.saturating_sub(self.cfg.retain_ticks.saturating_sub(1));
        while self.ring.front().is_some_and(|e| record_tick(e) < cutoff) {
            self.ring.pop_front();
        }
    }

    /// Pushes one event of a tick-first kind. Allocation-free: when the
    /// ring is full the oldest record is evicted.
    pub fn push(&mut self, event: Event<'static>) {
        debug_assert!(event.tick().is_some(), "flight records must be tick-first");
        if self.ring.len() == self.cfg.records_capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(event);
        self.pushed += 1;
    }

    /// The `(oldest, newest)` tick currently retained.
    #[must_use]
    pub fn window(&self) -> Option<(u64, u64)> {
        Some((
            record_tick(self.ring.front()?),
            record_tick(self.ring.back()?),
        ))
    }

    /// Fires a trigger: dumps the retained window to
    /// `FLIGHT_<run>.jsonl` unless a dump already happened this run (the
    /// first trigger wins; later ones are counted as suppressed).
    /// Returns the artifact path when a dump was written.
    ///
    /// # Errors
    /// Propagates the file-write error (the engine reports and
    /// continues — a failed dump must never fail the run).
    pub fn trigger(
        &mut self,
        trigger: FlightTrigger,
        tick: u64,
        run_label: &str,
    ) -> std::io::Result<Option<PathBuf>> {
        if self.dump.is_some() {
            self.suppressed += 1;
            return Ok(None);
        }
        let (tick_from, tick_to) = self.window().unwrap_or((tick, tick));
        let path = self
            .cfg
            .dump_dir
            .join(format!("FLIGHT_{}.jsonl", sanitize_label(run_label)));
        let body = self.render_dump(trigger, tick, run_label, tick_from, tick_to);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, body)?;
        self.dump = Some(FlightDumpInfo {
            trigger: trigger.label(),
            trigger_tick: tick,
            tick_from,
            tick_to,
            records: self.ring.len() as u64,
            path: path.clone(),
        });
        Ok(Some(path))
    }

    /// Run-end hook: dumps the final window when
    /// [`FlightConfig::dump_at_end`] is set and nothing triggered yet.
    ///
    /// # Errors
    /// Propagates the file-write error.
    pub fn finish(&mut self, final_tick: u64, run_label: &str) -> std::io::Result<Option<PathBuf>> {
        if self.cfg.dump_at_end && self.dump.is_none() {
            return self.trigger(FlightTrigger::Explicit, final_tick, run_label);
        }
        Ok(None)
    }

    /// Renders the dump body: a `flight_meta` line followed by every
    /// retained record, all carrying the standard trace envelope. The
    /// output is bounded by the ring capacity — dumping never grows with
    /// run length.
    fn render_dump(
        &self,
        trigger: FlightTrigger,
        trigger_tick: u64,
        run_label: &str,
        tick_from: u64,
        tick_to: u64,
    ) -> String {
        let scope = Value::Str(run_label.to_string()).render();
        // ~96 bytes per line is a comfortable upper estimate; one
        // reservation keeps the dump path to a handful of allocations.
        let mut out = String::with_capacity(128 * (self.ring.len() + 1));
        let meta = Event::FlightMeta {
            run: run_label,
            trigger: trigger.label(),
            trigger_tick,
            retain_ticks: self.cfg.retain_ticks,
            tick_from,
            tick_to,
            records: self.ring.len() as u64,
        };
        for (seq, event) in (0u64..).zip(std::iter::once(&meta).chain(&self.ring)) {
            write_envelope(&mut out, seq, &scope);
            event.write(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

/// A retained record's tick (every pushed kind is tick-first).
fn record_tick(event: &Event<'_>) -> u64 {
    event.tick().unwrap_or(0)
}

/// Maps a run label to a filesystem-safe artifact stem: alphanumerics,
/// `.`, `_` and `-` pass through, everything else becomes `-`, bounded
/// to 96 characters with a stable hash suffix so distinct labels never
/// collide after truncation.
#[must_use]
pub fn sanitize_label(label: &str) -> String {
    // FNV-1a: tiny, deterministic, good enough to disambiguate stems.
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut stem: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect();
    stem.truncate(96);
    let tag = (hash ^ (hash >> 32)) as u32;
    format!("{stem}-{tag:08x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::parse_trace_line;
    use crate::tick::TickRecord;
    use std::path::Path;

    fn test_cfg(retain: u64, cap: usize, dir: &Path) -> FlightConfig {
        FlightConfig {
            retain_ticks: retain,
            records_capacity: cap,
            deadline_ns: None,
            dump_dir: dir.to_path_buf(),
            dump_at_end: false,
        }
    }

    fn record(t: u64) -> TickRecord {
        TickRecord {
            tick: t,
            demand_cpu: 1.0,
            alloc_cpu: 2.0,
            predict_ns: 5,
            reduce_ns: 6,
            settle_ns: 7,
            tick_ns: 20,
            ..TickRecord::default()
        }
    }

    fn tick(t: u64) -> Event<'static> {
        record(t).tick_event()
    }

    fn latency(t: u64) -> Event<'static> {
        record(t).latency_event()
    }

    /// One event of every tick-first kind the engine records, at `t`.
    fn engine_kinds(t: u64) -> [Event<'static>; 8] {
        let engine_tick = TickRecord {
            tick: t,
            demand_cpu: 3.0,
            alloc_cpu: 2.5,
            shortfall_cpu: -0.5,
            predict_ns: 100,
            reduce_ns: 200,
            settle_ns: 300,
            tick_ns: 700,
            ..TickRecord::default()
        };
        [
            Event::Provision {
                tick: t,
                operator: 1,
                granted: 2,
                released: 0,
                unmet: true,
                target_cpu: 4.5,
                alloc_cpu: 4.0,
            },
            Event::Partition {
                tick: t,
                mask: 9,
                components: 2,
            },
            Event::Heal {
                tick: t,
                components: 1,
            },
            Event::TopologyChange {
                tick: t,
                a: 0,
                b: 3,
                factor: 3.5,
            },
            Event::FlashCrowd {
                tick: t,
                region: 1,
                factor: 2.5,
                groups: 4,
            },
            Event::Migration {
                tick: t,
                group: 2,
                center: 1,
                leases: 3,
                cost: 84.5,
            },
            engine_tick.tick_event(),
            engine_tick.latency_event(),
        ]
    }

    #[test]
    fn ring_retains_last_n_ticks() {
        let mut rec = FlightRecorder::new(test_cfg(3, 64, Path::new("unused")));
        for t in 0..10u64 {
            rec.begin_tick(t);
            rec.push(tick(t));
            rec.push(latency(t));
        }
        assert_eq!(rec.window(), Some((7, 9)));
        assert_eq!(rec.retained(), 6, "3 ticks x 2 records");
        assert_eq!(rec.pushed(), 20);
        assert_eq!(rec.dropped(), 0, "eviction by age is not a drop");
    }

    #[test]
    fn capacity_pressure_evicts_oldest() {
        let mut rec = FlightRecorder::new(test_cfg(100, 4, Path::new("unused")));
        for t in 0..6u64 {
            rec.begin_tick(t);
            rec.push(tick(t));
        }
        assert_eq!(rec.retained(), 4);
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.window(), Some((2, 5)));
    }

    #[test]
    fn dump_reuses_trace_schema_and_first_trigger_wins() {
        let dir = std::env::temp_dir().join("mmog_flight_test");
        let mut rec = FlightRecorder::new(test_cfg(4, 64, &dir));
        for t in 0..8u64 {
            rec.begin_tick(t);
            for event in engine_kinds(t) {
                rec.push(event);
            }
        }
        let path = rec
            .trigger(FlightTrigger::Fault, 7, "unit/flight run")
            .expect("dump io")
            .expect("first trigger dumps");
        let body = std::fs::read_to_string(&path).expect("read dump");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 1 + 4 * 8, "meta line + 4 ticks x 8 records");
        for (i, line) in lines.iter().enumerate() {
            let value = crate::json::parse(line).expect("parseable");
            let (seq, scope, event) = parse_trace_line(&value).expect("schema reuse");
            assert_eq!(seq, i as u64, "seq must be contiguous");
            assert_eq!(scope, "unit/flight run");
            if i == 0 {
                assert_eq!(
                    event,
                    Event::FlightMeta {
                        run: "unit/flight run",
                        trigger: "fault",
                        trigger_tick: 7,
                        retain_ticks: 4,
                        tick_from: 4,
                        tick_to: 7,
                        records: 32,
                    }
                );
            } else {
                // Every recorded kind comes back exactly as pushed, in
                // push order.
                let t = 4 + (i as u64 - 1) / 8;
                assert_eq!(event, engine_kinds(t)[(i - 1) % 8]);
            }
        }
        // Second trigger is suppressed.
        let again = rec
            .trigger(FlightTrigger::DeadlineOverrun, 7, "unit/flight run")
            .expect("dump io");
        assert!(again.is_none());
        assert_eq!(rec.suppressed(), 1);
        let info = rec.dump_info().expect("recorded");
        assert_eq!(info.trigger, "fault");
        assert_eq!(info.records, 32);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn finish_dumps_only_when_configured() {
        let dir = std::env::temp_dir().join("mmog_flight_test_end");
        let mut cfg = test_cfg(4, 64, &dir);
        let mut rec = FlightRecorder::new(cfg.clone());
        rec.push(tick(0));
        assert!(rec.finish(0, "no-dump").expect("io").is_none());
        cfg.dump_at_end = true;
        let mut rec = FlightRecorder::new(cfg);
        rec.push(tick(0));
        let path = rec.finish(0, "end-dump").expect("io").expect("dumps");
        assert_eq!(rec.dump_info().unwrap().trigger, "explicit");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sanitize_label_is_safe_and_collision_resistant() {
        let a = sanitize_label("scale/10k seed=7");
        assert!(a
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
        assert_ne!(
            sanitize_label("a/b"),
            sanitize_label("a b"),
            "distinct labels keep distinct stems via the hash suffix"
        );
        let long = "x".repeat(200);
        assert!(sanitize_label(&long).len() <= 96 + 9);
    }

    #[test]
    fn default_sinks_build_no_recorder() {
        assert!(crate::Sinks::default()
            .flight
            .map(FlightRecorder::new)
            .is_none());
    }
}
