//! The per-tick record: one tick's outcome (the demand, allocation and
//! shortfall sample of Eqs. 1–2, the settle stage's idle-exit counts and
//! the stage durations), filled once by the engine. The `tick` and
//! `tick_latency` events, the time-series document, the live snapshot
//! and the [`StageInstruments`] all read it.

use crate::event::Event;
use crate::latency::{latency, LatencyHisto};
use crate::live::StageP99;
use crate::registry::{counter, Counter, Domain};
use crate::span::{timer, SpanStat};
use std::sync::Arc;

/// One tick's outcome. Demand, allocation, shortfall and the settle
/// counts are semantic; the nanosecond durations are wall-clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickRecord {
    /// The tick.
    pub tick: u64,
    /// Platform-wide CPU demand.
    pub demand_cpu: f64,
    /// Platform-wide CPU allocation.
    pub alloc_cpu: f64,
    /// Unmet CPU demand, summed per group (never positive).
    pub shortfall_cpu: f64,
    /// Settle steps that took the provisioner's idle exit.
    pub skips: u64,
    /// Settle steps that walked the lease ledger.
    pub walks: u64,
    /// `predict_score` stage duration.
    pub predict_ns: u64,
    /// `reduce` stage duration.
    pub reduce_ns: u64,
    /// `match_settle` stage duration (zero when no settle stage ran).
    pub settle_ns: u64,
    /// Whole-tick duration.
    pub tick_ns: u64,
    /// Whether a settle stage ran this tick.
    pub settled: bool,
}

impl TickRecord {
    /// The fraction of this tick's settle steps that took the idle exit;
    /// zero when no step ran.
    #[must_use]
    pub fn skip_rate(&self) -> f64 {
        self.skips as f64 / (self.skips + self.walks).max(1) as f64
    }

    /// The `tick` event: what the engine decided.
    #[must_use]
    pub fn tick_event(&self) -> Event<'static> {
        Event::Tick {
            tick: self.tick,
            demand_cpu: self.demand_cpu,
            alloc_cpu: self.alloc_cpu,
            shortfall_cpu: self.shortfall_cpu,
        }
    }

    /// The `tick_latency` event: how long each stage took.
    #[must_use]
    pub fn latency_event(&self) -> Event<'static> {
        Event::TickLatency {
            tick: self.tick,
            predict_ns: self.predict_ns,
            reduce_ns: self.reduce_ns,
            settle_ns: self.settle_ns,
            tick_ns: self.tick_ns,
        }
    }
}

/// A stage's timer and latency histogram, interned under one path so
/// reports line up.
type Stage = (Arc<SpanStat>, Arc<LatencyHisto>);

/// The tick stages' instruments: a timer and histogram pair per stage, the
/// whole-tick histogram and the semantic idle-exit counters.
#[derive(Debug)]
pub struct StageInstruments {
    predict: Stage,
    reduce: Stage,
    settle: Stage,
    /// Settle stages in which every step took the idle exit, recorded
    /// alongside (not instead of) `match_settle`.
    skip: Arc<LatencyHisto>,
    tick: Arc<LatencyHisto>,
    /// `sim.match.skips` and `sim.match.full`.
    skips: Arc<Counter>,
    walks: Arc<Counter>,
}

impl StageInstruments {
    /// The instruments of the current registry, interned once per run.
    #[must_use]
    pub fn current() -> Self {
        let stage = |path| -> Stage { (timer(path), latency(path)) };
        Self {
            predict: stage("sim/run/predict_score"),
            reduce: stage("sim/run/reduce"),
            settle: stage("sim/run/match_settle"),
            skip: latency("sim/run/match_skip"),
            tick: latency("sim/run/tick"),
            skips: counter("sim.match.skips", Domain::Semantic),
            walks: counter("sim.match.full", Domain::Semantic),
        }
    }

    /// Records one finished tick.
    pub fn record(&self, rec: &TickRecord) {
        let stage = |(timer, histo): &Stage, ns| {
            timer.record_ns(ns);
            histo.record(ns);
        };
        stage(&self.predict, rec.predict_ns);
        stage(&self.reduce, rec.reduce_ns);
        if rec.settled {
            stage(&self.settle, rec.settle_ns);
            self.skips.add(rec.skips);
            self.walks.add(rec.walks);
            if rec.walks == 0 && rec.skips > 0 {
                self.skip.record(rec.settle_ns);
            }
        }
        self.tick.record(rec.tick_ns);
    }

    /// Each stage's p99 so far, in microseconds (zero before the first
    /// record).
    #[must_use]
    pub fn p99_us(&self) -> StageP99 {
        let p99 = |h: &LatencyHisto| h.snapshot().p99().map_or(0.0, |ns| ns as f64 / 1000.0);
        StageP99 {
            predict_score: p99(&self.predict.1),
            reduce: p99(&self.reduce.1),
            match_settle: p99(&self.settle.1),
            tick: p99(&self.tick),
        }
    }
}
