//! The federation scale sweep behind `bin/scale_bench`.
//!
//! Scales the provisioning pipeline from the paper's ~130 server groups
//! to millions of synthetic players by federating **worlds**: each world
//! is an independent [`Simulation`] driven by a one-region *streaming*
//! RuneScape-like workload (O(1) memory per group in the trace length —
//! no materialized series anywhere), and the federation fans the worlds
//! across the PR-1 parallel layer with `mmog_par::par_map`. Inside a
//! world the engine detects the parallel context and runs serial, so
//! the per-world reports are bit-identical for any `--jobs` and the
//! sweep's semantic section can be committed and diffed byte-for-byte.
//!
//! Wall-clock data stays in the process-global observability plane: the
//! engine's spans and latency histograms accumulate over the whole
//! ladder, and `scale_bench --metrics` exports them in the `timing`
//! section of `OBS_summary.json`, which `obs_gate` checks against
//! `results/BASELINE_scale.json`.

use mmog_datacenter::resource::ResourceType;
use mmog_obs::Sinks;
use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{AllocationMode, SimReport, Simulation, SimulationConfig};
use mmog_sim::scenario::ScenarioOpts;
use mmog_util::time::TICKS_PER_DAY;
use mmog_workload::runescape::RuneScapeConfig;

/// One point of the sweep: a target player population reached as
/// `worlds × groups_per_world × 2000` players.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Display label (`"10k"`, `"1M"`, …), also the stage path suffix.
    pub label: &'static str,
    /// Independent federated worlds.
    pub worlds: usize,
    /// Server groups per world (each peaks at 2 000 players).
    pub groups_per_world: u32,
}

impl SweepPoint {
    /// Peak synthetic players this point simulates.
    #[must_use]
    pub fn players(&self) -> u64 {
        self.worlds as u64 * u64::from(self.groups_per_world) * 2000
    }
}

/// The sweep ladder. `--quick` stops at 100k, the default at 1M, and
/// `--full` adds the 10M point (500 worlds — minutes, not CI material).
#[must_use]
pub fn sweep_points(quick: bool, full: bool) -> Vec<SweepPoint> {
    let mut points = vec![
        SweepPoint {
            label: "10k",
            worlds: 1,
            groups_per_world: 5,
        },
        SweepPoint {
            label: "100k",
            worlds: 5,
            groups_per_world: 10,
        },
    ];
    if !quick {
        points.push(SweepPoint {
            label: "1M",
            worlds: 50,
            groups_per_world: 10,
        });
        if full {
            points.push(SweepPoint {
                label: "10M",
                worlds: 500,
                groups_per_world: 10,
            });
        }
    }
    points
}

/// Deterministic per-world reductions — everything here is a pure
/// function of the world's seed and scale, independent of `--jobs`,
/// wall clock, and machine.
#[derive(Debug, Clone)]
pub struct WorldSummary {
    /// World index within its sweep point.
    pub world: usize,
    /// Mean CPU over-allocation excess (Ω − 100), percent.
    pub avg_over_cpu: f64,
    /// Mean CPU under-allocation Υ, percent (≤ 0).
    pub avg_under_cpu: f64,
    /// Significant under-allocation events.
    pub events: u64,
    /// Scored ticks.
    pub samples: u64,
    /// Adjustment steps with a partially unmet request.
    pub unmet_steps: u64,
}

impl WorldSummary {
    fn from_report(world: usize, report: &SimReport) -> Self {
        Self {
            world,
            avg_over_cpu: report.metrics.avg_over(ResourceType::Cpu),
            avg_under_cpu: report.metrics.avg_under(ResourceType::Cpu),
            events: report.metrics.events(),
            samples: report.metrics.samples(),
            unmet_steps: report.unmet_steps,
        }
    }
}

/// Timing and semantics of one completed sweep point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point that ran.
    pub point: SweepPoint,
    /// Ticks each world simulated.
    pub ticks: usize,
    /// Wall-clock seconds for the whole point (all worlds).
    pub seconds: f64,
    /// Peak RSS in kB after the point, if the platform exposes it.
    pub peak_rss_kb: Option<u64>,
    /// One summary per world, in world order.
    pub worlds: Vec<WorldSummary>,
    /// Settle calls that took the provisioner's idle exit across every
    /// world of this point: this point's share of the semantic
    /// `sim.match.skips` counter, reported in the progress line.
    pub match_skips: u64,
    /// Settle calls that ran the release/reshape/request walk.
    pub match_full: u64,
}

impl PointResult {
    /// Synthetic players simulated per wall-clock second, normalised to
    /// a full simulated day: simulating one day for P players in S
    /// seconds scores P/S; shorter windows scale proportionally.
    #[must_use]
    pub fn players_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.point.players() as f64 / self.seconds * self.ticks as f64 / TICKS_PER_DAY as f64
        } else {
            0.0
        }
    }

    /// World-ticks simulated per wall-clock second.
    #[must_use]
    pub fn ticks_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            (self.point.worlds * self.ticks) as f64 / self.seconds
        } else {
            0.0
        }
    }

    /// Fraction of group-settle calls that took the idle exit instead
    /// of walking the ledger, in [0, 1]. Zero when nothing settled.
    #[must_use]
    pub fn match_skip_rate(&self) -> f64 {
        let total = self.match_skips + self.match_full;
        if total > 0 {
            self.match_skips as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// The streaming one-region configuration of one federated world.
/// Public so the allocation-smoke and determinism tests exercise the
/// exact workload the sweep runs.
#[must_use]
pub fn world_config(
    point: &SweepPoint,
    world: usize,
    ticks: usize,
    master_seed: u64,
) -> SimulationConfig {
    let days = (ticks as u64).div_ceil(TICKS_PER_DAY).max(1);
    // Every world gets its own seed stream; the offset keeps world 0 of
    // different points distinct as well.
    let seed = master_seed
        .wrapping_add(point.players())
        .wrapping_add(world as u64);
    let mut rs = RuneScapeConfig::paper_default(days, seed);
    rs.regions.truncate(1);
    rs.regions[0].groups = point.groups_per_world;
    // The streaming workload replaces the materialized trace wholesale,
    // so build the config through the workload-parameterized scenario
    // constructor — generating the standard trace per world just to
    // throw it away cost more than a third of the 1M point's wall time.
    let mut game = mmog_sim::scenario::prediction_impact_with_workload(
        PredictorKind::LastValue,
        AllocationMode::Dynamic,
        &ScenarioOpts::smoke(seed),
        rs.into(),
    );
    game.ticks = Some(ticks);
    game.train_ticks = 0;
    game.warmup_ticks = 0;
    game.master_seed = seed;
    game
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs one sweep point: builds every world's streaming configuration
/// and fans the runs across the parallel layer, each world feeding
/// `sinks`. World order (and so the semantic section) is independent of
/// `--jobs`.
#[must_use]
pub fn run_point(point: &SweepPoint, ticks: usize, master_seed: u64, sinks: &Sinks) -> PointResult {
    let worlds: Vec<usize> = (0..point.worlds).collect();
    // Counters accumulate over the caller's whole scope (`scale_bench`
    // records every point into the process default): deltas around the
    // point isolate this point's skip activity.
    let c_skips = mmog_obs::counter("sim.match.skips", mmog_obs::Domain::Semantic);
    let c_full = mmog_obs::counter("sim.match.full", mmog_obs::Domain::Semantic);
    let skips_before = c_skips.get();
    let full_before = c_full.get();
    let start = std::time::Instant::now();
    let reports = mmog_par::par_map(&worlds, |&w| {
        let cfg = SimulationConfig {
            sinks: sinks.clone(),
            ..world_config(point, w, ticks, master_seed)
        };
        Simulation::new(cfg).run()
    });
    let seconds = start.elapsed().as_secs_f64();
    let match_skips = c_skips.get().wrapping_sub(skips_before);
    let match_full = c_full.get().wrapping_sub(full_before);
    let worlds = reports
        .iter()
        .enumerate()
        .map(|(w, r)| WorldSummary::from_report(w, r))
        .collect();
    PointResult {
        point: *point,
        ticks,
        seconds,
        peak_rss_kb: peak_rss_kb(),
        worlds,
        match_skips,
        match_full,
    }
}

/// Runs the whole ladder on `sinks`, reporting progress on stdout.
#[must_use]
pub fn run_sweep(
    points: &[SweepPoint],
    ticks: usize,
    master_seed: u64,
    sinks: &Sinks,
) -> Vec<PointResult> {
    points
        .iter()
        .map(|p| {
            let result = run_point(p, ticks, master_seed, sinks);
            let rss = result
                .peak_rss_kb
                .map_or("-".to_string(), |kb| format!("{:.1} MB", kb as f64 / 1024.0));
            println!(
                "scale/{}: {} players, {} worlds x {} groups, {:.2}s ({:.0} players/s, {:.1} world-ticks/s, {:.1}% match skips, peak RSS {rss})",
                p.label,
                p.players(),
                p.worlds,
                p.groups_per_world,
                result.seconds,
                result.players_per_sec(),
                result.ticks_per_sec(),
                result.match_skip_rate() * 100.0,
            );
            result
        })
        .collect()
}

/// Renders the deterministic section alone: identical bytes for any
/// `--jobs` and any machine (the determinism suite compares this output
/// across worker counts through the trace differ).
#[must_use]
pub fn render_semantic(results: &[PointResult]) -> String {
    let mut out = String::from("{\n    \"points\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "      {{\"label\": \"{}\", \"players\": {}, \"worlds\": [\n",
            r.point.label,
            r.point.players()
        ));
        for (j, w) in r.worlds.iter().enumerate() {
            let wc = if j + 1 == r.worlds.len() { "" } else { "," };
            out.push_str(&format!(
                "        {{\"world\": {}, \"avg_over_cpu\": {:.6}, \"avg_under_cpu\": {:.6}, \
                 \"events\": {}, \"samples\": {}, \"unmet_steps\": {}}}{wc}\n",
                w.world, w.avg_over_cpu, w.avg_under_cpu, w.events, w.samples, w.unmet_steps
            ));
        }
        out.push_str(&format!("      ]}}{comma}\n"));
    }
    out.push_str("    ]\n  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_matches_flags() {
        let quick = sweep_points(true, false);
        assert_eq!(
            quick.iter().map(|p| p.label).collect::<Vec<_>>(),
            ["10k", "100k"]
        );
        let default = sweep_points(false, false);
        assert_eq!(default.last().unwrap().label, "1M");
        let full = sweep_points(false, true);
        assert_eq!(full.last().unwrap().label, "10M");
        assert_eq!(full.last().unwrap().players(), 10_000_000);
        for p in &full {
            let expected: u64 = match p.label {
                "10k" => 10_000,
                "100k" => 100_000,
                "1M" => 1_000_000,
                "10M" => 10_000_000,
                other => panic!("unexpected point {other}"),
            };
            assert_eq!(p.players(), expected, "{}", p.label);
        }
    }

    #[test]
    fn world_config_is_streaming_and_seed_distinct() {
        let p = SweepPoint {
            label: "10k",
            worlds: 1,
            groups_per_world: 5,
        };
        let cfg = world_config(&p, 0, 120, 2008);
        assert_eq!(cfg.games[0].workload.group_count(), 5);
        assert!(matches!(
            cfg.games[0].workload,
            mmog_sim::engine::GameWorkload::Streaming(_)
        ));
        assert_eq!(cfg.ticks, Some(120));
        let other = world_config(&p, 1, 120, 2008);
        assert_ne!(cfg.master_seed, other.master_seed);
    }

    #[test]
    fn tiny_sweep_summary_round_trips_through_the_timing_gate() {
        let p = SweepPoint {
            label: "10k",
            worlds: 2,
            groups_per_world: 2,
        };
        // The sweep records into a scope of its own, so the summary
        // holds exactly this sweep.
        let (results, summary) = mmog_par::scoped(1, &mmog_obs::Registry::new(), || {
            let results = run_sweep(&[p], 30, 7, &Sinks::default());
            mmog_obs::note_run(results[0].seconds, 1, 1);
            (results, mmog_obs::summary_json())
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].worlds.len(), 2);
        assert!(results[0].worlds.iter().all(|w| w.samples == 30));
        use mmog_obs::Document as _;
        let semantic = mmog_obs::Summary::parse(&summary)
            .unwrap()
            .semantic
            .counters;
        let (skips, full) = (results[0].match_skips, results[0].match_full);
        assert_eq!(semantic["sim.runs"], 2);
        assert_eq!(semantic["sim.match.skips"], skips);
        assert_eq!(semantic["sim.match.full"], full);
        assert_eq!(skips + full, 2 * 2 * 30, "one settle step per group-tick");
        // The summary `scale_bench --metrics` writes must build a timing
        // baseline, and an identical summary must pass the gate against
        // it.
        let gate = mmog_obs_analyze::gate::TimingThresholds {
            strict_paths: true,
            ..Default::default()
        };
        let baseline = mmog_obs_analyze::gate::make_timing_baseline(&summary).unwrap();
        let outcome = mmog_obs_analyze::gate::check_timing(&baseline, &summary, &gate).unwrap();
        assert!(outcome.pass(), "{outcome:?}");
        for path in ["sim/run", "sim/run/tick"] {
            assert!(
                baseline.contains(&format!("\"{path}\"")),
                "baseline misses {path}: {baseline}"
            );
        }
    }

    #[test]
    fn semantic_section_ignores_timing() {
        let p = SweepPoint {
            label: "10k",
            worlds: 1,
            groups_per_world: 2,
        };
        let mut results = run_sweep(&[p], 20, 11, &Sinks::default());
        let a = render_semantic(&results);
        results[0].seconds *= 100.0;
        results[0].peak_rss_kb = Some(123_456);
        let b = render_semantic(&results);
        assert_eq!(a, b, "semantic rendering must not depend on timing");
    }
}
