//! Minimal argument parsing shared by the experiment binaries.

use mmog_faults::{FaultSpec, ScenarioSpec};
use mmog_obs::{Collector, FlightConfig, LiveConfig, Sinks};
use mmog_sim::engine::{SimReport, Simulation, SimulationConfig};
use mmog_sim::scenario::ScenarioOpts;
use std::fmt::Display;
use std::str::FromStr;

/// `--help` text shared by the experiment binaries: every flag plus the
/// full `--faults` and `--scenario` grammars.
pub const HELP: &str = "\
Usage: <experiment> [FLAGS]

A missing or malformed flag value aborts the run; unknown flags are
ignored.

Scale:
  --quick                3-day, 6-groups-per-region smoke run
  --days N               trace length in days (default 14)
  --cap N                cap server groups per region (default: none)
  --seed N               deterministic master seed (default 2008)
  --jobs N               worker threads (0 = all CPUs, 1 = serial)

Observability:
  --trace PATH           write the JSONL event log to PATH
  --metrics              export the metrics summary (OBS_summary.json)
  --flight N             flight recorder: retain the last N ticks,
                         dumped to FLIGHT_<run>.jsonl on a trigger
  --flight-dump          dump the final window at run end regardless
  --tick-deadline-ms N   fire the flight recorder when a tick exceeds
                         N wall-clock milliseconds (diagnosis only)
  --ts DIR               export per-run downsampled time series as
                         DIR/TS_<run>.json
  --live PATH            atomically rewrite a live telemetry snapshot
                         at PATH every few ticks; watch it with
                         mmog_top
  --live-every N         live snapshot rewrite interval in ticks
                         (default 64)

  Every run carries its own outputs; none is read from the
  environment.

Fault injection (--faults SPEC | MMOG_FAULTS):
  SPEC is `paper` or comma-separated key=value pairs; whitespace
  around `=` and `,` is ignored.
    outages=F   expected outages per center-day     repair=N   mean repair minutes
    degrade=F   expected degradations per center-day  dfrac=F  surviving fraction
    dmins=N     mean degradation minutes            revoke=F   lease revocations/day
    dropout=F   predictor dropout probability per tick          seed=N

Scenario engine (--scenario SPEC | MMOG_SCENARIO):
  SPEC is `paper` or comma-separated key=value pairs; whitespace
  around `=` and `,` is ignored.
    partition=F  expected network partitions/day    pmins=N    mean partition minutes
    migrate=F    expected zone migrations/day       mcost=N    ticks charged per player
    flash=F      expected flash crowds/day          fpeak=F    demand multiplier (>= 1)
    fmins=N      mean flash-crowd minutes           failover=F center drains/day
    link=F       link degradations/day              lfactor=F  distance multiplier (>= 1)
    lmins=N      mean link-degradation minutes      seed=N
";

/// Scale options for an experiment run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Trace length in days (paper: 14).
    pub days: u64,
    /// Optional cap on server groups per region (paper: none).
    pub cap: Option<u32>,
    /// Deterministic seed.
    pub seed: u64,
    /// Worker threads for the parallel execution layer (0 = all
    /// logical CPUs; 1 = fully serial, bit-identical reference path).
    pub jobs: usize,
    /// Whether to export the metrics summary (`--metrics`).
    pub metrics: bool,
    /// Fault-injection spec (`--faults SPEC`; the `MMOG_FAULTS`
    /// environment variable is the fallback). `--faults paper` selects
    /// the default rates; `--faults "outages=0.5,repair=120"` tunes
    /// them. Malformed specs abort rather than silently running
    /// unfaulted.
    pub faults: Option<FaultSpec>,
    /// Scenario-engine spec (`--scenario SPEC`; the `MMOG_SCENARIO`
    /// environment variable is the fallback). `--scenario paper`
    /// selects the default rates; `--scenario "partition=1,migrate=4"`
    /// tunes them. Malformed specs abort rather than silently running
    /// scenario-free.
    pub scenario_spec: Option<ScenarioSpec>,
    /// The observability outputs every run of this invocation feeds:
    /// `--trace PATH`, `--ts DIR`, the flight flags (`--flight N`,
    /// `--flight-dump`, `--tick-deadline-ms N`) and the live tap
    /// (`--live PATH`, `--live-every N`). All off by default, which
    /// keeps runs byte-identical to unobserved ones.
    pub sinks: Sinks,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self {
            days: 14,
            cap: None,
            seed: 2008,
            jobs: 0,
            metrics: false,
            faults: None,
            scenario_spec: None,
            sinks: Sinks::default(),
        }
    }
}

impl RunOpts {
    /// Parses the flags of [`HELP`] from the process arguments and
    /// applies `--jobs` to the global parallelism setting. `--quick` is
    /// shorthand for a 3-day, 6-group smoke run. Unknown flags are
    /// ignored so binaries stay composable.
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
            print!("{HELP}");
            std::process::exit(0);
        }
        let mut opts = Self::parse(std::env::args().skip(1));
        if opts.faults.is_none() {
            if let Ok(spec) = std::env::var("MMOG_FAULTS") {
                if !spec.is_empty() {
                    opts.faults = Some(parse_fault_spec(&spec));
                }
            }
        }
        if opts.scenario_spec.is_none() {
            if let Ok(spec) = std::env::var("MMOG_SCENARIO") {
                if !spec.is_empty() {
                    opts.scenario_spec = Some(parse_scenario_spec(&spec));
                }
            }
        }
        opts.apply_jobs();
        opts
    }

    /// Parses flags from an explicit argument list (testable core of
    /// [`from_args`]; does not touch global state).
    ///
    /// # Panics
    /// Panics, naming the flag and the value, when a known flag's value
    /// is missing or malformed: a typo must abort the run, not silently
    /// run it at another scale or without the output it asked for.
    ///
    /// [`from_args`]: Self::from_args
    #[must_use]
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let (mut flight, mut flight_dump, mut deadline_ms) = (None, false, None);
        let mut live_every = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--quick" => {
                    opts.days = 3;
                    opts.cap = Some(6);
                }
                "--days" => opts.days = parse_value(&flag, &value()),
                "--cap" => opts.cap = Some(parse_value(&flag, &value())),
                "--seed" => opts.seed = parse_value(&flag, &value()),
                "--jobs" => opts.jobs = parse_value(&flag, &value()),
                "--metrics" => opts.metrics = true,
                "--faults" => opts.faults = Some(parse_fault_spec(&value())),
                "--scenario" => opts.scenario_spec = Some(parse_scenario_spec(&value())),
                "--trace" => opts.sinks.trace = Some(Collector::trace(value())),
                "--ts" => opts.sinks.ts = Some(Collector::time_series(value())),
                "--live" => opts.sinks.live = Some(LiveConfig::new(value().as_ref())),
                "--live-every" => live_every = Some(parse_value(&flag, &value())),
                "--flight" => flight = Some(parse_value(&flag, &value())),
                "--flight-dump" => flight_dump = true,
                "--tick-deadline-ms" => deadline_ms = Some(parse_value::<u64>(&flag, &value())),
                _ => {}
            }
        }
        if let (Some(live), Some(every)) = (&mut opts.sinks.live, live_every) {
            live.every_ticks = every;
        }
        // Any flight flag implies a recorder, with a 64-tick window
        // unless `--flight` names one.
        if flight.is_some() || flight_dump || deadline_ms.is_some() {
            opts.sinks.flight = Some(FlightConfig {
                dump_at_end: flight_dump,
                deadline_ns: deadline_ms.map(|ms| ms.saturating_mul(1_000_000)),
                ..FlightConfig::new(flight.unwrap_or(64))
            });
        }
        opts
    }

    /// Runs one simulation on this invocation's observability sinks.
    #[must_use]
    pub fn run(&self, mut cfg: SimulationConfig) -> SimReport {
        cfg.sinks = self.sinks.clone();
        Simulation::new(cfg).run()
    }

    /// Writes the trace and time-series files the runs collected and
    /// prints where they went (nothing when those sinks are off).
    pub fn flush_sinks(&self) {
        let sinks = self.sinks.trace.iter().map(|c| (c, "event trace"));
        for (collector, what) in sinks.chain(self.sinks.ts.iter().map(|c| (c, "time series"))) {
            match collector.flush() {
                Ok(paths) => {
                    for path in paths {
                        println!("== {what} -> {}", path.display());
                    }
                }
                Err(e) => eprintln!("== {what} write failed: {e}"),
            }
        }
    }

    /// The tail of a standalone figure binary: prints `report`, writes
    /// it to `results/<name>.txt`, flushes the sinks and, under
    /// `--metrics`, writes `results/OBS_summary.json`.
    pub fn write_report(&self, name: &str, report: &str) {
        print!("{report}");
        let out_dir = std::path::Path::new("results");
        std::fs::create_dir_all(out_dir).expect("cannot create results/");
        let path = out_dir.join(format!("{name}.txt"));
        std::fs::write(&path, report).expect("cannot write report");
        println!("== {name} -> {}", path.display());
        self.flush_sinks();
        if self.metrics {
            let summary_path = out_dir.join("OBS_summary.json");
            std::fs::write(&summary_path, mmog_obs::summary_json())
                .expect("cannot write OBS summary");
            println!("== metrics summary -> {}", summary_path.display());
        }
    }

    /// Installs this run's `--jobs` value as the process-wide worker
    /// count consulted by every parallel sweep and simulation.
    pub fn apply_jobs(&self) {
        mmog_par::set_jobs(self.jobs);
    }

    /// The equivalent scenario options.
    #[must_use]
    pub fn scenario(&self) -> ScenarioOpts {
        ScenarioOpts {
            days: self.days,
            seed: self.seed,
            group_cap: self.cap,
        }
    }
}

/// Parses the value `raw` given for `flag`.
///
/// # Panics
/// Panics, naming the flag and the value, when `raw` does not parse.
#[must_use]
pub fn parse_value<T: FromStr>(flag: &str, raw: &str) -> T
where
    T::Err: Display,
{
    raw.parse()
        .unwrap_or_else(|e| panic!("invalid value {raw:?} for {flag}: {e}"))
}

/// Resolves a `--faults` / `MMOG_FAULTS` value: the keyword `paper`
/// selects [`FaultSpec::paper_default`]; anything else must parse as a
/// `key=value` list.
///
/// # Panics
/// Panics on a malformed spec — a typo must abort the run, not
/// silently disable fault injection.
#[must_use]
pub fn parse_fault_spec(spec: &str) -> FaultSpec {
    if spec == "paper" {
        return FaultSpec::paper_default();
    }
    match FaultSpec::parse(spec) {
        Ok(parsed) => parsed,
        Err(err) => panic!("invalid fault spec {spec:?}: {err}"),
    }
}

/// Resolves a `--scenario` / `MMOG_SCENARIO` value: the keyword `paper`
/// selects [`ScenarioSpec::paper_default`]; anything else must parse as
/// a `key=value` list.
///
/// # Panics
/// Panics on a malformed spec — a typo must abort the run, not
/// silently disable the scenario engine.
#[must_use]
pub fn parse_scenario_spec(spec: &str) -> ScenarioSpec {
    if spec == "paper" {
        return ScenarioSpec::paper_default();
    }
    match ScenarioSpec::parse(spec) {
        Ok(parsed) => parsed,
        Err(err) => panic!("invalid scenario spec {spec:?}: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_are_paper_scale() {
        let o = RunOpts::parse(args(&[]));
        assert_eq!((o.days, o.cap, o.seed, o.jobs), (14, None, 2008, 0));
    }

    #[test]
    fn quick_and_overrides_parse() {
        let o = RunOpts::parse(args(&["--quick", "--seed", "7", "--jobs", "3"]));
        assert_eq!(o.days, 3);
        assert_eq!(o.cap, Some(6));
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 3);
        // Explicit scale after --quick wins.
        let o = RunOpts::parse(args(&["--quick", "--days", "5", "--cap", "9"]));
        assert_eq!((o.days, o.cap), (5, Some(9)));
    }

    #[test]
    fn unknown_flags_are_ignored() {
        // `scale_bench` passes its own flags (and their values) through.
        let o = RunOpts::parse(args(&["--verbose", "--ticks", "30", "--full"]));
        assert_eq!((o.days, o.cap, o.seed, o.jobs), (14, None, 2008, 0));
        assert!(o.sinks.trace.is_none() && o.sinks.flight.is_none());
        assert!(!o.metrics);
    }

    /// The panic message `RunOpts::parse(list)` aborts with.
    fn abort_message(list: &[&str]) -> String {
        let list = args(list);
        let payload = std::panic::catch_unwind(|| RunOpts::parse(list))
            .expect_err("must abort, not run with a default");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
        }
    }

    #[test]
    fn malformed_values_abort_naming_flag_and_value() {
        for case in [
            &["--days", "abc"][..],
            &["--cap", "x"],
            &["--quick", "--cap", "x"],
            &["--seed", "-1"],
            &["--jobs", "x"],
            &["--flight", "x"],
            &["--tick-deadline-ms", "5ms"],
            &["--live", "p.json", "--live-every", "x"],
        ] {
            let (flag, raw) = (case[case.len() - 2], case[case.len() - 1]);
            let message = abort_message(case);
            assert!(
                message.contains(flag) && message.contains(&format!("{raw:?}")),
                "{case:?}: {message}"
            );
        }
    }

    #[test]
    fn value_flags_in_last_position_abort() {
        for flag in [
            "--days",
            "--cap",
            "--seed",
            "--jobs",
            "--trace",
            "--faults",
            "--scenario",
            "--flight",
            "--tick-deadline-ms",
            "--ts",
            "--live",
            "--live-every",
        ] {
            let message = abort_message(&["--quick", flag]);
            assert_eq!(message, format!("missing value for {flag}"));
        }
    }

    #[test]
    fn faults_flag_parses() {
        let o = RunOpts::parse(args(&["--faults", "paper"]));
        assert_eq!(o.faults, Some(FaultSpec::paper_default()));
        let o = RunOpts::parse(args(&["--faults", "outages=0.5,repair=120,seed=9"]));
        let spec = o.faults.expect("spec parsed");
        assert_eq!(spec.outages_per_center_day, 0.5);
        assert_eq!(spec.repair_minutes, 120);
        assert_eq!(spec.seed, 9);
        assert_eq!(RunOpts::parse(args(&[])).faults, None);
    }

    #[test]
    #[should_panic(expected = "invalid fault spec")]
    fn malformed_fault_spec_aborts() {
        let _ = RunOpts::parse(args(&["--faults", "bogus_key=1"]));
    }

    #[test]
    fn scenario_flag_parses() {
        let o = RunOpts::parse(args(&["--scenario", "paper"]));
        assert_eq!(o.scenario_spec, Some(ScenarioSpec::paper_default()));
        let o = RunOpts::parse(args(&["--scenario", "partition=1.5, migrate = 4, mcost=3"]));
        let spec = o.scenario_spec.expect("spec parsed");
        assert_eq!(spec.partitions_per_day, 1.5);
        assert_eq!(spec.migrations_per_day, 4.0);
        assert_eq!(spec.migration_cost_ticks, 3);
        assert_eq!(RunOpts::parse(args(&[])).scenario_spec, None);
    }

    #[test]
    #[should_panic(expected = "invalid scenario spec")]
    fn malformed_scenario_spec_aborts() {
        let _ = RunOpts::parse(args(&["--scenario", "partitions=1"]));
    }

    #[test]
    fn help_documents_both_spec_grammars() {
        for key in [
            "--faults",
            "outages=",
            "repair=",
            "dropout=",
            "--scenario",
            "partition=",
            "pmins=",
            "migrate=",
            "mcost=",
            "flash=",
            "fpeak=",
            "fmins=",
            "failover=",
            "link=",
            "lfactor=",
            "lmins=",
            "seed=",
        ] {
            assert!(HELP.contains(key), "help text missing {key}");
        }
    }

    #[test]
    fn observability_flags_parse() {
        let o = RunOpts::parse(args(&["--trace", "events.jsonl", "--metrics"]));
        let trace = o.sinks.trace.expect("configured");
        assert_eq!(trace.dest(), Path::new("events.jsonl"));
        assert!(o.metrics);
    }

    #[test]
    fn ts_and_live_flags_parse_and_configure() {
        // Off by default: no tap, runs stay byte-identical.
        let o = RunOpts::parse(args(&[]));
        assert!(o.sinks.ts.is_none());
        assert!(o.sinks.live.is_none());
        // --live-every may come before --live.
        let o = RunOpts::parse(args(&[
            "--live-every",
            "16",
            "--ts",
            "results",
            "--live",
            "results/OBS_live.json",
        ]));
        assert_eq!(o.sinks.ts.expect("ts").dest(), Path::new("results"));
        let cfg = o.sinks.live.expect("configured");
        assert_eq!(cfg.path, Path::new("results/OBS_live.json"));
        assert_eq!(cfg.interval(), 16);
        // --live without --live-every keeps the default interval, and
        // --live-every alone installs no tap.
        let o = RunOpts::parse(args(&["--live", "x.json"]));
        assert_eq!(o.sinks.live.expect("configured").interval(), 64);
        assert!(RunOpts::parse(args(&["--live-every", "8"]))
            .sinks
            .live
            .is_none());
    }

    #[test]
    fn flight_flags_parse_and_configure() {
        // Off by default: no recorder, runs stay byte-identical.
        assert!(RunOpts::parse(args(&[])).sinks.flight.is_none());
        let o = RunOpts::parse(args(&["--flight", "32"]));
        let cfg = o.sinks.flight.expect("configured");
        assert_eq!(cfg.retain_ticks, 32);
        assert_eq!(cfg.records_capacity, FlightConfig::new(32).records_capacity);
        assert!(!cfg.dump_at_end);
        assert_eq!(cfg.deadline_ns, None);
        // --flight-dump alone implies the default window.
        let o = RunOpts::parse(args(&["--flight-dump"]));
        let cfg = o.sinks.flight.expect("configured");
        assert_eq!(cfg.retain_ticks, 64);
        assert!(cfg.dump_at_end);
        // The deadline converts ms → ns and implies a recorder too.
        let o = RunOpts::parse(args(&["--tick-deadline-ms", "5"]));
        let cfg = o.sinks.flight.expect("configured");
        assert_eq!(cfg.deadline_ns, Some(5_000_000));
        // Flag order does not matter.
        let o = RunOpts::parse(args(&[
            "--flight-dump",
            "--tick-deadline-ms",
            "5",
            "--flight",
            "8",
        ]));
        let cfg = o.sinks.flight.expect("configured");
        assert_eq!((cfg.retain_ticks, cfg.dump_at_end), (8, true));
        assert_eq!(cfg.deadline_ns, Some(5_000_000));
    }
}
