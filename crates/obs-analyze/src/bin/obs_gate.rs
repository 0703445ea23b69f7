//! `obs_gate` — the baseline regression gate CI runs after the quick
//! suite and after the scale ladder.
//!
//! ```text
//! obs_gate --summary results/OBS_summary.json
//!          --bench-baseline results/BASELINE_bench.json
//!          [--obs-baseline results/BASELINE_obs.json]
//!          [--max-slowdown-pct 25] [--min-stage-ms 50]
//!          [--max-p99-slowdown-pct 100] [--min-p99-us 20]
//!          [--strict-paths] [--update] [--suite quick]
//! ```
//!
//! The summary's `timing` section is checked against the timing
//! baseline (`--bench-baseline`: `BASELINE_bench.json` for the quick
//! suite, `BASELINE_scale.json` for `scale_bench`), and — when
//! `--obs-baseline` is given — its `semantic` section against that
//! baseline exactly. Default mode compares and exits non-zero on any
//! failure (semantic drift always fails; timing failures require a
//! matching `jobs`/`logical_cpus` environment). Stages and latency paths
//! the baseline has never seen are listed by name — warnings by
//! default, hard failures under `--strict-paths` (the CI posture, so a
//! renamed kernel path can't silently dodge the p99 gate). `--update`
//! regenerates the given baseline files from the summary instead.

use mmog_obs_analyze::gate::{
    check_obs, check_timing, make_obs_baseline, make_timing_baseline, GateOutcome, TimingThresholds,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    summary: PathBuf,
    obs_baseline: Option<PathBuf>,
    bench_baseline: PathBuf,
    thresholds: TimingThresholds,
    update: bool,
    suite: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut summary = None;
    let mut obs_baseline = None;
    let mut bench_baseline = None;
    let mut thresholds = TimingThresholds::default();
    let mut update = false;
    let mut suite = "quick".to_string();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--summary" => summary = Some(PathBuf::from(value("--summary")?)),
            "--obs-baseline" => obs_baseline = Some(PathBuf::from(value("--obs-baseline")?)),
            "--bench-baseline" => bench_baseline = Some(PathBuf::from(value("--bench-baseline")?)),
            "--max-slowdown-pct" => {
                thresholds.max_slowdown_pct = value("--max-slowdown-pct")?
                    .parse()
                    .map_err(|e| format!("--max-slowdown-pct: {e}"))?;
            }
            "--min-stage-ms" => {
                thresholds.min_stage_ms = value("--min-stage-ms")?
                    .parse()
                    .map_err(|e| format!("--min-stage-ms: {e}"))?;
            }
            "--max-p99-slowdown-pct" => {
                thresholds.max_p99_slowdown_pct = value("--max-p99-slowdown-pct")?
                    .parse()
                    .map_err(|e| format!("--max-p99-slowdown-pct: {e}"))?;
            }
            "--min-p99-us" => {
                thresholds.min_p99_us = value("--min-p99-us")?
                    .parse()
                    .map_err(|e| format!("--min-p99-us: {e}"))?;
            }
            "--strict-paths" => thresholds.strict_paths = true,
            "--update" => update = true,
            "--suite" => suite = value("--suite")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Opts {
        summary: summary.ok_or("missing --summary")?,
        obs_baseline,
        bench_baseline: bench_baseline.ok_or("missing --bench-baseline")?,
        thresholds,
        update,
        suite,
    })
}

fn read(path: &PathBuf) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn write(path: &PathBuf, body: String) -> Result<(), String> {
    std::fs::write(path, body + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn run(opts: &Opts) -> Result<bool, String> {
    let summary = read(&opts.summary)?;
    if opts.update {
        if let Some(obs_baseline) = &opts.obs_baseline {
            write(obs_baseline, make_obs_baseline(&summary, &opts.suite)?)?;
            println!("updated {}", obs_baseline.display());
        }
        write(&opts.bench_baseline, make_timing_baseline(&summary)?)?;
        println!("updated {}", opts.bench_baseline.display());
        return Ok(true);
    }
    let mut outcome = GateOutcome::default();
    if let Some(obs_baseline) = &opts.obs_baseline {
        outcome.merge(check_obs(&read(obs_baseline)?, &summary)?);
    }
    outcome.merge(check_timing(
        &read(&opts.bench_baseline)?,
        &summary,
        &opts.thresholds,
    )?);
    print!("{}", outcome.render("obs_gate"));
    Ok(outcome.pass())
}

fn main() -> ExitCode {
    match parse_args().and_then(|opts| run(&opts)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("obs_gate: {e}");
            ExitCode::from(2)
        }
    }
}
