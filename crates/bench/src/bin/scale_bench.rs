//! `scale_bench` — the federation scale sweep (10k → 10M synthetic
//! players).
//!
//! Each sweep point federates independent worlds, every one driven by a
//! streaming one-region RuneScape-like workload (O(1) memory per group
//! in the trace length) and fanned across the parallel layer; see
//! [`mmog_bench::scale`]. The per-point throughput goes to stdout,
//! followed by the deterministic semantic section. With `--metrics` the
//! whole ladder's stage totals and latency tails are written to the
//! `timing` section of `results/OBS_summary.json`; CI gates that file
//! against `results/BASELINE_scale.json` with `obs_gate`.
//!
//! ```text
//! scale_bench [--quick] [--full] [--ticks N] [--jobs N] [--seed N]
//!             [--metrics] [--flight N] [--flight-dump]
//!             [--tick-deadline-ms N] [--trace PATH] [--ts DIR]
//!             [--live PATH] [--live-every N]
//! ```
//!
//! `--quick` stops the ladder at 100k (the CI smoke scale), the default
//! runs 10k → 1M, `--full` adds the 10M point. `--ticks` sets the
//! per-world tick count (default one day, 720). Every other flag is the
//! experiment binaries' (see `mmog_bench::cli`): with the flight flags
//! each world keeps a bounded window of full-detail events and dumps
//! `FLIGHT_<run>.jsonl` only on a trigger.

use mmog_bench::cli::parse_value;
use mmog_bench::{scale, RunOpts};
use mmog_util::time::TICKS_PER_DAY;
use std::fs;
use std::path::Path;
use std::time::Instant;

struct Opts {
    quick: bool,
    full: bool,
    ticks: usize,
    run: RunOpts,
}

fn parse_args() -> Opts {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        quick: false,
        full: false,
        ticks: TICKS_PER_DAY as usize,
        run: RunOpts::parse(args.iter().cloned()),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--full" => opts.full = true,
            "--ticks" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"));
                opts.ticks = parse_value(flag, raw);
            }
            _ => {}
        }
    }
    opts.run.apply_jobs();
    opts
}

fn main() {
    let opts = parse_args();
    let points = scale::sweep_points(opts.quick, opts.full);
    println!(
        "Scale sweep: {} -> {} players, {} ticks/world, {} jobs",
        points.first().map_or(0, scale::SweepPoint::players),
        points.last().map_or(0, scale::SweepPoint::players),
        opts.ticks,
        mmog_par::jobs()
    );
    let start = Instant::now();
    let results = scale::run_sweep(&points, opts.ticks, opts.run.seed, &opts.run.sinks);
    let wall_seconds = start.elapsed().as_secs_f64();
    println!("{}", scale::render_semantic(&results));
    opts.run.flush_sinks();
    if opts.run.metrics {
        mmog_obs::note_run(wall_seconds, mmog_par::jobs(), mmog_par::available_jobs());
        let out_dir = Path::new("results");
        fs::create_dir_all(out_dir).expect("cannot create results/");
        let path = out_dir.join("OBS_summary.json");
        fs::write(&path, mmog_obs::summary_json()).expect("cannot write OBS summary");
        println!("== metrics summary -> {}", path.display());
    }
}
