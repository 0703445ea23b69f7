//! `latency_report` — percentile tables and ASCII distribution
//! sketches from the log-bucketed latency snapshots in the
//! `timing.latency` section of one or more `OBS_summary.json` files.
//!
//! ```text
//! latency_report results/OBS_summary.json [more.json ...]
//! ```
//!
//! Exits non-zero when no given artifact carries a latency snapshot, so
//! a run whose latency instrumentation went missing fails loudly.

use mmog_obs::{Document, Summary};
use mmog_obs_analyze::render_report;
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        return Err("usage: latency_report OBS_summary.json [more.json ...]".into());
    }
    let mut snapshots = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let found = Summary::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        snapshots.extend(found.latency.into_iter().map(|(name, s)| {
            let name = if paths.len() > 1 {
                format!("{path}: {name}")
            } else {
                name
            };
            (name, s)
        }));
    }
    if snapshots.is_empty() {
        return Err("no latency sections found (latency instrumentation off?)".into());
    }
    print!("{}", render_report(&snapshots));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("latency_report: {e}");
            ExitCode::FAILURE
        }
    }
}
