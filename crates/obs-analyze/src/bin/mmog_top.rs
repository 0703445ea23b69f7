//! `mmog_top` — a live terminal dashboard over the engine's telemetry
//! tap.
//!
//! ```text
//! mmog_top [PATH] [--once] [--interval-ms N]
//! ```
//!
//! Watches the `OBS_live.json` snapshot a run publishes under `--live`
//! (default path: `results/OBS_live.json`) and redraws an in-place
//! dashboard: run progress, tick rate, per-stage p99 latencies, the
//! match skip rate, per-center utilization bars, and the fault/scenario
//! counters. The snapshot is atomically replaced by the engine, so a
//! read never observes a torn write. The watch loop exits when the
//! snapshot reports `done: true`; `--once` renders a single frame
//! without ANSI cursor control (the mode CI uses to capture a frame).

use mmog_obs::{Document, LiveSnapshot};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const BAR_WIDTH: usize = 24;

fn bar(fraction: f64, width: usize) -> String {
    let clamped = fraction.clamp(0.0, 1.0);
    let filled = (clamped * width as f64).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(width - filled))
}

/// Renders one dashboard frame from a parsed snapshot.
fn render(snap: &LiveSnapshot) -> String {
    let (sem, timing) = (&snap.semantic, &snap.timing);
    let (tick, total) = (snap.tick, snap.ticks_total);
    let progress = (tick + 1) as f64 / total as f64;
    let mut out = String::new();
    out.push_str(&format!("mmog_top — {}\n\n", snap.run));
    out.push_str(&format!(
        "  tick {tick}/{total} {} {:5.1}%{}\n",
        bar(progress, BAR_WIDTH),
        progress * 100.0,
        if snap.done { "  (done)" } else { "" }
    ));
    out.push_str(&format!("  tick rate {:.1}/s\n\n", timing.tick_rate));
    out.push_str(&format!(
        "  demand {:10.1} cpu   alloc {:10.1} cpu   shortfall {:8.1} cpu\n",
        sem.demand_cpu, sem.alloc_cpu, sem.shortfall_cpu,
    ));
    out.push_str(&format!(
        "  match skip {:5.1}%   leases held {}   faults {}   scenarios {}   centers down {}\n\n",
        sem.match_skip_rate * 100.0,
        sem.leases_held,
        sem.fault_events,
        sem.scenario_events,
        sem.centers_down,
    ));
    let p99 = &timing.stage_p99_us;
    out.push_str(&format!(
        "  stage p99 (us):  predict_score {:.1}  reduce {:.1}  match_settle {:.1}  tick {:.1}\n",
        p99.predict_score, p99.reduce, p99.match_settle, p99.tick
    ));
    out.push_str("\n  centers:\n");
    for c in &sem.centers {
        let (name, alloc, cap) = (&c.name, c.alloc_cpu, c.capacity_cpu);
        if cap > 0.0 {
            out.push_str(&format!(
                "    {name:<16} {} {:5.1}%  {alloc:9.1}/{cap:9.1} cpu\n",
                bar(alloc / cap, BAR_WIDTH),
                100.0 * alloc / cap
            ));
        } else {
            out.push_str(&format!("    {name:<16} DOWN\n"));
        }
    }
    out
}

fn load(path: &PathBuf) -> Result<LiveSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    LiveSnapshot::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run() -> Result<(), String> {
    let mut path: Option<PathBuf> = None;
    let mut once = false;
    let mut interval_ms = 500u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval-ms" => {
                interval_ms = args
                    .next()
                    .ok_or("--interval-ms needs a value")?
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
            }
            "--help" | "-h" => {
                return Err("usage: mmog_top [PATH] [--once] [--interval-ms N]".to_string())
            }
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let path = path.unwrap_or_else(|| PathBuf::from("results/OBS_live.json"));
    if once {
        print!("{}", render(&load(&path)?));
        return Ok(());
    }
    // Watch mode: home the cursor and clear below the frame instead of
    // wiping the whole screen, so redraws don't flicker.
    print!("\x1b[2J");
    loop {
        match load(&path) {
            Ok(snap) => {
                print!("\x1b[H{}\x1b[J", render(&snap));
                if snap.done {
                    return Ok(());
                }
            }
            // The run may not have published its first snapshot yet (or
            // is mid-rename); keep waiting rather than dying.
            Err(e) => println!("\x1b[H\x1b[Jmmog_top: waiting for snapshot ({e})"),
        }
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(Duration::from_millis(interval_ms.max(50)));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mmog_top: {e}");
            ExitCode::FAILURE
        }
    }
}
