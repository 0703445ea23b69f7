//! `trace_analyze` — fold a JSONL trace into per-run timelines.
//!
//! ```text
//! trace_analyze TRACE [--out DIR] [--kind K]... [--scope S]
//!               [--tick-min N] [--tick-max N]
//! ```
//!
//! Prints the deterministic text report and writes
//! `DIR/TIMELINE_<stem>.json` (default: next to the trace). `--kind`
//! must name an event kind of the trace schema; a misspelt kind is an
//! error rather than a filter that silently matches nothing.

use mmog_obs::Event;
use mmog_obs_analyze::{analyze_trace, render_timelines, timelines_value, Query};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Opts {
    trace: PathBuf,
    out_dir: Option<PathBuf>,
    query: Query,
}

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let mut trace = None;
    let mut out_dir = None;
    let mut query = Query::default();
    let mut tick_min = None;
    let mut tick_max = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
            "--kind" => {
                let kind = value("--kind")?;
                if !Event::KINDS.contains(&kind.as_str()) {
                    return Err(format!(
                        "unknown event kind {kind:?}; known kinds: {}",
                        Event::KINDS.join(", ")
                    ));
                }
                query = query.kind(&kind);
            }
            "--scope" => query = query.scope_contains(&value("--scope")?),
            "--tick-min" => {
                tick_min = Some(
                    value("--tick-min")?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())?,
                );
            }
            "--tick-max" => {
                tick_max = Some(
                    value("--tick-max")?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())?,
                );
            }
            "--help" | "-h" => {
                return Err(
                    "usage: trace_analyze TRACE [--out DIR] [--kind K]... [--scope S] \
                     [--tick-min N] [--tick-max N]"
                        .to_string(),
                )
            }
            other if trace.is_none() && !other.starts_with('-') => {
                trace = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if tick_min.is_some() || tick_max.is_some() {
        query = query.tick_range(tick_min.unwrap_or(0), tick_max.unwrap_or(u64::MAX));
    }
    Ok(Opts {
        trace: trace.ok_or("missing TRACE argument")?,
        out_dir,
        query,
    })
}

fn run(opts: &Opts) -> Result<(), String> {
    let text = std::fs::read_to_string(&opts.trace)
        .map_err(|e| format!("{}: {e}", opts.trace.display()))?;
    let runs = analyze_trace(&text, &opts.query)?;
    print!("{}", render_timelines(&runs));
    let stem = opts
        .trace
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    let dir = opts
        .out_dir
        .clone()
        .or_else(|| opts.trace.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let out = dir.join(format!("TIMELINE_{stem}.json"));
    let body = timelines_value(&runs).render_pretty() + "\n";
    std::fs::write(&out, body).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nwrote {} ({} scopes)", out.display(), runs.len());
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trace_analyze: {e}");
            ExitCode::FAILURE
        }
    }
}
