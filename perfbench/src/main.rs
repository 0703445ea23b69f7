//! One workload instance in a fresh process: cold set-up, run, output
//! checks, and one JSON line on stdout with the measurements.
//!
//! ```text
//! perfbench --workload <paper_sweep|fine_churn|scale_1m> --seed <n> [--traced]
//! ```
//!
//! `perfbench/run.py` starts this binary several times per benchmark run
//! and aggregates the lines; see `perfbench/README.md`.

mod census;
mod registry;
mod spans;
mod workloads;

use mmog_datacenter::resource::ResourceType;
use mmog_obs::json::Value;
use registry::{quantile_us, Delta, Snapshot};
use spans::Tracer;

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next(),
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--traced" => traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        traced,
    })
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    mmog_par::set_jobs(1);
    let mut tracer = Tracer::new(args.traced);

    let before = Snapshot::take();
    let (built, setup_s) = workloads::setup(&args.workload, args.seed, &mut tracer);
    let workloads::Built {
        sims,
        shapes,
        census,
    } = built;
    let (reports, run_s) = tracer.time("run", |t| workloads::run(sims, t));
    let d = Delta::between(before, Snapshot::take());

    // Exact outputs: pure functions of the seed.
    let n = reports.len() as f64;
    let group_ticks: u64 = reports
        .iter()
        .zip(&shapes)
        .map(|(r, s)| s.groups * r.ticks as u64)
        .sum();
    let unmet_steps: u64 = reports.iter().map(|r| r.unmet_steps).sum();
    let sum = |f: fn(&mmog_sim::engine::SimReport) -> u64| -> u64 { reports.iter().map(f).sum() };
    let mut rejections = mmog_datacenter::matching::RejectionTotals::default();
    for r in &reports {
        rejections.merge(&r.rejections);
    }
    let exact = obj(vec![
        (
            "over_alloc_pct",
            Value::Num(
                reports
                    .iter()
                    .map(|r| r.metrics.avg_over(ResourceType::Cpu))
                    .sum::<f64>()
                    / n,
            ),
        ),
        (
            "sim.under_alloc_pct",
            Value::Num(
                reports
                    .iter()
                    .map(|r| r.metrics.avg_under(ResourceType::Cpu).abs())
                    .sum::<f64>()
                    / n,
            ),
        ),
        ("sim.under_events", Value::UInt(sum(|r| r.metrics.events()))),
        (
            "sim.unserved_player_ticks",
            Value::Num(reports.iter().map(|r| r.unserved_player_ticks).sum()),
        ),
        (
            "sim.unmet_share",
            Value::Num(unmet_steps as f64 / group_ticks as f64),
        ),
        ("sims", Value::UInt(reports.len() as u64)),
        ("sim.ticks", Value::UInt(sum(|r| r.ticks as u64))),
        ("sim.samples", Value::UInt(sum(|r| r.metrics.samples()))),
        ("sim.group_ticks", Value::UInt(group_ticks)),
        ("sim.unmet_steps", Value::UInt(unmet_steps)),
        (
            "sim.leases_granted",
            Value::UInt(d.counter("sim.leases_granted")),
        ),
        (
            "sim.leases_released",
            Value::UInt(d.counter("sim.leases_released")),
        ),
        ("faults.events", Value::UInt(sum(|r| r.fault_events))),
        (
            "faults.leases_revoked",
            Value::UInt(sum(|r| r.leases_revoked)),
        ),
        ("faults.reprovisions", Value::UInt(sum(|r| r.reprovisions))),
        (
            "faults.scenario_events",
            Value::UInt(sum(|r| r.scenario_events)),
        ),
        ("faults.migrations", Value::UInt(sum(|r| r.migrations))),
        (
            "datacenter.rejections.distance",
            Value::UInt(rejections.distance),
        ),
        (
            "datacenter.rejections.exhausted",
            Value::UInt(rejections.exhausted),
        ),
        (
            "datacenter.rejections.grant_failed",
            Value::UInt(rejections.grant_failed),
        ),
        (
            "datacenter.rejections.unavailable",
            Value::UInt(rejections.unavailable),
        ),
        (
            "datacenter.rejections.partitioned",
            Value::UInt(rejections.partitioned),
        ),
        ("predict.train_models", Value::UInt(census.models)),
        (
            "predict.train_repeat_share",
            Value::Num(census.repeat_share()),
        ),
    ]);

    // Invariants that hold for every seed.
    let mut violations = Vec::new();
    let skips = d.counter("sim.match.skips");
    let full = d.counter("sim.match.full");
    if skips + full != group_ticks {
        violations.push(format!(
            "memo skips {skips} + full walks {full} != group ticks {group_ticks}"
        ));
    }
    for (i, (r, s)) in reports.iter().zip(&shapes).enumerate() {
        let expected = r.ticks as u64 - s.warmup.min(r.ticks as u64);
        if r.metrics.samples() != expected {
            violations.push(format!(
                "simulation {i}: {} samples, expected ticks {} - warm-up {}",
                r.metrics.samples(),
                r.ticks,
                s.warmup
            ));
        }
    }

    // Per-layer measurements: registry deltas plus the benchmark's spans.
    let (_, train_s) = d.span("predict/neural/train");
    let (_, score_s) = d.span("sim/run/predict_score");
    let (_, reduce_s) = d.span("sim/run/reduce");
    let (_, settle_s) = d.span("sim/run/match_settle");
    let (match_calls, match_s) = d.span("datacenter/match");
    let tick = d.latency("sim/run/tick");
    let settle = d.latency("sim/run/match_settle");
    let score = d.latency("sim/run/predict_score");
    let requests = d.counter("match.requests");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layers = obj(vec![
        (
            "workload.trace_gen_s",
            Value::Num(tracer.total_s("workload.trace_gen")),
        ),
        (
            "faults.compile_s",
            Value::Num(tracer.total_s("faults.compile")),
        ),
        ("predict.train_s", Value::Num(train_s)),
        (
            "predict.train_share_of_setup",
            Value::Num(ratio(train_s, setup_s)),
        ),
        ("predict.score_s", Value::Num(score_s)),
        (
            "predict.score_p99_us",
            Value::Num(quantile_us(&score, 0.99)),
        ),
        ("sim.build_s", Value::Num(tracer.total_s("sim.build"))),
        ("sim.tick_p50_us", Value::Num(quantile_us(&tick, 0.50))),
        ("sim.tick_p99_us", Value::Num(quantile_us(&tick, 0.99))),
        ("sim.reduce_s", Value::Num(reduce_s)),
        ("sim.settle_s", Value::Num(settle_s)),
        ("sim.settle_p99_us", Value::Num(quantile_us(&settle, 0.99))),
        (
            "sim.settle_share_of_tick",
            Value::Num(ratio(settle.sum_ns as f64, tick.sum_ns as f64)),
        ),
        (
            "sim.skip_share",
            Value::Num(ratio(skips as f64, (skips + full) as f64)),
        ),
        ("datacenter.match_calls", Value::UInt(match_calls)),
        ("datacenter.match_s", Value::Num(match_s)),
        (
            "datacenter.match_mean_ns",
            Value::Num(ratio(match_s * 1e9, match_calls as f64)),
        ),
        (
            "datacenter.grant_share",
            Value::Num(ratio(
                requests.saturating_sub(d.counter("match.unmet_requests")) as f64,
                requests as f64,
            )),
        ),
    ]);

    let mut fields = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::UInt(args.seed)),
        ("traced", Value::Bool(args.traced)),
        ("setup_s", Value::Num(setup_s)),
        ("run_s", Value::Num(run_s)),
        ("peak_rss_mb", Value::Num(peak_rss_mb())),
        ("exact", exact),
        ("layers", layers),
        (
            "violations",
            Value::Arr(violations.into_iter().map(Value::Str).collect()),
        ),
    ];
    if args.traced {
        fields.push(("spans", tracer.to_value()));
    }
    println!("{}", obj(fields).render());
}
