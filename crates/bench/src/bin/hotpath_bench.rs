//! Hot-path kernel benchmark: runs the full experiment suite, captures
//! the per-stage timing spans, and writes a before/after comparison to
//! `results/BENCH_hotpath.json`.
//!
//! The "before" column is the span table measured at the pre-optimization
//! commit (the parent of the allocation-free kernel rewrite) with the
//! same scale flags on the same class of machine — it is embedded here
//! so CI can regenerate the comparison without checking out two
//! revisions. Stages that did not exist before the rewrite (the
//! per-kernel timers added with it) report `"before_ms": null`.
//!
//! Usage mirrors `all_experiments`: `--quick` for the smoke scale,
//! `--days N --cap N --jobs N` for custom scales. Speedups are only
//! apples-to-apples against the embedded baseline when run with
//! `--quick --jobs 1`.

use mmog_bench::experiments as exp;
use mmog_bench::RunOpts;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Per-stage span table measured at the pre-optimization commit
/// (`01b8dad`) with `--quick --jobs 1` on a 1-logical-CPU machine:
/// `(path, calls, total_ms)`.
const BASELINE_COMMIT: &str = "01b8dad";
const BASELINE_JOBS: usize = 1;
const BASELINE_CPUS: usize = 1;
const BASELINE_WALL_SECONDS: f64 = 44.118;
const BASELINE: &[(&str, u64, f64)] = &[
    ("predict/measure_latency", 4, 42.648),
    ("predict/neural/train", 1449, 37378.359),
    ("sim/build", 59, 37151.145),
    ("sim/build/train", 59, 37145.882),
    ("sim/run", 59, 5717.809),
    ("sim/run/match_settle", 103_680, 3333.534),
    ("sim/run/predict_score", 127_440, 1869.068),
    ("sim/run/reduce", 127_440, 488.284),
    ("world/emulator/run", 8, 725.990),
];

fn baseline_ms(path: &str) -> Option<f64> {
    BASELINE
        .iter()
        .find(|(p, _, _)| *p == path)
        .map(|&(_, _, ms)| ms)
}

fn main() {
    let opts = RunOpts::from_args();
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("cannot create results/");

    let experiments: Vec<(&str, exp::Experiment)> = vec![
        ("fig01_growth", exp::fig01_growth),
        ("fig02_global_population", exp::fig02_global_population),
        ("fig03_regional_patterns", exp::fig03_regional_patterns),
        ("fig04_packet_cdfs", exp::fig04_packet_cdfs),
        ("table1_emulator_sets", exp::table1_emulator_sets),
        ("fig05_prediction_accuracy", exp::fig05_prediction_accuracy),
        ("fig06_prediction_time", exp::fig06_prediction_time),
        ("table5_prediction_impact", exp::table5_prediction_impact),
        ("fig08_static_vs_dynamic", exp::fig08_static_vs_dynamic),
        (
            "fig09_10_table6_interaction",
            exp::fig09_10_table6_interaction,
        ),
        ("fig11_resource_bulk", exp::fig11_resource_bulk),
        ("fig12_time_bulk", exp::fig12_time_bulk),
        ("fig13_latency_tolerance", exp::fig13_latency_tolerance),
        (
            "fig14_allocation_by_center",
            exp::fig14_allocation_by_center,
        ),
        ("table7_multi_mmog", exp::table7_multi_mmog),
        ("ablation_headroom", exp::ablation_headroom),
        ("ablation_aoi", exp::ablation_aoi),
        ("ablation_priority", exp::ablation_priority),
        ("fig_faults", exp::fig_faults),
    ];

    println!(
        "Hot-path benchmark: {} experiments at {} days, cap {:?}, seed {} ({} jobs)",
        experiments.len(),
        opts.days,
        opts.cap,
        opts.seed,
        mmog_par::jobs()
    );

    mmog_obs::reset_spans();
    let start = Instant::now();
    let reports = mmog_par::par_map(&experiments, |&(_, f)| f(&opts));
    let wall_seconds = start.elapsed().as_secs_f64();
    // Reports are discarded (all_experiments owns the committed copies)
    // but must be fully materialised for the timing to be honest.
    let report_bytes: usize = reports.iter().map(String::len).sum();

    let jobs = mmog_par::jobs();
    let cores = mmog_par::available_jobs();
    let spans = mmog_obs::snapshot_spans();

    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs\": {jobs},\n"));
    out.push_str(&format!("  \"logical_cpus\": {cores},\n"));
    out.push_str(&format!(
        "  \"scale\": {{\"days\": {}, \"cap\": {}, \"seed\": {}}},\n",
        opts.days,
        opts.cap.map_or("null".to_string(), |c| c.to_string()),
        opts.seed
    ));
    out.push_str(&format!(
        "  \"baseline\": {{\"commit\": \"{BASELINE_COMMIT}\", \"jobs\": {BASELINE_JOBS}, \
         \"logical_cpus\": {BASELINE_CPUS}, \"wall_seconds\": {BASELINE_WALL_SECONDS}}},\n"
    ));
    out.push_str("  \"stages\": [\n");
    for (i, (path, s)) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let after_ms = s.total_ns as f64 / 1e6;
        let (before, speedup) = match baseline_ms(path) {
            Some(b) if after_ms > 0.0 => (format!("{b:.3}"), format!("{:.2}", b / after_ms)),
            Some(b) => (format!("{b:.3}"), "null".to_string()),
            None => ("null".to_string(), "null".to_string()),
        };
        out.push_str(&format!(
            "    {{\"path\": \"{path}\", \"calls\": {}, \"before_ms\": {before}, \
             \"after_ms\": {after_ms:.3}, \"mean_us\": {:.2}, \"speedup\": {speedup}}}{comma}\n",
            s.calls,
            s.mean_us()
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"wall_seconds\": {wall_seconds:.3},\n"));
    out.push_str(&format!("  \"report_bytes\": {report_bytes}\n"));
    out.push_str("}\n");

    let path = out_dir.join("BENCH_hotpath.json");
    fs::write(&path, &out).expect("cannot write BENCH_hotpath.json");
    println!(
        "== hot-path timings ({wall_seconds:.1}s wall) -> {}",
        path.display()
    );
    print!("{out}");
}
