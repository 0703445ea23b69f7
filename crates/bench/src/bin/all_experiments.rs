//! Runs the full experiment suite and writes one report per table and
//! figure under `results/`.
//!
//! The header prints the Table II evaluation-space coverage map; each
//! experiment then regenerates its figure/table (see DESIGN.md §4 for
//! the experiment index). Pass `--quick` for a smoke-scale run or
//! `--days N --cap N` for custom scales.
//!
//! The 20 experiments are independent (each builds its workload through
//! the shared process-wide cache), so they fan out across `--jobs N`
//! worker threads (default: all logical CPUs; `--jobs 1` reproduces the
//! serial path). Reports are collected in suite order and printed and
//! written exactly as the serial runner did — byte-identical output for
//! any job count. With `--metrics`, per-stage wall-clock totals and
//! latency tails land in the `timing` section of
//! `results/OBS_summary.json`.

use mmog_bench::experiments as exp;
use mmog_bench::RunOpts;
use std::fs;
use std::path::Path;
use std::time::Instant;

const TABLE2: &str = "\
Table II: evaluation-space coverage (bold = the section's focus)
Section  Allocation    Predictors  Update models  Policies  Latency  MMOGs
V-B      static+dyn.   ALL         O(n^2)         HP-1/2    none     one
V-C      dynamic       Neural      ALL            optimal   none     one
V-D      dynamic       Neural      O(n^2)         ALL       none     one
V-E      dynamic       Neural      O(n^2)         east/west ALL      one
V-F      dynamic       Neural      O(n^2) mix     optimal   none     SEVERAL
";

fn main() {
    let opts = RunOpts::from_args();
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("cannot create results/");
    println!("{TABLE2}");
    println!(
        "Running the full suite at scale: {} days, group cap {:?}, seed {} ({} jobs)\n",
        opts.days,
        opts.cap,
        opts.seed,
        mmog_par::jobs()
    );

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
        ("fig_scenarios", exp::fig_scenarios),
    ];

    // Fan the suite out; results come back in suite order regardless of
    // completion order, so printing and files match the serial runner.
    let suite_start = Instant::now();
    let reports: Vec<(String, f64)> = mmog_par::par_map(&experiments, |&(_, f)| {
        let start = Instant::now();
        let report = f(&opts);
        (report, start.elapsed().as_secs_f64())
    });
    let wall_seconds = suite_start.elapsed().as_secs_f64();

    for ((name, _), (report, secs)) in experiments.iter().zip(&reports) {
        let path = out_dir.join(format!("{name}.txt"));
        fs::write(&path, report).expect("cannot write report");
        println!("== {name} ({secs:.1}s) -> {}", path.display());
        println!("{report}");
    }
    let cores = mmog_par::available_jobs();
    println!(
        "== suite wall time {wall_seconds:.1}s over {} experiments ({} jobs, {cores} CPUs)",
        experiments.len(),
        mmog_par::jobs()
    );

    // Observability exports: the JSONL event log (--trace), the time
    // series (--ts) and the metrics summary (--metrics).
    opts.flush_sinks();
    if opts.metrics {
        // The suite wall time lets `obs/self` report the recorder's
        // overhead as a percentage; jobs and CPUs let the gate judge
        // timings only in a matching environment.
        mmog_obs::note_run(wall_seconds, mmog_par::jobs(), cores);
        let summary_path = out_dir.join("OBS_summary.json");
        fs::write(&summary_path, mmog_obs::summary_json()).expect("cannot write OBS summary");
        println!("== metrics summary -> {}\n", summary_path.display());
        println!("{}", mmog_obs::render_summary_table());
        // Flame-style span profile next to the summary. Pure wall-clock
        // data, so the whole file sits inside timing markers — anything
        // byte-comparing results/ masks it wholesale.
        let spans = mmog_obs::snapshot_spans();
        let profile =
            mmog_obs_analyze::render_profile(&mmog_obs_analyze::profile_from_spans(&spans));
        let spans_path = out_dir.join("OBS_spans.txt");
        fs::write(&spans_path, mmog_obs::timing_block(&profile))
            .expect("cannot write span profile");
        println!("== span profile -> {}", spans_path.display());
    }
}
