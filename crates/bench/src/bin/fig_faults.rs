//! Regenerates the fault-injection figure (outage intensity × mode).
//!
//! Standalone entry point for the fault plane: writes the rendered
//! table to `results/fig_faults.txt`, flushes the event trace and time
//! series when configured (`--trace`, `--ts`), and exports the metrics
//! summary under `--metrics` — the artifacts the `effects-smoke` CI job
//! validates.

use std::fs;
use std::path::Path;

fn main() {
    let opts = mmog_bench::RunOpts::from_args();
    let report = mmog_bench::experiments::fig_faults(&opts);
    print!("{report}");
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("cannot create results/");
    let path = out_dir.join("fig_faults.txt");
    fs::write(&path, &report).expect("cannot write report");
    println!("== fig_faults -> {}", path.display());
    opts.flush_sinks();
    if opts.metrics {
        let summary_path = out_dir.join("OBS_summary.json");
        fs::write(&summary_path, mmog_obs::summary_json()).expect("cannot write OBS summary");
        println!("== metrics summary -> {}", summary_path.display());
    }
}
