//! Regenerates the fault-injection figure (outage intensity × mode).
//!
//! Standalone entry point for the fault plane: writes the rendered
//! table to `results/fig_faults.txt`, flushes the event trace and time
//! series when configured (`--trace`, `--ts`), and exports the metrics
//! summary under `--metrics` — the artifacts the `effects-smoke` CI job
//! validates.

fn main() {
    let opts = mmog_bench::RunOpts::from_args();
    opts.write_report("fig_faults", &mmog_bench::experiments::fig_faults(&opts));
}
