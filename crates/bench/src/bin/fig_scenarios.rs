//! Regenerates the scenario-engine figure (mutation intensity × mode).
//!
//! Standalone entry point for the scenario plane: writes the rendered
//! table to `results/fig_scenarios.txt`, flushes the event trace and
//! time series when configured (`--trace`, `--ts`), and exports the
//! metrics summary under `--metrics` — the artifacts the
//! `effects-smoke` CI job validates.

fn main() {
    let opts = mmog_bench::RunOpts::from_args();
    opts.write_report(
        "fig_scenarios",
        &mmog_bench::experiments::fig_scenarios(&opts),
    );
}
