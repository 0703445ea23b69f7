//! Experiment implementations, one function per table/figure.
//!
//! Every function renders a plain-text report whose rows correspond to
//! the series or table cells of the paper's figure. The binaries print
//! it; `bin/all_experiments` also writes it under `results/`.

pub mod faults;
pub mod prediction;
pub mod provisioning;
pub mod scenarios;
pub mod workload;

pub use faults::fig_faults;
pub use prediction::{fig05_prediction_accuracy, fig06_prediction_time};
pub use provisioning::{
    ablation_aoi, ablation_headroom, ablation_priority, fig08_static_vs_dynamic,
    fig09_10_table6_interaction, fig11_resource_bulk, fig12_time_bulk, fig13_latency_tolerance,
    fig14_allocation_by_center, table5_prediction_impact, table7_multi_mmog,
};
pub use scenarios::fig_scenarios;
pub use workload::{
    fig01_growth, fig02_global_population, fig03_regional_patterns, fig04_packet_cdfs,
    table1_emulator_sets,
};

/// One experiment: renders its report for the given run options.
pub type Experiment = fn(&crate::RunOpts) -> String;
