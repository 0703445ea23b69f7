//! Quickstart: provision one MMOG on the paper's Table III platform.
//!
//! Generates a small RuneScape-like workload, runs dynamic provisioning
//! with the neural predictor, and prints the headline metrics next to a
//! static-provisioning baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use mmog_dc::prelude::*;
use std::sync::Arc;

fn main() {
    // A 3-day workload with 8 server groups per region — big enough to
    // show the dynamics, small enough to run in seconds.
    let opts = ScenarioOpts {
        days: 3,
        seed: 42,
        group_cap: Some(8),
    };
    // A shared handle on the cached trace: both runs below read this
    // one copy.
    let trace = standard_trace(&opts);
    println!(
        "Workload: {} server groups, {} two-minute samples, global peak {:.0} players\n",
        trace.total_groups(),
        trace.global_series().len(),
        trace.global_series().max().unwrap_or(0.0),
    );

    // Dynamic provisioning: predict every 2 minutes, lease what's needed.
    let dynamic = Ecosystem::builder()
        .table3_platform()
        .game(Ecosystem::default_game(Arc::clone(&trace)))
        .run();

    // The industry baseline: size every group for peak load, once.
    let static_ = Ecosystem::builder()
        .table3_platform()
        .game(Ecosystem::default_game(trace))
        .static_provisioning()
        .run();

    println!("{:<28} {:>12} {:>12}", "Metric", "Dynamic", "Static");
    println!("{:-<28} {:->12} {:->12}", "", "", "");
    for (name, r) in [
        ("CPU over-allocation [%]", ResourceType::Cpu),
        ("ExtNet[out] over-alloc [%]", ResourceType::ExtNetOut),
    ] {
        println!(
            "{:<28} {:>12.1} {:>12.1}",
            name,
            dynamic.metrics.avg_over(r),
            static_.metrics.avg_over(r)
        );
    }
    println!(
        "{:<28} {:>12.3} {:>12.3}",
        "CPU under-allocation [%]",
        dynamic.metrics.avg_under(ResourceType::Cpu),
        static_.metrics.avg_under(ResourceType::Cpu)
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "|Y|>1% disruption events",
        dynamic.metrics.events(),
        static_.metrics.events()
    );
    println!(
        "\nDynamic provisioning allocated {:.1}x less CPU than static sizing,",
        (static_.metrics.avg_over(ResourceType::Cpu) + 100.0)
            / (dynamic.metrics.avg_over(ResourceType::Cpu) + 100.0)
    );
    println!(
        "at the cost of {} short under-allocation events.",
        dynamic.metrics.events()
    );
}
