//! Flash crowd: dynamic provisioning through a content-release surge
//! and a mass-quit shock (the Figure 2 population events).
//!
//! The workload carries the December-2007 event sequence: an unpopular
//! decision costing a quarter of the player base within a day, then two
//! content releases each driving a ~50% surge. The example shows the
//! provisioner absorbing both directions and prints a day-by-day view.
//!
//! Run with: `cargo run --release --example flash_crowd`

use mmog_dc::prelude::*;
use std::sync::Arc;

fn main() {
    // 28 days: decision on day 9, first release on day 17.
    let mut cfg = RuneScapeConfig::with_figure2_events(28, 11, 9);
    for region in &mut cfg.regions {
        region.groups = region.groups.min(6); // keep the example quick
    }
    let trace = Arc::new(generate(&cfg));

    let report = Ecosystem::builder()
        .table3_platform()
        .game(Ecosystem::default_game(Arc::clone(&trace)))
        .run();

    // Daily aggregates: players vs. allocated vs. demanded CPU.
    let day = 720usize; // 2-minute ticks per day
    let players = trace.global_series();
    println!(
        "{:<6} {:>12} {:>14} {:>14} {:>10}",
        "Day", "Players", "CPU demand", "CPU allocated", "Over [%]"
    );
    let demand = &report.demand_cpu_series;
    let alloc = &report.alloc_cpu_series;
    for d in 0..demand.len() / day {
        let window = |s: &[f64]| s[d * day..(d + 1) * day].iter().sum::<f64>() / day as f64;
        let dm = window(demand.values());
        let al = window(alloc.values());
        let marker = match d {
            9 => "  <- unpopular decision",
            17 | 25 => "  <- content release",
            _ => "",
        };
        println!(
            "{:<6} {:>12.0} {:>14.1} {:>14.1} {:>10.1}{marker}",
            d + 1,
            window(&players.values()[30..]), // skip the warm-up offset
            dm,
            al,
            100.0 * al / dm - 100.0,
        );
    }

    println!(
        "\nTotals: over-allocation {:.1}%, under-allocation {:.3}%, {} disruption events.",
        report.metrics.avg_over(ResourceType::Cpu),
        report.metrics.avg_under(ResourceType::Cpu),
        report.metrics.events()
    );
    println!(
        "The allocation tracks the crash down (releasing leases as the time\n\
         bulks mature) and the surges up — the elasticity static provisioning\n\
         cannot offer."
    );
}
