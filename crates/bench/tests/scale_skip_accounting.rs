//! Memo skip accounting is semantic whoever registers it first. A
//! counter's first registration fixes its domain, and
//! `scale::run_point` registers `sim.match.skips` and `sim.match.full`
//! itself, so this binary runs a scale point before any other engine
//! run and finds both counters in the summary's semantic section.
//!
//! One test function: the metric registry is process-global, so the
//! scale point must be the first thing this process runs.

use mmog_bench::scale::{run_point, SweepPoint};
use mmog_obs::{Sinks, Summary};

#[test]
fn a_scale_point_run_first_counts_skips_as_semantic() {
    let point = SweepPoint {
        label: "10k",
        worlds: 1,
        groups_per_world: 2,
    };
    let result = run_point(&point, 30, 7, &Sinks::default());
    assert!(
        result.match_skips + result.match_full > 0,
        "the point settled"
    );
    let summary = Summary::capture();
    let semantic = &summary.semantic.counters;
    assert_eq!(semantic.get("sim.match.skips"), Some(&result.match_skips));
    assert_eq!(semantic.get("sim.match.full"), Some(&result.match_full));
    for name in ["sim.match.skips", "sim.match.full"] {
        assert!(
            !summary.timing.counters.contains_key(name),
            "{name} must not be timing"
        );
    }
}
