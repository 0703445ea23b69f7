//! Settle skip accounting is semantic whoever registers it first. A
//! counter's first registration fixes its domain, and
//! `scale::run_point` registers `sim.match.skips` and `sim.match.full`
//! itself, so a scale point run first in a fresh scope must find both
//! counters in that scope's semantic section, holding exactly the
//! point's own counts.

use mmog_bench::scale::{run_point, SweepPoint};
use mmog_obs::{Registry, Sinks, Summary};

#[test]
fn a_scale_point_run_first_counts_skips_as_semantic() {
    let point = SweepPoint {
        label: "10k",
        worlds: 1,
        groups_per_world: 2,
    };
    let (result, summary) = mmog_par::scoped(1, &Registry::new(), || {
        (
            run_point(&point, 30, 7, &Sinks::default()),
            Summary::capture(),
        )
    });
    assert!(
        result.match_skips + result.match_full > 0,
        "the point settled"
    );
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
