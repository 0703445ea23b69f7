//! Bit-exact oracle for the materialized trace generator.
//!
//! Each test folds the bits of every value of a generated trace, in
//! region, group and tick order, into one FNV-1a digest and compares it
//! with a pinned constant. The constants were taken from the generator
//! that evaluated every periodic factor once per value. A change to `runescape::generate` that moves
//! any single value by one ulp changes the digest; a change that only
//! reorganises how the values are computed keeps it.

use mmog_workload::runescape::{generate, RuneScapeConfig};
use mmog_workload::trace::GameTrace;

/// FNV-1a over the little-endian bytes of every value's bits, plus each
/// series' length so a shape change cannot collide with a value change.
fn digest(trace: &GameTrace) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for region in &trace.regions {
        for group in &region.groups {
            let values = group.series.values();
            eat(values.len() as u64);
            for v in values {
                eat(v.to_bits());
            }
        }
    }
    h
}

#[test]
fn paper_trace_digest_is_pinned() {
    // The paper layout: 5 regions, 130 groups, 14 days.
    let trace = generate(&RuneScapeConfig::paper_default(14, 2008));
    assert_eq!(trace.total_groups(), 130);
    assert_eq!(
        digest(&trace),
        16_524_764_475_751_229_972,
        "paper trace digest moved"
    );
}

#[test]
fn figure2_trace_digest_is_pinned() {
    // All three Figure 2 events: the decision on day 9 and the releases
    // on days 17 and 45, each release running 7 days past its start.
    let mut cfg = RuneScapeConfig::with_figure2_events(54, 2008, 9);
    for region in &mut cfg.regions {
        region.groups = region.groups.min(8);
    }
    let trace = generate(&cfg);
    assert_eq!(trace.total_groups(), 40);
    assert_eq!(
        digest(&trace),
        511_833_476_050_787_136,
        "Figure 2 trace digest moved"
    );
}
