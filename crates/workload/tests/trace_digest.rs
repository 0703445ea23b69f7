//! Bit-exact oracle for the trace generator's two drain orders.
//!
//! Each test folds the bits of every value of a generated trace into one
//! FNV-1a digest and compares it with a pinned constant. The
//! materialized digests fold `runescape::generate`'s output in region,
//! group and tick order; the tick-drain digests fold
//! `StreamingTrace::next_tick`'s rows in the order it yields them (tick,
//! then group). The materialized constants were taken from the generator
//! that evaluated every periodic factor once per value, the tick-drain
//! constants from the stream that evaluated them per tick. A change that
//! moves any single value by one ulp changes a digest; a change that
//! only reorganises how the values are computed keeps it.

use mmog_workload::runescape::{generate, RuneScapeConfig};
use mmog_workload::stream::StreamingTrace;
use mmog_workload::trace::GameTrace;

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every value's bits, plus each series' length so a shape change
/// cannot collide with a value change.
fn digest(trace: &GameTrace) -> u64 {
    let mut h = Fnv::new();
    for region in &trace.regions {
        for group in &region.groups {
            let values = group.series.values();
            h.eat(values.len() as u64);
            for v in values {
                h.eat(v.to_bits());
            }
        }
    }
    h.0
}

/// Every row of the tick drain, each preceded by its width, then the
/// tick count.
fn tick_drain_digest(cfg: &RuneScapeConfig) -> u64 {
    let mut stream = StreamingTrace::new(cfg);
    let mut row = vec![0.0f64; stream.group_count()];
    let mut h = Fnv::new();
    let mut ticks = 0u64;
    while stream.next_tick(&mut row) {
        h.eat(row.len() as u64);
        for v in &row {
            h.eat(v.to_bits());
        }
        ticks += 1;
    }
    assert_eq!(ticks, stream.ticks() as u64);
    h.eat(ticks);
    h.0
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

#[test]
fn one_day_world_tick_drain_digest_is_pinned() {
    // The shape of `scale_1m`'s streaming worlds: one region of 10
    // groups over one day.
    let mut cfg = RuneScapeConfig::paper_default(1, 2008);
    cfg.regions.truncate(1);
    cfg.regions[0].groups = 10;
    assert_eq!(
        tick_drain_digest(&cfg),
        9_594_041_686_921_012_801,
        "one-day world tick drain moved"
    );
}

#[test]
fn every_branch_tick_drain_digest_is_pinned() {
    // Two regions over a week (weekend included) with the Figure 2
    // decision active from day 1, outages forced and a fifth of the
    // groups always full, so every branch of a group's tick runs.
    let mut cfg = RuneScapeConfig::with_figure2_events(7, 2008, 1);
    cfg.regions.truncate(2);
    cfg.regions[0].groups = 6;
    cfg.regions[1].groups = 5;
    cfg.outage_prob_per_day = 2.0;
    cfg.always_full_fraction = 0.2;
    assert_eq!(
        tick_drain_digest(&cfg),
        1_201_387_736_135_519_075,
        "every-branch tick drain moved"
    );
}
