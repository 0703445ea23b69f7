//! Spec-grammar fuzzing: `FaultSpec::parse` and `ScenarioSpec::parse`
//! never panic on arbitrary input, every spec they accept lies inside
//! the documented ranges, and the schedules compiled from an accepted
//! spec come out in tick order.

use mmog_faults::{FaultSchedule, FaultSpec, ScenarioSpec, ScenarioTimeline};
use proptest::prelude::*;

const FAULT_KEYS: &[&str] = &[
    "seed", "outages", "repair", "degrade", "dfrac", "dmins", "revoke", "dropout",
];
const SCENARIO_KEYS: &[&str] = &[
    "seed",
    "partition",
    "pmins",
    "migrate",
    "mcost",
    "flash",
    "fpeak",
    "fmins",
    "failover",
    "link",
    "lfactor",
    "lmins",
];
/// Values that probe every guard: non-finite and overflowing floats,
/// negatives, range edges, integer overflow, and malformed tokens.
const VALUES: &[&str] = &[
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "1e309",
    "-1e309",
    "-1",
    "-0",
    "0",
    "0.5",
    "1",
    "1.0",
    "2.5",
    "3",
    "240",
    "1e-300",
    "18446744073709551615",
    "18446744073709551616",
    "",
    "=",
    "==1",
    " 7 ",
    "abc",
    "0x10",
];

/// Tick horizon and platform size the schedules are compiled over.
const TICKS: u64 = 200;
const CENTERS: usize = 10;

/// A spec string stitched from real keys (plus a bogus one), drawn
/// values, empty segments, stray `=` and whitespace.
fn spec(keys: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec((0..keys.len() + 1, 0..VALUES.len(), 0u32..6), 0..8).prop_map(
        move |segments| {
            segments
                .into_iter()
                .map(|(k, v, shape)| {
                    let key = keys.get(k).copied().unwrap_or("bogus");
                    let value = VALUES[v];
                    match shape {
                        0 => String::new(),
                        1 => format!(" {key} = {value} "),
                        2 => key.to_string(),
                        3 => format!("{key}={value}={value}"),
                        _ => format!("{key}={value}"),
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        },
    )
}

/// An arbitrary string over the grammar's alphabet and beyond.
fn noise() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"=,.-+eE0123456789 aninfseed";
    prop::collection::vec((0u32..0x300, 0u32..2), 0..40).prop_map(|chars| {
        chars
            .into_iter()
            .filter_map(|(c, bias)| {
                if bias == 0 {
                    Some(char::from(ALPHABET[c as usize % ALPHABET.len()]))
                } else {
                    char::from_u32(c)
                }
            })
            .collect()
    })
}

fn rate_ok(rate: f64) -> bool {
    rate.is_finite() && rate >= 0.0
}

fn check_fault(text: &str) {
    let Ok(spec) = FaultSpec::parse(text) else {
        return;
    };
    for rate in [
        spec.outages_per_center_day,
        spec.degrade_per_center_day,
        spec.revocations_per_center_day,
    ] {
        assert!(rate_ok(rate), "{text:?} accepted rate {rate}");
    }
    assert!((0.0..=1.0).contains(&spec.degrade_fraction), "{text:?}");
    assert!((0.0..=1.0).contains(&spec.dropout_per_tick), "{text:?}");
    let schedule = FaultSchedule::from_spec(&spec, TICKS, CENTERS);
    let ticks: Vec<u64> = schedule.events().iter().map(|e| e.tick).collect();
    assert!(
        ticks.is_sorted(),
        "{text:?}: fault events out of tick order"
    );
}

fn check_scenario(text: &str) {
    let Ok(spec) = ScenarioSpec::parse(text) else {
        return;
    };
    for rate in [
        spec.partitions_per_day,
        spec.migrations_per_day,
        spec.flash_per_day,
        spec.failovers_per_day,
        spec.links_per_day,
    ] {
        assert!(rate_ok(rate), "{text:?} accepted rate {rate}");
    }
    for multiplier in [spec.flash_peak, spec.link_factor] {
        assert!(
            multiplier.is_finite() && multiplier >= 1.0,
            "{text:?} accepted multiplier {multiplier}"
        );
    }
    let timeline = ScenarioTimeline::from_spec(&spec, TICKS, CENTERS);
    let ticks: Vec<u64> = timeline.events().iter().map(|e| e.tick).collect();
    assert!(
        ticks.is_sorted(),
        "{text:?}: scenario events out of tick order"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn fault_specs_parse_into_range_and_compile_in_order(text in spec(FAULT_KEYS)) {
        check_fault(&text);
    }

    #[test]
    fn scenario_specs_parse_into_range_and_compile_in_order(text in spec(SCENARIO_KEYS)) {
        check_scenario(&text);
    }

    #[test]
    fn arbitrary_strings_never_panic_either_parser(text in noise()) {
        check_fault(&text);
        check_scenario(&text);
    }
}
