//! Property-based tests for the workload substrate.

use mmog_util::rng::Rng64;
use mmog_util::time::{SimTime, TICKS_PER_DAY};
use mmog_workload::events::{combined_multiplier, PopulationEvent};
use mmog_workload::packets::{PacketTrace, SESSION_SPECS};
use mmog_workload::runescape::{generate, RuneScapeConfig};
use mmog_workload::trace::GameTrace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_multipliers_are_positive_and_bounded(
        at_day in 0u64..30,
        drop in 0.01f64..0.9,
        surge in 0.01f64..2.0,
        probe_day in 0u64..120,
    ) {
        let decision = PopulationEvent::UnpopularDecision {
            at: SimTime::from_days(at_day),
            drop,
            crash_days: 0.75,
            recovery_days: 4.0,
            recovery_level: 0.95,
        };
        let release = PopulationEvent::ContentRelease {
            at: SimTime::from_days(at_day),
            surge,
            ramp_days: 1.5,
            duration_days: 7.0,
        };
        let t = SimTime::from_days(probe_day);
        let md = decision.multiplier(t);
        prop_assert!(md > 0.0 && md <= 1.0 + 1e-9, "decision {md}");
        // Never below both the crash trough and the long-run plateau
        // (the recovery settles at whichever of the two applies).
        let floor = (1.0 - drop).min(0.95);
        prop_assert!(md >= floor - 1e-9, "decision {md} below floor {floor}");
        let mr = release.multiplier(t);
        prop_assert!((1.0 - 1e-9..=1.0 + surge + 1e-9).contains(&mr), "release {mr}");
        let combo = combined_multiplier(&[decision, release], t);
        prop_assert!((combo - md * mr).abs() < 1e-12);
    }

    #[test]
    fn trace_generation_bounds_hold(seed in any::<u64>(), groups in 1u32..6, days in 1u64..4) {
        let mut cfg = RuneScapeConfig::paper_default(days, seed);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = groups;
        let t = generate(&cfg);
        prop_assert_eq!(t.total_groups(), groups as usize);
        for r in &t.regions {
            for g in &r.groups {
                prop_assert_eq!(g.series.len(), (days * TICKS_PER_DAY) as usize);
                for &v in g.series.values() {
                    prop_assert!(v >= 0.0);
                    prop_assert!(v <= cfg.regions[0].peak_players * 1.05 + 1.0);
                    prop_assert_eq!(v, v.round(), "player counts are integral");
                }
            }
        }
    }

    #[test]
    fn trace_csv_round_trips(seed in any::<u64>()) {
        let mut cfg = RuneScapeConfig::paper_default(1, seed);
        cfg.regions.truncate(2);
        cfg.regions[0].groups = 2;
        cfg.regions[1].groups = 1;
        let t = generate(&cfg);
        let parsed = GameTrace::from_csv(&t.to_csv()).unwrap();
        prop_assert_eq!(parsed.total_groups(), t.total_groups());
        let original_global = t.global_series();
        let parsed_global = parsed.global_series();
        prop_assert_eq!(parsed_global.values(), original_global.values());
    }

    #[test]
    fn packet_iat_respects_floor(seed in any::<u64>(), which in 0usize..9) {
        let spec = SESSION_SPECS[which];
        let mut rng = Rng64::seed_from(seed);
        let t = PacketTrace::generate(&spec, 200, &mut rng);
        for w in t.packets.windows(2) {
            prop_assert!(w[1].at_ms - w[0].at_ms >= spec.min_iat_ms - 1e-9);
        }
    }
}
