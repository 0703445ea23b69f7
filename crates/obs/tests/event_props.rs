//! Round-trip properties of the typed event table: every kind, with
//! arbitrary field values, survives `write` → JSON parse →
//! `Event::parse` → `write` byte for byte, and parses back to an equal
//! event. Whole floats render as integers (`2.0` → `2`) and must still
//! read back into their `f64` fields.

use mmog_obs::json;
use mmog_obs::Event;
use proptest::prelude::*;

/// A finite float, biased toward the shapes the engine emits: whole
/// numbers (rendered as integers), quarter multiples (the writer's fast
/// path), and arbitrary bit patterns. `-0.0` is excluded: it renders as
/// `-0`, which JSON reads back as the integer zero.
fn float() -> impl Strategy<Value = f64> {
    (0u32..4, any::<u64>()).prop_map(|(shape, bits)| {
        let x = match shape {
            0 => (bits % (1 << 53)) as f64 - (1u64 << 52) as f64,
            1 => (bits % 4096) as f64 / 4.0,
            2 => f64::from_bits(bits),
            _ => (bits % 1_000_000) as f64 / 997.0,
        };
        if x.is_finite() && x.to_bits() != (-0.0f64).to_bits() {
            x
        } else {
            1.5
        }
    })
}

/// A string of arbitrary scalar values, biased toward the characters
/// the writer must escape.
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..=0x10_FFFF, 0u32..3), 0..12).prop_map(|points| {
        points
            .into_iter()
            .filter_map(|(cp, bias)| match bias {
                0 => char::from_u32(cp % 0x80),
                1 => ['"', '\\', '\n', '\u{1}', 'é']
                    .get(cp as usize % 5)
                    .copied(),
                _ => char::from_u32(cp),
            })
            .collect()
    })
}

/// One event of every kind, its fields drawn from the pools.
fn every_kind<'a>(u: &[u64], f: &[f64], b: bool, s: &'a [String]) -> Vec<Event<'a>> {
    vec![
        Event::RunStart {
            mode: &s[0],
            groups: u[0],
            centers: u[1],
            ticks: u[2],
            warmup: u[3],
        },
        Event::Tick {
            tick: u[0],
            demand_cpu: f[0],
            alloc_cpu: f[1],
            shortfall_cpu: f[2],
        },
        Event::Provision {
            tick: u[1],
            operator: u[2],
            granted: u[3],
            released: u[4],
            unmet: b,
            target_cpu: f[3],
            alloc_cpu: f[0],
        },
        Event::MatchReject {
            tick: u[2],
            operator: u[3],
            center: u[4],
            reason: &s[1],
        },
        Event::PredictionGroup {
            group: u[3],
            operator: u[4],
            game: &s[0],
            error_pct: f[1],
        },
        Event::CenterTick {
            tick: u[4],
            center: u[5],
            alloc_cpu: f[2],
            free_cpu: f[3],
        },
        Event::CenterUsage {
            name: &s[1],
            capacity_cpu: f[0],
            cpu_unit_ticks: f[1],
            cpu_free_unit_ticks: f[2],
        },
        Event::RunEnd {
            ticks: u[5],
            unmet_steps: u[6],
            leases_granted: u[7],
            leases_released: u[0],
        },
        Event::CenterDown {
            tick: u[6],
            center: u[7],
            name: &s[0],
            leases_lost: u[1],
        },
        Event::CenterUp {
            tick: u[7],
            center: u[0],
            name: &s[1],
        },
        Event::CenterDegraded {
            tick: u[0],
            center: u[1],
            fraction: f[3],
        },
        Event::LeaseRevoked {
            tick: u[1],
            center: u[2],
            lease: u[3],
            operator: u[4],
            cpu: f[0],
        },
        Event::PredictorDropout { tick: u[2] },
        Event::Reprovision {
            tick: u[3],
            operator: u[4],
            granted: u[5],
            lost_cpu: f[1],
        },
        Event::FaultRecovery {
            tick: u[4],
            center: u[5],
            down_ticks: u[6],
        },
        Event::FaultSummary {
            events: u[5],
            leases_revoked: u[6],
            reprovisions: u[7],
            unserved_player_ticks: f[2],
            recovered: u[0],
            unrecovered: u[1],
        },
        Event::FlightMeta {
            run: &s[0],
            trigger: &s[1],
            trigger_tick: u[6],
            retain_ticks: u[7],
            tick_from: u[0],
            tick_to: u[1],
            records: u[2],
        },
        Event::TickLatency {
            tick: u[7],
            predict_ns: u[0],
            reduce_ns: u[1],
            settle_ns: u[2],
            tick_ns: u[3],
        },
        Event::TopologyChange {
            tick: u[0],
            a: u[1],
            b: u[2],
            factor: f[3],
        },
        Event::Partition {
            tick: u[1],
            mask: u[2],
            components: u[3],
        },
        Event::Heal {
            tick: u[2],
            components: u[3],
        },
        Event::Migration {
            tick: u[3],
            group: u[4],
            center: u[5],
            leases: u[6],
            cost: f[0],
        },
        Event::FlashCrowd {
            tick: u[4],
            region: u[5],
            factor: f[1],
            groups: u[6],
        },
        Event::LeaseRequest {
            tick: u[5],
            request: u[6],
            group: u[7],
            operator: u[0],
            cpu: f[2],
        },
        Event::LeaseGrant {
            tick: u[6],
            request: u[7],
            center: u[0],
            lease: u[1],
            operator: u[2],
            cpu: f[3],
        },
        Event::LeaseMature {
            tick: u[7],
            center: u[0],
            lease: u[1],
            operator: u[2],
        },
        Event::LeaseRelease {
            tick: u[0],
            center: u[1],
            lease: u[2],
            operator: u[3],
            cpu: f[0],
            cause: &s[0],
        },
    ]
}

fn body(event: &Event<'_>) -> String {
    let mut out = String::new();
    event.write(&mut out);
    out
}

#[test]
fn every_kind_is_constructed() {
    let s = [String::new(), String::new()];
    let kinds: Vec<&str> = every_kind(&[0; 8], &[0.0; 4], false, &s)
        .iter()
        .map(Event::kind)
        .collect();
    assert_eq!(kinds, Event::KINDS, "one event per kind, in schema order");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_kind_round_trips_byte_for_byte(
        u in prop::collection::vec(any::<u64>(), 8),
        f in prop::collection::vec(float(), 4),
        b in any::<bool>(),
        s in (text(), text()),
    ) {
        let strings = [s.0, s.1];
        for event in every_kind(&u, &f, b, &strings) {
            let first = body(&event);
            let line = format!("{{{first}}}");
            let value = json::parse(&line).expect("writer output is JSON");
            let parsed = Event::parse(&value)
                .unwrap_or_else(|e| panic!("{line} rejected: {e}"));
            prop_assert_eq!(parsed, event);
            prop_assert_eq!(body(&parsed), first);
        }
    }
}
