//! Cross-thread contracts of the observability plane: recording from
//! inside `mmog-par` workers must produce the same totals as serial
//! recording, concurrent scopes must keep their numbers and jobs values
//! apart, and the JSONL event log must round-trip through the parser
//! byte-for-byte.

use mmog_obs::{
    counter, gauge, histogram, parse_trace_line, snapshot_metrics, Collector, Domain, Event,
    EventSink, Registry,
};
use std::sync::Barrier;

const ITEMS: usize = 4096;

/// Records one batch of counter/gauge/histogram traffic from a
/// (possibly parallel) `par_map` sweep into the current registry and
/// returns the totals.
fn record_batch() -> (u64, i64, u64, i64) {
    let c = counter("test.cc.count", Domain::Semantic);
    let g = gauge("test.cc.gauge", Domain::Semantic);
    let h = histogram("test.cc.hist", Domain::Semantic, &[10.0, 100.0, 1000.0]);
    let items: Vec<usize> = (0..ITEMS).collect();
    let _: Vec<()> = mmog_par::par_map(&items, |&i| {
        c.add(i as u64);
        g.set_max(i as i64);
        h.record(i as f64);
    });
    let snap = h.snapshot();
    (c.get(), g.get(), snap.count, snap.sum_micros)
}

#[test]
fn par_map_recording_is_thread_count_independent() {
    let serial = mmog_par::scoped(1, &Registry::new(), record_batch);
    let parallel = mmog_par::scoped(4, &Registry::new(), record_batch);
    assert_eq!(
        serial, parallel,
        "commutative instruments must not depend on thread count"
    );
    let expected_sum: u64 = (0..ITEMS as u64).sum();
    assert_eq!(serial.0, expected_sum);
    assert_eq!(serial.1, ITEMS as i64 - 1);
    assert_eq!(serial.2, ITEMS as u64);
    // Integer micro-units: the histogram sum is exact, not a float fold.
    assert_eq!(serial.3, (expected_sum as i64) * 1_000_000);
}

/// Two threads record the same `par_map` workload at the same time,
/// each in its own scope, one at `--jobs 1` and one at `--jobs 4`: each
/// scope holds exactly its own counts and sees its own jobs value, and
/// nothing reaches the process default.
#[test]
fn concurrent_scopes_keep_their_counts_and_jobs_apart() {
    // Both scopes are open before either records, and both have
    // recorded before either checks its jobs value again.
    let (opened, recorded) = (Barrier::new(2), Barrier::new(2));
    let run = |jobs: usize| {
        let registry = Registry::new();
        mmog_par::scoped(jobs, &registry, || {
            opened.wait();
            let totals = record_batch();
            recorded.wait();
            assert_eq!(mmog_par::jobs(), jobs, "each thread keeps its own value");
            (totals, snapshot_metrics())
        })
    };
    let (serial, parallel) = std::thread::scope(|s| {
        let serial = s.spawn(|| run(1));
        let parallel = s.spawn(|| run(4));
        (serial.join().unwrap(), parallel.join().unwrap())
    });
    let expected_sum: u64 = (0..ITEMS as u64).sum();
    for (jobs, (totals, snap)) in [(1, serial), (4, parallel)] {
        assert_eq!(totals.0, expected_sum, "jobs {jobs}: exactly one batch");
        assert_eq!(totals.2, ITEMS as u64, "jobs {jobs}: exactly one batch");
        let counters: Vec<(&str, u64)> = snap
            .counters
            .iter()
            .map(|(n, _, v)| (n.as_str(), *v))
            .collect();
        let mut expected = vec![("test.cc.count", expected_sum)];
        if jobs > 1 {
            expected.insert(0, ("par.map.regions", 1));
        }
        assert_eq!(counters, expected, "jobs {jobs}: only its own instruments");
    }
    // Outside any scope, snapshots read the process default.
    let leaked = snapshot_metrics()
        .counters
        .into_iter()
        .any(|(n, _, _)| n.starts_with("test.cc.") || n.starts_with("par."));
    assert!(!leaked, "scoped recording never reaches the default");
}

#[test]
fn trace_round_trips_through_a_collector() {
    let path = std::env::temp_dir().join(format!("mmog_obs_rt_{}.jsonl", std::process::id()));
    let trace = Collector::trace(&path);
    // Chunks submitted in "wrong" (completion) order: flush must order
    // them by label, then assign contiguous sequence numbers.
    let mut late = EventSink::new();
    late.emit(&Event::Tick {
        tick: 9,
        demand_cpu: 2.5,
        alloc_cpu: 3.0,
        shortfall_cpu: 0.0,
    });
    late.submit(&trace, "run B");
    let mut early = EventSink::new();
    early.emit(&Event::RunStart {
        mode: "dynamic",
        groups: 10,
        centers: 2,
        ticks: 30,
        warmup: 0,
    });
    early.emit(&Event::MatchReject {
        tick: 4,
        operator: 1,
        center: 0,
        reason: "distance",
    });
    early.submit(&trace, "run A");
    let written = trace.flush().expect("flush must succeed");
    assert_eq!(written, std::slice::from_ref(&path));

    let text = std::fs::read_to_string(&path).expect("trace file exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3);
    for (i, line) in lines.iter().enumerate() {
        let value = mmog_obs::json::parse(line).expect("line parses");
        let (seq, scope, event) = parse_trace_line(&value).expect("line reads back");
        assert_eq!(seq, i as u64, "sequence numbers are contiguous");
        // "run A" sorts before "run B" regardless of submission order.
        let expected_scope = if i < 2 { "run A" } else { "run B" };
        assert_eq!(scope, expected_scope);
        match i {
            0 => assert!(matches!(event, Event::RunStart { groups: 10, .. })),
            1 => assert!(matches!(
                event,
                Event::MatchReject {
                    reason: "distance",
                    ..
                }
            )),
            _ => assert!(matches!(
                event,
                Event::Tick {
                    demand_cpu: 2.5,
                    ..
                }
            )),
        }
    }
    // Flush cleared the buffer but kept the destination: a second flush
    // writes an empty file.
    trace.flush().expect("second flush succeeds");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
    let _ = std::fs::remove_file(&path);
}
