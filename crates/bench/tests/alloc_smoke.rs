//! Steady-state allocation smoke test for the three hot-path kernels.
//!
//! A counting global allocator measures allocations across a warmed-up
//! loop of each kernel. The MLP training step and the neural
//! observe→predict path must be exactly allocation-free; the emulator
//! tick and the indexed matcher must stay under a small constant bound
//! (their outputs are owned values, so one clone per call is inherent).
//!
//! Everything runs inside ONE `#[test]` so the counter is never
//! polluted by a concurrently running sibling test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations attributable to `f`, measured as the minimum over a few
/// repeats: the libtest harness's main thread occasionally allocates
/// (progress reporting) while the test thread runs, and the minimum
/// filters that unrelated noise out — any unpolluted repeat reveals the
/// kernel's true count.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    (0..4)
        .map(|_| {
            let before = ALLOCS.load(Ordering::Relaxed);
            f();
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("at least one repeat")
}

#[test]
fn hot_kernels_stay_allocation_free_in_steady_state() {
    mlp_train_step_is_allocation_free();
    mlp_forward_batch_is_allocation_free();
    neural_observe_predict_is_allocation_free();
    memoized_match_replay_is_allocation_free();
    full_adjust_walk_is_allocation_free();
    emulator_step_allocations_are_bounded();
    indexed_match_allocations_are_bounded();
    streaming_trace_tick_is_allocation_free();
    streaming_memory_is_constant_in_trace_length();
    soa_tick_loop_allocations_are_bounded();
    latency_record_is_allocation_free();
    flight_push_is_allocation_free();
    flight_dump_allocations_are_bounded();
}

fn latency_record_is_allocation_free() {
    let h = mmog_obs::LatencyHisto::new();
    // One record touches every code path (bucket add, sum CAS, min/max).
    h.record(1_234);
    let n = count_allocs(|| {
        for i in 0..4096u64 {
            h.record(i.wrapping_mul(2_654_435_761));
        }
    });
    assert_eq!(n, 0, "latency record must not allocate, got {n}");
    // Snapshots allocate, recording never does — even after one.
    let snap = h.snapshot();
    std::hint::black_box(snap.count);
}

fn flight_tick(t: u64) -> mmog_obs::Event<'static> {
    mmog_obs::Event::Tick {
        tick: t,
        demand_cpu: 1.0,
        alloc_cpu: 2.0,
        shortfall_cpu: 0.5,
    }
}

fn flight_push_is_allocation_free() {
    use mmog_obs::{FlightConfig, FlightRecorder};
    let mut rec = FlightRecorder::new(FlightConfig::new(16));
    rec.begin_tick(0);
    rec.push(flight_tick(0));
    let n = count_allocs(|| {
        // Far past the ring capacity: steady state includes age
        // eviction in begin_tick and wraparound eviction in push.
        for t in 1..2048u64 {
            rec.begin_tick(t);
            rec.push(flight_tick(t));
            rec.push(mmog_obs::Event::TickLatency {
                tick: t,
                predict_ns: 10,
                reduce_ns: 5,
                settle_ns: 3,
                tick_ns: 20,
            });
        }
    });
    assert_eq!(n, 0, "flight begin_tick+push must not allocate, got {n}");
    assert!(rec.pushed() > 4000);
}

fn flight_dump_allocations_are_bounded() {
    use mmog_obs::{FlightConfig, FlightRecorder, FlightTrigger};
    let dir = std::env::temp_dir().join("mmog_alloc_smoke_flight");
    let build = |retain: u64, ticks: u64| {
        let mut cfg = FlightConfig::new(retain);
        cfg.dump_dir.clone_from(&dir);
        let mut rec = FlightRecorder::new(cfg);
        for t in 0..ticks {
            rec.begin_tick(t);
            rec.push(flight_tick(t));
        }
        rec
    };
    // Single-shot (a second trigger is suppressed, so `count_allocs`'s
    // min-over-repeats trick cannot apply): measured raw, compared with
    // generous slack below.
    let dump_allocs = |mut rec: FlightRecorder, label: &'static str| {
        let before = ALLOCS.load(Ordering::Relaxed);
        let path = rec
            .trigger(FlightTrigger::Explicit, 10_000, label)
            .expect("dump writes")
            .expect("first trigger dumps");
        std::hint::black_box(&path);
        ALLOCS.load(Ordering::Relaxed) - before
    };
    // The dump path is bounded by the ring capacity, not the run
    // length: a 100x longer run through the same window must not cost
    // more than a small constant factor (same retained records, same
    // rendered lines; the FS layer adds per-write noise).
    let short = dump_allocs(build(16, 32), "alloc-smoke-short");
    let long = dump_allocs(build(16, 3200), "alloc-smoke-long");
    assert!(
        long <= short.saturating_mul(2) + 64,
        "flight dump allocations grew with run length: {short} at 32 ticks, {long} at 3200"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn mlp_train_step_is_allocation_free() {
    use mmog_predict::mlp::{Mlp, Scratch};
    use mmog_util::rng::Rng64;
    let mut rng = Rng64::seed_from(42);
    let mut net = Mlp::new(&[6, 3, 1], &mut rng);
    let mut scratch = Scratch::default();
    let input = [0.1, -0.2, 0.3, -0.4, 0.5, -0.6];
    let target = [0.25];
    // Warm-up: the scratch grows to the network's shape once.
    for _ in 0..4 {
        let _ = net.train_step_scratch(&mut scratch, &input, &target, 0.05, 0.3);
        let _ = net.forward_scratch(&input, &mut scratch);
    }
    let n = count_allocs(|| {
        for _ in 0..512 {
            let _ = net.train_step_scratch(&mut scratch, &input, &target, 0.05, 0.3);
            let _ = net.forward_scratch(&input, &mut scratch);
        }
    });
    assert_eq!(n, 0, "warmed MLP train+forward must not allocate, got {n}");
}

fn mlp_forward_batch_is_allocation_free() {
    use mmog_predict::mlp::{FeatureMatrix, Mlp, Scratch};
    use mmog_util::rng::Rng64;
    let mut rng = Rng64::seed_from(42);
    let net = Mlp::new(&[6, 3, 1], &mut rng);
    let mut scratch = Scratch::default();
    let mut batch = FeatureMatrix::with_capacity(6, 64);
    let mut out = vec![0.0; 64];
    let row = [0.1, -0.2, 0.3, -0.4, 0.5, -0.6];
    // Warm-up: the batch grows to its row count once, the scratch to
    // the network's shape once.
    batch.clear();
    for _ in 0..64 {
        batch.push_row(&row);
    }
    net.forward_batch(&mut scratch, &batch, &mut out);
    let n = count_allocs(|| {
        for _ in 0..64 {
            // Steady state includes the per-tick gather (clear + push
            // into recycled storage), not just the kernel.
            batch.clear();
            for _ in 0..64 {
                batch.push_row(&row);
            }
            net.forward_batch(&mut scratch, &batch, &mut out);
            std::hint::black_box(out[0]);
        }
    });
    assert_eq!(n, 0, "warmed batched forward must not allocate, got {n}");
}

fn memoized_match_replay_is_allocation_free() {
    use mmog_datacenter::locations::table3_hp12;
    use mmog_datacenter::request::OperatorId;
    use mmog_predict::simple::LastValue;
    use mmog_sim::demand::DemandModel;
    use mmog_sim::provision::GroupProvisioner;
    use mmog_util::geo::{DistanceClass, GeoPoint};
    use mmog_util::time::SimTime;
    use mmog_world::update::UpdateModel;

    let mut fed = mmog_datacenter::Federation::new(table3_hp12());
    let stats = mmog_datacenter::MatchStats::current();
    let mut p = GroupProvisioner::new(
        OperatorId(1),
        0,
        GeoPoint::new(52.37, 4.90),
        DistanceClass::VeryFar,
        DemandModel::paper(UpdateModel::Quadratic),
        1.0,
        Box::new(LastValue::new()),
    );
    let target = p.observe_and_target(1500.0);
    // Warm-up: grant, then run the full no-op walk once to arm the memo.
    for i in 0..4u64 {
        let _ = p.adjust(&mut fed, &stats, &target, SimTime(i));
    }
    let n = count_allocs(|| {
        for _ in 0..512 {
            let out = p.adjust(&mut fed, &stats, &target, SimTime(4));
            assert!(out.replayed, "steady state must hit the memo");
        }
    });
    assert_eq!(n, 0, "memoized match replay must not allocate, got {n}");
}

/// A long ledger with a surplus nothing can release yet: every step
/// with the memo off walks phase 1 (the start re-sort over every held
/// lease), phase 1b and the no-deficit phase 2. Past ~51 leases std's
/// stable sort would heap-allocate its scratch on every walk.
fn full_adjust_walk_is_allocation_free() {
    use mmog_datacenter::center::{DataCenter, DataCenterId, DataCenterSpec};
    use mmog_datacenter::policy::HostingPolicy;
    use mmog_datacenter::request::OperatorId;
    use mmog_datacenter::resource::ResourceVector;
    use mmog_predict::simple::LastValue;
    use mmog_sim::demand::DemandModel;
    use mmog_sim::provision::GroupProvisioner;
    use mmog_util::geo::{DistanceClass, GeoPoint};
    use mmog_util::time::SimTime;
    use mmog_world::update::UpdateModel;

    let origin = GeoPoint::new(52.37, 4.90);
    // HP-3: 0.22 CPU bulk, 90-tick time bulk.
    let mut fed = mmog_datacenter::Federation::new(vec![DataCenter::new(DataCenterSpec {
        id: DataCenterId(0),
        name: "dc".into(),
        country: "NL".into(),
        continent: "Europe".into(),
        location: origin,
        machines: 20,
        machine_capacity: DataCenterSpec::default_machine_capacity(),
        policy: HostingPolicy::hp(3),
    })]);
    let stats = mmog_datacenter::MatchStats::current();
    let mut p = GroupProvisioner::new(
        OperatorId(1),
        0,
        origin,
        DistanceClass::VeryFar,
        DemandModel::paper(UpdateModel::Quadratic),
        1.0,
        Box::new(LastValue::new()),
    );
    p.memo_enabled = false;
    // One 0.22-CPU lease per tick for 64 ticks.
    let leases = 64u32;
    for k in 1..=leases {
        let target = ResourceVector::new(0.22 * f64::from(k) - 0.01, 0.0, 0.0, 0.0);
        let out = p.adjust(&mut fed, &stats, &target, SimTime(u64::from(k)));
        assert_eq!(out.granted, 1, "tick {k} grants one lease");
    }
    assert_eq!(p.lease_count(), leases as usize);
    // Demand drops by two leases' worth before any lease matures.
    let target = ResourceVector::new(0.22 * f64::from(leases - 2), 0.0, 0.0, 0.0);
    let now = SimTime(u64::from(leases) + 1);
    let n = count_allocs(|| {
        for _ in 0..64 {
            let out = p.adjust(&mut fed, &stats, &target, now);
            assert!(!out.replayed && out.released == 0 && out.granted == 0);
        }
    });
    assert_eq!(n, 0, "full adjust walk must not allocate, got {n}");
}

fn neural_observe_predict_is_allocation_free() {
    use mmog_predict::neural::{NeuralConfig, NeuralPredictor};
    use mmog_predict::traits::Predictor;
    let mut p = NeuralPredictor::untrained(NeuralConfig::default(), 1000.0);
    // Fill the window and warm every internal buffer.
    for i in 0..64 {
        p.observe(900.0 + f64::from(i));
        let _ = p.predict();
    }
    let n = count_allocs(|| {
        for i in 0..512u32 {
            p.observe(950.0 + f64::from(i % 100));
            let _ = p.predict();
        }
    });
    assert_eq!(
        n, 0,
        "warmed neural observe→predict must not allocate, got {n}"
    );
}

fn emulator_step_allocations_are_bounded() {
    use mmog_world::config::EmulatorConfig;
    use mmog_world::emulator::GameEmulator;
    let cfg = EmulatorConfig {
        peak_entities: 400,
        ..EmulatorConfig::default()
    };
    let mut emu = GameEmulator::new(cfg, 7);
    for _ in 0..32 {
        let _ = emu.step();
    }
    let steps = 256u64;
    let n = count_allocs(|| {
        for _ in 0..steps {
            let _ = emu.step();
        }
    });
    // The returned snapshot owns its count map (one clone) and the
    // population drifts (entity-vector growth is amortised). Anything
    // near the old per-tick bucket/neighbourhood churn would be
    // hundreds per step.
    let per_step = n as f64 / steps as f64;
    assert!(
        per_step <= 16.0,
        "emulator step allocates too much: {per_step:.1}/step"
    );
}

fn scale_rs_config(days: u64) -> mmog_workload::runescape::RuneScapeConfig {
    let mut cfg = mmog_workload::runescape::RuneScapeConfig::paper_default(days, 99);
    cfg.regions.truncate(2);
    cfg.regions[0].groups = 4;
    cfg.regions[1].groups = 3;
    cfg
}

fn streaming_trace_tick_is_allocation_free() {
    use mmog_workload::stream::StreamingTrace;
    // 4 days = 2880 ticks: enough for the warm-up plus every
    // measurement repeat without exhausting the stream.
    let cfg = scale_rs_config(4);
    let mut stream = StreamingTrace::new(&cfg);
    let mut row = vec![0.0; stream.group_count()];
    // Warm-up: episode buffers grow to their fixed caps.
    for _ in 0..64 {
        assert!(stream.next_tick(&mut row));
    }
    let n = count_allocs(|| {
        for _ in 0..512 {
            assert!(stream.next_tick(&mut row));
        }
    });
    assert_eq!(
        n, 0,
        "warmed streaming next_tick must not allocate, got {n}"
    );
}

/// Memory per group is O(1) in the trace length: generating twice the
/// days costs no additional allocations at all (construction allocates
/// the fixed per-group state; every tick after warm-up is free), where
/// a materialized trace would grow every group's series linearly.
fn streaming_memory_is_constant_in_trace_length() {
    use mmog_workload::stream::StreamingTrace;
    let total_allocs = |days: u64| {
        let cfg = scale_rs_config(days);
        count_allocs(|| {
            let mut stream = StreamingTrace::new(&cfg);
            let mut row = vec![0.0; stream.group_count()];
            while stream.next_tick(&mut row) {}
            std::hint::black_box(&row);
        })
    };
    let short = total_allocs(2);
    let long = total_allocs(4);
    // Identical construction, zero steady state: doubling the trace
    // must not add allocations (tiny slack for episode-buffer timing —
    // a buffer may hit its cap later in a longer trace).
    assert!(
        long <= short + 8,
        "streaming allocations grew with trace length: {short} allocs at 2 days, {long} at 4"
    );
}

/// The engine's struct-of-arrays tick loop stays bounded: doubling the
/// simulated window must cost only the per-tick settle/report work (no
/// per-tick rebuilds of group state, no materialized trace anywhere).
fn soa_tick_loop_allocations_are_bounded() {
    use mmog_bench::scale::{world_config, SweepPoint};
    use mmog_sim::engine::Simulation;
    let point = SweepPoint {
        label: "10k",
        worlds: 1,
        groups_per_world: 5,
    };
    // Configuration construction is identical for both window lengths
    // (both fit one generated day), so it cancels in the subtraction.
    let run_allocs = |ticks: usize| {
        count_allocs(|| {
            let cfg = world_config(&point, 0, ticks, 4242);
            let report = Simulation::new(cfg).run();
            std::hint::black_box(report.ticks);
        })
    };
    let base_ticks = 120u64;
    let short = run_allocs(base_ticks as usize);
    let long = run_allocs(2 * base_ticks as usize);
    let marginal = long.saturating_sub(short) as f64;
    let per_group_tick = marginal / (base_ticks as f64 * 5.0);
    // Each extra tick settles every group through the matcher (owned
    // grant lists) and appends to the report series (amortised); a
    // per-tick clone of hot state or trace would be orders of
    // magnitude past this.
    assert!(
        per_group_tick <= 32.0,
        "SoA tick loop allocates too much: {per_group_tick:.1} per group-tick \
         ({short} allocs at {base_ticks} ticks, {long} at {})",
        2 * base_ticks
    );
}

fn indexed_match_allocations_are_bounded() {
    use mmog_datacenter::locations::table3_hp12;
    use mmog_datacenter::matching::{
        match_request_indexed, CandidateIndex, MatchOutcome, MatchStats,
    };
    use mmog_datacenter::request::{OperatorId, ResourceRequest};
    use mmog_datacenter::resource::ResourceVector;
    use mmog_datacenter::Federation;
    use mmog_util::geo::{DistanceClass, GeoPoint};
    use mmog_util::time::SimTime;

    let mut fed = Federation::new(table3_hp12());
    let origin = GeoPoint::new(52.37, 4.90);
    let stats = MatchStats::current();
    let mut index = CandidateIndex::new(origin, DistanceClass::VeryFar);
    let mut out = MatchOutcome::default();
    let req = ResourceRequest::new(
        OperatorId(1),
        ResourceVector::new(0.2, 0.2, 0.2, 0.2),
        origin,
        DistanceClass::VeryFar,
    );
    // Warm-up builds the index and grows the lease ledgers.
    for i in 0..16u64 {
        match_request_indexed(&mut fed, &mut index, &req, SimTime(i), &mut out, &stats);
    }
    let calls = 128u64;
    let n = count_allocs(|| {
        for i in 0..calls {
            let now = SimTime(16 + i);
            match_request_indexed(&mut fed, &mut index, &req, now, &mut out, &stats);
        }
    });
    // Each call refills one caller-owned MatchOutcome (grants + copied
    // phase-1 rejections) and appends a lease; the old path additionally
    // re-enumerated, re-sorted and cloned a policy per candidate.
    let per_call = n as f64 / calls as f64;
    assert!(
        per_call <= 16.0,
        "indexed match allocates too much: {per_call:.1}/call"
    );
}
