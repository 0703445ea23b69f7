//! The parallel execution layer's determinism contract: simulation
//! reports and rendered experiment tables are bit-identical whether the
//! work runs serially (`--jobs 1`) or fanned out across worker threads.
//!
//! Each comparison is its own test, and its passes run side by side,
//! each in its own scope (`common::pass`): a fresh registry and jobs
//! value per pass, which also checks that the `--jobs 4` pass fanned
//! out and the `--jobs 1` pass did not.
//!
//! Failures route through `mmog-obs-analyze`'s first-divergence diff,
//! so a broken contract names the first diverging line instead of
//! dumping two multi-kilobyte reports.

mod common;

use common::{pass, passes};
use mmog_bench::experiments as exp;
use mmog_bench::RunOpts;
use mmog_obs_analyze::first_text_divergence;
use mmog_predict::eval::PredictorKind;
use mmog_sim::engine::{AllocationMode, Simulation};
use mmog_sim::scenario::{self, ScenarioOpts};
use std::fs;
use std::path::Path;

/// A scale small enough for a debug-build test, big enough to exceed
/// the engine's parallel-group threshold (5 regions x 2 groups = 10).
fn tiny() -> ScenarioOpts {
    ScenarioOpts {
        days: 1,
        seed: 77,
        group_cap: Some(2),
    }
}

/// Asserts byte-identity, reporting the first diverging line on
/// failure.
fn assert_same_text(what: &str, left: &str, right: &str) {
    if let Some(d) = first_text_divergence(left, right) {
        panic!("{what}: {}", d.message());
    }
}

/// Runs the prediction-impact scenario (neural predictor, so the
/// per-group seeded training streams are exercised) and renders the
/// report for comparison.
fn engine_fingerprint() -> String {
    let mut cfg =
        scenario::prediction_impact(PredictorKind::Neural, AllocationMode::Dynamic, &tiny());
    // A short offline phase keeps MLP training cheap in debug builds
    // while still exercising the parallel training fan-out.
    cfg.train_ticks = 96;
    let report = Simulation::new(cfg).run();
    format!("{report:?}")
}

/// The highest-churn configuration the engine supports: the paper
/// fault schedule AND the paper scenario timeline on one dynamic run,
/// so the memoized settle path works under constant invalidation —
/// availability-epoch bumps, topology changes, lease revocations,
/// migrations, flash crowds — at every job count.
fn churn_fingerprint() -> String {
    use mmog_faults::{FaultSchedule, FaultSpec, ScenarioSpec};
    let opts = tiny();
    let mut cfg = scenario::scenario_injection(
        &ScenarioSpec::paper_default(),
        AllocationMode::Dynamic,
        &opts,
    );
    let spec = FaultSpec {
        seed: 5,
        ..FaultSpec::paper_default()
    };
    let ticks = opts.days * mmog_util::time::TICKS_PER_DAY;
    let schedule = FaultSchedule::from_spec(&spec, ticks, cfg.centers.len());
    cfg.faults = (!schedule.is_empty()).then_some(schedule);
    let report = Simulation::new(cfg).run();
    format!("{report:?}")
}

/// Compares `actual` to the committed fixture in `tests/golden/`. The
/// fixtures were generated from the pre-hot-path-rewrite kernels, so
/// this pins the optimized MLP, emulator, and matcher to the exact
/// bytes the original implementations produced. Set
/// `MMOG_UPDATE_GOLDEN=1` to regenerate after a deliberate
/// output-changing commit.
fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("MMOG_UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}; run once with MMOG_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_same_text(
        &format!("{name} must stay byte-identical to the pre-optimization fixture"),
        &expected,
        actual,
    );
}

/// The sweep-level options: a multi-run experiment at the tiny scale.
fn tiny_opts() -> RunOpts {
    RunOpts {
        days: 1,
        cap: Some(2),
        seed: 77,
        ..RunOpts::default()
    }
}

/// Engine level: one simulation, serial vs fanned out, plus a same-seed
/// repeat (the caches and per-group streams hold no run-to-run state).
#[test]
fn reports_identical_for_any_job_count() {
    let [serial, parallel, again] = passes([1, 4, 4], engine_fingerprint);
    assert_same_text(
        "SimReport must be bit-identical between --jobs 1 and --jobs 4",
        &serial,
        &parallel,
    );
    assert_same_text("same-seed runs must agree", &parallel, &again);
}

/// Sweep level: Table V fans six predictor runs out and formats every
/// metric (the neural row exercises the seeded training streams).
#[test]
fn table5_identical_for_any_job_count() {
    let opts = tiny_opts();
    let [serial, parallel] = passes([1, 4], || exp::table5_prediction_impact(&opts));
    assert_same_text(
        "experiment text must be byte-identical between --jobs 1 and --jobs 4",
        &serial,
        &parallel,
    );
}

/// fig06 measures wall-clock latency — Figure 6's subject — so its
/// table sits inside `mmog-obs` timing markers. With the markers masked
/// the rest of the report must be byte-identical too. A malformed
/// marker structure (e.g. an unterminated block) is itself a failure,
/// not a silent partial mask.
#[test]
fn fig06_identical_outside_its_timing_markers() {
    let opts = tiny_opts();
    let [serial, parallel] = passes([1, 4], || exp::fig06_prediction_time(&opts));
    assert!(
        serial.contains(mmog_obs::TIMING_BEGIN),
        "fig06 must mark its wall-clock table"
    );
    let masked =
        |text: &str| mmog_obs::mask_timing(text).expect("fig06 timing markers must be well-formed");
    assert_same_text(
        "fig06 must be byte-identical outside its timing markers",
        &masked(&serial),
        &masked(&parallel),
    );
}

/// Golden byte-identity for the hot-path kernels: fig05 leans on the
/// MLP training loop (seven predictors, eight emulated series).
#[test]
fn fig05_matches_golden_for_any_job_count() {
    let opts = tiny_opts();
    let [serial, parallel] = passes([1, 4], || exp::fig05_prediction_accuracy(&opts));
    assert_same_text(
        "fig05 must be byte-identical between --jobs 1 and --jobs 4",
        &serial,
        &parallel,
    );
    check_golden("fig05_tiny.txt", &serial);
}

/// fig_faults drives the emulator, the matcher and the fault plane
/// together, into a committed fixture at two job counts.
#[test]
fn fig_faults_matches_golden_for_any_job_count() {
    let opts = tiny_opts();
    let [serial, parallel] = passes([1, 4], || exp::fig_faults(&opts));
    assert_same_text(
        "fig_faults must be byte-identical between --jobs 1 and --jobs 4",
        &serial,
        &parallel,
    );
    check_golden("fig_faults_tiny.txt", &serial);
}

/// Faulted + scenario in ONE run: the match memo is invalidated from
/// every serial section at once (faults, partitions, migrations, flash
/// crowds), and the report must still not depend on the job count.
#[test]
fn churn_report_matches_golden_for_any_job_count() {
    let [serial, parallel] = passes([1, 4], churn_fingerprint);
    assert_same_text(
        "faulted+scenario report must be bit-identical between --jobs 1 and --jobs 4",
        &serial,
        &parallel,
    );
    check_golden("churn_tiny.txt", &serial);
}

/// Scale sweep: the deterministic semantic section is byte-identical
/// between --jobs 1 and --jobs 4 (timing fields are excluded from the
/// section by construction).
#[test]
fn scale_sweep_semantics_identical_for_any_job_count() {
    use mmog_bench::scale::{render_semantic, run_point, SweepPoint};
    let sweep = SweepPoint {
        label: "10k",
        worlds: 3,
        groups_per_world: 4,
    };
    let run = || render_semantic(&[run_point(&sweep, 60, 77, &Default::default())]);
    let [serial, parallel] = passes([1, 4], run);
    assert_same_text(
        "scale sweep semantics must be byte-identical between --jobs 1 and --jobs 4",
        &serial,
        &parallel,
    );
}

/// Flight recorder: trigger decisions are semantic (driven by the
/// deterministic fault schedule), so a faulted run with the recorder
/// installed fires its dump on the first fault, and everything the dump
/// reports about itself — trigger kind, trigger tick, retained window,
/// record count — is identical across job counts and repeats. The
/// passes share one dump path, so they run one after another.
#[test]
fn flight_trigger_decisions_are_deterministic() {
    use mmog_faults::FaultSpec;
    let dir = std::env::temp_dir().join("mmog_determinism_flight");
    let mut flight_cfg = mmog_obs::FlightConfig::new(12);
    flight_cfg.dump_dir.clone_from(&dir);
    let run = || {
        let spec = FaultSpec {
            seed: 5,
            ..FaultSpec::paper_default()
        };
        let mut cfg = scenario::fault_injection(&spec, AllocationMode::Dynamic, &tiny());
        cfg.sinks.flight = Some(flight_cfg.clone());
        let report = Simulation::new(cfg).run();
        report
            .flight_dump
            .expect("a faulted run with the recorder on must dump")
    };
    let serial = pass(1, run);
    let parallel = pass(4, run);
    let repeat = pass(4, run);
    assert_eq!(serial.trigger, "fault");
    assert_eq!(
        serial, parallel,
        "flight dump report must be identical between --jobs 1 and --jobs 4"
    );
    assert_eq!(parallel, repeat, "same-seed flight dumps must agree");
    assert!(
        serial.tick_to - serial.tick_from < 12,
        "retained window must respect retain_ticks: {serial:?}"
    );
    // The artifact itself is well-formed: standard envelope, known
    // field sets, ticks inside the declared window.
    let text = fs::read_to_string(&serial.path).expect("dump exists");
    let mut lines = text
        .lines()
        .map(|line| mmog_obs::json::parse(line).expect("line parses"));
    let meta = lines.next().expect("meta line");
    let (_, _, meta) = mmog_obs::parse_trace_line(&meta).expect("meta fields");
    assert_eq!(meta.kind(), "flight_meta");
    let mut records = 0u64;
    for value in lines {
        let (_, _, record) = mmog_obs::parse_trace_line(&value).expect("record fields");
        let tick = record.tick().expect("record tick");
        assert!((serial.tick_from..=serial.tick_to).contains(&tick));
        records += 1;
    }
    assert_eq!(records, serial.records);
    let _ = fs::remove_dir_all(&dir);
}

/// The trace stream's two drain orders agree: at the paper's full scale
/// (130 groups x 14 days) the tick-by-tick rows (per-tick formulas) and
/// `generate`'s group-by-group series (day buffers) must match to the
/// last bit.
#[test]
fn tick_drain_matches_group_drain_at_paper_scale() {
    use mmog_workload::runescape::{generate, RuneScapeConfig};
    use mmog_workload::stream::StreamingTrace;
    let cfg = RuneScapeConfig::paper_default(14, 2008);
    let trace = generate(&cfg);
    let mut stream = StreamingTrace::new(&cfg);
    let groups: Vec<&mmog_workload::trace::ServerGroupTrace> =
        trace.regions.iter().flat_map(|r| r.groups.iter()).collect();
    assert_eq!(stream.group_count(), groups.len());
    let mut row = vec![0.0; stream.group_count()];
    let mut t = 0usize;
    while stream.next_tick(&mut row) {
        for (g, (group, &streamed)) in groups.iter().zip(&row).enumerate() {
            let materialized = group.series.values()[t];
            assert!(
                materialized.to_bits() == streamed.to_bits(),
                "group {g} tick {t}: group drain {materialized} != tick drain {streamed}"
            );
        }
        t += 1;
    }
    assert_eq!(t, trace.regions[0].groups[0].series.len());
}
