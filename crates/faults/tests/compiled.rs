//! Pins the compiled output of both spec compilers: the paper-default
//! fault schedule and scenario timeline over the paper's two-week trace
//! on a ten-center platform. Any change to stream indices, draw order,
//! episode walks or the canonical sort shows up here as a count or
//! rendering mismatch.

use mmog_faults::{FaultSchedule, FaultSpec, ScenarioSpec, ScenarioTimeline};
use mmog_util::time::TICKS_PER_DAY;

const TICKS: u64 = 14 * TICKS_PER_DAY;
const CENTERS: usize = 10;

/// The event count plus the `Debug` rendering of the first and last
/// five events.
fn pin<E: std::fmt::Debug>(events: &[E]) -> (usize, String, String) {
    let tail = events.len().saturating_sub(5);
    (
        events.len(),
        format!("{:?}", &events[..5.min(events.len())]),
        format!("{:?}", &events[tail..]),
    )
}

#[test]
fn paper_default_fault_schedule_is_pinned() {
    let schedule = FaultSchedule::from_spec(&FaultSpec::paper_default(), TICKS, CENTERS);
    let (len, head, tail) = pin(schedule.events());
    assert_eq!(len, 362);
    assert_eq!(
        head,
        concat!(
            "[",
            "FaultEvent { tick: 0, center: 9, kind: LeaseRevoked }, ",
            "FaultEvent { tick: 15, center: 0, kind: LeaseRevoked }, ",
            "FaultEvent { tick: 39, center: 1, kind: CenterDown }, ",
            "FaultEvent { tick: 41, center: 2, kind: LeaseRevoked }, ",
            "FaultEvent { tick: 77, center: 0, kind: PredictorDropout }",
            "]"
        )
    );
    assert_eq!(
        tail,
        concat!(
            "[",
            "FaultEvent { tick: 10031, center: 5, kind: LeaseRevoked }, ",
            "FaultEvent { tick: 10041, center: 0, kind: LeaseRevoked }, ",
            "FaultEvent { tick: 10072, center: 8, kind: CenterDown }, ",
            "FaultEvent { tick: 10073, center: 8, kind: CenterUp }, ",
            "FaultEvent { tick: 10212, center: 0, kind: CenterUp }",
            "]"
        )
    );
}

#[test]
fn paper_default_scenario_timeline_is_pinned() {
    let timeline = ScenarioTimeline::from_spec(&ScenarioSpec::paper_default(), TICKS, CENTERS);
    let (len, head, tail) = pin(timeline.events());
    assert_eq!(len, 88);
    assert_eq!(
        head,
        concat!(
            "[",
            "ScenarioEvent { tick: 329, kind: FlashBegin { pick: 18410946417787428941, factor: 2.0 } }, ",
            "ScenarioEvent { tick: 406, kind: FlashEnd { pick: 18410946417787428941 } }, ",
            "ScenarioEvent { tick: 497, kind: FlashBegin { pick: 15513180183404916926, factor: 2.0 } }, ",
            "ScenarioEvent { tick: 722, kind: FlashEnd { pick: 15513180183404916926 } }, ",
            "ScenarioEvent { tick: 740, kind: FlashBegin { pick: 8781374849183871813, factor: 2.0 } }",
            "]"
        )
    );
    assert_eq!(
        tail,
        concat!(
            "[",
            "ScenarioEvent { tick: 9925, kind: Migrate { pick: 16938973467080632199 } }, ",
            "ScenarioEvent { tick: 9973, kind: FlashBegin { pick: 10595396843133411145, factor: 2.0 } }, ",
            "ScenarioEvent { tick: 9976, kind: Migrate { pick: 7321518845554060342 } }, ",
            "ScenarioEvent { tick: 10084, kind: FlashEnd { pick: 10595396843133411145 } }, ",
            "ScenarioEvent { tick: 10125, kind: Heal }",
            "]"
        )
    );
}
