//! The structured JSONL event log.
//!
//! Simulations emit semantic events — provisioning decisions, matching
//! accept/reject outcomes, per-group prediction error, per-center bulk
//! waste — as one JSON object per line. The log is gated: a run only
//! builds an [`EventSink`] when its [`Sinks`](crate::Sinks) carry a trace
//! collector (wired through `--trace` in the bench CLI), so emission
//! costs one branch when tracing is off.
//!
//! # Determinism
//!
//! Events carry **no wall-clock fields**, and the log is byte-identical
//! for any `--jobs` value by construction:
//!
//! 1. Each simulation buffers its events in a private [`EventSink`] and
//!    only ever emits from its own serial sections, so within-run order
//!    is the deterministic program order.
//! 2. A finished sink submits its lines as one *chunk* to the run's
//!    trace [`Collector`] under a deterministic label derived from the
//!    run's configuration.
//! 3. [`Collector::flush`] sorts chunks by `(label, content)` — not by
//!    completion time — assigns global sequence numbers, and writes the
//!    file. Concurrent experiments can finish in any order without
//!    perturbing a single output byte.
//!
//! # Schema
//!
//! Every kind is one [`Event`] variant, declared once in the `events!`
//! table below with its wire name and its fields in wire order. The
//! writer, the parser, [`Event::KINDS`] and the flight recorder's ring
//! all come from that table, so adding a kind is one table entry.
//! Emitters build variants, which makes a schema slip a compile error:
//!
//! ```
//! let heal = mmog_obs::Event::Heal { tick: 9, components: 1 };
//! assert_eq!(heal.kind(), "heal");
//! ```
//!
//! ```compile_fail
//! // Omitted field.
//! let _ = mmog_obs::Event::Heal { tick: 9 };
//! ```
//!
//! ```compile_fail
//! // Misnamed field.
//! let _ = mmog_obs::Event::Heal { tick: 9, parts: 1 };
//! ```
//!
//! ```compile_fail
//! // Wrong type.
//! let _ = mmog_obs::Event::Heal { tick: 9, components: 1.5 };
//! ```

use crate::json::{self, Value};
use crate::sinks::Collector;

/// The wire types an event field can carry: how a value renders into a
/// trace line and how it reads back out of a parsed one.
trait Wire<'a>: Copy {
    /// The type's name in wrong-type errors.
    const NAME: &'static str;
    fn write(self, out: &mut String);
    fn read(value: &'a Value) -> Option<Self>;
}

impl Wire<'_> for u64 {
    const NAME: &'static str = "U64";
    fn write(self, out: &mut String) {
        json::write_u64(out, self);
    }
    fn read(value: &Value) -> Option<Self> {
        value.as_u64()
    }
}

/// Floats render shortest-round-trip, so a whole `f64` like `2.0` reads
/// back as an integer node; any JSON number is accepted.
impl Wire<'_> for f64 {
    const NAME: &'static str = "Num";
    fn write(self, out: &mut String) {
        json::write_f64(out, self);
    }
    fn read(value: &Value) -> Option<Self> {
        value.as_f64()
    }
}

impl Wire<'_> for bool {
    const NAME: &'static str = "Bool";
    fn write(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
    fn read(value: &Value) -> Option<Self> {
        match value {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl<'a> Wire<'a> for &'a str {
    const NAME: &'static str = "Str";
    fn write(self, out: &mut String) {
        json::write_escaped(out, self);
    }
    fn read(value: &'a Value) -> Option<Self> {
        value.as_str()
    }
}

/// `Some(value)` when a kind's first field is `tick`, else `None`.
macro_rules! tick_of {
    (tick, $value:expr) => {
        Some($value)
    };
    ($other:ident, $value:expr) => {{
        let _ = $value;
        None
    }};
}

/// Declares [`Event`] from the schema table below: one entry per kind,
/// giving the variant, its wire name, and its fields in wire order.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $kind:literal { $first:ident: $first_ty:ty $(, $field:ident: $ty:ty)* $(,)? }
    )*) => {
        /// One trace event. The enum *is* the trace schema: every kind
        /// the workspace emits is one variant whose fields, in
        /// declaration order, are exactly the JSON members its line
        /// carries after the `kind` tag. Field types are `u64`, `f64`,
        /// `bool` or a borrowed `&str`, so building an event never
        /// allocates.
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum Event<'a> {
            $($(#[$doc])* $variant {
                #[doc = concat!("The `", stringify!($first), "` member of the line.")]
                $first: $first_ty,
                $(
                    #[doc = concat!("The `", stringify!($field), "` member of the line.")]
                    $field: $ty,
                )*
            },)*
        }

        impl<'a> Event<'a> {
            /// Every event kind's wire name, in schema order.
            pub const KINDS: &'static [&'static str] = &[$($kind),*];

            /// The event's wire name.
            #[must_use]
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// The event's tick, for kinds whose first field is `tick`.
            #[must_use]
            pub fn tick(&self) -> Option<u64> {
                match *self {
                    $(Event::$variant { $first, .. } => tick_of!($first, $first),)*
                }
            }

            /// Appends the event's JSON members — `"kind":…` and then
            /// every field in wire order — without the enclosing braces,
            /// so callers can put an envelope in front. Allocation-free
            /// apart from growing `out`.
            pub fn write(&self, out: &mut String) {
                match *self {
                    $(Event::$variant { $first, $($field),* } => {
                        out.push_str(concat!(
                            "\"kind\":\"", $kind, "\",\"", stringify!($first), "\":"
                        ));
                        Wire::write($first, out);
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            Wire::write($field, out);
                        )*
                    })*
                }
            }

            /// Reads a parsed trace line back into its event. After the
            /// `seq`/`scope`/`kind` envelope the line must carry exactly
            /// the kind's fields, in wire order, each of the right type;
            /// string fields borrow from `value`.
            ///
            /// # Errors
            /// Returns a message naming the first violation: unknown
            /// kind, missing or unexpected field, order skew, or wrong
            /// type.
            pub fn parse(value: &'a Value) -> Result<Self, String> {
                let members = value.as_obj().ok_or("event is not a JSON object")?;
                let kind = value.get("kind").and_then(Value::as_str).ok_or("missing kind")?;
                let mut payload = members
                    .iter()
                    .filter(|(name, _)| !matches!(name.as_str(), "seq" | "scope" | "kind"));
                match kind {
                    $($kind => {
                        check_arity(
                            kind,
                            payload.clone(),
                            &[stringify!($first) $(, stringify!($field))*],
                        )?;
                        Ok(Event::$variant {
                            $first: read_field(kind, stringify!($first), payload.next())?,
                            $($field: read_field(kind, stringify!($field), payload.next())?,)*
                        })
                    })*
                    other => Err(format!("unknown event kind `{other}`")),
                }
            }
        }
    };
}

events! {
    /// A simulation run began; `mode` is `dynamic` or `static`.
    RunStart = "run_start" { mode: &'a str, groups: u64, centers: u64, ticks: u64, warmup: u64 }
    /// Platform-wide CPU demand, allocation and shortfall of one tick.
    Tick = "tick" { tick: u64, demand_cpu: f64, alloc_cpu: f64, shortfall_cpu: f64 }
    /// One adjustment step that granted, released, or went unmet.
    Provision = "provision" {
        tick: u64,
        operator: u64,
        granted: u64,
        released: u64,
        unmet: bool,
        target_cpu: f64,
        alloc_cpu: f64,
    }
    /// The matcher rejected `center` for part of an unmet request.
    MatchReject = "match_reject" { tick: u64, operator: u64, center: u64, reason: &'a str }
    /// A group's online prediction error over the whole run.
    PredictionGroup = "prediction_group" { group: u64, operator: u64, game: &'a str, error_pct: f64 }
    /// A sampled per-center allocation snapshot.
    CenterTick = "center_tick" { tick: u64, center: u64, alloc_cpu: f64, free_cpu: f64 }
    /// A center's integrated usage over the run (Figures 13–14).
    CenterUsage = "center_usage" {
        name: &'a str,
        capacity_cpu: f64,
        cpu_unit_ticks: f64,
        cpu_free_unit_ticks: f64,
    }
    /// A simulation run ended.
    RunEnd = "run_end" { ticks: u64, unmet_steps: u64, leases_granted: u64, leases_released: u64 }
    /// Fault plane: a center went down, losing `leases_lost` leases.
    CenterDown = "center_down" { tick: u64, center: u64, name: &'a str, leases_lost: u64 }
    /// Fault plane: a center was repaired.
    CenterUp = "center_up" { tick: u64, center: u64, name: &'a str }
    /// Fault plane: a center kept only `fraction` of its capacity.
    CenterDegraded = "center_degraded" { tick: u64, center: u64, fraction: f64 }
    /// Fault plane: a lease was revoked — with `lease_release`, the
    /// terminal set of the lease lifecycle chain.
    LeaseRevoked = "lease_revoked" { tick: u64, center: u64, lease: u64, operator: u64, cpu: f64 }
    /// Fault plane: the predictor returned no forecast this tick.
    PredictorDropout = "predictor_dropout" { tick: u64 }
    /// Fault plane: a group re-acquired fault-lost capacity.
    Reprovision = "reprovision" { tick: u64, operator: u64, granted: u64, lost_cpu: f64 }
    /// Fault plane: an outage episode at `center` closed.
    FaultRecovery = "fault_recovery" { tick: u64, center: u64, down_ticks: u64 }
    /// Fault plane: the run's fault totals.
    FaultSummary = "fault_summary" {
        events: u64,
        leases_revoked: u64,
        reprovisions: u64,
        unserved_player_ticks: f64,
        recovered: u64,
        unrecovered: u64,
    }
    /// First line of every flight dump: the retention window and the
    /// trigger that fired it.
    FlightMeta = "flight_meta" {
        run: &'a str,
        trigger: &'a str,
        trigger_tick: u64,
        retain_ticks: u64,
        tick_from: u64,
        tick_to: u64,
        records: u64,
    }
    /// Per-tick stage timings in the flight ring (wall-clock — these
    /// never appear in the semantic trace, only in flight dumps).
    TickLatency = "tick_latency" {
        tick: u64,
        predict_ns: u64,
        reduce_ns: u64,
        settle_ns: u64,
        tick_ns: u64,
    }
    /// Scenario: a backbone link's distance factor changed (degrade or
    /// restore; restore carries factor 1).
    TopologyChange = "topology_change" { tick: u64, a: u64, b: u64, factor: f64 }
    /// Scenario: the federation split along `mask` into `components`
    /// parts.
    Partition = "partition" { tick: u64, mask: u64, components: u64 }
    /// Scenario: all partitions healed; `components` is 1 again.
    Heal = "heal" { tick: u64, components: u64 }
    /// Scenario: one group migrated away from `center`, dropping
    /// `leases` leases and charging `cost` unserved player-ticks.
    Migration = "migration" { tick: u64, group: u64, center: u64, leases: u64, cost: f64 }
    /// Scenario: a region's demand multiplier changed (begin carries
    /// the peak factor, end carries 1); `groups` is the number of
    /// groups homed in the region.
    FlashCrowd = "flash_crowd" { tick: u64, region: u64, factor: f64, groups: u64 }
    /// A provisioner asked the matcher for capacity. `request` is the
    /// stable causal id (group index in the high 32 bits, a per-group
    /// sequence number in the low 32); every grant the request produced
    /// carries the same id.
    LeaseRequest = "lease_request" { tick: u64, request: u64, group: u64, operator: u64, cpu: f64 }
    /// The matcher granted a lease against `request`. The causal lease
    /// id is the `(center, lease)` pair — centers never reuse lease
    /// ids, so the pair is unique for the whole run.
    LeaseGrant = "lease_grant" {
        tick: u64,
        request: u64,
        center: u64,
        lease: u64,
        operator: u64,
        cpu: f64,
    }
    /// A held lease passed its earliest-release tick and became
    /// releasable, observed by its provisioner this tick.
    LeaseMature = "lease_mature" { tick: u64, center: u64, lease: u64, operator: u64 }
    /// A lease left its holder for a non-fault reason; `cause` is one
    /// of surplus / reshape / center_down / migration / failover /
    /// run_end.
    LeaseRelease = "lease_release" {
        tick: u64,
        center: u64,
        lease: u64,
        operator: u64,
        cpu: f64,
        cause: &'a str,
    }
}

/// Fails unless `payload` names exactly `wanted.len()` fields.
fn check_arity<'v>(
    kind: &str,
    payload: impl Iterator<Item = &'v (String, Value)> + Clone,
    wanted: &[&str],
) -> Result<(), String> {
    if payload.clone().count() == wanted.len() {
        return Ok(());
    }
    let actual: Vec<&str> = payload.map(|(name, _)| name.as_str()).collect();
    Err(format!(
        "`{kind}` carries fields {actual:?}, expected {wanted:?}"
    ))
}

/// Reads the next payload member as field `want` of `kind`.
fn read_field<'a, T: Wire<'a>>(
    kind: &str,
    want: &str,
    member: Option<&'a (String, Value)>,
) -> Result<T, String> {
    let (name, value) = member.ok_or_else(|| format!("`{kind}` is missing field `{want}`"))?;
    if name != want {
        return Err(format!(
            "`{kind}` field order skew: found `{name}` where `{want}` was expected"
        ));
    }
    T::read(value).ok_or_else(|| {
        format!(
            "`{kind}` field `{name}` has the wrong type (expected {})",
            T::NAME
        )
    })
}

/// Writes the flush-time envelope `{"seq":N,"scope":S,` that opens every
/// trace and flight-dump line (`scope` is already a JSON string). The
/// event members and the closing brace follow.
pub(crate) fn write_envelope(out: &mut String, seq: u64, scope: &str) {
    out.push_str("{\"seq\":");
    json::write_u64(out, seq);
    out.push_str(",\"scope\":");
    out.push_str(scope);
    out.push(',');
}

/// A per-run event buffer. Create one per simulation (or other traced
/// unit of work), emit from serial sections only, and [`submit`] the
/// finished buffer under a deterministic label.
///
/// Events are buffered as one newline-separated string rather than a
/// `Vec<String>`: traced suite runs emit millions of events, and one
/// geometric buffer keeps emission at a plain byte append instead of a
/// per-event heap allocation.
///
/// [`submit`]: EventSink::submit
#[derive(Debug, Default)]
pub struct EventSink {
    /// Newline-terminated JSON lines, concatenated.
    buf: String,
    /// Number of buffered events.
    count: usize,
}

impl EventSink {
    /// An unconditional sink (tests and tools).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    ///
    /// Renders the JSON line directly rather than building a [`Value`]
    /// tree: lease lifecycles emit millions of events per suite run,
    /// and the per-event key/kind allocations of the tree path showed
    /// up as a multiple of the whole settle stage.
    pub fn emit(&mut self, event: &Event<'_>) {
        self.buf.push('{');
        event.write(&mut self.buf);
        self.buf.push_str("}\n");
        self.count += 1;
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no events have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The buffered JSON lines (without `seq`/`scope`, which are
    /// assigned at flush time).
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.buf.lines()
    }

    /// Hands the buffered events to `trace` as one chunk (nothing when
    /// empty). `label` must be deterministic for the work performed
    /// (derive it from the run's configuration, never from wall-clock,
    /// thread ids or completion order).
    pub fn submit(self, trace: &Collector, label: &str) {
        if self.count > 0 {
            trace.submit(label, self.buf);
        }
    }
}

/// Writes a trace body to `out`: chunks sorted by `(label, content)`,
/// each line prefixed with its global sequence number and scope label.
/// Lines go out one at a time, so a buffered file writer holds at most
/// its buffer of the body, never the whole file.
///
/// # Errors
/// Propagates the first write error.
pub(crate) fn write_trace(
    chunks: &mut [(String, String)],
    out: &mut impl std::io::Write,
) -> std::io::Result<()> {
    chunks.sort();
    let mut envelope = String::new();
    let mut seq = 0u64;
    for (label, lines) in chunks.iter() {
        let scope = Value::Str(label.clone()).render();
        for line in lines.lines() {
            // Buffered lines are complete objects `{"kind":...}`; splice
            // the flush-time fields in front of the first member.
            let body = line.strip_prefix('{').expect("buffered line is an object");
            envelope.clear();
            write_envelope(&mut envelope, seq, &scope);
            out.write_all(envelope.as_bytes())?;
            out.write_all(body.as_bytes())?;
            out.write_all(b"\n")?;
            seq += 1;
        }
    }
    Ok(())
}

/// Reads a parsed trace or flight-dump line back into its flush-time
/// envelope and its typed event: `(seq, scope, event)`. The scope and
/// the event's string fields borrow from `value`.
///
/// # Errors
/// Returns a message when the envelope misses `seq` or `scope`, or when
/// [`Event::parse`] rejects the event.
pub fn parse_trace_line(value: &Value) -> Result<(u64, &str, Event<'_>), String> {
    let seq = value
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or("missing seq")?;
    let scope = value
        .get("scope")
        .and_then(Value::as_str)
        .ok_or("missing scope")?;
    Ok((seq, scope, Event::parse(value)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(event: &Event<'_>) -> String {
        let mut sink = EventSink::new();
        sink.emit(event);
        let text = sink.lines().next().unwrap().to_string();
        text
    }

    fn parse_err(text: &str) -> String {
        let value = json::parse(text).unwrap();
        Event::parse(&value).unwrap_err()
    }

    #[test]
    fn emit_builds_json_lines_in_field_order() {
        let event = Event::Provision {
            tick: 7,
            operator: 3,
            granted: 2,
            released: 0,
            unmet: false,
            target_cpu: 1.5,
            alloc_cpu: 2.0,
        };
        assert_eq!(
            line(&event),
            r#"{"kind":"provision","tick":7,"operator":3,"granted":2,"released":0,"unmet":false,"target_cpu":1.5,"alloc_cpu":2}"#
        );
        let named = Event::CenterUp {
            tick: 1,
            center: 0,
            name: "g\"0",
        };
        assert_eq!(
            line(&named),
            r#"{"kind":"center_up","tick":1,"center":0,"name":"g\"0"}"#
        );
    }

    #[test]
    fn lines_round_trip_through_the_parser() {
        let event = Event::Tick {
            tick: 3,
            demand_cpu: 0.25,
            alloc_cpu: 2.0,
            shortfall_cpu: 0.0,
        };
        let text = line(&event);
        let parsed = json::parse(&text).unwrap();
        // Re-rendering the tree and the parsed event reproduce the
        // exact bytes; the whole floats read back as integer nodes.
        assert_eq!(parsed.render(), text);
        assert_eq!(Event::parse(&parsed), Ok(event));
        assert_eq!(event.kind(), "tick");
        assert_eq!(event.tick(), Some(3));
    }

    #[test]
    fn default_sinks_collect_no_trace() {
        assert!(crate::Sinks::default().trace.is_none());
        // A collector nobody submitted to renders one empty file.
        let files = Collector::trace("unused.jsonl").render();
        assert_eq!(files, vec![("unused.jsonl".into(), String::new())]);
    }

    #[test]
    fn kinds_are_unique_and_only_tick_first_kinds_have_a_tick() {
        for (i, kind) in Event::KINDS.iter().enumerate() {
            assert!(!Event::KINDS[..i].contains(kind), "duplicate kind `{kind}`");
        }
        let usage = Event::CenterUsage {
            name: "c",
            capacity_cpu: 1.0,
            cpu_unit_ticks: 0.0,
            cpu_free_unit_ticks: 0.0,
        };
        assert_eq!(usage.tick(), None);
        assert_eq!(Event::PredictorDropout { tick: 4 }.tick(), Some(4));
    }

    #[test]
    fn parse_names_the_first_violation() {
        // Whole floats render as integers and must still satisfy `f64`
        // fields; the parse-back path exercises exactly that collapse.
        let ok = json::parse(
            r#"{"seq":0,"kind":"tick","tick":1,"demand_cpu":2,"alloc_cpu":2.5,"shortfall_cpu":0}"#,
        )
        .unwrap();
        assert!(matches!(Event::parse(&ok), Ok(Event::Tick { tick: 1, .. })));

        let err = parse_err(r#"{"kind":"nope","tick":1}"#);
        assert!(err.contains("unknown event kind"), "{err}");

        let err = parse_err(r#"{"kind":"tick","tick":1,"demand_cpu":2,"alloc_cpu":2}"#);
        assert!(err.contains("shortfall_cpu"), "{err}");

        let err =
            parse_err(r#"{"kind":"tick","demand_cpu":2,"tick":1,"alloc_cpu":2,"shortfall_cpu":0}"#);
        assert!(err.contains("order skew"), "{err}");

        let err = parse_err(
            r#"{"kind":"tick","tick":"one","demand_cpu":2,"alloc_cpu":2,"shortfall_cpu":0}"#,
        );
        assert!(err.contains("wrong type"), "{err}");
    }

    #[test]
    fn scenario_and_lifecycle_kinds_accept_canonical_lines() {
        let lines = [
            r#"{"seq":0,"scope":"s","kind":"topology_change","tick":4,"a":0,"b":3,"factor":3.5}"#,
            r#"{"seq":1,"scope":"s","kind":"partition","tick":5,"mask":9,"components":2}"#,
            r#"{"seq":2,"scope":"s","kind":"heal","tick":9,"components":1}"#,
            r#"{"seq":3,"scope":"s","kind":"migration","tick":6,"group":2,"center":1,"leases":3,"cost":84.5}"#,
            r#"{"seq":4,"scope":"s","kind":"flash_crowd","tick":7,"region":1,"factor":2.5,"groups":4}"#,
            r#"{"seq":5,"scope":"s","kind":"lease_request","tick":4,"request":4294967296,"group":1,"operator":7,"cpu":2.5}"#,
            r#"{"seq":6,"scope":"s","kind":"lease_grant","tick":4,"request":4294967296,"center":2,"lease":9,"operator":7,"cpu":2.5}"#,
            r#"{"seq":7,"scope":"s","kind":"lease_mature","tick":10,"center":2,"lease":9,"operator":7}"#,
            r#"{"seq":8,"scope":"s","kind":"lease_release","tick":30,"center":2,"lease":9,"operator":7,"cpu":2.5,"cause":"surplus"}"#,
        ];
        for text in lines {
            let value = json::parse(text).unwrap();
            let event = Event::parse(&value)
                .unwrap_or_else(|e| panic!("canonical line {text} rejected: {e}"));
            // The body after the envelope re-renders byte for byte.
            let mut body = String::new();
            event.write(&mut body);
            assert!(text.ends_with(&format!(",{body}}}")), "{text} vs {body}");
        }
    }

    #[test]
    fn parse_rejects_tampering() {
        // Dropped field.
        let err = parse_err(
            r#"{"kind":"lease_grant","tick":4,"request":1,"center":2,"lease":9,"operator":7}"#,
        );
        assert!(err.contains("cpu"), "{err}");
        let err = parse_err(r#"{"kind":"partition","tick":5,"mask":9}"#);
        assert!(err.contains("components"), "{err}");
        // Wrong type for the cause string.
        let err = parse_err(
            r#"{"kind":"lease_release","tick":30,"center":2,"lease":9,"operator":7,"cpu":2.5,"cause":3}"#,
        );
        assert!(err.contains("wrong type"), "{err}");
        // Reordered fields.
        let err = parse_err(
            r#"{"kind":"migration","tick":6,"center":1,"group":2,"leases":3,"cost":84.5}"#,
        );
        assert!(err.contains("order skew"), "{err}");
        // Wrong type.
        let err =
            parse_err(r#"{"kind":"flash_crowd","tick":7,"region":1,"factor":"big","groups":4}"#);
        assert!(err.contains("wrong type"), "{err}");
        // Extra field.
        let err = parse_err(r#"{"kind":"heal","tick":9,"components":1,"bonus":1}"#);
        assert!(err.contains("bonus"), "{err}");
        // Negative tick (a `u64` field must reject signed values).
        let err = parse_err(r#"{"kind":"topology_change","tick":-1,"a":0,"b":3,"factor":3.5}"#);
        assert!(err.contains("wrong type"), "{err}");
        // Not an object, no kind.
        assert!(Event::parse(&json::parse("[1]").unwrap()).is_err());
        assert!(parse_err(r#"{"tick":1}"#).contains("kind"));
    }
}
