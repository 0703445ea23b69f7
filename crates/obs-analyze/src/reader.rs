//! Streaming, validating reader over the JSONL trace.
//!
//! [`read_trace`] walks the trace text line by line without ever
//! materialising the whole file as parsed values; each yielded
//! [`TraceEvent`] has already passed [`mmog_obs::Event::parse`] — kind
//! known, field set exact, field order exact, types right — so
//! downstream analytics can index fields without re-checking.

use mmog_obs::json::Value;
use mmog_obs::{parse_trace_line, Event};

/// One validated trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Global flush-time sequence number.
    pub seq: u64,
    /// The deterministic chunk label the emitting run submitted under.
    pub scope: String,
    /// Event kind (one of [`Event::KINDS`]).
    pub kind: String,
    /// The full parsed line, envelope included.
    pub value: Value,
}

impl TraceEvent {
    /// An unsigned-integer field of the event.
    #[must_use]
    pub fn u64(&self, field: &str) -> Option<u64> {
        self.value.get(field).and_then(Value::as_u64)
    }

    /// A numeric field of the event.
    #[must_use]
    pub fn f64(&self, field: &str) -> Option<f64> {
        self.value.get(field).and_then(Value::as_f64)
    }

    /// A string field of the event.
    #[must_use]
    pub fn str(&self, field: &str) -> Option<&str> {
        self.value.get(field).and_then(Value::as_str)
    }

    /// The event's `tick` field, when the kind carries one.
    #[must_use]
    pub fn tick(&self) -> Option<u64> {
        self.u64("tick")
    }
}

/// A composable event filter. Every constraint left unset matches
/// everything, so `Query::default()` is the identity filter.
#[derive(Debug, Clone, Default)]
pub struct Query {
    kinds: Vec<String>,
    scope_contains: Option<String>,
    tick_min: Option<u64>,
    tick_max: Option<u64>,
    group: Option<u64>,
    center: Option<u64>,
}

impl Query {
    /// Restricts to one event kind (repeatable; kinds are OR-ed).
    #[must_use]
    pub fn kind(mut self, kind: &str) -> Self {
        self.kinds.push(kind.to_string());
        self
    }

    /// Restricts to scopes containing `needle`.
    #[must_use]
    pub fn scope_contains(mut self, needle: &str) -> Self {
        self.scope_contains = Some(needle.to_string());
        self
    }

    /// Restricts to events whose `tick` lies in `[min, max]`. Events
    /// without a tick field (e.g. `center_usage`) never match a
    /// tick-constrained query.
    #[must_use]
    pub fn tick_range(mut self, min: u64, max: u64) -> Self {
        self.tick_min = Some(min);
        self.tick_max = Some(max);
        self
    }

    /// Restricts to events carrying `group == g`.
    #[must_use]
    pub fn group(mut self, g: u64) -> Self {
        self.group = Some(g);
        self
    }

    /// Restricts to events carrying `center == c`.
    #[must_use]
    pub fn center(mut self, c: u64) -> Self {
        self.center = Some(c);
        self
    }

    /// Whether `event` satisfies every constraint.
    #[must_use]
    pub fn matches(&self, event: &TraceEvent) -> bool {
        if !self.kinds.is_empty() && !self.kinds.contains(&event.kind) {
            return false;
        }
        if let Some(needle) = &self.scope_contains {
            if !event.scope.contains(needle.as_str()) {
                return false;
            }
        }
        if self.tick_min.is_some() || self.tick_max.is_some() {
            let Some(tick) = event.tick() else {
                return false;
            };
            if self.tick_min.is_some_and(|min| tick < min)
                || self.tick_max.is_some_and(|max| tick > max)
            {
                return false;
            }
        }
        if let Some(g) = self.group {
            if event.u64("group") != Some(g) {
                return false;
            }
        }
        if let Some(c) = self.center {
            if event.u64("center") != Some(c) {
                return false;
            }
        }
        true
    }
}

/// Streams validated events out of trace text, one per non-empty line.
/// Errors carry the 1-based line number; iteration continues past a bad
/// line so callers can choose between fail-fast (`collect::<Result<…>>`)
/// and salvage.
pub fn read_trace<'a>(
    text: &'a str,
    query: &'a Query,
) -> impl Iterator<Item = Result<TraceEvent, String>> + 'a {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .filter_map(move |(idx, line)| {
            let no = idx + 1;
            match parse_event(line) {
                Ok(event) => query.matches(&event).then_some(Ok(event)),
                Err(e) => Some(Err(format!("line {no}: {e}"))),
            }
        })
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let (seq, scope, kind, value) = parse_trace_line(line)?;
    Event::parse(&value)?;
    Ok(TraceEvent {
        seq,
        scope,
        kind,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: &str = concat!(
        r#"{"seq":0,"scope":"a","kind":"run_start","mode":"dynamic","groups":2,"centers":1,"ticks":10,"warmup":2}"#,
        "\n",
        r#"{"seq":1,"scope":"a","kind":"tick","tick":0,"demand_cpu":1,"alloc_cpu":2,"shortfall_cpu":0}"#,
        "\n",
        r#"{"seq":2,"scope":"a","kind":"center_tick","tick":0,"center":0,"alloc_cpu":2,"shortfall_cpu":0}"#,
        "\n",
    );

    #[test]
    fn reader_validates_and_filters() {
        // Third line has a field-name skew (`shortfall_cpu` where
        // `free_cpu` belongs) — the reader must surface it as an error.
        let all: Vec<_> = read_trace(TRACE, &Query::default()).collect();
        assert_eq!(all.len(), 3);
        assert!(all[0].is_ok());
        assert!(all[1].is_ok());
        let err = all[2].as_ref().unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("free_cpu"), "{err}");

        // Errors surface regardless of the filter; matching events are
        // the ok items.
        let ticks: Vec<_> = read_trace(TRACE, &Query::default().kind("tick"))
            .filter_map(Result::ok)
            .collect();
        assert_eq!(ticks.len(), 1);
        assert_eq!(ticks[0].f64("alloc_cpu"), Some(2.0));

        assert_eq!(
            read_trace(TRACE, &Query::default().kind("tick").tick_range(5, 9))
                .filter_map(Result::ok)
                .count(),
            0
        );
        assert_eq!(
            read_trace(TRACE, &Query::default().scope_contains("b"))
                .filter_map(Result::ok)
                .count(),
            0
        );
    }
}
