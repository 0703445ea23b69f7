//! Streaming, validating reader over the JSONL trace.
//!
//! [`read_trace`] walks the trace text line by line without ever
//! materialising the whole file as parsed values, and hands each line
//! to its caller as a [`TraceEvent`]: the envelope plus the typed
//! [`Event`] that [`mmog_obs::parse_trace_line`] read back — kind
//! known, field set exact, field order exact, types right. Analytics
//! match on the event's variants, so a schema change is a compile error
//! here, not a silently missing field.

use mmog_obs::{parse_trace_line, Event};
use std::ops::RangeInclusive;

/// One validated trace line, borrowed from its parsed JSON.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent<'a> {
    /// Global flush-time sequence number.
    pub seq: u64,
    /// The deterministic chunk label the emitting run submitted under.
    pub scope: &'a str,
    /// The typed event.
    pub event: Event<'a>,
}

/// A composable event filter. Every constraint left unset matches
/// everything, so `Query::default()` is the identity filter.
#[derive(Debug, Clone, Default)]
pub struct Query {
    kinds: Vec<String>,
    scope_contains: Option<String>,
    ticks: Option<RangeInclusive<u64>>,
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
        self.ticks = Some(min..=max);
        self
    }

    /// Whether `event` satisfies every constraint.
    #[must_use]
    pub fn matches(&self, event: &TraceEvent<'_>) -> bool {
        let kind = event.event.kind();
        (self.kinds.is_empty() || self.kinds.iter().any(|k| k == kind))
            && (self.scope_contains.as_ref()).is_none_or(|n| event.scope.contains(n.as_str()))
            && (self.ticks.as_ref())
                .is_none_or(|ticks| event.event.tick().is_some_and(|t| ticks.contains(&t)))
    }
}

/// Feeds every event of the trace `text` that `query` matches to `f`,
/// in line order. Each line is JSON-parsed once and validated before
/// the filter sees it, so a malformed line fails even when the query
/// would have skipped it.
///
/// # Errors
/// Returns the first malformed line (parse failure, envelope or schema
/// violation) with its 1-based line number.
pub fn read_trace(
    text: &str,
    query: &Query,
    mut f: impl FnMut(&TraceEvent<'_>),
) -> Result<(), String> {
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = mmog_obs::json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let (seq, scope, event) =
            parse_trace_line(&value).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let event = TraceEvent { seq, scope, event };
        if query.matches(&event) {
            f(&event);
        }
    }
    Ok(())
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

    /// The events of `text` that `query` matches, or the read error.
    fn read(text: &str, query: &Query) -> Result<Vec<String>, String> {
        let mut seen = Vec::new();
        read_trace(text, query, |e| seen.push(format!("{:?}", e.event)))?;
        Ok(seen)
    }

    #[test]
    fn reader_validates_and_filters() {
        // Third line has a field-name skew (`shortfall_cpu` where
        // `free_cpu` belongs) — the reader must surface it as an error,
        // whatever the filter.
        for query in [Query::default(), Query::default().kind("tick")] {
            let err = read(TRACE, &query).unwrap_err();
            assert!(err.starts_with("line 3:"), "{err}");
            assert!(err.contains("free_cpu"), "{err}");
        }
        let valid: String = TRACE.lines().take(2).collect::<Vec<_>>().join("\n");
        assert_eq!(read(&valid, &Query::default()).unwrap().len(), 2);

        // Matching events arrive typed.
        let mut ticks = Vec::new();
        read_trace(&valid, &Query::default().kind("tick"), |e| {
            if let Event::Tick { alloc_cpu, .. } = e.event {
                ticks.push((e.seq, e.scope.to_string(), alloc_cpu));
            }
        })
        .unwrap();
        assert_eq!(ticks, vec![(1, "a".to_string(), 2.0)]);

        let in_window = Query::default().kind("tick").tick_range(5, 9);
        assert!(read(&valid, &in_window).unwrap().is_empty());
        let scoped = Query::default().scope_contains("b");
        assert!(read(&valid, &scoped).unwrap().is_empty());
    }
}
