//! Semantic first-divergence reporting.
//!
//! Byte-comparing two deterministic artifacts tells you *that* they
//! differ; this module tells you *where*: for traces, the first
//! diverging event with its kind, tick and the first field whose value
//! moved; for report text, the first diverging line. The determinism
//! suites route their failures through these helpers so a regression
//! reads as `kind `tick` tick 42 field `alloc_cpu`: 12.5 vs 13`, not a
//! byte offset.

use mmog_obs::json::{self, Value};

/// Where two traces first part ways.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// Sequence number of the left event, when it parsed.
    pub seq: Option<u64>,
    /// Scope of the left event (falls back to the right event's).
    pub scope: Option<String>,
    /// Kind of the left event (falls back to the right event's).
    pub kind: Option<String>,
    /// Tick of the left event (falls back to the right event's).
    pub tick: Option<u64>,
    /// First differing field, when both lines are events of one kind.
    pub field: Option<String>,
    /// The left side of the difference (field value or whole line).
    pub left: String,
    /// The right side of the difference.
    pub right: String,
}

impl Divergence {
    /// One human-readable sentence naming the divergence.
    #[must_use]
    pub fn message(&self) -> String {
        let mut out = format!("first divergence at line {}", self.line);
        if let Some(seq) = self.seq {
            out.push_str(&format!(" (seq {seq}"));
            if let Some(scope) = &self.scope {
                out.push_str(&format!(", scope {scope:?}"));
            }
            out.push(')');
        }
        if let Some(kind) = &self.kind {
            out.push_str(&format!(": kind `{kind}`"));
        }
        if let Some(tick) = self.tick {
            out.push_str(&format!(" tick {tick}"));
        }
        match &self.field {
            Some(field) => out.push_str(&format!(
                ", field `{field}`: {} vs {}",
                self.left, self.right
            )),
            None => out.push_str(&format!(": {} vs {}", self.left, self.right)),
        }
        out
    }
}

const END_OF_TRACE: &str = "<end of trace>";

/// Reads the envelope and `tick` only, not the typed event, so a line
/// whose payload breaks the schema (a trace from a build where an event
/// gained a field) still reports where it sits.
fn event_context(line: &str) -> (Option<u64>, Option<String>, Option<String>, Option<u64>) {
    let Ok(value) = json::parse(line) else {
        return (None, None, None, None);
    };
    let envelope = || {
        Some((
            value.get("seq")?.as_u64()?,
            value.get("scope")?.as_str()?.to_string(),
            value.get("kind")?.as_str()?.to_string(),
        ))
    };
    match envelope() {
        Some((seq, scope, kind)) => (
            Some(seq),
            Some(scope),
            Some(kind),
            value.get("tick").and_then(Value::as_u64),
        ),
        None => (None, None, None, None),
    }
}

fn field_delta(left: &str, right: &str) -> Option<(String, String, String)> {
    let l = json::parse(left).ok()?;
    let r = json::parse(right).ok()?;
    let (lm, rm) = (l.as_obj()?, r.as_obj()?);
    for ((ln, lv), (rn, rv)) in lm.iter().zip(rm) {
        if ln != rn {
            return Some((
                ln.clone(),
                format!("field `{ln}` present"),
                format!("field `{rn}` present"),
            ));
        }
        if lv != rv {
            return Some((ln.clone(), lv.render(), rv.render()));
        }
    }
    if lm.len() != rm.len() {
        let (longer, side) = if lm.len() > rm.len() {
            (lm, "left")
        } else {
            (rm, "right")
        };
        let extra = &longer[lm.len().min(rm.len())].0;
        return Some((
            extra.clone(),
            format!("only {side} carries `{extra}`"),
            String::new(),
        ));
    }
    None
}

/// Compares two traces line by line and reports the first diverging
/// event, or `None` when they are byte-identical. A missing trailing
/// event (one trace is a prefix of the other) is reported against
/// `<end of trace>`.
#[must_use]
pub fn trace_diff(left: &str, right: &str) -> Option<Divergence> {
    let mut lines_l = left.lines();
    let mut lines_r = right.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (lines_l.next(), lines_r.next()) {
            (None, None) => return None,
            (l, r) => {
                let l = l.unwrap_or(END_OF_TRACE);
                let r = r.unwrap_or(END_OF_TRACE);
                if l == r {
                    continue;
                }
                let (seq, scope, kind, tick) = match event_context(l) {
                    ctx @ (Some(_), _, _, _) => ctx,
                    _ => event_context(r),
                };
                let same_kind_delta = (l != END_OF_TRACE && r != END_OF_TRACE)
                    .then(|| field_delta(l, r))
                    .flatten();
                return Some(match same_kind_delta {
                    Some((field, lv, rv)) => Divergence {
                        line: line_no,
                        seq,
                        scope,
                        kind,
                        tick,
                        field: Some(field),
                        left: lv,
                        right: rv,
                    },
                    None => Divergence {
                        line: line_no,
                        seq,
                        scope,
                        kind,
                        tick,
                        field: None,
                        left: l.to_string(),
                        right: r.to_string(),
                    },
                });
            }
        }
    }
}

/// Where two text reports first part ways.
#[derive(Debug, Clone)]
pub struct TextDivergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// The left line (or `<end of text>`).
    pub left: String,
    /// The right line (or `<end of text>`).
    pub right: String,
}

impl TextDivergence {
    /// One human-readable sentence naming the divergence.
    #[must_use]
    pub fn message(&self) -> String {
        format!(
            "first divergence at line {}:\n  left:  {}\n  right: {}",
            self.line, self.left, self.right
        )
    }
}

/// Compares two text reports line by line and reports the first
/// diverging line, or `None` when they are byte-identical.
#[must_use]
pub fn first_text_divergence(left: &str, right: &str) -> Option<TextDivergence> {
    if left == right {
        return None;
    }
    let mut lines_l = left.lines();
    let mut lines_r = right.lines();
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match (lines_l.next(), lines_r.next()) {
            // Line content identical but the texts differ: trailing
            // newline or carriage-return drift.
            (None, None) => {
                return Some(TextDivergence {
                    line: line_no,
                    left: "<line terminator difference>".to_string(),
                    right: "<line terminator difference>".to_string(),
                })
            }
            (l, r) => {
                let l = l.unwrap_or("<end of text>");
                let r = r.unwrap_or("<end of text>");
                if l != r {
                    return Some(TextDivergence {
                        line: line_no,
                        left: l.to_string(),
                        right: r.to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = concat!(
        r#"{"seq":0,"scope":"a","kind":"run_start","mode":"dynamic","groups":1,"centers":1,"ticks":4,"warmup":0}"#,
        "\n",
        r#"{"seq":1,"scope":"a","kind":"tick","tick":0,"demand_cpu":10,"alloc_cpu":12.5,"shortfall_cpu":0}"#,
        "\n",
        r#"{"seq":2,"scope":"a","kind":"run_end","ticks":4,"unmet_steps":0,"leases_granted":1,"leases_released":0}"#,
        "\n",
    );

    #[test]
    fn identical_traces_have_no_divergence() {
        assert!(trace_diff(BASE, BASE).is_none());
        assert!(first_text_divergence(BASE, BASE).is_none());
    }

    #[test]
    fn perturbed_field_names_kind_tick_and_field() {
        let perturbed = BASE.replace(r#""alloc_cpu":12.5"#, r#""alloc_cpu":13"#);
        let d = trace_diff(BASE, &perturbed).expect("must diverge");
        assert_eq!(d.line, 2);
        assert_eq!(d.seq, Some(1));
        assert_eq!(d.kind.as_deref(), Some("tick"));
        assert_eq!(d.tick, Some(0));
        assert_eq!(d.field.as_deref(), Some("alloc_cpu"));
        assert_eq!(d.left, "12.5");
        assert_eq!(d.right, "13");
        let msg = d.message();
        assert!(msg.contains("kind `tick`"), "{msg}");
        assert!(msg.contains("tick 0"), "{msg}");
        assert!(msg.contains("`alloc_cpu`"), "{msg}");
    }

    #[test]
    fn schema_breaking_lines_keep_their_context() {
        // Both builds emit a field the current schema does not know: the
        // divergence still names the event from its envelope.
        let grown = |v: &str| {
            BASE.replace(
                r#""shortfall_cpu":0}"#,
                &format!(r#""shortfall_cpu":0,"spare_cpu":{v}}}"#),
            )
        };
        let d = trace_diff(&grown("1"), &grown("2")).expect("must diverge");
        assert_eq!(d.line, 2);
        assert_eq!(d.seq, Some(1));
        assert_eq!(d.scope.as_deref(), Some("a"));
        assert_eq!(d.kind.as_deref(), Some("tick"));
        assert_eq!(d.tick, Some(0));
        assert_eq!(d.field.as_deref(), Some("spare_cpu"));
    }

    #[test]
    fn missing_trailing_event_reports_end_of_trace() {
        let truncated: String = BASE.lines().take(2).collect::<Vec<_>>().join("\n") + "\n";
        let d = trace_diff(BASE, &truncated).expect("must diverge");
        assert_eq!(d.line, 3);
        assert_eq!(d.kind.as_deref(), Some("run_end"));
        assert_eq!(d.right, END_OF_TRACE);
    }

    /// A real flight-recorder dump: `flight_meta` first line, then the
    /// retained full-detail window (same envelope as the trace, so
    /// `trace_diff` localizes divergences in dumps too).
    fn flight_dump() -> String {
        use mmog_obs::{FlightConfig, FlightRecorder, FlightTrigger, TickRecord};
        let dir = std::env::temp_dir().join("obs_analyze_diff_flight");
        let mut cfg = FlightConfig::new(4);
        cfg.dump_dir.clone_from(&dir);
        let mut rec = FlightRecorder::new(cfg);
        for t in 0..12 {
            let record = TickRecord {
                tick: t,
                demand_cpu: 10.0,
                alloc_cpu: 12.5,
                predict_ns: 10,
                reduce_ns: 5,
                tick_ns: 20,
                ..TickRecord::default()
            };
            rec.begin_tick(t);
            rec.push(record.tick_event());
            rec.push(record.latency_event());
        }
        let path = rec
            .trigger(FlightTrigger::Explicit, 11, "diff-test")
            .unwrap()
            .expect("trigger writes a dump");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        text
    }

    #[test]
    fn flight_dumps_diff_like_traces() {
        let dump = flight_dump();
        // Identical dumps: no divergence.
        assert!(trace_diff(&dump, &dump).is_none());
        // Tamper one record's payload: the divergence names the record
        // kind, its tick, and the exact field that moved — not a byte
        // offset.
        let tampered = dump.replacen(r#""alloc_cpu":12.5"#, r#""alloc_cpu":99"#, 1);
        assert_ne!(dump, tampered, "fixture must contain an alloc_cpu field");
        let d = trace_diff(&dump, &tampered).expect("tampered dump must diverge");
        assert_eq!(d.kind.as_deref(), Some("tick"));
        assert_eq!(d.field.as_deref(), Some("alloc_cpu"));
        assert_eq!(d.left, "12.5");
        assert_eq!(d.right, "99");
        assert!(d.tick.is_some());
        // Tamper the meta line: the divergence lands on line 1 and
        // names `flight_meta`.
        let meta_tampered = dump.replacen(r#""trigger":"explicit""#, r#""trigger":"fault""#, 1);
        assert_ne!(dump, meta_tampered, "fixture must carry the trigger");
        let d = trace_diff(&dump, &meta_tampered).expect("must diverge");
        assert_eq!(d.line, 1);
        assert_eq!(d.kind.as_deref(), Some("flight_meta"));
        assert_eq!(d.field.as_deref(), Some("trigger"));
        // Truncate the dump (a torn write): the first missing record is
        // reported against <end of trace>.
        let lines: Vec<&str> = dump.lines().collect();
        let truncated = lines[..lines.len() - 1].join("\n") + "\n";
        let d = trace_diff(&dump, &truncated).expect("must diverge");
        assert_eq!(d.right, END_OF_TRACE);
        assert_eq!(d.line, lines.len());
    }

    #[test]
    fn text_divergence_reports_first_line() {
        let d = first_text_divergence("a\nb\nc\n", "a\nB\nc\n").expect("differs");
        assert_eq!(d.line, 2);
        assert_eq!(d.left, "b");
        assert_eq!(d.right, "B");
        let msg = d.message();
        assert!(msg.contains("line 2"), "{msg}");
    }
}
