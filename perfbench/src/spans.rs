//! The benchmark's own span recorder.
//!
//! Spans are taken around each call the benchmark makes into a layer's
//! public functions (trace generation, fault compilation, simulation
//! build and run), never inside the crates. Each span keeps its name,
//! start and end relative to the recorder's origin, and the span that
//! was open when it started. They stay in memory until the process
//! prints its result.

use mmog_obs::json::Value;
use std::time::Instant;

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
}

/// Records spans when enabled; always measures the wrapped call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f`, returning its result and its wall time in seconds. With
    /// tracing on, the call is also recorded as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.spans.len() - 1
        });
        if let Some(i) = index {
            self.open.push(i);
        }
        let start = Instant::now();
        let start_ns = self.now_ns();
        let out = f(self);
        let seconds = start.elapsed().as_secs_f64();
        if let Some(i) = index {
            self.open.pop();
            self.spans[i].start_ns = start_ns;
            self.spans[i].end_ns = self.now_ns();
        }
        (out, seconds)
    }

    /// Total seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// The recorded spans as a JSON array.
    pub fn to_value(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
