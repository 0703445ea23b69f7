//! Offline stand-in for `criterion`.
//!
//! Provides the API subset the workspace's benches use —
//! `criterion_group!`/`criterion_main!`, `Criterion::bench_function`,
//! benchmark groups with throughput and per-group sample sizes,
//! `Bencher::iter`/`iter_batched` and `BenchmarkId` — backed by a small
//! wall-clock harness: warm up briefly, time a fixed number of samples,
//! report min/median/mean per iteration. No statistics engine, no
//! plotting; numbers print to stdout in a stable format.
//!
//! Set `CRITERION_SAMPLE_MS` to change the per-benchmark time budget
//! (milliseconds, default 200). The first command-line argument that
//! does not start with `-` filters by name: only benchmarks whose
//! `group/id` contains it run (`cargo bench --bench workload -- paper`),
//! and a skipped benchmark's body, setup included, never runs.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Batch sizing hints for [`Bencher::iter_batched`] (accepted for
/// API compatibility; every batch re-runs the setup closure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One iteration per batch.
    PerIteration,
}

/// Throughput annotation printed alongside the timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    #[must_use]
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", function.into()),
        }
    }

    /// Identifier from the parameter alone.
    #[must_use]
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Times closures handed over by a benchmark body.
pub struct Bencher {
    budget: Duration,
    samples: Vec<f64>,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Self {
            budget,
            samples: Vec::new(),
        }
    }

    /// Times `routine` repeatedly until the budget is spent.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Calibrate: how many iterations fit in ~1/10 of the budget?
        let calib = Instant::now();
        let mut n = 0u64;
        while calib.elapsed() < self.budget / 10 {
            black_box(routine());
            n += 1;
        }
        let per_batch = n.max(1);
        let start = Instant::now();
        while start.elapsed() < self.budget {
            let t = Instant::now();
            for _ in 0..per_batch {
                black_box(routine());
            }
            self.samples
                .push(t.elapsed().as_secs_f64() / per_batch as f64);
        }
    }

    /// Times `routine` on fresh inputs produced by `setup` (setup time
    /// excluded from the measurement).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let start = Instant::now();
        loop {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            self.samples.push(t.elapsed().as_secs_f64());
            if start.elapsed() >= self.budget {
                break;
            }
        }
    }
}

fn format_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

fn report(name: &str, samples: &mut [f64], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{name:<48} (no samples)");
        return;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let rate = match throughput {
        Some(Throughput::Elements(n)) if median > 0.0 => {
            format!("  {:>12.0} elem/s", n as f64 / median)
        }
        Some(Throughput::Bytes(n)) if median > 0.0 => {
            format!("  {:>12.0} B/s", n as f64 / median)
        }
        _ => String::new(),
    };
    println!(
        "{name:<48} min {:>10}  median {:>10}  mean {:>10}{rate}",
        format_secs(min),
        format_secs(median),
        format_secs(mean),
    );
}

fn default_budget() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200u64);
    Duration::from_millis(ms)
}

/// Whether the benchmark `name` (`group/id`) runs under `filter`: no
/// filter runs everything, a filter runs the names that contain it.
fn selected(filter: Option<&str>, name: &str) -> bool {
    filter.is_none_or(|f| name.contains(f))
}

/// The benchmark harness entry point.
pub struct Criterion {
    budget: Duration,
    /// The name filter from the command line (see the crate docs).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            budget: default_budget(),
            // cargo bench also passes harness flags such as `--bench`.
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Runs one standalone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        self.run_one(name, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn run_one(&self, name: &str, throughput: Option<Throughput>, f: impl FnOnce(&mut Bencher)) {
        if !selected(self.filter.as_deref(), name) {
            return;
        }
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(name, &mut b.samples, throughput);
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the wall-clock budget, not the
    /// sample count, bounds each benchmark here.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{id}", self.name);
        self.parent.run_one(&name, self.throughput, f);
        self
    }

    /// Runs one benchmark with an explicit input reference.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl std::fmt::Display,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let name = format!("{}/{id}", self.name);
        self.parent.run_one(&name, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::selected;

    #[test]
    fn filter_is_a_substring_of_group_and_id() {
        let name = "trace_generate/paper_130groups_14days";
        assert!(selected(None, name), "no filter runs everything");
        assert!(selected(Some("paper"), name));
        assert!(
            selected(Some("trace_generate/paper"), name),
            "across the slash"
        );
        assert!(selected(Some(name), name));
        assert!(!selected(Some("figure2"), name));
        assert!(!selected(Some("Paper"), name), "case-sensitive");
    }
}
