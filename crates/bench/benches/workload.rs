//! Workload-substrate benchmarks: trace synthesis throughput (one region,
//! the paper layout in both drain orders, and Figure 2's event window)
//! and the Figure 3 analyses (envelope, IQR, autocorrelation) that
//! post-process every generated region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mmog_util::stats;
use mmog_workload::analysis;
use mmog_workload::runescape::{generate, RuneScapeConfig};
use mmog_workload::stream::StreamingTrace;
use std::hint::black_box;

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generate");
    group.sample_size(10);
    for days in [1u64, 7] {
        let mut cfg = RuneScapeConfig::paper_default(days, 9);
        cfg.regions.truncate(1);
        cfg.regions[0].groups = 40;
        group.throughput(Throughput::Elements(days * 720 * 40));
        group.bench_function(BenchmarkId::new("region0_40groups_days", days), |b| {
            b.iter(|| black_box(generate(&cfg).total_groups()))
        });
    }
    // The paper layout (5 regions, 130 groups) over the 14-day window
    // the engine's experiments and perfbench's `fine_churn` generate.
    let paper = RuneScapeConfig::paper_default(14, 9);
    group.throughput(Throughput::Elements(14 * 720 * 130));
    group.bench_function("paper_130groups_14days", |b| {
        b.iter(|| black_box(generate(&paper).total_groups()))
    });
    // The same trace drained tick by tick, as the engine's streaming
    // worlds do: per-tick formulas into one reused row.
    group.bench_function("stream_paper_130groups_14days", |b| {
        b.iter(|| {
            let mut stream = StreamingTrace::new(&paper);
            let mut row = vec![0.0f64; stream.group_count()];
            let mut sum = 0.0;
            while stream.next_tick(&mut row) {
                sum += row[0];
            }
            black_box(sum)
        })
    });
    // Figure 2's 60-day window with its three population events, whose
    // multiplier costs up to three `exp` calls per tick.
    let figure2 = RuneScapeConfig::with_figure2_events(60, 9, 9);
    group.throughput(Throughput::Elements(60 * 720 * 130));
    group.bench_function("figure2_130groups_60days", |b| {
        b.iter(|| black_box(generate(&figure2).total_groups()))
    });
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut cfg = RuneScapeConfig::paper_default(3, 13);
    cfg.regions.truncate(1);
    cfg.regions[0].groups = 40;
    let trace = generate(&cfg);
    let region = &trace.regions[0];
    let mut group = c.benchmark_group("figure3_analysis");
    group.sample_size(10);
    group.bench_function("load_envelope", |b| {
        b.iter(|| black_box(analysis::load_envelope(black_box(region)).median.len()))
    });
    group.bench_function("iqr_series", |b| {
        b.iter(|| black_box(analysis::iqr_series(black_box(region)).len()))
    });
    let series = region.groups[0].series.values();
    group.bench_function("acf_one_group_lag780", |b| {
        b.iter(|| black_box(stats::autocorrelation(black_box(series), 780).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_generate, bench_analysis);
criterion_main!(benches);
