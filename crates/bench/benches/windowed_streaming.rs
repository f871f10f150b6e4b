//! Criterion benches for the sliding-window streaming engine:
//!
//! * ingest throughput of `WindowedCounter` as the window shrinks from
//!   effectively-unbounded down to `W = δ` (eviction churn rises while
//!   arrival cost stays fixed),
//! * the eviction-cost ablation — the same stream through the same
//!   counter at a window no stream outlasts (no retirement work at all),
//! * the reorder-buffer overhead at `slack > 0` on an in-order stream
//!   (pure buffering cost, no actual reordering).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hare_bench::ablations::{stream_append_only, stream_windowed};
use std::hint::black_box;

fn workload() -> (temporal_graph::TemporalGraph, i64) {
    let spec = hare_datasets::by_name("CollegeMsg").unwrap();
    (spec.generate(1), 600)
}

fn bench_window_widths(c: &mut Criterion) {
    let (g, delta) = workload();
    let span = g.time_span() + 1;
    let mut group = c.benchmark_group("windowed_stream_collegemsg");
    group.sample_size(10);
    for (label, window) in [
        ("W=delta", delta),
        ("W=4delta", 4 * delta),
        ("W=64delta", 64 * delta),
        ("W=span", span),
    ] {
        group.bench_function(BenchmarkId::new(label, window), |b| {
            b.iter(|| black_box(stream_windowed(&g, delta, window, 0)))
        });
    }
    group.finish();
}

fn bench_eviction_ablation(c: &mut Criterion) {
    let (g, delta) = workload();
    let mut group = c.benchmark_group("ablation_window_eviction");
    group.sample_size(10);
    // Eviction on (tight window, maximum retirement churn)…
    group.bench_function("windowed_tight", |b| {
        b.iter(|| black_box(stream_windowed(&g, delta, delta, 0)))
    });
    // …vs an unbounded window, which never retires anything.
    group.bench_function("append_only", |b| {
        b.iter(|| black_box(stream_append_only(&g, delta)))
    });
    group.finish();
}

fn bench_reorder_slack(c: &mut Criterion) {
    let (g, delta) = workload();
    let window = 16 * delta;
    let mut group = c.benchmark_group("windowed_reorder_slack");
    group.sample_size(10);
    for slack in [0i64, 60, 600] {
        group.bench_function(BenchmarkId::new("slack", slack), |b| {
            b.iter(|| black_box(stream_windowed(&g, delta, window, slack)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_window_widths,
    bench_eviction_ablation,
    bench_reorder_slack
);
criterion_main!(benches);
