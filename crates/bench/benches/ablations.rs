//! Ablation benches for FAST's and HARE's design choices:
//!
//! * stamped scratch array vs literal HashMaps in FAST-Star,
//! * δ-window binary search vs linear scan in FAST-Tri,
//! * intra-node parallelism on vs off on a hub-dominated graph,
//! * dynamic vs static inter-node scheduling.

use criterion::{criterion_group, criterion_main, Criterion};
use hare::{DegreeThreshold, Hare, HareConfig, Scheduling};
use hare_bench::ablations::{fast_star_hashmap, fast_tri_linear};
use std::hint::black_box;

fn bench_scratch_strategy(c: &mut Criterion) {
    let spec = hare_datasets::by_name("CollegeMsg").unwrap();
    let g = spec.generate(1);
    let delta = 600;
    let mut group = c.benchmark_group("ablation_star_scratch");
    group.sample_size(10);
    group.bench_function("stamped_array", |b| {
        b.iter(|| black_box(hare::fused::count_graph::<true, false, false>(&g, delta)))
    });
    group.bench_function("hashmap", |b| {
        b.iter(|| black_box(fast_star_hashmap(&g, delta)))
    });
    group.finish();
}

fn bench_pair_window_search(c: &mut Criterion) {
    let spec = hare_datasets::by_name("Bitcoinotc").unwrap();
    let g = spec.generate(1);
    let delta = 600;
    let mut group = c.benchmark_group("ablation_tri_window");
    group.sample_size(10);
    group.bench_function("binary_search", |b| {
        b.iter(|| black_box(hare::fused::count_graph::<false, true, false>(&g, delta)))
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| black_box(fast_tri_linear(&g, delta)))
    });
    group.finish();
}

fn bench_hierarchical_parallelism(c: &mut Criterion) {
    // Hub-dominated workload where one node holds most of the work.
    let g = temporal_graph::gen::hub_burst(400, 60_000, 2_000_000, 9);
    let delta = 5_000;
    let threads = 2;
    let mut group = c.benchmark_group("ablation_thrd_hub_graph");
    group.sample_size(10);
    for (name, thrd, sched) in [
        (
            "hierarchical",
            DegreeThreshold::TopK(20),
            Scheduling::Dynamic,
        ),
        (
            "inter_node_only",
            DegreeThreshold::Disabled,
            Scheduling::Dynamic,
        ),
        (
            "static_schedule",
            DegreeThreshold::Disabled,
            Scheduling::Static,
        ),
    ] {
        let engine = Hare::new(HareConfig {
            num_threads: threads,
            degree_threshold: thrd,
            scheduling: sched,
            ..HareConfig::default()
        });
        group.bench_function(name, |b| b.iter(|| black_box(engine.count_all(&g, delta))));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scratch_strategy,
    bench_pair_window_search,
    bench_hierarchical_parallelism
);
criterion_main!(benches);
