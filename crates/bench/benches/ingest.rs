//! Criterion microbenchmark of the two ingest routes from SNAP text to
//! a `TemporalGraph`: the raw one, `(src, dst, t)` triples
//! (`io::read_edges`) then `io::graph_from_raw` (id remap,
//! chronological sort, event lanes, `PairIndex`), and the one-pass
//! `io::read_graph` that `hare-count --input` runs. The input is the
//! WikiTalk stand-in at 1/64 scale (about 122 000 edges, 2 MB of text)
//! as `io::write_edges` renders it, read through an 8 KiB `BufReader`;
//! rates are per input byte.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::io::BufReader;
use temporal_graph::io::{graph_from_raw, read_edges, read_graph, write_edges, LoadOptions};

fn bench_ingest(c: &mut Criterion) {
    let g = hare_datasets::by_name("WikiTalk").unwrap().generate(64);
    let mut text = Vec::new();
    write_edges(&g, &mut text).unwrap();
    let opts = LoadOptions::default();
    let raw = read_edges(BufReader::new(text.as_slice()), &opts).unwrap();

    let mut group = c.benchmark_group("ingest_wikitalk64");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("read_edges", |b| {
        b.iter(|| black_box(read_edges(BufReader::new(text.as_slice()), &opts).unwrap()))
    });
    group.bench_function("graph_from_raw", |b| {
        b.iter(|| black_box(graph_from_raw(raw.clone(), &opts)))
    });
    group.bench_function("read_edges+graph_from_raw", |b| {
        b.iter(|| {
            let raw = read_edges(BufReader::new(text.as_slice()), &opts).unwrap();
            black_box(graph_from_raw(raw, &opts))
        })
    });
    group.bench_function("read_graph", |b| {
        b.iter(|| black_box(read_graph(BufReader::new(text.as_slice()), &opts).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
