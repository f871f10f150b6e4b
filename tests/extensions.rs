//! Integration tests for the extension layers built on top of the
//! paper's core: streaming ingest, sliding windows, per-node profiles
//! and generic higher-order patterns — all cross-checked against the
//! batch FAST pipeline.

use hare::{Motif, WindowedCounter};
use hare_baselines::MotifPattern;
use temporal_graph::gen::GenConfig;
use temporal_graph::Timestamp;

fn workload(seed: u64) -> temporal_graph::TemporalGraph {
    GenConfig {
        nodes: 50,
        edges: 1_500,
        time_span: 30_000,
        seed,
        ..GenConfig::default()
    }
    .generate()
}

/// The append-only stream counter: a window no stream outlasts.
fn stream_all(g: &temporal_graph::TemporalGraph, delta: Timestamp) -> WindowedCounter {
    let mut wc = WindowedCounter::new(delta, Timestamp::MAX / 2);
    for e in g.edges() {
        wc.push(e.src, e.dst, e.t).unwrap();
    }
    wc
}

#[test]
fn streaming_sweep_and_batch_agree() {
    // One stream per delta of a sweep: each equals batch FAST.
    let g = workload(1);
    for delta in [100, 1_000, 8_000] {
        assert_eq!(
            stream_all(&g, delta).counts(),
            hare::count_motifs(&g, delta).matrix,
            "streaming, delta={delta}"
        );
    }
}

#[test]
fn streaming_matches_oracle_not_just_fast() {
    // Independent check against the enumeration oracle, so a shared bug
    // in FAST and streaming (which reuse counting identities) would
    // still be caught.
    let g = workload(2);
    let delta = 2_000;
    let counts = stream_all(&g, delta).counts();
    assert_eq!(counts, hare_baselines::enumerate_all(&g, delta));
    assert_eq!(counts, hare::count_motifs(&g, delta).matrix);
}

/// Batch FAST over the edges of `[start, start + width)`.
fn batch_window(
    g: &temporal_graph::TemporalGraph,
    delta: Timestamp,
    start: Timestamp,
    width: Timestamp,
) -> hare::MotifMatrix {
    let mut b = temporal_graph::GraphBuilder::new().compact_ids(true);
    b.extend(
        g.edges()
            .iter()
            .filter(|e| e.t >= start && e.t < start + width)
            .copied(),
    );
    let sub = b.build();
    if sub.num_edges() >= 3 {
        hare::count_motifs(&sub, delta).matrix
    } else {
        hare::MotifMatrix::default()
    }
}

#[test]
fn window_rows_match_per_window_batch_counts() {
    // Tumbling windows [start, start + W): one sliding counter of width
    // W - 1, advanced to each window's last instant, holds exactly that
    // window's edges, so its counts equal batch FAST over the window.
    let g = workload(3);
    let (delta, width) = (500, 10_000);
    let mut wc = WindowedCounter::new(delta, width - 1);
    let mut start = g.min_time().unwrap();
    let mut rows = 0;
    for e in g.edges() {
        while e.t >= start + width {
            wc.advance_to(start + width - 1);
            assert_eq!(
                wc.counts(),
                batch_window(&g, delta, start, width),
                "{start}"
            );
            start += width;
            rows += 1;
        }
        wc.push(e.src, e.dst, e.t).unwrap();
    }
    wc.advance_to(start + width - 1);
    assert_eq!(
        wc.counts(),
        batch_window(&g, delta, start, width),
        "{start}"
    );
    assert!(rows >= 2);
}

#[test]
fn profiles_sum_matches_grid_with_multiplicities() {
    let g = workload(4);
    let delta = 1_500;
    let profiles = hare::fingerprint::node_profiles(&g, delta, 2);
    let total = hare::fingerprint::profile_sum(&profiles);
    let grid = hare::count_motifs(&g, delta);
    for m in Motif::all() {
        assert_eq!(
            total.get(m),
            grid.get(m) * hare::fingerprint::attribution_multiplicity(m),
            "{m}"
        );
    }
}

#[test]
fn higher_order_patterns_on_known_structures() {
    // The paper's future-work direction (k-node, l-edge motifs) via the
    // generic BT matcher: a 4-edge temporal cycle a->b->c->d->a.
    let g = temporal_graph::TemporalGraph::from_edges(vec![
        temporal_graph::TemporalEdge::new(0, 1, 10),
        temporal_graph::TemporalEdge::new(1, 2, 20),
        temporal_graph::TemporalEdge::new(2, 3, 30),
        temporal_graph::TemporalEdge::new(3, 0, 40),
        // decoy chord
        temporal_graph::TemporalEdge::new(0, 2, 25),
    ]);
    let cycle4 = MotifPattern::new(vec![(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
    assert_eq!(cycle4.count(&g, 100), 1);
    assert_eq!(cycle4.count(&g, 20), 0, "span 30 exceeds delta 20");

    // 4-edge out-star: one center firing at four distinct targets.
    let star4 = MotifPattern::new(vec![(0, 1), (0, 2), (0, 3), (0, 4)]).unwrap();
    let burst = temporal_graph::TemporalGraph::from_edges(
        (0..5)
            .map(|i| temporal_graph::TemporalEdge::new(9, 10 + i, i as i64))
            .collect(),
    );
    // C(5,4) ordered selections respecting time order = 5.
    assert_eq!(star4.count(&burst, 100), 5);

    // Cross-check the 4-cycle count against the cycle census.
    assert_eq!(hare_baselines::two_scent_census(&g, 100, 5).by_len[4], 1);
}

#[test]
fn streaming_ingest_is_usable_for_online_alerts() {
    // Mimic the anomaly example in streaming form: counts visible after
    // every arrival without recounting history.
    let g = workload(5);
    let delta = 1_000;
    let mut wc = WindowedCounter::new(delta, Timestamp::MAX / 2);
    let mut checkpoints = 0;
    for (i, e) in g.edges().iter().enumerate() {
        wc.push(e.src, e.dst, e.t).unwrap();
        if i % 500 == 499 {
            // Prefix equality against batch on the prefix graph.
            let prefix = temporal_graph::TemporalGraph::from_edges(g.edges()[..=i].to_vec());
            assert_eq!(wc.counts(), hare::count_motifs(&prefix, delta).matrix);
            checkpoints += 1;
        }
    }
    assert!(checkpoints >= 2);
}
