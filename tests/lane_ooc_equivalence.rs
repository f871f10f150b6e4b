//! Property battery for the execution-strategy invariants behind the
//! lane-compression and out-of-core work: however the timestamps are
//! stored (raw vs delta-packed lanes), the `MotifMatrix`, the per-node
//! `NodeProfiles` and the graph fingerprint must be bit-identical, and
//! however the graph is fed to the kernels (one in-RAM arena vs
//! delta-haloed chunks under a byte budget), so must the counts. The `arb::graph` streams
//! include self-loops (dropped by the builder) and heavy timestamp
//! ties, the cases where chunk cuts and packed decoding are most likely
//! to drift. Fixed inputs join them: CollegeMsg for the compressed
//! round trip, and two larger synthetic graphs whose packed edge
//! streams must count under a budget without a forced cut.

use proptest::prelude::*;

use hare::{EdgeSource, InMemorySource, MotifCounts, OocConfig, OocStats};
use temporal_graph::gen::{arb, scaling_workload};
use temporal_graph::io::{chronological_edges, graph_from_raw, read_packed_edges, LoadOptions};
use temporal_graph::ooc::PackedEdges;
use temporal_graph::{LaneLayout, TemporalEdge, TemporalGraph};

/// `g` with every timestamp moved by `by`: negative shifts put the
/// chunk cuts on negative (and zero-straddling) timestamps.
fn shifted(g: &TemporalGraph, by: i64) -> TemporalGraph {
    let edges = g
        .edges()
        .iter()
        .map(|e| TemporalEdge::new(e.src, e.dst, e.t + by))
        .collect();
    TemporalGraph::from_chronological_edges(g.num_nodes(), edges)
}

/// Count `src` twice on `threads` workers: the counts, then each
/// run's stats.
fn count_twice(
    src: &impl EdgeSource,
    cfg: OocConfig,
    threads: usize,
) -> (MotifCounts, OocStats, OocStats) {
    let (counts, stats) = hare::count_motifs_ooc(src, cfg, threads).unwrap();
    (
        counts,
        stats,
        hare::count_motifs_ooc(src, cfg, threads).unwrap().1,
    )
}

/// `g`'s edge stream, bit-packed.
fn packed(g: &TemporalGraph) -> PackedEdges {
    PackedEdges::from_edges(g.num_nodes(), g.edges())
}

/// Compressed lanes are a storage change only: counts, per-node
/// profiles and the content fingerprint of `g` all survive a round trip
/// through the packed representation bit-for-bit.
fn compressed_round_trip(g: &TemporalGraph, delta: i64) -> Result<(), TestCaseError> {
    let packed = g.clone().into_lane_layout(LaneLayout::Compressed);
    prop_assert_eq!(packed.fingerprint(), g.fingerprint());
    prop_assert_eq!(
        hare::count_motifs(&packed, delta).matrix,
        hare::count_motifs(g, delta).matrix
    );
    prop_assert_eq!(
        hare::NodeProfiles::compute(&packed, delta, 1),
        hare::NodeProfiles::compute(g, delta, 1)
    );
    // And back: unpacking restores the raw path exactly.
    let raw_again = packed.into_lane_layout(LaneLayout::Raw);
    prop_assert_eq!(raw_again.fingerprint(), g.fingerprint());
    prop_assert_eq!(
        hare::count_motifs(&raw_again, delta).matrix,
        hare::count_motifs(g, delta).matrix
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Compressed lanes are a storage change only: counts, per-node
    /// profiles and the content fingerprint all survive a round trip
    /// through the packed representation bit-for-bit.
    #[test]
    fn compressed_lanes_preserve_counts_profiles_and_fingerprint(
        g in arb::graph(10, 60, 90),
        delta in 0i64..120,
    ) {
        compressed_round_trip(&g, delta)?;
    }

    /// Chunk-loaded counting equals the in-RAM kernel for every budget,
    /// from "everything in one chunk" down to budgets so small every cut
    /// is forced — exactness is never traded for the budget — on 1 to 4
    /// workers (which share the budget, so each worker count plans its
    /// own cuts), either lane layout, either edge source, and timestamps
    /// shifted below zero.
    #[test]
    fn chunked_counts_match_in_ram_at_any_budget(
        g in arb::graph(10, 60, 90),
        shift in -200i64..=0,
        delta in 0i64..120,
        budget_divisor in 1usize..12,
        compressed in 0usize..2,
        threads in 1usize..5,
        from_stream in 0usize..2,
    ) {
        let g = shifted(&g, shift);
        let reference = hare::count_motifs(&g, delta);
        let full = (g.num_edges() as usize) * hare::ooc::LANE_BYTES_PER_EDGE;
        let layout = if compressed == 1 { LaneLayout::Compressed } else { LaneLayout::Raw };
        let cfg = OocConfig {
            delta,
            budget_bytes: full / budget_divisor + 1,
            lane_layout: layout,
        };
        let (counts, stats, again) = if from_stream == 1 {
            count_twice(&packed(&g), cfg, threads)
        } else {
            count_twice(&InMemorySource::from_graph(&g), cfg, threads)
        };
        // Both sources carry the graph's rank: the raw oriented triangle
        // cells match as well.
        prop_assert_eq!(&counts.tri, &reference.tri);
        prop_assert_eq!(counts.matrix, reference.matrix);
        prop_assert_eq!(again, stats);
        if layout == LaneLayout::Raw && stats.forced_cuts == 0 {
            prop_assert!(stats.peak_resident_lane_bytes <= cfg.budget_bytes);
        }
    }

    /// The route `hare-count --chunk-budget --input` takes: the text read
    /// into a packed edge stream, never built into a graph or an edge
    /// list, holds the list `chronological_edges` makes and counts
    /// exactly like the graph `graph_from_raw` builds from the same
    /// triples (self-loops, sparse 64-bit ids, ties, out-of-order rows,
    /// negative times), under the same node rank.
    #[test]
    fn edge_list_source_counts_like_the_built_graph(
        rows in proptest::collection::vec((0u64..12, 0u64..12, -30i64..30), 0..70),
        spread in 1u64..u64::MAX / 16,
        delta in 0i64..40,
        budget_divisor in 1usize..10,
        threads in 1usize..5,
    ) {
        let raw: Vec<(u64, u64, i64)> =
            rows.iter().map(|&(s, d, t)| (s * spread, d * spread, t)).collect();
        let g = graph_from_raw(raw.clone(), &LoadOptions::default());
        let text: String = raw.iter().map(|(s, d, t)| format!("{s} {d} {t}\n")).collect();
        let src = read_packed_edges(text.as_bytes(), &LoadOptions::default()).unwrap();
        prop_assert_eq!(src.num_nodes(), g.num_nodes());
        prop_assert_eq!(EdgeSource::node_rank(&src), g.node_rank());
        let (num_nodes, edges) = chronological_edges(raw);
        prop_assert_eq!(num_nodes, g.num_nodes());
        prop_assert_eq!(src.load_range(i64::MIN, i64::MAX), edges);
        let full = g.num_edges() * hare::ooc::LANE_BYTES_PER_EDGE;
        let cfg = OocConfig::new(delta, full / budget_divisor + 1);
        let (counts, _) = hare::count_motifs_ooc(&src, cfg, threads).unwrap();
        prop_assert_eq!(counts, hare::count_motifs(&g, delta));
    }
}

/// The compressed-lane round trip on CollegeMsg at scale 8 and at full
/// size, δ = 600.
#[test]
fn collegemsg_compressed_lanes_round_trip() {
    let spec = hare_datasets::by_name("CollegeMsg").unwrap();
    for scale in [8, 1] {
        compressed_round_trip(&spec.generate(scale), 600).unwrap();
    }
}

/// The packed edge streams of the 40 000- and 200 000-edge synthetic
/// graphs, counted at δ = 2000 on two workers (which share the budget)
/// under a raw-lane budget of an eighth of the whole graph's lanes plus
/// one byte: the counts equal in-RAM FAST, no cut is forced, and the
/// resident lanes never exceed the budget.
#[test]
fn synthetic_packed_stream_counts_within_an_eighth_budget() {
    let delta = 2_000;
    for edges in [40_000, 200_000] {
        let g = scaling_workload(edges);
        let budget = g.num_edges() * hare::ooc::LANE_BYTES_PER_EDGE / 8 + 1;
        let cfg = OocConfig {
            delta,
            budget_bytes: budget,
            lane_layout: LaneLayout::Raw,
        };
        let (counts, stats) = hare::count_motifs_ooc(&packed(&g), cfg, 2).unwrap();
        assert_eq!(
            counts.matrix,
            hare::count_motifs(&g, delta).matrix,
            "{edges} edges"
        );
        assert_eq!(
            stats.forced_cuts, 0,
            "{edges} edges: budget too small for the halo"
        );
        assert!(
            stats.peak_resident_lane_bytes <= budget,
            "{edges} edges: resident lanes {} exceed budget {budget}",
            stats.peak_resident_lane_bytes
        );
    }
}
