//! Property battery for the execution-strategy invariants behind the
//! lane-compression and out-of-core work: however the timestamps are
//! stored (raw vs delta-packed lanes) and however the graph is fed to
//! the kernels (one in-RAM arena vs delta-haloed chunks under a byte
//! budget), the `MotifMatrix`, the per-node `NodeProfiles`, and the
//! graph fingerprint must be bit-identical. The `arb::graph` streams
//! include self-loops (dropped by the builder) and heavy timestamp
//! ties, the cases where chunk cuts and packed decoding are most likely
//! to drift.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hare::{EdgeSource, InMemorySource, LaneFileSource, MotifCounts, OocConfig, OocStats};
use temporal_graph::gen::arb;
use temporal_graph::io::{chronological_edges, graph_from_raw, read_packed_edges, LoadOptions};
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

/// `g`'s edge stream as a `HARELG01` lane file in the temp directory,
/// removed on drop.
struct TempLaneFile(std::path::PathBuf);

impl TempLaneFile {
    fn write(g: &TemporalGraph) -> TempLaneFile {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "hare-lane-ooc-{}-{}.hlg",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        temporal_graph::ooc::write_lane_file(&path, g.num_nodes(), g.edges()).unwrap();
        TempLaneFile(path)
    }

    fn open(&self) -> LaneFileSource {
        LaneFileSource::open(&self.0).unwrap()
    }
}

impl Drop for TempLaneFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
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
        let packed = g.clone().into_lane_layout(LaneLayout::Compressed);
        prop_assert_eq!(packed.fingerprint(), g.fingerprint());
        prop_assert_eq!(
            hare::count_motifs(&packed, delta).matrix,
            hare::count_motifs(&g, delta).matrix
        );
        prop_assert_eq!(
            hare::NodeProfiles::compute(&packed, delta, 1),
            hare::NodeProfiles::compute(&g, delta, 1)
        );
        // And back: unpacking restores the raw path exactly.
        let raw_again = packed.into_lane_layout(LaneLayout::Raw);
        prop_assert_eq!(raw_again.fingerprint(), g.fingerprint());
        prop_assert_eq!(
            hare::count_motifs(&raw_again, delta).matrix,
            hare::count_motifs(&g, delta).matrix
        );
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
        from_file in 0usize..2,
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
        let (counts, stats, again) = if from_file == 1 {
            count_twice(&TempLaneFile::write(&g).open(), cfg, threads)
        } else {
            let runs = count_twice(&InMemorySource::from_graph(&g), cfg, threads);
            // The borrowed source carries the graph's rank: the raw
            // oriented triangle cells match as well.
            prop_assert_eq!(&runs.0.tri, &reference.tri);
            runs
        };
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
        prop_assert_eq!(&*EdgeSource::node_rank(&src), g.node_rank());
        let (num_nodes, edges) = chronological_edges(raw);
        prop_assert_eq!(num_nodes, g.num_nodes());
        prop_assert_eq!(src.load_range(i64::MIN, i64::MAX), edges);
        let full = g.num_edges() * hare::ooc::LANE_BYTES_PER_EDGE;
        let cfg = OocConfig::new(delta, full / budget_divisor + 1);
        let (counts, _) = hare::count_motifs_ooc(&src, cfg, threads).unwrap();
        prop_assert_eq!(counts, hare::count_motifs(&g, delta));
    }

    /// Chunk-loaded per-node profiles equal the in-RAM driver, node for
    /// node and counter for counter, on 1 to 4 workers, either
    /// lane layout, either edge source, and timestamps shifted below
    /// zero.
    #[test]
    fn chunked_profiles_match_in_ram(
        g in arb::graph(10, 50, 80),
        shift in -200i64..=0,
        delta in 0i64..100,
        budget_divisor in 1usize..8,
        compressed in 0usize..2,
        threads in 1usize..5,
    ) {
        let g = shifted(&g, shift);
        let reference = hare::NodeProfiles::compute(&g, delta, 1);
        let full = (g.num_edges() as usize) * hare::ooc::LANE_BYTES_PER_EDGE;
        let mut cfg = OocConfig::new(delta, full / budget_divisor + 1);
        if compressed == 1 {
            cfg.lane_layout = LaneLayout::Compressed;
        }
        let file = TempLaneFile::write(&g);
        let src = InMemorySource::from_graph(&g);
        let in_memory = hare::node_profiles_ooc(&src, cfg, threads).unwrap();
        let from_file = hare::node_profiles_ooc(&file.open(), cfg, threads).unwrap();
        prop_assert_eq!(&in_memory.0, &reference);
        prop_assert_eq!(&from_file.0, &reference);
        prop_assert_eq!(in_memory.1, from_file.1);
    }
}
