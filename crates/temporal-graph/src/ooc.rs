//! Out-of-core edge storage: the bit-packed in-RAM edge stream
//! [`PackedEdges`].
//!
//! A [`PackedEdges`] stream holds one chronological edge list in
//! fixed-width bit-packed blocks, so a counting driver can pull any
//! time range `[lo, hi)` out of it without materialising the rest of
//! the graph. It is the substrate under `hare::ooc`'s chunked
//! `count_motifs`/`NodeProfiles` for a text file counted out of core
//! (`hare-count --input F --chunk-budget B`): the driver plans
//! timestamp cuts against the stream, loads δ-haloed chunks on parallel
//! workers, and keeps their resident lane arenas together under a
//! caller-set byte budget. The stream itself stays resident, at a few
//! bytes per edge.

use crate::lanes::{PackedTs, TsLane, TsRead};
use crate::types::{NodeId, TemporalEdge, Timestamp};

/// Edges per block of a [`PackedEdges`] stream: each block is one run
/// of its timestamp lane and one of its id lane.
pub const PACKED_BLOCK_EDGES: usize = 1024;

/// A chronological edge stream held in RAM, bit-packed in blocks of
/// [`PACKED_BLOCK_EDGES`] edges, plus the degree rank of its nodes. It
/// is what `hare-count --input F --chunk-budget B` counts from, read by
/// [`crate::io::read_packed_edges`] with no edge list built.
///
/// Each block stores:
/// - its timestamps as `t − anchor` at one bit width, the anchor being
///   the block's first timestamp;
/// - its `src, dst` pairs as `id − anchor` at one bit width, the anchor
///   being the block's smallest id.
///
/// Both lanes are [`PackedTs`] runs, so any timestamp decodes in O(1):
/// [`PackedEdges::count_until`] binary-searches the block anchors and
/// then one block's timestamps, decoding nothing else, and
/// [`PackedEdges::load_range`] decodes only the edges it returns. The
/// resident size is [`PackedEdges::heap_bytes`].
#[derive(Debug, Clone)]
pub struct PackedEdges {
    ts: PackedTs,
    ids: PackedTs,
    len: usize,
    node_rank: Box<[u32]>,
}

impl PackedEdges {
    /// Pack a chronological, self-loop-free edge list over the node
    /// space `0..num_nodes`. The node rank is [`crate::stats::degree_rank`]
    /// over the list's degrees, so it equals the rank of the graph built
    /// from the same edges.
    ///
    /// # Panics
    /// Panics, like [`crate::TemporalGraph::from_chronological_edges`],
    /// if the edges are not sorted by timestamp, hold a self-loop or
    /// reference a node `>= num_nodes`.
    #[must_use]
    pub fn from_edges(num_nodes: usize, edges: &[TemporalEdge]) -> PackedEdges {
        assert!(
            edges.windows(2).all(|w| w[0].t <= w[1].t),
            "edges must be sorted by timestamp"
        );
        let mut degree = vec![0u32; num_nodes];
        let mut w = PackedEdgesWriter::new();
        for &e in edges {
            assert!(!e.is_self_loop(), "self-loop {e} not allowed");
            assert!(
                (e.src as usize) < num_nodes && (e.dst as usize) < num_nodes,
                "edge {e} references a node >= num_nodes ({num_nodes})"
            );
            degree[e.src as usize] += 1;
            degree[e.dst as usize] += 1;
            w.push(e);
        }
        w.finish(&degree)
    }

    /// Node id space (`max id + 1`) of the stream.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_rank.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the stream holds no edge.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One distinct rank per node: ascending `(degree, id)` over the
    /// whole stream, like [`crate::TemporalGraph::node_rank`].
    #[must_use]
    pub fn node_rank(&self) -> &[u32] {
        &self.node_rank
    }

    /// Edges in block `b`.
    fn block_len(&self, b: usize) -> usize {
        (self.len - b * PACKED_BLOCK_EDGES).min(PACKED_BLOCK_EDGES)
    }

    /// Earliest timestamp, or `None` when empty.
    #[must_use]
    pub fn min_time(&self) -> Option<Timestamp> {
        self.ts.anchors().first().copied()
    }

    /// Latest timestamp, or `None` when empty.
    #[must_use]
    pub fn max_time(&self) -> Option<Timestamp> {
        let b = self.ts.anchors().len().checked_sub(1)?;
        let n = self.block_len(b);
        Some(self.ts.run(b, n).at(n - 1))
    }

    /// Number of edges with timestamp strictly before `t`: a binary
    /// search over the block anchors, then over one block's timestamps.
    #[must_use]
    pub fn count_until(&self, t: Timestamp) -> usize {
        // Blocks before `b` end at or before block `b`'s anchor, which
        // is `< t`; blocks after it start at `>= t`.
        let after = self.ts.anchors().partition_point(|&a| a < t);
        let Some(b) = after.checked_sub(1) else {
            return 0;
        };
        let lane = TsLane::Packed(self.ts.run(b, self.block_len(b)));
        b * PACKED_BLOCK_EDGES + lane.partition_point(|x| x < t)
    }

    /// All edges with timestamp in `[lo, hi)`, in stream order; empty
    /// when `lo >= hi`. Decodes only those edges.
    #[must_use]
    pub fn load_range(&self, lo: Timestamp, hi: Timestamp) -> Vec<TemporalEdge> {
        if lo >= hi {
            return Vec::new();
        }
        self.decode(self.count_until(lo)..self.count_until(hi))
    }

    /// Edges `range` (stream positions), decoded block by block.
    fn decode(&self, range: std::ops::Range<usize>) -> Vec<TemporalEdge> {
        let mut out = Vec::with_capacity(range.len());
        let mut ts = [0 as Timestamp; PACKED_BLOCK_EDGES];
        let mut ids = [0 as Timestamp; 2 * PACKED_BLOCK_EDGES];
        let mut i = range.start;
        while i < range.end {
            let b = i / PACKED_BLOCK_EDGES;
            let n = self.block_len(b);
            let first = i - b * PACKED_BLOCK_EDGES;
            let last = (range.end - b * PACKED_BLOCK_EDGES).min(n);
            let (ts, ids) = (&mut ts[..last - first], &mut ids[..2 * (last - first)]);
            self.ts.run(b, n).unpack(first, ts);
            self.ids.run(b, 2 * n).unpack(2 * first, ids);
            out.extend(
                ts.iter()
                    .zip(ids.chunks_exact(2))
                    .map(|(&t, e)| TemporalEdge::new(e[0] as NodeId, e[1] as NodeId, t)),
            );
            i = b * PACKED_BLOCK_EDGES + last;
        }
        out
    }

    /// Heap bytes held by the stream: the two lanes' runs and words
    /// ([`PackedTs`]: 17 bytes per block and lane, plus each lane's
    /// words and its pad word) and 4 bytes of rank per node.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.ts.heap_bytes() + self.ids.heap_bytes() + self.node_rank.len() * 4
    }
}

/// Appends chronological edges to a [`PackedEdges`] stream one block at
/// a time; the block being filled is the only unpacked state.
#[derive(Debug)]
pub(crate) struct PackedEdgesWriter {
    ts: PackedTs,
    ids: PackedTs,
    /// Edges in the packed blocks.
    packed: usize,
    /// The block being filled: its timestamps, and its `src, dst` pairs.
    block_ts: Vec<Timestamp>,
    block_ids: Vec<Timestamp>,
}

impl PackedEdgesWriter {
    pub(crate) fn new() -> PackedEdgesWriter {
        PackedEdgesWriter {
            ts: PackedTs::new(),
            ids: PackedTs::new(),
            packed: 0,
            block_ts: Vec::with_capacity(PACKED_BLOCK_EDGES),
            block_ids: Vec::with_capacity(2 * PACKED_BLOCK_EDGES),
        }
    }

    /// Append `e`, which must not be earlier than the edge before it.
    #[inline]
    pub(crate) fn push(&mut self, e: TemporalEdge) {
        debug_assert!(self.block_ts.last().is_none_or(|&t| t <= e.t));
        self.block_ts.push(e.t);
        self.block_ids
            .extend([Timestamp::from(e.src), Timestamp::from(e.dst)]);
        if self.block_ts.len() == PACKED_BLOCK_EDGES {
            self.flush();
        }
    }

    /// Pack the block being filled.
    fn flush(&mut self) {
        if self.block_ts.is_empty() {
            return;
        }
        self.ts.push_run(&self.block_ts, true);
        self.ids.push_run(&self.block_ids, false);
        self.packed += self.block_ts.len();
        self.block_ts.clear();
        self.block_ids.clear();
    }

    /// The stream, ranked by the degrees `degree[u]` of its nodes.
    pub(crate) fn finish(mut self, degree: &[u32]) -> PackedEdges {
        self.flush();
        self.ts.shrink_to_fit();
        self.ids.shrink_to_fit();
        PackedEdges {
            ts: self.ts,
            ids: self.ids,
            len: self.packed,
            node_rank: crate::stats::degree_rank(degree.len(), |u| degree[u] as usize),
        }
    }

    /// Every edge pushed so far, unpacked again.
    pub(crate) fn into_edges(self) -> Vec<TemporalEdge> {
        let stream = self.finish(&[]);
        stream.decode(0..stream.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_edges(n: usize) -> Vec<TemporalEdge> {
        let mut edges: Vec<TemporalEdge> = (0..n)
            .map(|i| {
                TemporalEdge::new(
                    (i % 13) as u32,
                    ((i * 5 + 1) % 13) as u32,
                    ((i as i64 * 37) % 1000) - 200,
                )
            })
            .filter(|e| !e.is_self_loop())
            .collect();
        edges.sort_by_key(|e| e.t);
        edges
    }

    #[test]
    fn roundtrip_all_edges() {
        let edges = sample_edges(10_000);
        let stream = PackedEdges::from_edges(13, &edges);
        assert_eq!(stream.num_nodes(), 13);
        assert_eq!(stream.len(), edges.len());
        assert_eq!(stream.min_time(), Some(edges[0].t));
        assert_eq!(stream.max_time(), Some(edges.last().unwrap().t));
        let all = stream.load_range(Timestamp::MIN, Timestamp::MAX);
        assert_eq!(all, edges);
    }

    #[test]
    fn count_until_matches_linear_scan() {
        let edges = sample_edges(9_500); // straddles block boundaries
        let stream = PackedEdges::from_edges(13, &edges);
        for t in [-500, -200, -1, 0, 1, 137, 500, 799, 800, 2000] {
            let want = edges.iter().filter(|e| e.t < t).count();
            assert_eq!(stream.count_until(t), want, "t={t}");
        }
    }

    #[test]
    fn load_range_matches_linear_scan() {
        let edges = sample_edges(9_000);
        let stream = PackedEdges::from_edges(13, &edges);
        for (lo, hi) in [(-300, -100), (-100, 100), (0, 1), (100, 100), (700, 1200)] {
            let want: Vec<TemporalEdge> = edges
                .iter()
                .copied()
                .filter(|e| e.t >= lo && e.t < hi)
                .collect();
            assert_eq!(stream.load_range(lo, hi), want, "[{lo},{hi})");
        }
    }

    mod packed {
        use super::*;
        use crate::graph::MAX_NODES;
        use crate::util::splitmix64_mix;
        use proptest::prelude::*;

        /// `n` chronological edges drawn from `seed`. Time shapes: 0 a
        /// handful of negative and zero timestamps (ties spanning block
        /// boundaries), 1 a skewed range either side of zero, 2 the
        /// whole `i64` span with both ends present. Id shapes: 0 eight
        /// small ids, 1 ids up to `MAX_NODES − 1` with both ends present.
        fn edges(n: usize, time_shape: u8, id_shape: u8, seed: u64) -> Vec<TemporalEdge> {
            let mut h = seed;
            let mut next = || {
                h = splitmix64_mix(h, 1);
                h
            };
            let mut times: Vec<Timestamp> = (0..n)
                .map(|_| match time_shape {
                    0 => -3 + (next() % 4) as Timestamp,
                    1 => -(1 << 40) + (next() % (1 << 41)) as Timestamp,
                    _ => next() as Timestamp,
                })
                .collect();
            if time_shape == 2 && n >= 2 {
                times[0] = Timestamp::MIN;
                times[1] = Timestamp::MAX;
            }
            times.sort_unstable();
            let ids = if id_shape == 0 { 8 } else { MAX_NODES as u64 };
            times
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let src = match (id_shape, i % 97) {
                        (1, 0) => 0,
                        (1, 1) => ids - 1,
                        _ => next() % ids,
                    };
                    let dst = (src + 1 + next() % (ids - 1)) % ids;
                    TemporalEdge::new(src as NodeId, dst as NodeId, t)
                })
                .collect()
        }

        /// `edges` through the stream writer (no rank: the id space may
        /// be the whole packed-lane node space).
        fn pack(edges: &[TemporalEdge]) -> PackedEdges {
            let mut w = PackedEdgesWriter::new();
            for &e in edges {
                w.push(e);
            }
            w.finish(&[])
        }

        fn oracle_range(edges: &[TemporalEdge], lo: Timestamp, hi: Timestamp) -> Vec<TemporalEdge> {
            edges
                .iter()
                .filter(|e| lo <= e.t && e.t < hi)
                .copied()
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `count_until` and `load_range` answer like a plain list
            /// for every stored timestamp, its neighbours, both ends of
            /// `i64` and drawn ranges, `lo >= hi` included.
            #[test]
            fn packed_stream_matches_a_vec_oracle(
                n in 0usize..2_600,
                shape in (0u8..3, 0u8..2),
                seed in 0u64..u64::MAX,
            ) {
                let edges = edges(n, shape.0, shape.1, seed);
                let stream = pack(&edges);
                prop_assert_eq!(stream.len(), n);
                prop_assert_eq!(stream.min_time(), edges.first().map(|e| e.t));
                prop_assert_eq!(stream.max_time(), edges.last().map(|e| e.t));
                prop_assert_eq!(stream.load_range(Timestamp::MIN, Timestamp::MAX), oracle_range(&edges, Timestamp::MIN, Timestamp::MAX));
                let mut probes = vec![Timestamp::MIN, Timestamp::MAX, 0, -1, 1];
                for e in edges.iter().step_by(7) {
                    probes.extend([e.t, e.t.saturating_sub(1), e.t.saturating_add(1)]);
                }
                for &t in &probes {
                    let want = edges.partition_point(|e| e.t < t);
                    prop_assert!(stream.count_until(t) == want, "count_until({}) != {}", t, want);
                }
                let mut h = seed;
                for _ in 0..40 {
                    h = splitmix64_mix(h, 2);
                    let lo = probes[(h % probes.len() as u64) as usize];
                    let hi = probes[((h >> 32) % probes.len() as u64) as usize];
                    let got = stream.load_range(lo, hi);
                    prop_assert!(got == oracle_range(&edges, lo, hi), "load_range({}, {})", lo, hi);
                    if lo >= hi {
                        prop_assert!(got.is_empty());
                    }
                }
            }
        }

        #[test]
        fn empty_stream_answers_nothing() {
            for stream in [pack(&[]), PackedEdges::from_edges(3, &[])] {
                assert!(stream.is_empty());
                assert_eq!((stream.min_time(), stream.max_time()), (None, None));
                assert_eq!(stream.count_until(Timestamp::MAX), 0);
                assert!(stream.load_range(Timestamp::MIN, Timestamp::MAX).is_empty());
            }
        }

        /// The stream's heap bytes follow its formula exactly: per block
        /// and lane 17 bytes of run metadata; per lane its packed bits in
        /// words plus a pad word; 4 bytes of rank per node.
        #[test]
        fn packed_edges_footprint_is_pinned() {
            let formula = |edges: &[TemporalEdge], num_nodes: usize| -> usize {
                let lane = |width: &dyn Fn(&[TemporalEdge]) -> u64, per_edge: u64| {
                    let bits: u64 = edges
                        .chunks(PACKED_BLOCK_EDGES)
                        .map(|b| b.len() as u64 * per_edge * width(b))
                        .sum();
                    let blocks = edges.len().div_ceil(PACKED_BLOCK_EDGES);
                    17 * blocks + 8 * ((bits as usize).div_ceil(64) + 1)
                };
                let bits = |span: i64| u64::from(64 - (span as u64).leading_zeros());
                let ts = lane(&|b| bits(b[b.len() - 1].t - b[0].t), 1);
                let ids = lane(
                    &|b| {
                        let ids = || b.iter().flat_map(|e| [e.src, e.dst]);
                        bits(i64::from(ids().max().unwrap() - ids().min().unwrap()))
                    },
                    2,
                );
                ts + ids + 4 * num_nodes
            };
            // 2 500 edges at t = 3i among 10 nodes: blocks of 12, 12 and
            // 11 timestamp bits and 4 id bits.
            let edges: Vec<TemporalEdge> = (0..2_500u32)
                .map(|i| TemporalEdge::new(i % 10, (i + 1) % 10, 3 * i64::from(i)))
                .collect();
            let stream = PackedEdges::from_edges(10, &edges);
            assert_eq!(stream.heap_bytes(), formula(&edges, 10));
            assert_eq!(stream.heap_bytes(), 6_358);
            // Just over one block, with a self-contained tail.
            let g = crate::gen::erdos_renyi_temporal(300, 1_025, 1 << 30, 4);
            let stream = PackedEdges::from_edges(g.num_nodes(), g.edges());
            assert_eq!(stream.heap_bytes(), formula(g.edges(), g.num_nodes()));
            assert_eq!(PackedEdges::from_edges(0, &[]).heap_bytes(), 2 * 8);
        }

        #[test]
        fn packed_rank_is_the_graphs() {
            for g in [
                crate::gen::paper_fig1_toy(),
                crate::gen::hub_burst(50, 3_000, 40_000, 2),
            ] {
                let stream = PackedEdges::from_edges(g.num_nodes(), g.edges());
                assert_eq!(stream.node_rank(), g.node_rank());
                assert_eq!(stream.num_nodes(), g.num_nodes());
            }
        }

        #[test]
        #[should_panic(expected = "sorted by timestamp")]
        fn packed_edges_reject_unsorted_edges() {
            let _ = PackedEdges::from_edges(
                3,
                &[TemporalEdge::new(0, 1, 9), TemporalEdge::new(1, 2, 3)],
            );
        }
    }
}
