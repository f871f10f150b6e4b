//! Validating construction of [`TemporalGraph`]s.

use crate::graph::TemporalGraph;
use crate::io::Interner;
use crate::types::{NodeId, TemporalEdge, Timestamp};

/// Incremental builder for [`TemporalGraph`].
///
/// Responsibilities:
/// * strips self-loops (they cannot participate in 2-/3-node motifs;
///   the count is reported via [`GraphBuilder::dropped_self_loops`]),
/// * stable-sorts edges by `(t, insertion order)` to establish the global
///   chronological total order,
/// * optionally compacts sparse external node ids to `0..n`
///   ([`GraphBuilder::compact_ids`], through the reader's
///   [`crate::io::Interner`]).
///
/// ```
/// use temporal_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// b.add_edge(10, 20, 100);
/// b.add_edge(20, 10, 50);
/// b.add_edge(10, 10, 60); // self-loop: dropped
/// let g = b.compact_ids(true).build();
/// assert_eq!(g.num_nodes(), 2);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.edges()[0].t, 50); // sorted by time
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<TemporalEdge>,
    dropped_self_loops: usize,
    compact: bool,
}

impl GraphBuilder {
    /// New empty builder.
    #[must_use]
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// New builder with pre-allocated edge capacity.
    #[must_use]
    pub fn with_capacity(edges: usize) -> GraphBuilder {
        GraphBuilder {
            edges: Vec::with_capacity(edges),
            ..GraphBuilder::default()
        }
    }

    /// If `true`, remap node ids to a dense `0..n` range in order of first
    /// appearance. Default `false` (ids are taken literally and
    /// `num_nodes = max id + 1`).
    #[must_use]
    pub fn compact_ids(mut self, yes: bool) -> GraphBuilder {
        self.compact = yes;
        self
    }

    /// Append one edge. Self-loops are silently dropped (counted).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, t: Timestamp) {
        self.push(TemporalEdge::new(src, dst, t));
    }

    /// Append one edge value.
    pub fn push(&mut self, e: TemporalEdge) {
        if e.is_self_loop() {
            self.dropped_self_loops += 1;
        } else {
            self.edges.push(e);
        }
    }

    /// Append many edges.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = TemporalEdge>) {
        for e in edges {
            self.push(e);
        }
    }

    /// Number of self-loop edges dropped so far.
    #[must_use]
    pub fn dropped_self_loops(&self) -> usize {
        self.dropped_self_loops
    }

    /// Number of (retained) edges added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` if no edges retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalise into an immutable [`TemporalGraph`].
    #[must_use]
    pub fn build(self) -> TemporalGraph {
        let GraphBuilder {
            mut edges, compact, ..
        } = self;

        if compact {
            let mut ids = Interner::new();
            for e in &mut edges {
                for v in [&mut e.src, &mut e.dst] {
                    *v = ids
                        .intern(u64::from(*v))
                        .expect("node count exceeds the packed-lane id space (2^31 - 1)");
                }
            }
        }

        edges.sort_by_key(|e| e.t); // stable: input order breaks ties

        let num_nodes = edges
            .iter()
            .map(|e| e.src.max(e.dst) as usize + 1)
            .max()
            .unwrap_or(0);

        TemporalGraph::from_sorted_edges(num_nodes, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::LaneLayout;
    use crate::types::Dir;

    #[test]
    fn self_loops_are_dropped_and_counted() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 0, 1);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 1, 3);
        assert_eq!(b.dropped_self_loops(), 2);
        assert_eq!(b.len(), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edges_sorted_stably_by_time() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 9);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 3, 9); // ties with first edge; must stay after it
        let g = b.build();
        let ts: Vec<_> = g.edges().iter().map(|e| (e.t, e.src)).collect();
        assert_eq!(ts, vec![(3, 1), (9, 0), (9, 2)]);
    }

    #[test]
    fn compact_ids_renumbers_by_first_appearance() {
        let mut b = GraphBuilder::new().compact_ids(true);
        b.add_edge(1000, 5, 1);
        b.add_edge(5, 70, 2);
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        // 1000 -> 0, 5 -> 1, 70 -> 2
        assert_eq!(g.edges()[0], TemporalEdge::new(0, 1, 1));
        assert_eq!(g.edges()[1], TemporalEdge::new(1, 2, 2));
    }

    #[test]
    fn non_compact_uses_max_id() {
        let mut b = GraphBuilder::new();
        b.add_edge(2, 7, 1);
        let g = b.build();
        assert_eq!(g.num_nodes(), 8);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(7), 1);
    }

    #[test]
    fn with_capacity_and_extend() {
        let mut b = GraphBuilder::with_capacity(4);
        b.extend([
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 0, 2),
            TemporalEdge::new(2, 2, 3),
        ]);
        assert!(!b.is_empty());
        assert_eq!(b.len(), 2);
        assert_eq!(b.dropped_self_loops(), 1);
        let g = b.build();
        assert_eq!(g.node_events(0).dir(0), Dir::Out);
        assert_eq!(g.node_events(0).dir(1), Dir::In);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn lane_layout_does_not_change_content() {
        let edges: Vec<TemporalEdge> = (0..300)
            .map(|i| TemporalEdge::new(i % 17, (i * 5 + 2) % 17, (i as i64 * 11) % 200))
            .collect();
        let mut b = GraphBuilder::new();
        b.extend(edges);
        let base = b.build();
        for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
            let g = base.clone().into_lane_layout(layout);
            assert_eq!(g.lane_layout(), layout);
            assert_eq!(g.fingerprint(), base.fingerprint(), "layout={layout}");
        }
    }
}
