//! Graph statistics backing Table II and Fig. 9 of the paper.

use crate::graph::TemporalGraph;
use crate::types::Timestamp;

/// Summary statistics in the shape of the paper's Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V|`.
    pub num_nodes: usize,
    /// `|E|` (temporal edges, multi-edges counted).
    pub num_edges: usize,
    /// Earliest timestamp (0 for empty graphs).
    pub min_time: Timestamp,
    /// Latest timestamp (0 for empty graphs).
    pub max_time: Timestamp,
    /// `max_time - min_time` in raw units.
    pub time_span: Timestamp,
    /// Maximum total degree (`max_i d_i`).
    pub max_degree: usize,
    /// Mean total degree (`2|E| / |V|`).
    pub mean_degree: f64,
    /// Number of distinct connected node pairs.
    pub num_pairs: usize,
}

impl GraphStats {
    /// Compute statistics for `g`.
    #[must_use]
    pub fn compute(g: &TemporalGraph) -> GraphStats {
        let max_degree = g.node_ids().map(|u| g.degree(u)).max().unwrap_or(0);
        let mean_degree = if g.num_nodes() == 0 {
            0.0
        } else {
            2.0 * g.num_edges() as f64 / g.num_nodes() as f64
        };
        GraphStats {
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            min_time: g.min_time().unwrap_or(0),
            max_time: g.max_time().unwrap_or(0),
            time_span: g.time_span(),
            max_degree,
            mean_degree,
            num_pairs: g.pairs().num_pairs(),
        }
    }

    /// Time span in days, assuming timestamps are in seconds (the unit of
    /// all 16 paper datasets).
    #[must_use]
    pub fn time_span_days(&self) -> f64 {
        self.time_span as f64 / 86_400.0
    }
}

/// One bin of a logarithmically binned degree histogram (Fig. 9a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegreeBin {
    /// Inclusive lower degree bound of the bin.
    pub lo: usize,
    /// Exclusive upper degree bound of the bin.
    pub hi: usize,
    /// Number of nodes whose degree falls in `[lo, hi)`.
    pub count: usize,
}

/// Log2-binned degree histogram: bins `[1,2), [2,4), [4,8), …`.
/// Degree-0 nodes are reported in a leading `[0,1)` bin.
#[must_use]
pub fn degree_histogram(g: &TemporalGraph) -> Vec<DegreeBin> {
    let max_degree = g.node_ids().map(|u| g.degree(u)).max().unwrap_or(0);
    let num_bins = if max_degree == 0 {
        1
    } else {
        (usize::BITS - max_degree.leading_zeros()) as usize + 1
    };
    let mut bins = vec![0usize; num_bins];
    for u in g.node_ids() {
        let d = g.degree(u);
        let idx = if d == 0 {
            0
        } else {
            (usize::BITS - d.leading_zeros()) as usize
        };
        bins[idx] += 1;
    }
    bins.into_iter()
        .enumerate()
        .map(|(i, count)| DegreeBin {
            lo: if i == 0 { 0 } else { 1 << (i - 1) },
            hi: 1 << i,
            count,
        })
        .collect()
}

/// The `k` largest node degrees in descending order (fewer if the graph
/// has fewer nodes).
#[must_use]
pub fn top_k_degrees(g: &TemporalGraph, k: usize) -> Vec<usize> {
    let mut degrees: Vec<usize> = g.node_ids().map(|u| g.degree(u)).collect();
    degrees.sort_unstable_by(|a, b| b.cmp(a));
    degrees.truncate(k);
    degrees
}

/// The paper's default for HARE's degree threshold `thrd`: "the minimum
/// value of degrees of top 20 nodes" (§V.F), i.e. the degree of the
/// node at rank `|V| − top_k` of [`TemporalGraph::node_rank`] (the
/// lowest-degree node when `top_k ≥ |V|`). Returns `usize::MAX` for an
/// empty graph or `top_k = 0` (so no node is ever classified heavy).
#[must_use]
pub fn default_degree_threshold(g: &TemporalGraph, top_k: usize) -> usize {
    if top_k == 0 || g.num_nodes() == 0 {
        return usize::MAX;
    }
    let target = g.num_nodes().saturating_sub(top_k) as u32;
    let u = g
        .node_rank()
        .iter()
        .position(|&r| r == target)
        .expect("node ranks are a permutation of the node ids");
    g.degree(u as crate::types::NodeId)
}

/// Rank nodes by ascending `(degree, id)`: `rank[u]` is `u`'s position
/// in that order, so ranks are a permutation of `0..num_nodes`. A
/// counting sort over the degrees — O(|V| + max degree), no comparison
/// sort. [`TemporalGraph::node_rank`] is this over `|S_u|`; out-of-core
/// sources apply it to the degrees of their whole edge stream.
///
/// # Panics
/// Panics if `num_nodes` exceeds the `u32` id space.
#[must_use]
pub fn degree_rank(num_nodes: usize, degree: impl Fn(usize) -> usize) -> Box<[u32]> {
    assert!(
        u32::try_from(num_nodes).is_ok(),
        "node count exceeds the u32 rank space"
    );
    let max_degree = (0..num_nodes).map(&degree).max().unwrap_or(0);
    // next[d] = first rank of the degree-d bucket, advanced as ids fill it
    // in ascending order (the id tie-break).
    let mut next = vec![0u32; max_degree + 2];
    for u in 0..num_nodes {
        next[degree(u) + 1] += 1;
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    let mut rank = vec![0u32; num_nodes].into_boxed_slice();
    for (u, r) in rank.iter_mut().enumerate() {
        let slot = &mut next[degree(u)];
        *r = *slot;
        *slot += 1;
    }
    rank
}

/// Average number of events within a `delta` window starting at each event
/// — the paper's `d^δ` (used in the complexity analysis §IV.A.4). Exact,
/// O(2|E|) via a two-pointer sweep per node.
#[must_use]
pub fn mean_window_degree(g: &TemporalGraph, delta: Timestamp) -> f64 {
    let mut total = 0usize;
    let mut events = 0usize;
    for u in g.node_ids() {
        let ts = g.node_events(u).ts_lane();
        let mut j = 0;
        for i in 0..ts.len() {
            if j < i + 1 {
                j = i + 1;
            }
            let ti = ts.get(i);
            while j < ts.len() && ts.get(j) - ti <= delta {
                j += 1;
            }
            total += j - (i + 1);
            events += 1;
        }
    }
    if events == 0 {
        0.0
    } else {
        total as f64 / events as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TemporalEdge;

    fn star(center: u32, spokes: u32) -> TemporalGraph {
        let edges = (0..spokes)
            .map(|i| TemporalEdge::new(center, center + 1 + i, i as Timestamp))
            .collect();
        TemporalGraph::from_edges(edges)
    }

    #[test]
    fn stats_of_star() {
        let g = star(0, 10);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_nodes, 11);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.max_degree, 10);
        assert_eq!(s.time_span, 9);
        assert_eq!(s.num_pairs, 10);
        assert!((s.mean_degree - 20.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = TemporalGraph::from_edges(vec![]);
        let s = GraphStats::compute(&g);
        assert_eq!(s.num_nodes, 0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.time_span_days(), 0.0);
    }

    #[test]
    fn histogram_bins_cover_all_nodes() {
        let g = star(0, 10);
        let bins = degree_histogram(&g);
        let total: usize = bins.iter().map(|b| b.count).sum();
        assert_eq!(total, g.num_nodes());
        // 10 spokes with degree 1 land in [1,2); hub in [8,16).
        assert_eq!(
            bins[1],
            DegreeBin {
                lo: 1,
                hi: 2,
                count: 10
            }
        );
        assert_eq!(bins.last().unwrap().count, 1);
    }

    #[test]
    fn histogram_handles_isolated_nodes() {
        let g = TemporalGraph::from_edges(vec![TemporalEdge::new(0, 5, 1)]);
        let bins = degree_histogram(&g);
        assert_eq!(bins[0].count, 4); // nodes 1..=4 isolated
    }

    #[test]
    fn top_k_and_threshold() {
        let g = star(0, 10);
        assert_eq!(top_k_degrees(&g, 3), vec![10, 1, 1]);
        assert_eq!(default_degree_threshold(&g, 3), 1);
        assert_eq!(default_degree_threshold(&g, 1), 10);
        assert_eq!(default_degree_threshold(&g, 11), 1);
        assert_eq!(default_degree_threshold(&g, 50), 1);
        assert_eq!(default_degree_threshold(&g, 0), usize::MAX);
        let empty = TemporalGraph::from_edges(vec![]);
        assert_eq!(default_degree_threshold(&empty, 20), usize::MAX);
    }

    #[test]
    fn degree_rank_orders_by_degree_then_id() {
        let degrees = [3usize, 0, 5, 3, 1, 0];
        let rank = degree_rank(degrees.len(), |u| degrees[u]);
        // Ascending (degree, id): 1, 5, 4, 0, 3, 2.
        assert_eq!(&*rank, &[3, 0, 5, 4, 2, 1]);
        assert!(degree_rank(0, |_| 0).is_empty());
    }

    #[test]
    fn graph_rank_matches_a_comparison_sort_and_survives_relayout() {
        let g = crate::gen::hub_burst(40, 600, 3_000, 4);
        let mut order: Vec<u32> = g.node_ids().collect();
        order.sort_by_key(|&u| (g.degree(u), u));
        let mut want = vec![0u32; g.num_nodes()];
        for (r, &u) in order.iter().enumerate() {
            want[u as usize] = r as u32;
        }
        assert_eq!(g.node_rank(), &want[..]);
        for k in [1, 5, 20, 40, 100] {
            let mut top: Vec<usize> = g.node_ids().map(|u| g.degree(u)).collect();
            top.sort_unstable_by(|a, b| b.cmp(a));
            top.truncate(k);
            assert_eq!(
                default_degree_threshold(&g, k),
                *top.last().unwrap(),
                "k={k}"
            );
        }
        let packed = g.clone().into_lane_layout(crate::LaneLayout::Compressed);
        assert_eq!(packed.node_rank(), g.node_rank());
    }

    #[test]
    fn window_degree_counts_events_within_delta() {
        // Node 0 has events at t = 0,1,2: with delta=1 windows hold
        // {1}, {2}, {} successors -> mean over 6 events total.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 2, 1),
            TemporalEdge::new(0, 3, 2),
        ]);
        // Per node: node0 events contribute 1+1+0; spokes contribute 0.
        let d = mean_window_degree(&g, 1);
        assert!((d - 2.0 / 6.0).abs() < 1e-12, "{d}");
        // Huge delta: node0 contributes 2+1+0.
        let d = mean_window_degree(&g, 1000);
        assert!((d - 3.0 / 6.0).abs() < 1e-12, "{d}");
    }
}
