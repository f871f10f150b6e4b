//! FAST-Pair: dedicated exact counting of the four pair temporal motifs.
//!
//! Table III reports FAST-Pair as a separate (much cheaper) variant:
//! counting only 2-node motifs does not need the center-based scan of
//! Algorithm 1 — it suffices to visit every unordered node pair once and
//! count ordered 3-edge subsequences of its edge list within δ.
//!
//! Per pair we run a sliding-window dynamic program over the time-ordered
//! list `E(v, w)` (directions taken relative to the smaller endpoint):
//! maintaining `c1[d]` (edges in window) and `c2[d1][d2]` (ordered pairs
//! in window), each new edge `e` closes `c2[d1][d2]` triples of pattern
//! `(d1, d2, e.dir)`. Evicting the oldest edge reverses its contribution.
//! This is O(1) amortised per edge — `O(|E|)` total — the complexity the
//! paper credits FAST-Pair with.
//!
//! Because every unordered pair is visited exactly once, each instance is
//! counted **once** (unlike Algorithm 1's once-per-endpoint); fold with
//! [`PairCounter::add_to_matrix_pair_based`].
//!
//! hare-lint: no-alloc

use crate::counters::PairCounter;
use temporal_graph::{PairEvent, TemporalGraph, Timestamp};

/// Count all pair motif instances inside one pair edge list (directions
/// relative to the pair's smaller endpoint, as stored).
pub fn count_pair_events(events: &[PairEvent], delta: Timestamp, pair: &mut PairCounter) {
    let mut c1 = [0u64; 2];
    let mut c2 = [[0u64; 2]; 2];
    let mut start = 0usize;

    for ej in events {
        // Evict edges that can no longer open a window containing `ej`
        // (saturating: a negative timestamp minus a huge δ must not wrap).
        let t_lo = ej.t.saturating_sub(delta);
        while events[start].t < t_lo {
            let d = events[start].dir_from_lo.index();
            c1[d] -= 1;
            // The evictee is the oldest edge, hence the *first* element of
            // every ordered pair it participates in.
            for (y, c) in c1.iter().enumerate() {
                c2[d][y] -= c;
            }
            start += 1;
        }
        let dj = ej.dir_from_lo;
        // Close triples: every in-window ordered pair becomes a triple
        // with `ej` as third edge.
        for d1 in temporal_graph::Dir::BOTH {
            for d2 in temporal_graph::Dir::BOTH {
                let n = c2[d1.index()][d2.index()];
                if n > 0 {
                    pair.add(d1, d2, dj, n);
                }
            }
        }
        // Extend pairs and singletons with `ej`.
        for (x, c) in c1.iter().enumerate() {
            c2[x][dj.index()] += c;
        }
        c1[dj.index()] += 1;
    }
}

/// Sequential FAST-Pair over the whole graph. Fold the result with
/// [`PairCounter::add_to_matrix_pair_based`].
#[must_use]
pub fn fast_pair(g: &TemporalGraph, delta: Timestamp) -> PairCounter {
    let mut pair = PairCounter::default();
    let pairs = g.pairs();
    for slot in 0..pairs.num_pairs() {
        count_pair_events(pairs.events_of_slot(slot), delta, &mut pair);
    }
    pair
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::MotifMatrix;
    use crate::fused::count_graph;
    use crate::motif::m;
    use temporal_graph::gen::{erdos_renyi_temporal, paper_fig1_toy};
    use temporal_graph::Dir::{In, Out};
    use temporal_graph::{TemporalEdge, TemporalGraph};

    #[test]
    fn toy_graph_single_pair_instance() {
        // <(v_d,v_e,14s),(v_e,v_d,18s),(v_d,v_e,21s)> is M65 (§III).
        let g = paper_fig1_toy();
        let pair = fast_pair(&g, 10);
        assert_eq!(pair.total(), 1);
        let mut mx = MotifMatrix::default();
        pair.add_to_matrix_pair_based(&mut mx);
        assert_eq!(mx.get(m(6, 5)), 1);
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn agrees_with_fast_star_pair_counts() {
        for seed in 0..5 {
            let g = erdos_renyi_temporal(10, 400, 300, seed);
            let delta = 60;
            let dedicated = fast_pair(&g, delta);
            let via_star = count_graph::<true, false, false>(&g, delta).pair;
            let mut mx_a = MotifMatrix::default();
            dedicated.add_to_matrix_pair_based(&mut mx_a);
            let mut mx_b = MotifMatrix::default();
            via_star.add_to_matrix_center_based(&mut mx_b);
            // Compare only the pair cells.
            for mo in [m(5, 5), m(5, 6), m(6, 5), m(6, 6)] {
                assert_eq!(mx_a.get(mo), mx_b.get(mo), "{mo} seed={seed}");
            }
        }
    }

    #[test]
    fn burst_of_k_edges_counts_choose_three() {
        // k same-direction edges in window: C(k,3) instances, all M55.
        let k = 10u64;
        let edges = (0..k).map(|i| TemporalEdge::new(0, 1, i as i64)).collect();
        let g = TemporalGraph::from_edges(edges);
        let pair = fast_pair(&g, 1_000);
        let expect = k * (k - 1) * (k - 2) / 6;
        assert_eq!(pair.get(Out, Out, Out), expect);
        assert_eq!(pair.total(), expect);
    }

    #[test]
    fn window_eviction_is_exact() {
        // Edges at t = 0, 10, 20, 30 with δ=20: triples are (0,10,20),
        // (10,20,30), (0,20,... span 20 ok) (0,10,30 span 30 no),
        // (10,... ) — enumerate: {0,10,20}✓ {0,10,30}✗ {0,20,30}✗(30)
        // {10,20,30}✓ -> 2.
        let edges = [0, 10, 20, 30]
            .iter()
            .map(|&t| TemporalEdge::new(0, 1, t))
            .collect();
        let g = TemporalGraph::from_edges(edges);
        assert_eq!(fast_pair(&g, 20).total(), 2);
        assert_eq!(fast_pair(&g, 30).total(), 4);
        assert_eq!(fast_pair(&g, 9).total(), 0);
    }

    #[test]
    fn directions_tracked_relative_to_lo() {
        // 1->0, 0->1, 1->0: relative to node 0 that's (in, out, in) = M65.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(1, 0, 1),
            TemporalEdge::new(0, 1, 2),
            TemporalEdge::new(1, 0, 3),
        ]);
        let pair = fast_pair(&g, 10);
        assert_eq!(pair.get(In, Out, In), 1);
        let mut mx = MotifMatrix::default();
        pair.add_to_matrix_pair_based(&mut mx);
        assert_eq!(mx.get(m(6, 5)), 1);
    }

    #[test]
    fn empty_inputs() {
        let g = TemporalGraph::from_edges(vec![]);
        assert_eq!(fast_pair(&g, 10).total(), 0);
        let mut pc = PairCounter::default();
        count_pair_events(&[], 10, &mut pc);
        assert_eq!(pc.total(), 0);
    }

    #[test]
    fn extreme_delta_with_negative_timestamps_does_not_wrap() {
        // `t − δ` at t = −100, δ = i64::MAX would wrap past i64::MIN.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, -100),
            TemporalEdge::new(1, 0, -50),
            TemporalEdge::new(0, 1, -10),
        ]);
        let pair = fast_pair(&g, i64::MAX);
        assert_eq!(pair.get(Out, In, Out), 1);
        assert_eq!(pair.total(), 1);
        // A window reaching down to i64::MIN itself: span i64::MAX − 1.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, i64::MIN),
            TemporalEdge::new(0, 1, i64::MIN + 5),
            TemporalEdge::new(0, 1, -2),
        ]);
        assert_eq!(fast_pair(&g, i64::MAX).total(), 1);
        assert_eq!(fast_pair(&g, i64::MAX - 2).total(), 0);
    }

    #[test]
    fn ties_all_same_timestamp() {
        let edges = (0..4).map(|_| TemporalEdge::new(0, 1, 7)).collect();
        let g = TemporalGraph::from_edges(edges);
        // C(4,3) = 4 triples even at δ=0.
        assert_eq!(fast_pair(&g, 0).total(), 4);
    }
}
