//! Algorithm 1 (FAST-Star, §IV.A) pinned cell by cell on the `STARS`
//! instantiation of the masked kernel ([`crate::fused`]).

#[cfg(test)]
mod tests {
    use crate::counters::CenterTally;
    use crate::fused::{count_graph, count_node};
    use crate::motif::StarType::{I, II, III};
    use crate::scratch::NeighborScratch;
    use temporal_graph::gen::paper_fig1_toy;
    use temporal_graph::Dir::{In, Out};
    use temporal_graph::{NodeId, TemporalEdge, TemporalGraph, Timestamp};

    /// Stars and pairs of the whole graph.
    fn stars(g: &TemporalGraph, delta: Timestamp) -> CenterTally {
        count_graph::<true, false, false>(g, delta)
    }

    /// Stars and pairs centered at `u`.
    fn stars_at(g: &TemporalGraph, u: NodeId, delta: Timestamp) -> CenterTally {
        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut tally = CenterTally::default();
        let len = g.node_events(u).len();
        count_node::<true, false, false>(g, u, 0..len, delta, &[], &mut scratch, &mut tally);
        tally
    }

    /// §IV.A.3 walks Algorithm 1 over center v_a of the Fig. 1 toy graph
    /// with δ = 10s and derives exactly four counts. Reproduce the walk.
    #[test]
    fn paper_walkthrough_center_va() {
        let t = stars_at(&paper_fig1_toy(), 0, 10);
        assert_eq!(t.star.get(III, Out, Out, In), 1, "Star[III,o,o,in]");
        assert_eq!(t.star.get(III, Out, Out, Out), 1, "Star[III,o,o,o]");
        assert_eq!(t.star.get(II, Out, In, Out), 1, "Star[II,o,in,o]");
        assert_eq!(t.star.get(II, Out, Out, Out), 1, "Star[II,o,o,o]");
        // ... and nothing else.
        assert_eq!(t.star.total(), 4);
        assert_eq!(t.pair.total(), 0);
        assert_eq!(t.tri.total(), 0, "the STARS pass leaves triangles alone");
    }

    /// The 2-node instance <(v_d,v_e,14s),(v_e,v_d,18s),(v_d,v_e,21s)> is
    /// M65 (§III). From center v_d it is Pair[o,in,o]; from center v_e it
    /// is Pair[in,o,in].
    #[test]
    fn pair_instance_from_both_endpoints() {
        let g = paper_fig1_toy();
        assert_eq!(stars_at(&g, 3, 10).pair.get(Out, In, Out), 1);
        assert_eq!(stars_at(&g, 4, 10).pair.get(In, Out, In), 1);
    }

    #[test]
    fn whole_graph_pair_counter_is_mirror_balanced() {
        let pair = stars(&paper_fig1_toy(), 10).pair;
        assert!(pair.mirror_cells_balanced());
        // Exactly one pair instance exists in the toy graph at δ=10 (M65).
        assert_eq!(pair.total(), 2); // counted once per endpoint
        assert_eq!(pair.get(Out, In, Out), 1);
        assert_eq!(pair.get(In, Out, In), 1);
    }

    /// The instance <(v_a,v_c,4s),(v_a,v_c,8s),(v_d,v_a,9s)> is M63 (§III):
    /// a Star-III with dirs (o, o, in) from center v_a — and the first
    /// walkthrough count above. Check the canonical fold sends it to M63.
    #[test]
    fn m63_instance_lands_in_m63() {
        use crate::motif::{m, star_motif};
        assert_eq!(star_motif(III, Out, Out, In), m(6, 3));
    }

    #[test]
    fn delta_zero_counts_only_simultaneous_edges() {
        // Three edges at the same timestamp around a center: with δ=0 all
        // windows qualify; order is input order. e1 and e3 bond to node 1,
        // the isolated middle edge goes to node 2 — a Star-II.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(0, 2, 5),
            TemporalEdge::new(0, 1, 5),
        ]);
        let t = stars(&g, 0);
        assert_eq!(t.star.get(II, Out, Out, Out), 1);
        assert_eq!(t.star.total(), 1);
        assert_eq!(t.pair.total(), 0);
    }

    #[test]
    fn three_edges_to_three_distinct_neighbours_is_not_a_motif() {
        // u with one edge to each of three different nodes induces a
        // 4-node subgraph — outside the 2-/3-node motif universe.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(0, 3, 3),
        ]);
        let t = stars(&g, 100);
        assert_eq!(t.star.total() + t.pair.total(), 0);
    }

    #[test]
    fn delta_excludes_out_of_window_triples() {
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 0),
            TemporalEdge::new(0, 2, 5),
            TemporalEdge::new(0, 1, 11),
        ]);
        assert_eq!(stars(&g, 10).star.total(), 0, "span 11 > delta 10");
        let star = stars(&g, 11).star;
        assert_eq!(star.get(II, Out, Out, Out), 1);
        assert_eq!(star.total(), 1);
    }

    #[test]
    fn range_split_equals_full_run() {
        let g = temporal_graph::gen::erdos_renyi_temporal(20, 300, 1_000, 42);
        let delta = 100;
        let full = stars(&g, delta);

        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut split = CenterTally::default();
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            let mid = len / 2;
            for range in [0..mid, mid..len] {
                count_node::<true, false, false>(
                    &g,
                    u,
                    range,
                    delta,
                    &[],
                    &mut scratch,
                    &mut split,
                );
            }
        }
        assert_eq!(split, full);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = |t: CenterTally| t.star.total() + t.pair.total() == 0;
        assert!(empty(stars(&TemporalGraph::from_edges(vec![]), 100)));
        let one = TemporalGraph::from_edges(vec![TemporalEdge::new(0, 1, 1)]);
        assert!(empty(stars(&one, 100)));
        let two =
            TemporalGraph::from_edges(vec![TemporalEdge::new(0, 1, 1), TemporalEdge::new(1, 2, 2)]);
        assert!(empty(stars(&two, 100)), "3 edges needed");
    }

    #[test]
    fn pure_pair_burst() {
        // 3 edges 0->1: one pair instance, direction pattern ooo from 0.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 1, 2),
            TemporalEdge::new(0, 1, 3),
        ]);
        let t = stars(&g, 10);
        assert_eq!(t.star.total(), 0);
        assert_eq!(t.pair.get(Out, Out, Out), 1);
        assert_eq!(t.pair.get(In, In, In), 1);
        assert_eq!(t.pair.total(), 2);
    }

    #[test]
    fn star_i_detection() {
        // e1 isolated first edge to node 1; then two edges to node 2.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(2, 0, 3),
        ]);
        let star = stars(&g, 10).star;
        assert_eq!(star.get(I, Out, Out, In), 1);
        // From center 0 only; nodes 1 and 2 are not centers of any star
        // (their sequences hold < 3 edges... node 2 has 2 events).
        assert_eq!(star.total(), 1);
    }
}
