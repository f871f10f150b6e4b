//! Algorithm 2 (FAST-Tri, §IV.B) pinned cell by cell on the `TRIS`
//! instantiation of the masked kernel ([`crate::fused`]).

#[cfg(test)]
mod tests {
    use crate::counters::{CenterTally, MotifMatrix, TriCounter};
    use crate::fused::{count_graph, count_node};
    use crate::motif::m;
    use crate::motif::TriType::{I, II, III};
    use crate::scratch::NeighborScratch;
    use temporal_graph::gen::paper_fig1_toy;
    use temporal_graph::Dir::{In, Out};
    use temporal_graph::{NodeId, TemporalEdge, TemporalGraph, Timestamp};

    /// Triangles of the whole graph (each instance once per vertex).
    fn tris(g: &TemporalGraph, delta: Timestamp) -> TriCounter {
        let t = count_graph::<false, true, false>(g, delta);
        assert_eq!(
            t.star.total() + t.pair.total(),
            0,
            "TRIS pass fills triangles only"
        );
        t.tri
    }

    /// Triangles centered at `u`.
    fn tris_at(g: &TemporalGraph, u: NodeId, delta: Timestamp) -> TriCounter {
        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut tally = CenterTally::default();
        let len = g.node_events(u).len();
        count_node::<false, true, false>(g, u, 0..len, delta, &[], &mut scratch, &mut tally);
        tally.tri
    }

    fn folded(tri: &TriCounter) -> MotifMatrix {
        let mut mx = MotifMatrix::default();
        tri.add_to_matrix(&mut mx);
        mx
    }

    /// §IV.B.2 walks Algorithm 2 over center v_e of the Fig. 1 toy graph
    /// with δ = 10s: exactly two counts, Tri[III,o,o,o] and — after
    /// correcting the paper's typo against Fig. 8 / the §III M46 claim —
    /// Tri[II,o,in,in].
    #[test]
    fn paper_walkthrough_center_ve() {
        let tri = tris_at(&paper_fig1_toy(), 4, 10);
        assert_eq!(tri.get(III, Out, Out, Out), 1, "Tri[III,o,o,o]");
        assert_eq!(tri.get(II, Out, In, In), 1, "Tri[II,o,in,in]");
        assert_eq!(tri.total(), 2);
    }

    /// §IV.B.3: the M25 instance <(v_a,v_c,8s),(v_d,v_a,9s),(v_c,v_d,17s)>
    /// is seen as Tri[III,o,in,o] / Tri[II,in,o,in] / Tri[I,o,in,o] from
    /// centers v_a / v_c / v_d.
    #[test]
    fn m25_counted_from_all_three_centers() {
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 2, 8),  // a -> c
            TemporalEdge::new(3, 0, 9),  // d -> a
            TemporalEdge::new(2, 3, 17), // c -> d
        ]);
        let delta = 10;
        let from_a = tris_at(&g, 0, delta);
        assert_eq!(from_a.get(III, Out, In, Out), 1);
        assert_eq!(from_a.total(), 1);

        let from_c = tris_at(&g, 2, delta);
        assert_eq!(from_c.get(II, In, Out, In), 1);
        assert_eq!(from_c.total(), 1);

        let from_d = tris_at(&g, 3, delta);
        assert_eq!(from_d.get(I, Out, In, Out), 1);
        assert_eq!(from_d.total(), 1);

        // Whole graph: class cells balanced, fold yields exactly one M25.
        let tri = tris(&g, delta);
        assert!(tri.class_cells_balanced());
        let mx = folded(&tri);
        assert_eq!(mx.get(m(2, 5)), 1);
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn whole_toy_graph_counts_are_divisible_by_three() {
        let tri = tris(&paper_fig1_toy(), 10);
        assert!(tri.class_cells_balanced());
        assert_eq!(tri.total() % 3, 0);
    }

    #[test]
    fn cyclic_triangle_is_m26() {
        // a->b, b->c, c->a in time order: the temporal cycle.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 2, 2),
            TemporalEdge::new(2, 0, 3),
        ]);
        let mx = folded(&tris(&g, 10));
        assert_eq!(mx.get(m(2, 6)), 1, "cyclic triangle must be M26");
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn delta_window_excludes_far_opposite_edges() {
        // Triangle whose opposite edge is 100 time units away.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(1, 2, 102),
        ]);
        assert_eq!(tris(&g, 10).total(), 0);
        assert_eq!(tris(&g, 101).total(), 3);
    }

    #[test]
    fn type_windows_are_exact_at_boundaries() {
        // Opposite edge exactly δ before e_j (type I boundary).
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(1, 2, 0),  // opposite
            TemporalEdge::new(0, 1, 5),  // e_i at center 0
            TemporalEdge::new(0, 2, 10), // e_j at center 0
        ]);
        // span = 10; δ=10 includes, δ=9 excludes (t_j - t_k = 10 > 9).
        assert_eq!(tris(&g, 10).total(), 3);
        assert_eq!(tris(&g, 9).total(), 0);
    }

    #[test]
    fn simultaneous_edges_classified_by_input_order() {
        // All three edges at t=5. Total order = input order, giving a
        // unique instance and type classification per center.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(1, 2, 5),
            TemporalEdge::new(2, 0, 5),
        ]);
        let tri = tris(&g, 0);
        assert!(tri.class_cells_balanced());
        let mx = folded(&tri);
        assert_eq!(mx.get(m(2, 6)), 1); // still the cycle M26
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn multi_edges_between_pair_multiply_instances() {
        // Two parallel opposite edges -> two triangle instances.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(0, 2, 2),
            TemporalEdge::new(1, 2, 3),
            TemporalEdge::new(1, 2, 4),
        ]);
        assert_eq!(folded(&tris(&g, 10)).total(), 2);
    }

    #[test]
    fn range_split_equals_full_run() {
        let g = temporal_graph::gen::erdos_renyi_temporal(15, 300, 500, 7);
        let delta = 120;
        let full = tris(&g, delta);
        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut split = CenterTally::default();
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            let third = len / 3;
            for range in [0..third, third..len] {
                count_node::<false, true, false>(
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
        assert_eq!(split.tri, full);
    }

    #[test]
    fn no_triangles_in_pure_star() {
        let edges = (0..20)
            .map(|i| TemporalEdge::new(0, i + 1, i as i64))
            .collect();
        let g = TemporalGraph::from_edges(edges);
        assert_eq!(tris(&g, 100).total(), 0);
    }
}
