//! End-to-end verification against every concrete number the paper
//! derives from its Fig. 1 toy graph (5 nodes, 12 temporal edges,
//! δ = 10s).

use hare::motif::m;
use hare::{CenterTally, NeighborScratch, StarType, TriType};
use temporal_graph::gen::paper_fig1_toy;
use temporal_graph::Dir::{In, Out};

#[test]
fn section3_names_three_instances() {
    // §III: "S = <(va,vc,4s),(va,vc,8s),(vd,va,9s)> is a motif instance
    // of temporal motif M63", "<(ve,vc,6s),(vd,vc,10s),(vd,ve,14s)> ...
    // M46", "<(vd,ve,14s),(ve,vd,18s),(vd,ve,21s)> ... M65".
    use temporal_graph::TemporalEdge as E;
    assert_eq!(
        hare_baselines::classify(E::new(0, 2, 4), E::new(0, 2, 8), E::new(3, 0, 9)),
        Some(m(6, 3))
    );
    assert_eq!(
        hare_baselines::classify(E::new(4, 2, 6), E::new(3, 2, 10), E::new(3, 4, 14)),
        Some(m(4, 6))
    );
    assert_eq!(
        hare_baselines::classify(E::new(3, 4, 14), E::new(4, 3, 18), E::new(3, 4, 21)),
        Some(m(6, 5))
    );
}

#[test]
fn section4a_walkthrough_of_center_va() {
    // §IV.A.3 processes center v_a and derives exactly:
    //   Star[III,o,o,in] += 1   (e1=(4s,c,o), e3=(9s,d,in), e2=(8s,c,o))
    //   Star[III,o,o,o]  += 1   (e1=(4s,c,o), e3=(11s,b,o), e2=(8s,c,o))
    //   Star[II,o,in,o]  += 1   (e1=(8s,c,o), e3=(15s,c,o), e2=(9s,d,in))
    //   Star[II,o,o,o]   += 1   (e1=(8s,c,o), e3=(15s,c,o), e2=(11s,b,o))
    let g = paper_fig1_toy();
    let mut scratch = NeighborScratch::new(g.num_nodes());
    let mut t = CenterTally::default();
    let all = 0..g.node_events(0).len();
    hare::fused::count_node::<true, false, false>(&g, 0, all, 10, &[], &mut scratch, &mut t);
    let (star, pair) = (t.star, t.pair);
    assert_eq!(star.get(StarType::III, Out, Out, In), 1);
    assert_eq!(star.get(StarType::III, Out, Out, Out), 1);
    assert_eq!(star.get(StarType::II, Out, In, Out), 1);
    assert_eq!(star.get(StarType::II, Out, Out, Out), 1);
    assert_eq!(star.total(), 4, "no other star counts at v_a");
    assert_eq!(pair.total(), 0, "no pair motifs at v_a");
}

#[test]
fn section4b_walkthrough_of_center_ve() {
    // §IV.B.2 processes center v_e and derives exactly two triangles:
    // Tri[III,o,o,o] and (typo-corrected per Fig. 8 + §III's M46 claim)
    // Tri[II,o,in,in].
    let g = paper_fig1_toy();
    let mut scratch = NeighborScratch::new(g.num_nodes());
    let mut t = CenterTally::default();
    let all = 0..g.node_events(4).len();
    hare::fused::count_node::<false, true, false>(&g, 4, all, 10, &[], &mut scratch, &mut t);
    let tri = t.tri;
    assert_eq!(tri.get(TriType::III, Out, Out, Out), 1);
    assert_eq!(tri.get(TriType::II, Out, In, In), 1);
    assert_eq!(tri.total(), 2);
}

#[test]
fn full_toy_matrix_from_all_engines() {
    let g = paper_fig1_toy();
    let fast = hare::count_motifs(&g, 10);
    // The three named instances are present in the final grid.
    assert!(fast.get(m(6, 3)) >= 1);
    assert!(fast.get(m(4, 6)) >= 1);
    assert_eq!(fast.get(m(6, 5)), 1);
    // All engines agree on all 36 cells.
    assert_eq!(fast.matrix, hare_baselines::enumerate_all(&g, 10));
    assert_eq!(fast.matrix, hare_baselines::ex::count_all(&g, 10));
    assert_eq!(fast.matrix, hare_baselines::bt_count_all(&g, 10));
    assert_eq!(
        fast.matrix,
        hare::Hare::with_threads(3).count_all(&g, 10).matrix
    );
}

#[test]
fn toy_delta_sensitivity() {
    // With a huge δ every 3-edge combination on <=3 nodes counts; with
    // δ=0 nothing does (no three simultaneous edges in Fig. 1).
    let g = paper_fig1_toy();
    assert_eq!(hare::count_motifs(&g, 0).total(), 0);
    let big = hare::count_motifs(&g, 1_000).total();
    let small = hare::count_motifs(&g, 10).total();
    assert!(big > small && small > 0);
    // Spot value: δ=20 admits the M65 pair plus everything at δ=10.
    assert!(hare::count_motifs(&g, 20).total() >= small);
}

#[test]
fn toy_tri_counter_class_balance() {
    let g = paper_fig1_toy();
    let tri = hare::fused::count_graph::<false, true, false>(&g, 10).tri;
    assert!(tri.class_cells_balanced());
    assert_eq!(tri.total() % 3, 0);
}
