//! Property-based tests (proptest) of the core counting invariants, over
//! arbitrary small temporal graphs.

use proptest::prelude::*;

use hare::motif::{Motif, MotifCategory};
use hare::{CenterTally, MotifCounts, NeighborScratch};
use temporal_graph::{GraphBuilder, TemporalGraph, Timestamp};

/// Whole-graph oriented count under an explicit node rank.
fn count_with_rank(g: &TemporalGraph, delta: Timestamp, rank: &[u32]) -> MotifCounts {
    let mut scratch = NeighborScratch::new(g.num_nodes());
    let mut tally = CenterTally::default();
    for u in g.node_ids() {
        let len = g.node_events(u).len();
        hare::fused::count_node::<true, true, true>(
            g,
            u,
            0..len,
            delta,
            rank,
            &mut scratch,
            &mut tally,
        );
    }
    tally.into_counts_oriented()
}

/// A pseudo-random permutation of `0..n` (Fisher–Yates over a
/// splitmix64 stream).
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Arbitrary small temporal multigraph: up to `max_edges` edges over up
/// to 8 nodes with timestamps in a narrow range (dense ties on purpose).
fn graph_strategy(max_edges: usize) -> impl Strategy<Value = TemporalGraph> {
    prop::collection::vec((0u32..8, 0u32..8, 0i64..60), 0..max_edges).prop_map(|triples| {
        let mut b = GraphBuilder::new();
        for (s, d, t) in triples {
            b.add_edge(s, d, t); // self-loops silently dropped
        }
        b.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central oracle property: FAST equals explicit enumeration on
    /// every graph and δ.
    #[test]
    fn fast_matches_enumeration(g in graph_strategy(40), delta in 0i64..80) {
        let fast = hare::count_motifs(&g, delta);
        let oracle = hare_baselines::enumerate_all(&g, delta);
        prop_assert_eq!(fast.matrix, oracle);
    }

    /// EX equals FAST on every graph and δ.
    #[test]
    fn ex_matches_fast(g in graph_strategy(40), delta in 0i64..80) {
        let fast = hare::count_motifs(&g, delta);
        let ex = hare_baselines::ex::count_all(&g, delta);
        prop_assert_eq!(fast.matrix, ex);
    }

    /// HARE with any small thread count equals sequential FAST.
    #[test]
    fn hare_matches_fast(g in graph_strategy(40), delta in 0i64..80, threads in 1usize..4) {
        let fast = hare::count_motifs(&g, delta);
        let par = hare::Hare::with_threads(threads).count_all(&g, delta);
        prop_assert_eq!(fast.matrix, par.matrix);
    }

    /// Total counts are monotone non-decreasing in δ.
    #[test]
    fn monotone_in_delta(g in graph_strategy(30), d1 in 0i64..40, d2 in 0i64..40) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let a = hare::count_motifs(&g, lo).total();
        let b = hare::count_motifs(&g, hi).total();
        prop_assert!(a <= b);
    }

    /// Relabelling nodes permutes nothing in the canonical grid.
    #[test]
    fn node_relabelling_invariance(g in graph_strategy(30), delta in 0i64..60, shift in 1u32..7) {
        let n = g.num_nodes() as u32;
        prop_assume!(n > 0);
        let mut b = GraphBuilder::new();
        for e in g.edges() {
            b.add_edge((e.src + shift) % n.max(1), (e.dst + shift) % n.max(1), e.t);
        }
        let relabelled = b.build();
        // Cyclic shifts can create self-loops ((src+s)%n == (dst+s)%n only
        // if src==dst, which the builder already dropped) — safe.
        let a = hare::count_motifs(&g, delta);
        let c = hare::count_motifs(&relabelled, delta);
        prop_assert_eq!(a.matrix, c.matrix);
    }

    /// Relabelling nodes by an *arbitrary* permutation (not just a cyclic
    /// shift) changes nothing in the canonical grid — this is the
    /// sensitive probe for layout/ordering bugs in the SoA event arena
    /// (packed `other<<1|dir` lanes, bloom signatures, pair-slot lookup),
    /// all of which are keyed by node id.
    #[test]
    fn node_permutation_invariance(g in graph_strategy(40), delta in 0i64..80, seed in 0u64..u64::MAX) {
        let n = g.num_nodes();
        prop_assume!(n > 0);
        // Fisher–Yates driven by a splitmix64 stream seeded from the
        // proptest input.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut b = GraphBuilder::new();
        for e in g.edges() {
            b.add_edge(perm[e.src as usize], perm[e.dst as usize], e.t);
        }
        let permuted = b.build();
        prop_assert_eq!(
            hare::count_motifs(&g, delta).matrix,
            hare::count_motifs(&permuted, delta).matrix
        );
        // The parallel engine must agree on the permuted ids too.
        prop_assert_eq!(
            hare::count_motifs(&permuted, delta).matrix,
            hare::Hare::with_threads(2).count_all(&permuted, delta).matrix
        );
    }

    /// The oriented kernel is exact under any total order of the nodes:
    /// identity, the build-time degree rank, reversed ids and random
    /// permutations all give the same grid, with the same star and pair
    /// cells and a third of the three-view triangle cells.
    #[test]
    fn any_total_order_gives_the_same_matrix(g in graph_strategy(40), delta in 0i64..80, seed in 0u64..u64::MAX) {
        let n = g.num_nodes();
        let want = hare_baselines::enumerate_all(&g, delta);
        let three_view = hare::fused::count_graph::<true, true, false>(&g, delta);
        let identity: Vec<u32> = (0..n as u32).collect();
        let reversed: Vec<u32> = (0..n as u32).rev().collect();
        for rank in [identity, g.node_rank().to_vec(), reversed, permutation(n, seed), permutation(n, !seed)] {
            let got = count_with_rank(&g, delta, &rank);
            prop_assert_eq!(got.matrix, want);
            prop_assert_eq!(&got.star, &three_view.star);
            prop_assert_eq!(&got.pair, &three_view.pair);
            prop_assert_eq!(3 * got.tri.total(), three_view.tri.total());
        }
        prop_assert_eq!(count_with_rank(&g, delta, g.node_rank()), hare::count_motifs(&g, delta));
    }

    /// Shifting all timestamps by a constant changes nothing.
    #[test]
    fn time_shift_invariance(g in graph_strategy(30), delta in 0i64..60, shift in -1000i64..1000) {
        let mut b = GraphBuilder::new();
        for e in g.edges() {
            b.add_edge(e.src, e.dst, e.t + shift);
        }
        let shifted = b.build();
        prop_assert_eq!(
            hare::count_motifs(&g, delta).matrix,
            hare::count_motifs(&shifted, delta).matrix
        );
    }

    /// Raw FAST-Tri counters (the `TRIS` pass): the three isomorphic
    /// cells of each class agree, and the total is divisible by 3.
    #[test]
    fn tri_counter_class_balance(g in graph_strategy(40), delta in 0i64..80) {
        let tri = hare::fused::count_graph::<false, true, false>(&g, delta).tri;
        prop_assert!(tri.class_cells_balanced());
        prop_assert_eq!(tri.total() % 3, 0);
    }

    /// Raw FAST-Star pair counters (the `STARS` pass): mirror cells
    /// balance (each pair instance is seen once from each endpoint).
    #[test]
    fn pair_counter_mirror_balance(g in graph_strategy(40), delta in 0i64..80) {
        let pair = hare::fused::count_graph::<true, false, false>(&g, delta).pair;
        prop_assert!(pair.mirror_cells_balanced());
        prop_assert_eq!(pair.total() % 2, 0);
    }

    /// The masked kernel's halves add up to the fused pass cell for cell:
    /// a `STARS` pass fills exactly the star and pair cells, a `TRIS`
    /// pass exactly the triangle cells, and nothing else.
    #[test]
    fn masked_passes_sum_to_fused(g in graph_strategy(40), delta in 0i64..80) {
        let fused = hare::fused::count_graph::<true, true, false>(&g, delta);
        let stars = hare::fused::count_graph::<true, false, false>(&g, delta);
        let tris = hare::fused::count_graph::<false, true, false>(&g, delta);
        prop_assert_eq!(stars.tri.total(), 0);
        prop_assert_eq!(tris.star.total() + tris.pair.total(), 0);
        let mut sum = stars;
        sum.merge(&tris);
        prop_assert_eq!(sum, fused);
    }

    /// Dedicated pair/triangle counters agree with the full pipeline.
    #[test]
    fn specialised_equal_full(g in graph_strategy(40), delta in 0i64..80) {
        let full = hare::count_motifs(&g, delta);
        let pairs = hare::count_pair_motifs(&g, delta);
        let tris = hare::count_triangle_motifs(&g, delta);
        for mo in Motif::all() {
            match mo.category() {
                MotifCategory::Pair => prop_assert_eq!(full.get(mo), pairs.get(mo)),
                MotifCategory::Triangle => prop_assert_eq!(full.get(mo), tris.get(mo)),
                MotifCategory::Star => {}
            }
        }
    }

    /// Streaming equals batch on arbitrary in-order streams: raw triples
    /// with duplicate timestamps and self-loops are pushed through a
    /// `WindowedCounter` whose window no stream outlasts (self-loops
    /// rejected edge-by-edge, exactly as the batch builder drops them),
    /// and the final counts must equal a batch FAST run over the
    /// accepted edges.
    #[test]
    fn streaming_equals_batch_on_random_streams(
        triples in temporal_graph::gen::arb::raw_triples(8, 40, 30),
        delta in 0i64..40,
    ) {
        let mut arrivals = triples;
        arrivals.sort_by_key(|&(_, _, t)| t);
        let mut sc = hare::WindowedCounter::new(delta, Timestamp::MAX / 2);
        let mut b = GraphBuilder::new();
        for (s, d, t) in arrivals {
            match sc.push(s, d, t) {
                Ok(()) => b.add_edge(s, d, t),
                Err(hare::StreamError::SelfLoop) => {
                    prop_assert_eq!(s, d);
                }
                Err(e) => return Err(TestCaseError::fail(format!("in-order push rejected: {e}"))),
            }
        }
        let g = b.build();
        prop_assert_eq!(sc.num_accepted(), g.num_edges() as u64);
        prop_assert_eq!(sc.counts(), hare::count_motifs(&g, delta).matrix);
        prop_assert_eq!(sc.counts(), hare_baselines::enumerate_all(&g, delta));
    }

    /// Duplicating every edge (same timestamps) scales pair counts by
    /// predictable combinatorics only through enumeration equality —
    /// cheap sanity that multi-edges don't break anything.
    #[test]
    fn edge_duplication_consistency(g in graph_strategy(20), delta in 0i64..40) {
        let mut b = GraphBuilder::new();
        for e in g.edges() {
            b.add_edge(e.src, e.dst, e.t);
            b.add_edge(e.src, e.dst, e.t);
        }
        let doubled = b.build();
        let fast = hare::count_motifs(&doubled, delta);
        let oracle = hare_baselines::enumerate_all(&doubled, delta);
        prop_assert_eq!(fast.matrix, oracle);
    }
}
