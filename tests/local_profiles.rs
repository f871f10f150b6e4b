//! Differential + property suite for per-node motif profiles.
//!
//! Pins the fused-attribution path (`hare::fingerprint::profile_of`,
//! one δ-window scan per center via `fused.rs`) bit-identical to
//!
//! 1. the two-pass path (`profile_of_separate`: a `STARS` pass and a
//!    `TRIS` pass of the masked kernel per node),
//! 2. brute-force attribution derived from `baselines/enumerate.rs`
//!    (every instance visited once; stars attribute to their center,
//!    pairs to both endpoints, triangles to all three vertices),
//!
//! on proptest-generated graphs — built from raw `(src, dst, t)`
//! streams that include self-loops and duplicate timestamps — and pins
//! the documented invariants: column sums = 1×/2×/3× the global grid,
//! node-permutation equivariance, and thread-count bit-identity of the
//! parallel drivers (dense and sparse). The two-pass differential and
//! the thread-count invariance also run on CollegeMsg.

use proptest::prelude::*;

use hare::motif::{Motif, MotifCategory};
use hare::NeighborScratch;
use temporal_graph::gen::{arb, paper_fig1_toy};
use temporal_graph::{GraphBuilder, NodeId, TemporalGraph};

/// Brute-force per-node attribution: run the instance enumerator and
/// credit each instance to its participating nodes per the documented
/// semantics (star → unique center, pair → both endpoints, triangle →
/// all three vertices).
fn enumerate_profiles(g: &TemporalGraph, delta: i64) -> Vec<[u64; 36]> {
    let mut profiles = vec![[0u64; 36]; g.num_nodes()];
    hare_baselines::enumerate::enumerate_instances(g, delta, |e1, e2, e3, m| {
        let edges = [g.edge(e1), g.edge(e2), g.edge(e3)];
        let mut nodes: Vec<NodeId> = edges.iter().flat_map(|e| [e.src, e.dst]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let idx = (m.row() as usize - 1) * 6 + (m.col() as usize - 1);
        match m.category() {
            MotifCategory::Star => {
                // The center is the unique node on all three edges.
                let center = nodes
                    .iter()
                    .copied()
                    .find(|&u| edges.iter().all(|e| e.src == u || e.dst == u))
                    .expect("star instance has a center");
                profiles[center as usize][idx] += 1;
            }
            MotifCategory::Pair | MotifCategory::Triangle => {
                // Pairs span exactly 2 nodes, triangles exactly 3; all
                // participants are credited.
                for u in nodes {
                    profiles[u as usize][idx] += 1;
                }
            }
        }
    });
    profiles
}

/// The fused single-scan attribution is bit-identical to the two-pass
/// (STARS, then TRIS) path on every node of `g`.
fn fused_matches_separate(g: &TemporalGraph, delta: i64) -> Result<(), TestCaseError> {
    let mut scratch = NeighborScratch::new(g.num_nodes());
    for u in g.node_ids() {
        prop_assert_eq!(
            hare::fingerprint::profile_of(g, u, delta, &mut scratch),
            hare::fingerprint::profile_of_separate(g, u, delta, &mut scratch)
        );
    }
    Ok(())
}

/// The parallel HARE drivers (dense and sparse) on `threads` workers
/// equal their one-worker runs, and the sparse collection is exactly the
/// nonzero rows of the dense table.
fn drivers_match_one_thread(
    g: &TemporalGraph,
    delta: i64,
    threads: usize,
) -> Result<(), TestCaseError> {
    let dense1 = hare::node_profiles(g, delta, 1);
    let densen = hare::node_profiles(g, delta, threads);
    prop_assert_eq!(&dense1, &densen);
    let sparse1 = hare::NodeProfiles::compute(g, delta, 1);
    let sparsen = hare::NodeProfiles::compute(g, delta, threads);
    prop_assert_eq!(&sparse1, &sparsen);
    let nonzero: Vec<(u32, hare::NodeProfile)> = dense1
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(u, p)| (u as u32, *p))
        .collect();
    let got: Vec<(u32, hare::NodeProfile)> = sparse1.iter().map(|(u, p)| (u, *p)).collect();
    prop_assert_eq!(got, nonzero);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tentpole differential #1: the fused single-scan attribution is
    /// bit-identical to the two-pass (STARS, then TRIS) path on every node of
    /// every graph (self-loops and duplicate timestamps included in the
    /// raw stream; the builder's ingestion policy is part of the path).
    #[test]
    fn fused_profiles_match_separate_kernels(g in arb::graph(8, 40, 60), delta in 0i64..80) {
        fused_matches_separate(&g, delta)?;
    }

    /// Tentpole differential #2: fused profiles equal brute-force
    /// enumeration attribution on every node.
    #[test]
    fn fused_profiles_match_enumeration(g in arb::graph(8, 40, 60), delta in 0i64..80) {
        let profiles = hare::node_profiles(&g, delta, 1);
        let oracle = enumerate_profiles(&g, delta);
        prop_assert_eq!(profiles.len(), oracle.len());
        for (p, expect) in profiles.iter().zip(oracle.iter()) {
            prop_assert_eq!(&p.as_vector(), expect);
        }
    }

    /// Sum invariant: every profile column sums to multiplicity × the
    /// global count — 1× stars, 2× pairs, 3× triangles.
    #[test]
    fn column_sums_are_multiplicity_times_global(g in arb::graph(8, 40, 60), delta in 0i64..80) {
        let profiles = hare::node_profiles(&g, delta, 1);
        let sum = hare::fingerprint::profile_sum(&profiles);
        let global = hare::count_motifs(&g, delta);
        for m in Motif::all() {
            prop_assert_eq!(
                sum.get(m),
                global.get(m) * hare::fingerprint::attribution_multiplicity(m)
            );
        }
    }

    /// Three-view against oriented: profiles attribute each triangle to
    /// all three vertices, the whole-graph count once, at its lowest-rank
    /// vertex — so triangle participation sums to exactly 3× the oriented
    /// global count, and the raw oriented cells hold a third of the
    /// three-view cells.
    #[test]
    fn triangle_participation_is_three_times_the_oriented_count(g in arb::graph(8, 40, 60), delta in 0i64..80) {
        let profiles = hare::NodeProfiles::compute(&g, delta, 2);
        let participation: u64 = profiles
            .iter()
            .flat_map(|(_, p)| p.iter())
            .filter(|(m, _)| m.category() == MotifCategory::Triangle)
            .map(|(_, n)| n)
            .sum();
        let oriented = hare::count_motifs(&g, delta);
        prop_assert_eq!(
            participation,
            3 * oriented.matrix.category_total(MotifCategory::Triangle)
        );
        prop_assert_eq!(participation, 3 * oriented.tri.total());
    }

    /// Node-permutation equivariance: relabelling nodes by an arbitrary
    /// permutation permutes the profile table and changes nothing else.
    #[test]
    fn profiles_are_permutation_equivariant(g in arb::graph(8, 40, 60), delta in 0i64..80, seed in 0u64..u64::MAX) {
        let n = g.num_nodes();
        prop_assume!(n > 0);
        // Fisher–Yates driven by a splitmix64 stream (same scheme as
        // tests/property_invariants.rs).
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
        let original = hare::node_profiles(&g, delta, 1);
        let relabelled = hare::node_profiles(&permuted, delta, 1);
        for u in 0..n {
            match relabelled.get(perm[u] as usize) {
                Some(p) => prop_assert_eq!(&original[u], p),
                // perm[u] can exceed the permuted graph's node range when
                // the highest relabelled id lands on an isolated node
                // (the builder sizes the graph by the max id *seen*);
                // such a node necessarily has an empty profile.
                None => prop_assert!(original[u].is_empty()),
            }
        }
    }

    /// The parallel HARE drivers (dense and sparse) are bit-identical
    /// across thread counts, and the sparse collection is exactly the
    /// nonzero rows of the dense table.
    #[test]
    fn parallel_drivers_are_thread_count_invariant(g in arb::graph(8, 40, 60), delta in 0i64..80, threads in 2usize..5) {
        drivers_match_one_thread(&g, delta, threads)?;
    }

    /// Top-k and z-score rankings are deterministic: recomputation from
    /// scratch (any thread count) yields identical rankings, and motif
    /// ranking ties always resolve by ascending node id.
    #[test]
    fn rankings_are_deterministic(g in arb::graph(8, 40, 60), delta in 0i64..80, k in 1usize..6, threads in 2usize..5) {
        let a = hare::NodeProfiles::compute(&g, delta, 1);
        let b = hare::NodeProfiles::compute(&g, delta, threads);
        for m in Motif::all() {
            let ra = hare::top_k_nodes(&a, m, k);
            prop_assert_eq!(&ra, &hare::top_k_nodes(&b, m, k));
            for w in ra.windows(2) {
                prop_assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0), "{:?}", ra);
            }
        }
        let da = hare::ProfileDistribution::compute(&a);
        let db = hare::ProfileDistribution::compute(&b);
        prop_assert_eq!(
            hare::rank_by_zscore(&a, &da, k),
            hare::rank_by_zscore(&b, &db, k)
        );
    }
}

/// Both differentials on a calibrated dataset, at both of its sizes:
/// CollegeMsg at scale 8 and at full size, δ = 600, on 2 and 4 workers.
#[test]
fn collegemsg_profiles_are_fused_and_thread_count_invariant() {
    let spec = hare_datasets::by_name("CollegeMsg").unwrap();
    for scale in [8, 1] {
        let g = spec.generate(scale);
        fused_matches_separate(&g, 600).unwrap();
        for threads in [2, 4] {
            drivers_match_one_thread(&g, 600, threads).unwrap();
        }
    }
}

/// The Fig. 1 toy, end to end: the single M65 pair instance at δ=10 is
/// attributed to v_d (3) and v_e (4) and to nobody else, and the paper's
/// named M63 star instance sits on its center v_a (0).
/// The same three-view invariant on a hub-skewed graph at pool scale,
/// where the hub ranks highest and so owns none of the oriented
/// triangles, yet is credited with every one it closes in the profiles.
#[test]
fn hub_triangle_participation_is_three_times_the_oriented_count() {
    let g = temporal_graph::gen::hub_burst(40, 20_000, 200_000, 3);
    let delta = 2_000;
    let profiles = hare::NodeProfiles::compute(&g, delta, 2);
    let tri_of = |p: &hare::NodeProfile| -> u64 {
        p.iter()
            .filter(|(m, _)| m.category() == MotifCategory::Triangle)
            .map(|(_, n)| n)
            .sum()
    };
    let participation: u64 = profiles.iter().map(|(_, p)| tri_of(p)).sum();
    let oriented = hare::Hare::with_threads(2).count_all(&g, delta);
    let global = oriented.matrix.category_total(MotifCategory::Triangle);
    assert!(global > 0, "the hub graph must hold triangles");
    assert_eq!(participation, 3 * global);
    assert_eq!(oriented.tri.total(), global);
}

#[test]
fn fig1_toy_attribution_is_exact() {
    let g = paper_fig1_toy();
    let profiles = hare::node_profiles(&g, 10, 1);
    let m65 = hare::motif::m(6, 5);
    let attributed: Vec<(usize, u64)> = profiles
        .iter()
        .enumerate()
        .filter(|(_, p)| p.get(m65) > 0)
        .map(|(u, p)| (u, p.get(m65)))
        .collect();
    assert_eq!(attributed, vec![(3, 1), (4, 1)]);
    assert!(profiles[0].get(hare::motif::m(6, 3)) >= 1);
    // And the oracle agrees cell-for-cell.
    let oracle = enumerate_profiles(&g, 10);
    for (u, p) in profiles.iter().enumerate() {
        assert_eq!(p.as_vector(), oracle[u], "node {u}");
    }
}

/// Duplicate-timestamp bursts (many ties) and self-loop-heavy raw
/// streams still reconcile the three paths on a fixed adversarial case.
#[test]
fn tied_timestamps_and_self_loops_reconcile() {
    let mut b = GraphBuilder::new();
    // Every edge at t=5: all orderings decided by input position.
    for (s, d) in [(0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (2, 0), (0, 2)] {
        b.add_edge(s, d, 5);
    }
    let g = b.build();
    for delta in [0, 1, 10] {
        let fused = hare::node_profiles(&g, delta, 1);
        let oracle = enumerate_profiles(&g, delta);
        let mut scratch = NeighborScratch::new(g.num_nodes());
        for u in g.node_ids() {
            assert_eq!(
                fused[u as usize].as_vector(),
                oracle[u as usize],
                "node {u} delta {delta}"
            );
            assert_eq!(
                fused[u as usize],
                hare::fingerprint::profile_of_separate(&g, u, delta, &mut scratch),
                "node {u} delta {delta}"
            );
        }
    }
}
