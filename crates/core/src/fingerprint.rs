//! Per-node motif participation profiles.
//!
//! The paper's introduction motivates motif counting with network
//! representation learning: motif statistics "capture local high-order
//! network structures" and feed node embeddings (refs 10–13 of the paper). This
//! module exposes that use case directly: a 36-dimensional motif profile
//! per node, computed with the fused single-scan FAST kernel
//! ([`crate::fused`]) — **one** δ-window pass per center node fills a
//! node's star, pair and triangle participation at once — and in
//! parallel with the same bit-identity guarantees as HARE.
//!
//! Attribution semantics (documented, deliberate):
//! * **star** instances are attributed to their unique center node;
//! * **pair** instances are attributed to both endpoints;
//! * **triangle** instances are attributed to all three vertices (the
//!   raw per-center view of FAST-Tri, without the global ÷3 fold).
//!
//! Summing profile column `M` over all nodes therefore yields
//! `1×` (stars), `2×` (pairs) or `3×` (triangles) the global count —
//! an invariant the tests pin down. These are exactly the per-center
//! views the fused kernel accumulates, which is why attribution is a
//! fold of its [`CenterTally`] rather than a second algorithm: the
//! star cells of `fused::count_node(g, u, ..)` are the stars centered
//! at `u`, the pair cells are `u`'s endpoint view, and the triangle
//! cells are `u`'s per-center instance view.
//!
//! [`profile_of_separate`] computes the same profile from two masked
//! passes per node — a `STARS` pass and a `TRIS` pass — the two-pass
//! reference the `local_profiles` suite pins the fused path against,
//! bit for bit.
//!
//! On top of the raw profiles sit the serving-facing analytics: a
//! sparse whole-graph collection ([`NodeProfiles`]), top-k nodes per
//! motif ([`top_k_nodes`]) and per-node z-score ranking against the
//! graph-wide profile distribution ([`ProfileDistribution`],
//! [`rank_by_zscore`]) — all with deterministic node-id tie-breaks.

use crate::counters::{CenterTally, MotifMatrix};
use crate::exec;
use crate::fused::count_node;
use crate::motif::{Motif, MotifCategory};
use crate::scratch::NeighborScratch;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

/// A node's 36-dimensional motif participation profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeProfile {
    counts: [u64; 36],
}

impl Default for NodeProfile {
    fn default() -> Self {
        NodeProfile { counts: [0; 36] }
    }
}

impl NodeProfile {
    /// Participation count for one motif.
    #[inline]
    #[must_use]
    pub fn get(&self, m: Motif) -> u64 {
        self.counts[(m.row() as usize - 1) * 6 + (m.col() as usize - 1)]
    }

    /// Total participation across all motifs.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `true` if the node participates in no motif instance at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// The profile as an ordered 36-vector (row-major over the grid) —
    /// the feature vector used by embedding pipelines.
    #[must_use]
    pub fn as_vector(&self) -> [u64; 36] {
        self.counts
    }

    /// Iterate `(motif, count)` in canonical row-major grid order over
    /// all 36 cells (including zeros; filter for sparse views).
    pub fn iter(&self) -> impl Iterator<Item = (Motif, u64)> + '_ {
        Motif::all().zip(self.counts.iter().copied())
    }

    /// L1-normalised feature vector (graphs of different sizes become
    /// comparable).
    #[must_use]
    pub fn normalised(&self) -> [f64; 36] {
        let total = self.total().max(1) as f64;
        let mut out = [0.0; 36];
        for (o, &c) in out.iter_mut().zip(self.counts.iter()) {
            *o = c as f64 / total;
        }
        out
    }

    fn absorb(&mut self, mx: &MotifMatrix) {
        for (m, n) in mx.iter() {
            self.counts[(m.row() as usize - 1) * 6 + (m.col() as usize - 1)] += n;
        }
    }
}

/// Fold one node's per-center tally into its attribution profile.
/// Shared by the fused and the two-pass path: bit-identity of the two
/// paths reduces to bit-identity of the kernel's instantiations (which
/// `fused.rs` pins).
fn fold_tally(t: &CenterTally) -> NodeProfile {
    let mut profile = NodeProfile::default();
    let mut mx = MotifMatrix::default();
    t.star.add_to_matrix(&mut mx);
    profile.absorb(&mx);

    // Pairs: attribute this endpoint's view directly (no mirror halving —
    // the other endpoint gets its own attribution).
    let mut mx = MotifMatrix::default();
    t.pair.add_to_matrix_pair_based(&mut mx);
    profile.absorb(&mx);

    // Triangles: raw per-center attribution (no ÷3).
    let mut mx = MotifMatrix::default();
    for (ty, di, dj, dk, n) in t.tri.iter() {
        mx.add(crate::motif::tri_motif(ty, di, dj, dk), n);
    }
    profile.absorb(&mx);
    profile
}

/// Compute one node's profile with the fused kernel: ONE δ-window scan
/// of `S_u` fills the star, pair and triangle participation at once
/// (`scratch` sized to the graph).
#[must_use]
pub fn profile_of(
    g: &TemporalGraph,
    u: NodeId,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
) -> NodeProfile {
    let mut t = CenterTally::default();
    let len = g.node_events(u).len();
    count_node::<true, true, false>(g, u, 0..len, delta, &[], scratch, &mut t);
    fold_tally(&t)
}

/// Compute one node's profile from two masked scans of `S_u`: a `STARS`
/// pass (stars and pairs) and a `TRIS` pass (triangles). The two-pass
/// reference for the fused path; `tests/local_profiles.rs` pins
/// `profile_of == profile_of_separate` bit for bit on arbitrary graphs.
#[must_use]
pub fn profile_of_separate(
    g: &TemporalGraph,
    u: NodeId,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
) -> NodeProfile {
    let mut t = CenterTally::default();
    let len = g.node_events(u).len();
    count_node::<true, false, false>(g, u, 0..len, delta, &[], scratch, &mut t);
    count_node::<false, true, false>(g, u, 0..len, delta, &[], scratch, &mut t);
    fold_tally(&t)
}

/// Compute the motif profile of every node (dense): the rows of
/// [`NodeProfiles::compute`], with zero profiles filled in. Same thread
/// policy and bit-identity across thread counts. Memory: 288 bytes per
/// node.
#[must_use]
pub fn node_profiles(g: &TemporalGraph, delta: Timestamp, num_threads: usize) -> Vec<NodeProfile> {
    let mut dense = vec![NodeProfile::default(); g.num_nodes()];
    for (u, p) in NodeProfiles::compute(g, delta, num_threads).iter() {
        dense[u as usize] = *p;
    }
    dense
}

/// Sparse whole-graph profile collection: only the nodes that
/// participate in at least one motif instance, in ascending node id.
///
/// This is the serving-side representation — on real workloads most
/// nodes never complete a 3-edge motif within δ, so the dense
/// `Vec<NodeProfile>` wastes both memory and wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeProfiles {
    entries: Vec<(NodeId, NodeProfile)>,
    num_nodes: usize,
}

impl NodeProfiles {
    /// Compute the sparse per-node profiles of the whole graph with the
    /// fused kernel. `num_threads = 0` uses all cores, and any request is
    /// clamped to the machine's cores ([`exec::workers`]).
    ///
    /// The driver is HARE's chunked model: fixed 256-node chunks over
    /// ascending node ids, each counted independently with its worker's
    /// scratch, zero rows dropped chunk-locally, and the chunks
    /// concatenated *in chunk order* — so the result is bit-identical
    /// across thread counts (pinned by tests).
    #[must_use]
    pub fn compute(g: &TemporalGraph, delta: Timestamp, num_threads: usize) -> NodeProfiles {
        let tasks = exec::chunks(g.num_nodes(), 256).collect();
        let chunks = exec::map(num_threads, g.num_nodes(), tasks, |nodes, scratch| {
            nodes
                .filter_map(|u| {
                    let u = u as NodeId;
                    let p = profile_of(g, u, delta, scratch);
                    (!p.is_empty()).then_some((u, p))
                })
                .collect::<Vec<_>>()
        });
        NodeProfiles {
            entries: chunks.into_iter().flatten().collect(),
            num_nodes: g.num_nodes(),
        }
    }

    /// The profile of `u`: `None` when the node participates in no
    /// instance (its profile is the zero vector) or the id is out of
    /// range.
    #[must_use]
    pub fn get(&self, u: NodeId) -> Option<&NodeProfile> {
        self.entries
            .binary_search_by_key(&u, |&(id, _)| id)
            .ok()
            .and_then(|i| self.entries.get(i))
            .map(|(_, p)| p)
    }

    /// Iterate `(node, profile)` in ascending node id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeProfile)> + '_ {
        self.entries.iter().map(|(id, p)| (*id, p))
    }

    /// Number of participating nodes (nonzero profiles).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no node participates in any instance.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total node count of the underlying graph (participating or not) —
    /// the population size of the z-score distribution.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

/// Sum of all profiles, expressed per category multiplicity — used to
/// reconcile profiles with the global grid (stars 1×, pairs 2×,
/// triangles 3×).
#[must_use]
pub fn profile_sum(profiles: &[NodeProfile]) -> NodeProfile {
    let mut out = NodeProfile::default();
    for p in profiles {
        for (o, &c) in out.counts.iter_mut().zip(p.counts.iter()) {
            *o += c;
        }
    }
    out
}

/// Multiplicity of a motif's attribution (how many nodes own each
/// instance in the profile view).
#[must_use]
pub fn attribution_multiplicity(m: Motif) -> u64 {
    match m.category() {
        MotifCategory::Star => 1,
        MotifCategory::Pair => 2,
        MotifCategory::Triangle => 3,
    }
}

/// The `k` nodes with the highest participation in motif `m`, as
/// `(node, count)` — count descending, ties broken by ascending node id
/// (fully deterministic). Nodes with a zero count for `m` never appear,
/// so fewer than `k` rows can come back.
#[must_use]
pub fn top_k_nodes(profiles: &NodeProfiles, m: Motif, k: usize) -> Vec<(NodeId, u64)> {
    let mut ranked: Vec<(NodeId, u64)> = profiles
        .iter()
        .filter_map(|(u, p)| {
            let c = p.get(m);
            (c > 0).then_some((u, c))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Graph-wide per-motif distribution of node participation counts:
/// mean and standard deviation over **all** nodes of the graph
/// (non-participating nodes contribute zero vectors — anomaly is
/// relative to the typical node, not the typical participant).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDistribution {
    mean: [f64; 36],
    std: [f64; 36],
    /// Population size (the graph's node count).
    num_nodes: usize,
}

impl ProfileDistribution {
    /// Compute the population mean/std of every motif column. Sums run
    /// in ascending node id, so the floats are deterministic.
    #[must_use]
    pub fn compute(profiles: &NodeProfiles) -> ProfileDistribution {
        let n = profiles.num_nodes().max(1) as f64;
        let mut sum = [0.0f64; 36];
        let mut sumsq = [0.0f64; 36];
        for (_, p) in profiles.iter() {
            for (i, &c) in p.counts.iter().enumerate() {
                let x = c as f64;
                sum[i] += x;
                sumsq[i] += x * x;
            }
        }
        let mut mean = [0.0f64; 36];
        let mut std = [0.0f64; 36];
        for i in 0..36 {
            mean[i] = sum[i] / n;
            // Population variance; clamp the E[x²]−mean² form at zero
            // against floating-point cancellation.
            std[i] = (sumsq[i] / n - mean[i] * mean[i]).max(0.0).sqrt();
        }
        ProfileDistribution {
            mean,
            std,
            num_nodes: profiles.num_nodes(),
        }
    }

    /// Per-motif z-scores of one profile against this distribution
    /// (row-major 36-vector; columns with zero variance score 0).
    #[must_use]
    pub fn z_scores(&self, p: &NodeProfile) -> [f64; 36] {
        let mut out = [0.0f64; 36];
        for (i, z) in out.iter_mut().enumerate() {
            if self.std[i] > 0.0 {
                *z = (p.counts[i] as f64 - self.mean[i]) / self.std[i];
            }
        }
        out
    }

    /// A node's scalar anomaly score: the L2 norm of its z-score
    /// vector. Large when any motif column deviates far from the
    /// graph-wide typical node.
    #[must_use]
    pub fn anomaly_score(&self, p: &NodeProfile) -> f64 {
        self.z_scores(p).iter().map(|z| z * z).sum::<f64>().sqrt()
    }

    /// Population size the distribution was computed over.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

/// The `k` most anomalous participating nodes as `(node, score)`:
/// z-score-norm descending (total float order), ties broken by
/// ascending node id. Non-participating nodes are excluded — they all
/// share the identical zero-vector score and carry no signal.
#[must_use]
pub fn rank_by_zscore(
    profiles: &NodeProfiles,
    dist: &ProfileDistribution,
    k: usize,
) -> Vec<(NodeId, f64)> {
    let mut ranked: Vec<(NodeId, f64)> = profiles
        .iter()
        .map(|(u, p)| (u, dist.anomaly_score(p)))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motif::m;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy};

    #[test]
    fn profiles_reconcile_with_global_counts() {
        let g = erdos_renyi_temporal(20, 400, 600, 9);
        let delta = 150;
        let profiles = node_profiles(&g, delta, 2);
        assert_eq!(profiles.len(), g.num_nodes());
        let sum = profile_sum(&profiles);
        let global = crate::count_motifs(&g, delta);
        for m in Motif::all() {
            assert_eq!(
                sum.get(m),
                global.get(m) * attribution_multiplicity(m),
                "{m}"
            );
        }
    }

    #[test]
    fn fused_path_matches_separate_kernels() {
        let g = hub_burst(30, 1_200, 6_000, 3);
        let delta = 500;
        let mut scratch = NeighborScratch::new(g.num_nodes());
        for u in g.node_ids() {
            assert_eq!(
                profile_of(&g, u, delta, &mut scratch),
                profile_of_separate(&g, u, delta, &mut scratch),
                "node {u}"
            );
        }
    }

    #[test]
    fn toy_graph_center_attribution() {
        // Node v_a is the center of the M63 instance named in §III.
        let g = paper_fig1_toy();
        let profiles = node_profiles(&g, 10, 1);
        assert!(profiles[0].get(crate::motif::m(6, 3)) >= 1);
        // The M65 pair instance is attributed to both v_d and v_e.
        assert_eq!(profiles[3].get(crate::motif::m(6, 5)), 1);
        assert_eq!(profiles[4].get(crate::motif::m(6, 5)), 1);
    }

    #[test]
    fn thread_count_does_not_change_profiles() {
        let g = erdos_renyi_temporal(15, 300, 400, 2);
        let a = node_profiles(&g, 100, 1);
        let b = node_profiles(&g, 100, 4);
        assert_eq!(a, b);
        let sa = NodeProfiles::compute(&g, 100, 1);
        let sb = NodeProfiles::compute(&g, 100, 4);
        assert_eq!(sa, sb);
    }

    /// Thread requests beyond the machine's cores are clamped, so an
    /// absurd count is bit-identical to one thread. Four 256-node chunks:
    /// no run can use more than four threads.
    #[test]
    fn oversized_thread_request_matches_one_thread() {
        let g = erdos_renyi_temporal(1_000, 4_000, 2_000, 5);
        assert!(g.num_nodes() > 3 * 256 && g.num_nodes() <= 4 * 256);
        let one = NodeProfiles::compute(&g, 60, 1);
        assert!(!one.is_empty());
        assert_eq!(NodeProfiles::compute(&g, 60, usize::MAX), one);
        assert_eq!(node_profiles(&g, 60, usize::MAX), node_profiles(&g, 60, 1));
    }

    #[test]
    fn sparse_profiles_match_dense_nonzero_rows() {
        let g = paper_fig1_toy();
        let dense = node_profiles(&g, 10, 1);
        let sparse = NodeProfiles::compute(&g, 10, 1);
        assert_eq!(sparse.num_nodes(), g.num_nodes());
        // The dense table is derived from the sparse one, so pin it
        // against the per-node kernel, which neither driver shares.
        let mut scratch = NeighborScratch::new(g.num_nodes());
        for u in g.node_ids() {
            assert_eq!(
                dense[u as usize],
                profile_of(&g, u, 10, &mut scratch),
                "node {u}"
            );
        }
        let expect: Vec<(NodeId, NodeProfile)> = dense
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(u, p)| (u as NodeId, *p))
            .collect();
        let got: Vec<(NodeId, NodeProfile)> = sparse.iter().map(|(u, p)| (u, *p)).collect();
        assert_eq!(got, expect);
        for (u, p) in &expect {
            assert_eq!(sparse.get(*u), Some(p));
        }
        assert!(sparse.get(u32::MAX).is_none());
    }

    #[test]
    fn top_k_breaks_ties_by_node_id() {
        // The M65 pair is attributed to v_d (3) and v_e (4) with equal
        // count 1: the tie must resolve to the lower id first.
        let g = paper_fig1_toy();
        let sparse = NodeProfiles::compute(&g, 10, 1);
        let ranked = top_k_nodes(&sparse, m(6, 5), 10);
        assert_eq!(ranked, vec![(3, 1), (4, 1)]);
        // k truncates.
        assert_eq!(top_k_nodes(&sparse, m(6, 5), 1), vec![(3, 1)]);
        // A motif nobody participates in yields an empty ranking.
        assert!(top_k_nodes(&sparse, m(1, 1), 10).is_empty());
    }

    #[test]
    fn zscore_ranking_is_deterministic_and_sane() {
        let g = erdos_renyi_temporal(20, 400, 600, 9);
        let sparse = NodeProfiles::compute(&g, 150, 2);
        let dist = ProfileDistribution::compute(&sparse);
        assert_eq!(dist.num_nodes(), g.num_nodes());
        let a = rank_by_zscore(&sparse, &dist, 5);
        let b = rank_by_zscore(&sparse, &dist, 5);
        assert_eq!(a, b);
        // Scores are finite, non-negative and descending.
        for w in a.windows(2) {
            assert!(w[0].1 >= w[1].1, "{a:?}");
        }
        for (_, s) in &a {
            assert!(s.is_finite() && *s >= 0.0);
        }
    }

    #[test]
    fn zero_variance_columns_score_zero() {
        // Empty graph: every column has zero variance, so any profile
        // z-scores to the zero vector instead of NaN/inf.
        let g = temporal_graph::TemporalGraph::from_edges(vec![]);
        let sparse = NodeProfiles::compute(&g, 10, 1);
        let dist = ProfileDistribution::compute(&sparse);
        let p = NodeProfile::default();
        assert_eq!(dist.z_scores(&p), [0.0; 36]);
        assert_eq!(dist.anomaly_score(&p), 0.0);
    }

    #[test]
    fn normalised_vectors_sum_to_one() {
        let g = paper_fig1_toy();
        let profiles = node_profiles(&g, 10, 1);
        for p in &profiles {
            if p.total() > 0 {
                let s: f64 = p.normalised().iter().sum();
                assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn empty_graph_profiles() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![]);
        assert!(node_profiles(&g, 10, 2).is_empty());
        assert!(NodeProfiles::compute(&g, 10, 2).is_empty());
    }
}
