//! Deterministic synthetic temporal-graph generators.
//!
//! The paper evaluates on 16 public datasets that cannot be downloaded in
//! this environment, so the benchmark harness substitutes **calibrated
//! synthetic stand-ins** (the `hare-datasets` registry). The cost of every algorithm in the
//! workspace is governed by four workload properties, all of which these
//! generators control:
//!
//! 1. number of temporal edges `|E|`,
//! 2. degree skew (hubs dominate run time — Fig. 9),
//! 3. δ-window density `d^δ` (events per node per δ),
//! 4. pair multiplicity (repeated edges between the same two nodes feed
//!    the pair motifs) and wedge closure (feeds the triangle motifs).
//!
//! The main generator is a *conversation model*: traffic arrives as bursts
//! of consecutive edges between a Zipf-sampled node pair, optionally
//! reciprocated, and with a configurable probability a burst closes a
//! triangle with a recently active neighbouring pair. All randomness flows
//! from a caller-supplied seed, so every dataset is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};

use crate::builder::GraphBuilder;
use crate::graph::TemporalGraph;
use crate::types::{NodeId, TemporalEdge, Timestamp};

/// Configuration of the conversation-model generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of temporal edges to emit.
    pub edges: usize,
    /// Total time span; timestamps fall in `[0, time_span]`.
    pub time_span: Timestamp,
    /// Zipf exponent for node popularity (≈1.0 → extreme hubs like
    /// WikiTalk; ≥2 → nearly flat). Must be > 0.
    pub zipf_exponent: f64,
    /// Expected number of edges per conversation burst (≥ 1).
    pub mean_burst_len: f64,
    /// Probability that a burst edge reverses direction (reciprocity).
    pub reciprocate_prob: f64,
    /// Maximum gap between consecutive edges of a burst.
    pub burst_gap: Timestamp,
    /// Probability that a finished burst triggers a triangle-closing burst
    /// `(v, w)` where `u, v` was just active and `w` was recently active
    /// with `u`.
    pub triangle_prob: f64,
    /// Probability that a fresh conversation starts near recent activity
    /// instead of at a uniform time — temporal clustering, the property
    /// that populates δ windows with multi-neighbour activity (stars).
    pub time_cluster_prob: f64,
    /// RNG seed; identical configs produce identical graphs.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            nodes: 1_000,
            edges: 10_000,
            time_span: 1_000_000,
            zipf_exponent: 1.3,
            mean_burst_len: 2.0,
            reciprocate_prob: 0.3,
            burst_gap: 300,
            triangle_prob: 0.15,
            time_cluster_prob: 0.5,
            seed: 0xC0FFEE,
        }
    }
}

impl GenConfig {
    /// Generate the graph described by this configuration.
    ///
    /// # Panics
    /// Panics if `nodes == 0` with `edges > 0`, or on non-positive
    /// `zipf_exponent` / `mean_burst_len < 1`.
    #[must_use]
    pub fn generate(&self) -> TemporalGraph {
        assert!(
            self.edges == 0 || self.nodes >= 2,
            "need at least 2 nodes to place edges"
        );
        assert!(self.zipf_exponent > 0.0, "zipf_exponent must be positive");
        assert!(self.mean_burst_len >= 1.0, "mean_burst_len must be >= 1");

        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.nodes as u64, self.zipf_exponent).expect("valid Zipf parameters");
        // Zipf yields ranks in 1..=nodes; rank 1 = most popular. Use the
        // rank directly as the node id so hubs are the low ids.
        let sample_node = |rng: &mut StdRng| -> NodeId { (zipf.sample(rng) as u64 - 1) as NodeId };

        let mut b = GraphBuilder::with_capacity(self.edges);
        // Ring of recent conversations (pair + last activity time):
        // wedge closure and temporal clustering both draw from it.
        let mut recent: Vec<(NodeId, NodeId, Timestamp)> = Vec::with_capacity(64);
        let continue_p = 1.0 - 1.0 / self.mean_burst_len;
        let gap = self.burst_gap.max(1);

        let mut emitted = 0usize;
        while emitted < self.edges {
            // Pick the conversation pair and its start time. Real
            // communication graphs are clustered in time (active hours,
            // cascades): most conversations start near recent activity,
            // which is what puts stars and triangles inside δ windows.
            let mut start_t = None;
            let (u, v) = if !recent.is_empty() && rng.gen_bool(self.triangle_prob) {
                // Close a wedge: find a recent conversation sharing a node
                // with another *temporally close* one (both arms must sit
                // inside the same δ-scale window for a temporal triangle
                // to form); the closing burst starts right after the
                // later arm.
                let &(a, b1, t1) = &recent[rng.gen_range(0..recent.len())];
                let close = recent.iter().find(|&&(c, d, t2)| {
                    (t1 - t2).abs() <= gap
                        && (c == a || c == b1 || d == a || d == b1)
                        && !(c == a && d == b1)
                        && !(c == b1 && d == a)
                });
                match close {
                    Some(&(c, d, t2)) => {
                        // Identify the two non-shared endpoints.
                        let (x, y) = if c == a || c == b1 {
                            (if c == a { b1 } else { a }, d)
                        } else {
                            (if d == a { b1 } else { a }, c)
                        };
                        if x != y {
                            start_t = Some(t1.max(t2) + rng.gen_range(1..=gap));
                            (x, y)
                        } else {
                            let u = sample_node(&mut rng);
                            let mut v = sample_node(&mut rng);
                            while v == u {
                                v = sample_node(&mut rng);
                            }
                            (u, v)
                        }
                    }
                    None => {
                        let u = sample_node(&mut rng);
                        let mut v = sample_node(&mut rng);
                        while v == u {
                            v = sample_node(&mut rng);
                        }
                        (u, v)
                    }
                }
            } else {
                let u = sample_node(&mut rng);
                let mut v = sample_node(&mut rng);
                while v == u {
                    v = sample_node(&mut rng);
                }
                (u, v)
            };
            let mut t = start_t.unwrap_or_else(|| {
                if !recent.is_empty() && rng.gen_bool(self.time_cluster_prob) {
                    // Cluster near a recent conversation.
                    let &(_, _, tr) = &recent[rng.gen_range(0..recent.len())];
                    tr + rng.gen_range(1..=gap * 2)
                } else {
                    rng.gen_range(0..=self.time_span)
                }
            });

            // Emit the burst.
            loop {
                let (s, d) = if rng.gen_bool(self.reciprocate_prob) {
                    (v, u)
                } else {
                    (u, v)
                };
                b.add_edge(s, d, t.min(self.time_span));
                emitted += 1;
                if emitted >= self.edges || !rng.gen_bool(continue_p) {
                    break;
                }
                t += rng.gen_range(1..=gap);
            }

            if recent.len() == 64 {
                let idx = rng.gen_range(0..recent.len());
                recent.swap_remove(idx);
            }
            recent.push((u, v, t.min(self.time_span)));
        }

        b.build()
    }
}

/// Uniform-random temporal graph: `edges` edges between uniformly chosen
/// distinct node pairs at uniformly chosen times. The simplest workload;
/// used heavily by tests.
#[must_use]
pub fn erdos_renyi_temporal(
    nodes: usize,
    edges: usize,
    time_span: Timestamp,
    seed: u64,
) -> TemporalGraph {
    assert!(edges == 0 || nodes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(edges);
    for _ in 0..edges {
        let u = rng.gen_range(0..nodes) as NodeId;
        let mut v = rng.gen_range(0..nodes) as NodeId;
        while v == u {
            v = rng.gen_range(0..nodes) as NodeId;
        }
        b.add_edge(u, v, rng.gen_range(0..=time_span));
    }
    b.build()
}

/// A dense "hub burst" graph: one center node exchanging rapid-fire edges
/// with `spokes` neighbours plus some spoke↔spoke chatter. Stresses the
/// intra-node parallel path of HARE (one node dominating total work, as in
/// Fig. 9b).
#[must_use]
pub fn hub_burst(spokes: usize, events: usize, time_span: Timestamp, seed: u64) -> TemporalGraph {
    assert!(spokes >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(events);
    let center: NodeId = 0;
    for _ in 0..events {
        let spoke = rng.gen_range(1..=spokes) as NodeId;
        let t = rng.gen_range(0..=time_span);
        match rng.gen_range(0..10) {
            0..=5 => b.add_edge(center, spoke, t),
            6..=8 => b.add_edge(spoke, center, t),
            _ => {
                let mut other = rng.gen_range(1..=spokes) as NodeId;
                while other == spoke {
                    other = rng.gen_range(1..=spokes) as NodeId;
                }
                b.add_edge(spoke, other, t);
            }
        }
    }
    b.build()
}

/// The thread-scaling and out-of-core workload: `edges` hub-skewed,
/// bursty, triangle- and star-rich edges over `(edges / 40).max(64)`
/// nodes and a span of `4 · edges`. From 40 000 edges on it is large
/// enough that HARE runs its parallel scheduler, not its small-graph
/// fallback.
#[must_use]
pub fn scaling_workload(edges: usize) -> TemporalGraph {
    GenConfig {
        nodes: (edges / 40).max(64),
        edges,
        time_span: 4 * edges as Timestamp,
        zipf_exponent: 1.15,
        seed: 0x5CA1E,
        ..GenConfig::default()
    }
    .generate()
}

/// Reusable `proptest` strategies over temporal-graph inputs, shared by
/// the property and differential test suites across the workspace
/// (`tests/property_invariants.rs`, `tests/windowed_vs_batch.rs`).
///
/// All strategies deliberately favour *adversarial* shapes for counting
/// code: few nodes (dense multi-edges), narrow timestamp ranges (heavy
/// ties and bursts), and raw `(src, dst, t)` triples that may contain
/// self-loops and duplicates so ingestion policies get exercised too.
pub mod arb {
    use super::{NodeId, TemporalEdge, TemporalGraph, Timestamp};
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    /// Raw `(src, dst, t)` triples: up to `max_edges` edges over
    /// `max_nodes` nodes with timestamps in `0..max_t`. May contain
    /// self-loops and exact duplicates.
    pub fn raw_triples(
        max_nodes: u32,
        max_edges: usize,
        max_t: Timestamp,
    ) -> impl Strategy<Value = Vec<(NodeId, NodeId, Timestamp)>> {
        assert!(max_nodes >= 1 && max_edges >= 1 && max_t >= 1);
        prop::collection::vec((0..max_nodes, 0..max_nodes, 0..max_t), 0..max_edges)
    }

    /// Chronologically sorted edge lists (self-loops removed, ties kept
    /// in generation order) — the shape accepted by the in-order
    /// streaming counters.
    pub fn sorted_edges(
        max_nodes: u32,
        max_edges: usize,
        max_t: Timestamp,
    ) -> impl Strategy<Value = Vec<TemporalEdge>> {
        raw_triples(max_nodes, max_edges, max_t).prop_map(|mut triples| {
            triples.retain(|&(s, d, _)| s != d);
            triples.sort_by_key(|&(_, _, t)| t);
            triples
                .into_iter()
                .map(|(s, d, t)| TemporalEdge::new(s, d, t))
                .collect()
        })
    }

    /// Arbitrary small temporal multigraphs (self-loops dropped by the
    /// builder, heavy timestamp ties).
    pub fn graph(
        max_nodes: u32,
        max_edges: usize,
        max_t: Timestamp,
    ) -> impl Strategy<Value = TemporalGraph> {
        raw_triples(max_nodes, max_edges, max_t).prop_map(|triples| {
            let mut b = GraphBuilder::new();
            for (s, d, t) in triples {
                b.add_edge(s, d, t);
            }
            b.build()
        })
    }

    /// A `(delta, window)` pair with `delta <= window`, covering the
    /// degenerate `window == delta` case often.
    pub fn delta_window(
        max_delta: Timestamp,
        max_extra: Timestamp,
    ) -> impl Strategy<Value = (Timestamp, Timestamp)> {
        assert!(max_delta >= 1 && max_extra >= 1);
        (0..max_delta, 0..max_extra).prop_map(|(delta, extra)| (delta, delta + extra))
    }
}

/// Build the exact toy temporal graph of the paper's Fig. 1
/// (nodes: a=0, b=1, c=2, d=3, e=4; 12 temporal edges; δ=10s examples).
#[must_use]
pub fn paper_fig1_toy() -> TemporalGraph {
    TemporalGraph::from_edges(vec![
        TemporalEdge::new(4, 3, 1),  // e -> d @ 1s
        TemporalEdge::new(0, 2, 4),  // a -> c @ 4s
        TemporalEdge::new(4, 2, 6),  // e -> c @ 6s
        TemporalEdge::new(0, 2, 8),  // a -> c @ 8s
        TemporalEdge::new(3, 0, 9),  // d -> a @ 9s
        TemporalEdge::new(3, 2, 10), // d -> c @ 10s
        TemporalEdge::new(0, 1, 11), // a -> b @ 11s
        TemporalEdge::new(3, 4, 14), // d -> e @ 14s
        TemporalEdge::new(0, 2, 15), // a -> c @ 15s
        TemporalEdge::new(2, 3, 17), // c -> d @ 17s
        TemporalEdge::new(4, 3, 18), // e -> d @ 18s
        TemporalEdge::new(3, 4, 21), // d -> e @ 21s
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{top_k_degrees, GraphStats};

    #[test]
    fn conversation_model_hits_requested_size() {
        let g = GenConfig {
            nodes: 200,
            edges: 5_000,
            ..GenConfig::default()
        }
        .generate();
        assert_eq!(g.num_edges(), 5_000);
        assert!(g.num_nodes() <= 200);
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = GenConfig {
            nodes: 100,
            edges: 1_000,
            seed: 42,
            ..GenConfig::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            GenConfig {
                nodes: 100,
                edges: 1_000,
                seed,
                ..GenConfig::default()
            }
            .generate()
        };
        assert_ne!(mk(1).edges(), mk(2).edges());
    }

    #[test]
    fn zipf_skew_creates_hubs() {
        let g = GenConfig {
            nodes: 2_000,
            edges: 20_000,
            zipf_exponent: 1.05,
            seed: 7,
            ..GenConfig::default()
        }
        .generate();
        let top = top_k_degrees(&g, 10);
        let stats = GraphStats::compute(&g);
        // The top hub should be far above the mean degree.
        assert!(
            top[0] as f64 > 20.0 * stats.mean_degree,
            "top degree {} vs mean {}",
            top[0],
            stats.mean_degree
        );
    }

    #[test]
    fn bursts_create_pair_multiplicity() {
        let g = GenConfig {
            nodes: 500,
            edges: 10_000,
            mean_burst_len: 4.0,
            seed: 11,
            ..GenConfig::default()
        }
        .generate();
        // Multi-edges mean strictly fewer pairs than edges.
        assert!(g.pairs().num_pairs() < g.num_edges() * 7 / 10);
    }

    #[test]
    fn timestamps_within_span() {
        let cfg = GenConfig {
            nodes: 100,
            edges: 2_000,
            time_span: 5_000,
            seed: 3,
            ..GenConfig::default()
        };
        let g = cfg.generate();
        assert!(g.min_time().unwrap() >= 0);
        assert!(g.max_time().unwrap() <= 5_000);
    }

    #[test]
    fn erdos_renyi_shape() {
        let g = erdos_renyi_temporal(50, 500, 10_000, 1);
        assert_eq!(g.num_edges(), 500);
        assert!(g.num_nodes() <= 50);
        assert!(g.edges().iter().all(|e| !e.is_self_loop()));
    }

    #[test]
    fn hub_burst_has_dominant_center() {
        let g = hub_burst(100, 5_000, 100_000, 9);
        let d0 = g.degree(0);
        let dmax_rest = (1..g.num_nodes() as NodeId)
            .map(|u| g.degree(u))
            .max()
            .unwrap();
        assert!(d0 > 5 * dmax_rest, "center {d0} vs rest {dmax_rest}");
    }

    #[test]
    fn fig1_toy_matches_paper() {
        let g = paper_fig1_toy();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.time_span(), 20);
    }

    #[test]
    fn zero_edges_ok() {
        let g = GenConfig {
            nodes: 10,
            edges: 0,
            ..GenConfig::default()
        }
        .generate();
        assert_eq!(g.num_edges(), 0);
        let g = erdos_renyi_temporal(10, 0, 100, 1);
        assert_eq!(g.num_edges(), 0);
    }
}
