//! EWS: edge/wedge sampling approximation (Wang et al., *Efficient
//! sampling algorithms for approximate temporal motif counting*,
//! CIKM 2020).
//!
//! Every motif instance is *owned* by its chronologically first edge.
//! EWS samples edges independently with probability `p`, exactly
//! enumerates the instances owned by each sampled edge (the local wedge
//! completion; the paper's evaluation sets the wedge sub-sampling `q = 1`,
//! which we follow), and scales each found instance by `1/p`. Since each
//! instance has exactly one owner, the estimator is unbiased:
//! `E[count/p] = Σ_i Pr[owner sampled]/p = Σ_i 1`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hare::exec;
use temporal_graph::{EdgeId, TemporalGraph, Timestamp};

use crate::enumerate::enumerate_from_first_edge;
use crate::estimate::EstimateMatrix;

/// Configuration of the EWS sampler.
#[derive(Debug, Clone)]
pub struct EwsConfig {
    /// Edge sampling probability `p` in (0, 1].
    pub edge_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EwsConfig {
    fn default() -> Self {
        EwsConfig {
            edge_prob: 0.01,
            seed: 0xE35,
        }
    }
}

/// Estimate all 36 motif counts by edge sampling. Single-threaded.
#[must_use]
pub fn ews_estimate(g: &TemporalGraph, delta: Timestamp, cfg: &EwsConfig) -> EstimateMatrix {
    ews_estimate_parallel(g, delta, cfg, 1)
}

/// Estimate all 36 motif counts on [`hare::exec::workers`]`(threads)`
/// threads. Sampling decisions are drawn once up front, the sampled
/// edges are cut into chunks that do not depend on `threads`, and the
/// chunk estimates are folded in chunk order, so results are
/// bit-identical across thread counts for a fixed seed.
#[must_use]
pub fn ews_estimate_parallel(
    g: &TemporalGraph,
    delta: Timestamp,
    cfg: &EwsConfig,
    threads: usize,
) -> EstimateMatrix {
    assert!(
        cfg.edge_prob > 0.0 && cfg.edge_prob <= 1.0,
        "edge_prob must be in (0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let sampled: Vec<EdgeId> = (0..g.num_edges() as EdgeId)
        .filter(|_| rng.gen_bool(cfg.edge_prob))
        .collect();
    let weight = 1.0 / cfg.edge_prob;

    let chunks = sampled.chunks(64.max(sampled.len() / 256 + 1)).collect();
    let parts = exec::map(threads, 0, chunks, |chunk: &[EdgeId], _| {
        let mut est = EstimateMatrix::default();
        for &first in chunk {
            enumerate_from_first_edge(g, delta, first, &mut |_, _, _, m| {
                est.add(m, weight);
            });
        }
        est
    });
    let mut est = EstimateMatrix::default();
    for part in &parts {
        est.merge(part);
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_graph::gen::GenConfig;

    fn workload(seed: u64) -> TemporalGraph {
        GenConfig {
            nodes: 60,
            edges: 3_000,
            time_span: 60_000,
            seed,
            ..GenConfig::default()
        }
        .generate()
    }

    #[test]
    fn p_one_is_exact() {
        let g = workload(1);
        let delta = 600;
        let exact = hare::count_motifs(&g, delta);
        let est = ews_estimate(
            &g,
            delta,
            &EwsConfig {
                edge_prob: 1.0,
                seed: 0,
            },
        );
        for (mo, n) in exact.matrix.iter() {
            assert!((est.get(mo) - n as f64).abs() < 1e-9, "{mo}");
        }
    }

    #[test]
    fn estimator_is_unbiased_across_seeds() {
        let g = workload(2);
        let delta = 600;
        let exact = hare::count_motifs(&g, delta).total() as f64;
        assert!(exact > 100.0, "workload too sparse: {exact}");
        let runs = 40;
        let mut mean = 0.0;
        for seed in 0..runs {
            mean += ews_estimate(
                &g,
                delta,
                &EwsConfig {
                    edge_prob: 0.3,
                    seed,
                },
            )
            .total();
        }
        mean /= runs as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.2, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn parallel_matches_sequential_for_fixed_seed() {
        let g = workload(3);
        let cfg = EwsConfig {
            edge_prob: 0.5,
            seed: 9,
        };
        let bits =
            |est: EstimateMatrix| -> Vec<u64> { est.iter().map(|(_, x)| x.to_bits()).collect() };
        let want = bits(ews_estimate(&g, 600, &cfg));
        for threads in 1..=4 {
            let got = bits(ews_estimate_parallel(&g, 600, &cfg, threads));
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraph::from_edges(vec![]);
        assert_eq!(ews_estimate(&g, 10, &EwsConfig::default()).total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "edge_prob")]
    fn zero_probability_rejected() {
        let g = workload(4);
        let _ = ews_estimate(
            &g,
            10,
            &EwsConfig {
                edge_prob: 0.0,
                seed: 0,
            },
        );
    }
}
