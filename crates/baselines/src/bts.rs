//! BTS: interval-sampling approximation (Liu, Benson & Charikar,
//! *Sampling methods for counting temporal motifs*, WSDM 2019), with BT
//! as the exact subroutine — the paper's BTS-Pair baseline.
//!
//! The timeline is tiled by windows of length `L = c·δ` at a uniformly
//! random offset; each window is retained independently with probability
//! `q`; inside every retained window, instances fully contained in it are
//! counted **exactly** by the BT matcher. An instance with span `s` is
//! fully contained in some window with probability `1 − s/L` (over the
//! random offset), so weighting each counted instance by
//! `1 / (q · (1 − s/L))` yields an unbiased estimator of the true count.
//!
//! `c ≥ 2` keeps the weights bounded (`s ≤ δ < L`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hare::exec;
use hare::motif::{Motif, MotifCategory};
use temporal_graph::{GraphBuilder, TemporalGraph, Timestamp};

use crate::bt::{canonical_patterns, MotifPattern};
use crate::estimate::EstimateMatrix;

/// Configuration of the BTS sampler.
#[derive(Debug, Clone)]
pub struct BtsConfig {
    /// Window length as a multiple of δ (`c`; must be ≥ 2).
    pub window_factor: i64,
    /// Per-window retention probability (`q` in (0, 1]).
    pub sample_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BtsConfig {
    fn default() -> Self {
        BtsConfig {
            window_factor: 5,
            sample_prob: 0.3,
            seed: 0xB75,
        }
    }
}

/// Estimate pair-motif counts (BTS-Pair). Single-threaded.
#[must_use]
pub fn bts_pair_estimate(g: &TemporalGraph, delta: Timestamp, cfg: &BtsConfig) -> EstimateMatrix {
    bts_estimate_with(g, delta, cfg, 1, |m| m.category() == MotifCategory::Pair)
}

/// Estimate pair-motif counts on [`hare::exec::workers`]`(threads)`
/// threads (windows are independent — the natural parallel unit).
/// Window estimates are folded in window order, so results are
/// bit-identical across thread counts for a fixed seed.
#[must_use]
pub fn bts_pair_estimate_parallel(
    g: &TemporalGraph,
    delta: Timestamp,
    cfg: &BtsConfig,
    threads: usize,
) -> EstimateMatrix {
    bts_estimate_with(g, delta, cfg, threads, |m| {
        m.category() == MotifCategory::Pair
    })
}

/// Estimate counts for any motif subset selected by `select`.
#[must_use]
pub fn bts_estimate_with(
    g: &TemporalGraph,
    delta: Timestamp,
    cfg: &BtsConfig,
    threads: usize,
    select: impl Fn(&Motif) -> bool,
) -> EstimateMatrix {
    assert!(cfg.window_factor >= 2, "window_factor must be >= 2");
    assert!(
        cfg.sample_prob > 0.0 && cfg.sample_prob <= 1.0,
        "sample_prob must be in (0, 1]"
    );
    let (Some(min_t), Some(max_t)) = (g.min_time(), g.max_time()) else {
        return EstimateMatrix::default();
    };
    let len = cfg.window_factor.saturating_mul(delta.max(1));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let offset = rng.gen_range(0..len);

    // Windows [start, start + len) tiling [min_t, max_t], shifted left
    // by the random offset so the first window starts at or before min_t.
    let mut windows: Vec<Timestamp> = Vec::new();
    let mut start = min_t - offset;
    while start <= max_t {
        if rng.gen_bool(cfg.sample_prob) {
            windows.push(start);
        }
        start += len;
    }

    let patterns: Vec<(Motif, MotifPattern)> = canonical_patterns()
        .into_iter()
        .filter(|(m, _)| select(m))
        .collect();

    let parts = exec::map(threads, 0, windows, |w_start, _| {
        count_window(g, delta, w_start, len, cfg.sample_prob, &patterns)
    });
    let mut est = EstimateMatrix::default();
    for part in &parts {
        est.merge(part);
    }
    est
}

fn count_window(
    g: &TemporalGraph,
    delta: Timestamp,
    w_start: Timestamp,
    len: Timestamp,
    q: f64,
    patterns: &[(Motif, MotifPattern)],
) -> EstimateMatrix {
    let mut est = EstimateMatrix::default();
    let edges = g.edges();
    let lo = edges.partition_point(|e| e.t < w_start);
    let hi = edges.partition_point(|e| e.t < w_start + len);
    if hi - lo < 3 {
        return est;
    }
    // Materialise the window subgraph (ids compacted; chronological order
    // inside the window is preserved because the slice is already
    // time-sorted).
    let mut b = GraphBuilder::with_capacity(hi - lo).compact_ids(true);
    b.extend(edges[lo..hi].iter().copied());
    let sub = b.build();

    for (motif, pattern) in patterns {
        pattern.enumerate(&sub, delta, |ids| {
            let span = sub.edge(ids[ids.len() - 1]).t - sub.edge(ids[0]).t;
            let p_contained = 1.0 - span as f64 / len as f64;
            est.add(*motif, 1.0 / (q * p_contained));
        });
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use hare::motif::m;
    use temporal_graph::gen::GenConfig;

    fn pair_rich_graph(seed: u64) -> TemporalGraph {
        GenConfig {
            nodes: 50,
            edges: 4_000,
            time_span: 100_000,
            mean_burst_len: 3.0,
            seed,
            ..GenConfig::default()
        }
        .generate()
    }

    #[test]
    fn q_one_large_c_is_nearly_exact_in_expectation() {
        // With q=1 every window is counted; only boundary-crossing
        // instances are lost/overweighted, so averaging over many seeds
        // (offsets) approaches the exact count.
        let g = pair_rich_graph(1);
        let delta = 500;
        let exact = hare::count_pair_motifs(&g, delta);
        let runs = 30;
        let mut mean = 0.0;
        for seed in 0..runs {
            let est = bts_pair_estimate(
                &g,
                delta,
                &BtsConfig {
                    window_factor: 10,
                    sample_prob: 1.0,
                    seed,
                },
            );
            mean += est.total();
        }
        mean /= runs as f64;
        let exact_total = exact.total() as f64;
        assert!(exact_total > 50.0, "workload too sparse: {exact_total}");
        let rel = (mean - exact_total).abs() / exact_total;
        assert!(rel < 0.15, "mean {mean} vs exact {exact_total} (rel {rel})");
    }

    #[test]
    fn sampling_reduces_work_but_stays_in_ballpark() {
        let g = pair_rich_graph(2);
        let delta = 500;
        let exact = hare::count_pair_motifs(&g, delta).total() as f64;
        let mut mean = 0.0;
        let runs = 40;
        for seed in 0..runs {
            let est = bts_pair_estimate(
                &g,
                delta,
                &BtsConfig {
                    window_factor: 8,
                    sample_prob: 0.5,
                    seed: 1_000 + seed,
                },
            );
            mean += est.total();
        }
        mean /= runs as f64;
        let rel = (mean - exact).abs() / exact;
        assert!(rel < 0.3, "mean {mean} vs exact {exact} (rel {rel})");
    }

    #[test]
    fn only_pair_cells_populated() {
        let g = pair_rich_graph(3);
        let est = bts_pair_estimate(&g, 500, &BtsConfig::default());
        for (mo, v) in est.iter() {
            if mo.category() != MotifCategory::Pair {
                assert_eq!(v, 0.0, "{mo}");
            }
        }
        assert!(est.get(m(5, 5)) >= 0.0);
    }

    #[test]
    fn parallel_matches_sequential_given_same_seed() {
        let g = pair_rich_graph(4);
        let cfg = BtsConfig::default();
        let bits =
            |est: EstimateMatrix| -> Vec<u64> { est.iter().map(|(_, x)| x.to_bits()).collect() };
        let want = bits(bts_pair_estimate(&g, 500, &cfg));
        for threads in 1..=4 {
            let got = bits(bts_pair_estimate_parallel(&g, 500, &cfg, threads));
            assert_eq!(got, want, "{threads} threads");
        }
    }

    #[test]
    fn empty_graph_estimates_zero() {
        let g = TemporalGraph::from_edges(vec![]);
        let est = bts_pair_estimate(&g, 10, &BtsConfig::default());
        assert_eq!(est.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window_factor")]
    fn window_factor_must_be_at_least_two() {
        let g = pair_rich_graph(5);
        let _ = bts_pair_estimate(
            &g,
            500,
            &BtsConfig {
                window_factor: 1,
                ..BtsConfig::default()
            },
        );
    }
}
