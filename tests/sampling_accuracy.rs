//! Accuracy validation of the sampling estimators: the interval-sampling
//! engine (`hare::sample`) and the baselines (BTS, EWS). Covers
//! exactness in the degenerate configurations, approximate unbiasedness
//! over seeds, error decreasing with the sampling budget, and the
//! statistical coverage of the confidence intervals.

use hare::sample::{SampleConfig, SampledCounter};
use hare_baselines::{bts::BtsConfig, ews::EwsConfig, EstimateMatrix};
use proptest::prelude::*;
use temporal_graph::gen::{arb, GenConfig};

fn workload(seed: u64) -> temporal_graph::TemporalGraph {
    GenConfig {
        nodes: 60,
        edges: 4_000,
        time_span: 80_000,
        mean_burst_len: 2.5,
        seed,
        ..GenConfig::default()
    }
    .generate()
}

#[test]
fn ews_with_p_one_is_exact_on_all_36_cells() {
    let g = workload(1);
    let delta = 800;
    let exact = hare::count_motifs(&g, delta);
    let est = hare_baselines::ews_estimate(
        &g,
        delta,
        &EwsConfig {
            edge_prob: 1.0,
            seed: 3,
        },
    );
    assert_eq!(est.mean_relative_error(&exact.matrix), 0.0);
}

#[test]
fn ews_error_decreases_with_sampling_probability() {
    let g = workload(2);
    let delta = 800;
    let exact = hare::count_motifs(&g, delta);
    let mean_err = |p: f64| -> f64 {
        let runs = 12;
        (0..runs)
            .map(|seed| {
                hare_baselines::ews_estimate(&g, delta, &EwsConfig { edge_prob: p, seed })
                    .mean_relative_error(&exact.matrix)
            })
            .sum::<f64>()
            / runs as f64
    };
    let coarse = mean_err(0.05);
    let fine = mean_err(0.5);
    assert!(
        fine < coarse,
        "error should shrink with p: p=0.05 -> {coarse:.3}, p=0.5 -> {fine:.3}"
    );
}

#[test]
fn bts_total_estimate_is_unbiased_over_seeds() {
    let g = workload(3);
    let delta = 500;
    let exact = hare::count_pair_motifs(&g, delta).total() as f64;
    assert!(exact > 50.0, "workload too sparse ({exact})");
    let runs = 40;
    let mean: f64 = (0..runs)
        .map(|seed| {
            hare_baselines::bts_pair_estimate(
                &g,
                delta,
                &BtsConfig {
                    window_factor: 8,
                    sample_prob: 0.6,
                    seed,
                },
            )
            .total()
        })
        .sum::<f64>()
        / runs as f64;
    let rel = (mean - exact).abs() / exact;
    assert!(
        rel < 0.25,
        "mean {mean:.1} vs exact {exact:.1} (rel {rel:.3})"
    );
}

#[test]
fn estimate_matrix_error_metric_behaves() {
    let g = workload(4);
    let delta = 500;
    let exact = hare::count_motifs(&g, delta);
    // A perfect estimate has zero error; a halved estimate has error 0.5
    // on every populated cell.
    let perfect = EstimateMatrix::from_exact(&exact.matrix);
    assert_eq!(perfect.mean_relative_error(&exact.matrix), 0.0);
    let mut halved = EstimateMatrix::default();
    for (m, n) in exact.matrix.iter() {
        halved.add(m, n as f64 / 2.0);
    }
    let err = halved.mean_relative_error(&exact.matrix);
    assert!((err - 0.5).abs() < 1e-9, "{err}");
}

#[test]
fn samplers_only_estimate_do_not_mutate_exact_path() {
    // Running samplers and exact counters interleaved gives stable exact
    // results (no hidden global state).
    let g = workload(5);
    let delta = 500;
    let before = hare::count_motifs(&g, delta);
    let _ = hare_baselines::ews_estimate(&g, delta, &EwsConfig::default());
    let _ = hare_baselines::bts_pair_estimate(&g, delta, &BtsConfig::default());
    let after = hare::count_motifs(&g, delta);
    assert_eq!(before.matrix, after.matrix);
}

// ---- interval-sampling estimator (hare::sample) ----

/// A moderately dense, mildly clustered workload where per-window motif
/// mass is spread across many windows — the regime where the estimator's
/// normal-approximation intervals are tight (docs/ESTIMATORS.md §4).
fn smooth_workload() -> temporal_graph::TemporalGraph {
    GenConfig {
        nodes: 60,
        edges: 4_000,
        time_span: 80_000,
        seed: 2,
        ..GenConfig::default()
    }
    .generate()
}

/// Statistical coverage: across ≥ 50 sampling seeds, the 95% confidence
/// intervals must cover the exact count for ≥ 90% of the motifs with a
/// non-zero exact count (aggregated over seed × motif pairs; coverage
/// correlates across motifs within one seed, so per-seed fractions swing
/// while the aggregate is stable). Fully deterministic: fixed workload,
/// fixed seed range.
#[test]
fn interval_sampling_ci_covers_exact_across_seeds() {
    let g = smooth_workload();
    let delta = 800;
    let exact = hare::count_motifs(&g, delta);
    let nonzero = exact.matrix.iter().filter(|&(_, n)| n > 0).count();
    assert!(nonzero >= 30, "workload too sparse ({nonzero} motifs)");

    let seeds = 60u64;
    let mut covered = 0usize;
    let mut cells = 0usize;
    for seed in 0..seeds {
        let est = SampledCounter::new(SampleConfig {
            prob: 0.5,
            window_factor: 4,
            confidence: 0.95,
            seed,
            threads: 1,
        })
        .count(&g, delta);
        for (m, n) in exact.matrix.iter() {
            if n > 0 {
                cells += 1;
                covered += usize::from(est.get(m).covers(n));
            }
        }
    }
    let rate = covered as f64 / cells as f64;
    assert!(
        rate >= 0.90,
        "95% CIs covered the exact count for only {:.1}% of {} seed x motif pairs",
        rate * 100.0,
        cells
    );
}

/// Point estimates must be unbiased: the mean estimate over many seeds
/// converges on the exact count, per motif category totals.
#[test]
fn interval_sampling_mean_estimate_converges_to_exact() {
    let g = smooth_workload();
    let delta = 800;
    let exact = hare::count_motifs(&g, delta).total() as f64;
    let runs = 50u64;
    let mean: f64 = (0..runs)
        .map(|seed| {
            SampledCounter::new(SampleConfig {
                prob: 0.3,
                window_factor: 4,
                seed,
                ..SampleConfig::default()
            })
            .count(&g, delta)
            .total_estimate()
        })
        .sum::<f64>()
        / runs as f64;
    let rel = (mean - exact).abs() / exact;
    assert!(
        rel < 0.1,
        "mean estimate {mean:.1} drifts from exact {exact:.1} (rel {rel:.3})"
    );
}

/// The sweep over the window keep probability `p` on CollegeMsg (δ =
/// 600, c = 10, 95% intervals, one worker): `p = 1` is bit-identical to
/// exact FAST and has zero error for every seed, and at every `p` the
/// mean over seeds of the covered fraction stays at or above 0.5. This
/// is a regression floor, not a quality bar: a broken variance estimate
/// or rescale drives coverage toward zero, while honest normal intervals
/// on this bursty workload sit around 0.6–0.9 at small `p` (window
/// counts are concentrated; docs/ESTIMATORS.md §4). Scale 8 sweeps `p`
/// ∈ {0.5, 1} over 8 seeds; the full graph sweeps seven values over 25.
#[test]
fn collegemsg_sweep_keeps_p_one_exact_and_coverage_above_half() {
    let spec = hare_datasets::by_name("CollegeMsg").unwrap();
    let delta = 600;
    let cfg = |prob: f64, seed: u64| SampleConfig {
        prob,
        window_factor: 10,
        confidence: 0.95,
        seed,
        threads: 1,
    };
    for (scale, probs, seeds) in [
        (8, &[0.5, 1.0][..], 8u64),
        (1, &[0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0][..], 25),
    ] {
        let g = spec.generate(scale);
        let exact = hare::count_motifs(&g, delta);
        for &prob in probs {
            let (mut rel_sum, mut cover_sum) = (0.0, 0.0);
            for seed in 0..seeds {
                let est = SampledCounter::new(cfg(prob, seed)).count(&g, delta);
                rel_sum += est.mean_relative_error(&exact.matrix);
                cover_sum += est.covered_fraction(&exact.matrix);
            }
            if prob >= 1.0 {
                assert_eq!(
                    SampledCounter::new(cfg(prob, 0x5EED))
                        .count(&g, delta)
                        .as_exact(),
                    Some(exact.matrix),
                    "CollegeMsg/{scale}: p = 1 must reproduce the exact counts"
                );
                assert_eq!(
                    rel_sum, 0.0,
                    "CollegeMsg/{scale}: p = 1 must have zero error"
                );
            }
            let coverage = cover_sum / seeds as f64;
            assert!(
                coverage >= 0.5,
                "CollegeMsg/{scale} p = {prob}: coverage {coverage:.3} below 0.5"
            );
        }
    }
}

proptest! {
    /// `p = 1.0` keeps every window, so the estimator must degenerate to
    /// the exact counts **bit for bit** on arbitrary graphs (timestamp
    /// ties, self-loop stripping, empty graphs, any δ and window factor).
    #[test]
    fn interval_sampling_p_one_is_exact_on_arbitrary_graphs(
        g in arb::graph(10, 60, 80),
        delta in 0i64..40,
        window_factor in 1i64..6,
        seed in 0u64..u64::MAX,
    ) {
        let exact = hare::count_motifs(&g, delta);
        let est = SampledCounter::new(SampleConfig {
            prob: 1.0,
            window_factor,
            seed,
            ..SampleConfig::default()
        })
        .count(&g, delta);
        prop_assert_eq!(est.as_exact(), Some(exact.matrix));
        for (m, e) in est.iter() {
            prop_assert_eq!(e.estimate, exact.get(m) as f64);
            prop_assert_eq!(e.stderr, 0.0);
        }
    }

    /// The window-parallel driver must be bit-identical to the
    /// sequential one-shot for any probability and thread count.
    #[test]
    fn interval_sampling_parallel_matches_sequential(
        g in arb::graph(12, 80, 100),
        prob_i in 0usize..4,
        threads in 2usize..5,
    ) {
        let prob = [0.2f64, 0.5, 0.9, 1.0][prob_i];
        let delta = 20;
        let base = SampleConfig {
            prob,
            window_factor: 3,
            seed: 11,
            ..SampleConfig::default()
        };
        let seq = SampledCounter::new(SampleConfig { threads: 1, ..base.clone() }).count(&g, delta);
        let par = SampledCounter::new(SampleConfig { threads, ..base }).count(&g, delta);
        prop_assert_eq!(seq, par);
    }
}
