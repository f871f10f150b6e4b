//! Statistical differential battery for the bounded-memory streaming
//! estimator (`hare::stream_sample::StreamingEstimator`):
//!
//! 1. **Degeneracy** — with a budget large enough to retain everything,
//!    every per-push tick is bit-identical (after integer round-trip) to
//!    the exact sliding-window engine, on arbitrary streams with
//!    duplicate timestamps, self-loops, and slack-jittered arrivals.
//! 2. **Unbiasedness + coverage** — under a budget that forces sampling,
//!    the mean estimate over ≥ 50 seeds converges on the exact count and
//!    the 95% confidence intervals cover it for ≥ 90% of seed × motif
//!    pairs in aggregate.
//! 3. **Baseline agreement** — on batch prefixes of a stream, the
//!    estimator agrees with the EWS edge-sampling baseline (Wang et al.,
//!    CIKM 2020): exactly in the degenerate configurations, statistically
//!    when both sample.
//! 4. **Determinism** — fixed seed + fixed stream is bit-identical across
//!    replays and thread counts.
//! 5. **Budget compliance** — accounted retained bytes never exceed the
//!    budget at any tick, for any stream.

use hare::sample::MotifEstimate;
use hare::stream_sample::{StreamEstimates, StreamSampleConfig, StreamingEstimator, EDGE_BYTES};
use hare::windowed::WindowedCounter;
use hare::StreamError;
use hare_baselines::ews::EwsConfig;
use proptest::prelude::*;
use temporal_graph::gen::{arb, GenConfig};
use temporal_graph::{GraphBuilder, NodeId, Timestamp};

/// The coverage workload from `tests/sampling_accuracy.rs`: moderately
/// dense and mildly clustered, so per-window motif mass spreads across
/// many windows and the normal-approximation intervals are honest.
fn smooth_workload(seed: u64) -> temporal_graph::TemporalGraph {
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

/// Chronological arrival list of a generated graph.
fn arrivals_of(g: &temporal_graph::TemporalGraph) -> Vec<(NodeId, NodeId, Timestamp)> {
    let mut edges: Vec<(NodeId, NodeId, Timestamp)> =
        g.edges().iter().map(|e| (e.src, e.dst, e.t)).collect();
    edges.sort_by_key(|&(_, _, t)| t);
    edges
}

/// Assert that a (supposedly exact) estimate cell round-trips to `n`.
fn assert_exact_cell(m: hare::Motif, e: MotifEstimate, n: u64) {
    assert_eq!(e.estimate, n as f64, "{m}: exact-path estimate");
    assert_eq!(e.stderr, 0.0, "{m}: exact-path stderr");
    assert_eq!(e.ci_lo, n as f64, "{m}");
    assert_eq!(e.ci_hi, n as f64, "{m}");
}

// ---- 1. degeneracy: big budget == WindowedCounter, tick for tick ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Feed the same arrival sequence (duplicate timestamps, self-loops,
    /// slack-jittered ordering) to the exact windowed engine and to the
    /// estimator with a budget that retains everything. Acceptance
    /// decisions and every per-push tick must agree bit for bit.
    #[test]
    fn big_budget_ticks_are_bit_identical_to_windowed(
        triples in arb::raw_triples(8, 50, 60),
        (delta, window) in arb::delta_window(40, 50),
        slack in 0i64..12,
    ) {
        let mut wc = WindowedCounter::with_slack(delta, window, slack);
        let mut est = StreamingEstimator::new(StreamSampleConfig {
            slack,
            ..StreamSampleConfig::new(delta, window, 1 << 30)
        });
        for &(s, d, t) in &triples {
            let a = wc.push(s, d, t);
            let b = est.push(s, d, t);
            prop_assert_eq!(&a, &b);
            if matches!(a, Err(StreamError::SelfLoop)) {
                prop_assert_eq!(s, d);
            }
            let tick = est.estimates();
            prop_assert_eq!(tick.prob, 1.0);
            prop_assert_eq!(tick.as_exact(), Some(wc.counts()));
            for (m, n) in wc.counts().iter() {
                let cell = tick.get(m);
                prop_assert_eq!(cell.estimate, n as f64);
                prop_assert_eq!(cell.stderr, 0.0);
            }
        }
        wc.flush();
        est.flush();
        prop_assert_eq!(est.estimates().as_exact(), Some(wc.counts()));
    }
}

// ---- 2. unbiasedness and CI coverage under a forcing budget ----

#[test]
fn estimates_are_unbiased_over_seeds_under_budget() {
    let g = smooth_workload(7);
    let delta = 300;
    let window = 80_000;
    let exact = {
        let mut wc = WindowedCounter::new(delta, window);
        for (s, d, t) in arrivals_of(&g) {
            wc.push(s, d, t).unwrap();
        }
        wc.flush();
        wc.counts().total() as f64
    };
    assert!(exact > 1_000.0, "workload too sparse ({exact})");

    let runs = 50u64;
    let mut genuine = 0u32;
    let mean: f64 = (0..runs)
        .map(|seed| {
            let mut est = StreamingEstimator::new(StreamSampleConfig {
                window_factor: 4,
                seed,
                ..StreamSampleConfig::new(delta, window, 600 * EDGE_BYTES)
            });
            for (s, d, t) in arrivals_of(&g) {
                est.push(s, d, t).unwrap();
            }
            est.flush();
            let tick = est.estimates();
            // Sampling now happens in three tiers: a halved coin-tier
            // `p`, a raised summary threshold `τ`, or epoch folding of
            // summary mass — any of them means the estimate is no
            // longer trivially exact.
            genuine += u32::from(
                tick.prob < 1.0 || est.summary_threshold() > 1.0 || est.folded_epochs() > 0,
            );
            assert_eq!(tick.as_exact(), None, "budget must bind for this test");
            tick.total_estimate()
        })
        .sum::<f64>()
        / runs as f64;
    assert_eq!(
        genuine, runs as u32,
        "budget never forced sampling; the test is vacuous"
    );
    let rel = (mean - exact).abs() / exact;
    assert!(
        rel < 0.1,
        "mean estimate {mean:.1} drifts from exact {exact:.1} (rel {rel:.3})"
    );
}

#[test]
fn ci_coverage_is_at_least_90_percent_in_aggregate() {
    let g = smooth_workload(11);
    let delta = 300;
    let window = 80_000;
    let exact = {
        let mut wc = WindowedCounter::new(delta, window);
        for (s, d, t) in arrivals_of(&g) {
            wc.push(s, d, t).unwrap();
        }
        wc.flush();
        wc.counts()
    };
    let nonzero = exact.iter().filter(|&(_, n)| n > 0).count();
    assert!(nonzero >= 25, "workload too sparse ({nonzero} motifs)");

    let seeds = 50u64;
    let (mut covered, mut cells) = (0usize, 0usize);
    let mut sampled_runs = 0u32;
    for seed in 0..seeds {
        let mut est = StreamingEstimator::new(StreamSampleConfig {
            window_factor: 4,
            seed,
            ..StreamSampleConfig::new(delta, window, 600 * EDGE_BYTES)
        });
        for (s, d, t) in arrivals_of(&g) {
            est.push(s, d, t).unwrap();
        }
        est.flush();
        let tick = est.estimates();
        sampled_runs +=
            u32::from(tick.prob < 1.0 || est.summary_threshold() > 1.0 || est.folded_epochs() > 0);
        for (m, n) in exact.iter() {
            if n > 0 {
                cells += 1;
                covered += usize::from(tick.get(m).covers(n));
            }
        }
    }
    assert_eq!(sampled_runs, seeds as u32, "every run must actually sample");
    let rate = covered as f64 / cells as f64;
    assert!(
        rate >= 0.90,
        "95% CIs covered the exact count for only {:.1}% of {} seed x motif pairs",
        rate * 100.0,
        cells
    );
}

/// Minimum exact count for a motif to enter the supported coverage of
/// [`collegemsg_budget_ladder`]: below it the 95% normal interval is not
/// claimed. A count-1 motif at p = 1/8 is estimated as 0 seven times in
/// eight, so no unbiased sampler's interval can cover it 95% of the time.
const SUPPORT: u64 = 30;

/// Replay `arrivals` through one estimator, asserting its accounted
/// retained bytes after every push and at the flush; the final tick.
fn replay_within_budget(
    arrivals: &[(NodeId, NodeId, Timestamp)],
    cfg: StreamSampleConfig,
) -> StreamEstimates {
    let budget = cfg.budget_bytes;
    let mut est = StreamingEstimator::new(cfg);
    for &(s, d, t) in arrivals {
        est.push(s, d, t).unwrap();
        let retained = est.retained_bytes();
        assert!(retained <= budget, "{retained} > {budget} bytes at t = {t}");
    }
    est.flush();
    assert!(est.retained_bytes() <= budget, "over budget at flush");
    est.estimates()
}

/// The final ticks of seeds `0..seeds`, in seed order, replayed on every
/// core.
fn replay_seeds(
    arrivals: &[(NodeId, NodeId, Timestamp)],
    seeds: u64,
    cfg: impl Fn(u64) -> StreamSampleConfig + Sync,
) -> Vec<StreamEstimates> {
    hare::exec::map(0, 0, (0..seeds).collect(), |seed, _| {
        replay_within_budget(arrivals, cfg(seed))
    })
}

/// The budget ladder on CollegeMsg at full size: δ = 600, c = 8, 95%
/// intervals, a window longer than the stream (nothing expires, so the
/// final tick is comparable to the batch count), and budgets of 1/1,
/// 1/2, 1/8 and 1/32 of the full retained footprint.
///
/// * Every replay stays within its budget after every push and at the
///   flush: seeds 0..50 at 1/1 and 1/8, seeds 0..8 at 1/2 and 1/32.
/// * The whole footprint never samples: `p = 1` and the exact counts.
/// * At 1/8 the intervals are honest and the estimate unbiased: the
///   supported coverage (motifs with exact count ≥ [`SUPPORT`]) is at
///   least 0.5 over seeds 0..8 and 0.90 over seeds 0..50, and the mean
///   total drifts less than 15% from exact over either seed range.
/// * At 1/8 the coin tier samples (`p < 1`), and over seeds 0..50 the
///   mean reported variance of the supported motifs lies within a factor
///   of 2 of the variance of their estimates across seeds.
#[test]
fn collegemsg_budget_ladder() {
    let g = hare_datasets::by_name("CollegeMsg").unwrap().generate(1);
    let arrivals = arrivals_of(&g);
    let delta = 600;
    let window: Timestamp = g.time_span().max(delta) + delta;
    let footprint = arrivals.len() as u64 * EDGE_BYTES;
    let exact = {
        let mut wc = WindowedCounter::new(delta, window);
        for &(s, d, t) in &arrivals {
            wc.push(s, d, t).unwrap();
        }
        wc.flush();
        wc.counts()
    };
    let exact_total = exact.total() as f64;
    for (frac, seeds) in [(1, 50), (2, 8), (8, 50), (32, 8)] {
        let budget = (footprint / frac).max(EDGE_BYTES);
        let cfg = |seed| StreamSampleConfig {
            window_factor: 8,
            confidence: 0.95,
            seed,
            ..StreamSampleConfig::new(delta, window, budget)
        };
        let reference = replay_within_budget(&arrivals, cfg(0x5EED));
        let ticks = replay_seeds(&arrivals, seeds, cfg);
        if frac == 1 {
            assert_eq!(reference.prob, 1.0, "the whole footprint must never sample");
            for tick in std::iter::once(&reference).chain(&ticks) {
                assert_eq!(tick.as_exact(), Some(exact));
            }
        }
        if frac == 8 {
            for ticks in [&ticks[..8], &ticks[..]] {
                let (mut covered, mut cells) = (0u64, 0u64);
                for tick in ticks {
                    for (m, n) in exact.iter().filter(|&(_, n)| n >= SUPPORT) {
                        cells += 1;
                        covered += u64::from(tick.get(m).covers(n));
                    }
                }
                let coverage = covered as f64 / cells as f64;
                let floor = if ticks.len() == 8 { 0.5 } else { 0.90 };
                assert!(
                    coverage >= floor,
                    "1/8 budget, {} seeds: supported coverage {coverage:.3} below {floor}",
                    ticks.len()
                );
                let mean_total = ticks
                    .iter()
                    .map(StreamEstimates::total_estimate)
                    .sum::<f64>()
                    / ticks.len() as f64;
                let drift = (mean_total - exact_total).abs() / exact_total;
                assert!(
                    drift < 0.15,
                    "1/8 budget, {} seeds: mean total {mean_total:.1} drifts {drift:.3} from {exact_total}",
                    ticks.len()
                );
            }
            // The reported variance matches the spread of the estimates
            // over the seeds. Coverage alone cannot show it: the exact
            // tiers and the deterministic widenings cover most cells with
            // no variance at all.
            assert!(
                ticks.iter().all(|t| t.prob < 1.0),
                "the coin tier must sample"
            );
            let (mut reported, mut spread) = (0.0, 0.0);
            for (m, _) in exact.iter().filter(|&(_, n)| n >= SUPPORT) {
                let n = ticks.len() as f64;
                let mean = ticks.iter().map(|t| t.get(m).estimate).sum::<f64>() / n;
                spread += ticks
                    .iter()
                    .map(|t| (t.get(m).estimate - mean).powi(2))
                    .sum::<f64>()
                    / (n - 1.0);
                reported += ticks.iter().map(|t| t.get(m).stderr.powi(2)).sum::<f64>() / n;
            }
            let ratio = reported / spread;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "1/8 budget: mean reported variance is {ratio:.3} x the variance over seeds"
            );
        }
    }
}

// ---- 3. agreement with the revived EWS baseline on batch prefixes ----

/// Exact regime: for growing prefixes of a stream, the estimator with a
/// roomy budget and EWS with `p = 1` are both exact — so they must agree
/// cell for cell (the estimator after integer round-trip).
#[test]
fn degenerate_estimator_matches_degenerate_ews_on_prefixes() {
    let g = smooth_workload(13);
    let delta = 500;
    let arrivals = arrivals_of(&g);
    let window: Timestamp = 1 << 40; // never expire: prefix == batch
    for frac in [4, 2, 1] {
        let prefix = &arrivals[..arrivals.len() / frac];
        let mut est = StreamingEstimator::new(StreamSampleConfig::new(delta, window, 1 << 30));
        let mut b = GraphBuilder::new();
        for &(s, d, t) in prefix {
            est.push(s, d, t).unwrap();
            b.add_edge(s, d, t);
        }
        est.flush();
        let tick = est.estimates();
        let batch = b.build();
        let ews = hare_baselines::ews_estimate(
            &batch,
            delta,
            &EwsConfig {
                edge_prob: 1.0,
                seed: 5,
            },
        );
        let exact = hare::count_motifs(&batch, delta);
        assert_eq!(
            ews.mean_relative_error(&exact.matrix),
            0.0,
            "EWS p=1 must be exact"
        );
        for (m, n) in exact.matrix.iter() {
            assert_exact_cell(m, tick.get(m), n);
        }
    }
}

/// Sampling regime: both estimators are unbiased, so their seed-means on
/// the same batch must land near the same exact total — tying the new
/// streaming estimator to the established baseline statistically, not
/// just through the shared exact kernel.
#[test]
fn sampling_estimator_and_ews_agree_statistically() {
    let g = smooth_workload(17);
    let delta = 300;
    let window: Timestamp = 1 << 40;
    let exact = hare::count_motifs(&g, delta).total() as f64;
    let runs = 40u64;

    let stream_mean: f64 = (0..runs)
        .map(|seed| {
            // 2 400 retained edges of the 4 000-edge stream: the adaptive
            // probability settles at 0.5, matching the EWS run below so
            // the two means carry comparable variance.
            let mut est = StreamingEstimator::new(StreamSampleConfig {
                window_factor: 4,
                seed,
                ..StreamSampleConfig::new(delta, window, 2_400 * EDGE_BYTES)
            });
            for (s, d, t) in arrivals_of(&g) {
                est.push(s, d, t).unwrap();
            }
            est.flush();
            est.estimates().total_estimate()
        })
        .sum::<f64>()
        / runs as f64;
    let ews_mean: f64 = (0..runs)
        .map(|seed| {
            hare_baselines::ews_estimate(
                &g,
                delta,
                &EwsConfig {
                    edge_prob: 0.5,
                    seed,
                },
            )
            .total()
        })
        .sum::<f64>()
        / runs as f64;

    for (name, mean) in [("stream", stream_mean), ("ews", ews_mean)] {
        let rel = (mean - exact).abs() / exact;
        assert!(
            rel < 0.1,
            "{name} mean {mean:.1} drifts from exact {exact:.1} (rel {rel:.3})"
        );
    }
    let gap = (stream_mean - ews_mean).abs() / exact;
    assert!(
        gap < 0.15,
        "estimators disagree: stream {stream_mean:.1} vs ews {ews_mean:.1} (gap {gap:.3})"
    );
}

// ---- 4. determinism across replays and thread counts ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed + same stream → bit-identical ticks, regardless of the
    /// kernel thread count and across independent replays.
    #[test]
    fn same_seed_and_stream_is_bit_identical_across_threads(
        triples in arb::raw_triples(10, 60, 40),
        (delta, window) in arb::delta_window(20, 30),
        seed in 0u64..u64::MAX,
    ) {
        let run = |threads: usize| {
            let mut est = StreamingEstimator::new(StreamSampleConfig {
                seed,
                threads,
                // A tight budget so the sampled (p < 1) path is exercised
                // whenever the stream is dense enough.
                ..StreamSampleConfig::new(delta, window, 8 * EDGE_BYTES)
            });
            let mut ticks = Vec::new();
            for &(s, d, t) in &triples {
                let _ = est.push(s, d, t);
                ticks.push(est.estimates());
            }
            est.flush();
            ticks.push(est.estimates());
            ticks
        };
        let base = run(1);
        prop_assert_eq!(&base, &run(1));
        prop_assert_eq!(&base, &run(3));
    }
}

// ---- 5. the budget is a hard ceiling at every tick ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Accounted retained bytes never exceed the budget after any push,
    /// advance, or flush — the RSS proxy the CLI/daemon budget promises.
    #[test]
    fn retained_bytes_never_exceed_budget(
        triples in arb::raw_triples(10, 80, 60),
        (delta, window) in arb::delta_window(30, 40),
        budget_edges in 1u64..24,
    ) {
        let budget = budget_edges * EDGE_BYTES;
        let mut est = StreamingEstimator::new(
            StreamSampleConfig::new(delta, window, budget),
        );
        for &(s, d, t) in &triples {
            let _ = est.push(s, d, t);
            prop_assert!(
                est.retained_bytes() <= budget,
                "after push: {} > {}", est.retained_bytes(), budget
            );
            prop_assert_eq!(
                est.retained_bytes(),
                est.retained_edges() as u64 * EDGE_BYTES
            );
        }
        est.flush();
        prop_assert!(est.retained_bytes() <= budget);
    }
}
