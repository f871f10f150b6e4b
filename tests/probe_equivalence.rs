//! Probe-seam determinism: every engine must produce results
//! bit-identical to its unprobed entry point, for both the zero-cost
//! [`NoopProbe`] and the wall-clock [`WallClockProbe`]. The probe only
//! *observes* phase boundaries — this battery pins that it can never
//! participate in them.

use hare::sample::{SampleConfig, SampledCounter};
use hare::stream_sample::{StreamSampleConfig, StreamingEstimator};
use hare::{
    count_motifs, count_motifs_ooc, count_motifs_ooc_probed, count_motifs_probed, Hare,
    InMemorySource, MotifCategory, NoopProbe, OocConfig, Phase, Probe, WallClockProbe,
};
use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy};

fn graphs() -> Vec<(temporal_graph::TemporalGraph, i64)> {
    vec![
        (paper_fig1_toy(), 10),
        (erdos_renyi_temporal(40, 900, 2_000, 11), 300),
        (hub_burst(30, 1_200, 9_000, 5), 700),
    ]
}

#[test]
fn fused_counts_are_probe_invariant() {
    for (g, delta) in graphs() {
        let want = count_motifs(&g, delta);
        let noop = count_motifs_probed(&g, delta, &NoopProbe);
        assert_eq!(noop.matrix, want.matrix);
        let timing = WallClockProbe::new();
        let timed = count_motifs_probed(&g, delta, &timing);
        assert_eq!(timed.matrix, want.matrix);
        assert_eq!(timed.star, want.star);
        assert_eq!(timed.pair, want.pair);
        assert_eq!(timed.tri, want.tri);
        // The timing probe actually saw the kernel's phases.
        let phases: Vec<Phase> = timing.snapshot().iter().map(|t| t.phase).collect();
        assert!(phases.contains(&Phase::Scan), "{phases:?}");
        assert!(phases.contains(&Phase::Fold), "{phases:?}");
    }
}

#[test]
fn hare_counts_are_probe_invariant() {
    for (g, delta) in graphs() {
        for threads in [1, 4] {
            let engine = Hare::with_threads(threads);
            let want = engine.count_all(&g, delta);
            let timing = WallClockProbe::new();
            let timed = engine.count_all_probed(&g, delta, &timing);
            assert_eq!(timed.matrix, want.matrix, "{threads} threads");
            assert!(timing.snapshot().iter().any(|t| t.phase == Phase::Scan));
            for only in [
                None,
                Some(MotifCategory::Pair),
                Some(MotifCategory::Star),
                Some(MotifCategory::Triangle),
            ] {
                let mx = engine.count_matrix(&g, delta, only);
                assert_eq!(
                    engine.count_matrix_probed(&g, delta, only, &NoopProbe),
                    mx,
                    "{only:?}"
                );
                assert_eq!(
                    engine.count_matrix_probed(&g, delta, only, &WallClockProbe::new()),
                    mx,
                    "{only:?}"
                );
            }
        }
    }
}

#[test]
fn sampled_estimates_are_probe_invariant() {
    for (g, delta) in graphs() {
        for (prob, threads) in [(0.4, 1), (0.4, 4), (1.0, 1)] {
            let counter = SampledCounter::new(SampleConfig {
                prob,
                threads,
                ..SampleConfig::default()
            });
            let want = counter.count(&g, delta);
            assert_eq!(counter.count_probed(&g, delta, &NoopProbe), want);
            let timing = WallClockProbe::new();
            assert_eq!(counter.count_probed(&g, delta, &timing), want);
            let phases: Vec<Phase> = timing.snapshot().iter().map(|t| t.phase).collect();
            assert!(phases.contains(&Phase::Scan), "{phases:?}");
            assert!(phases.contains(&Phase::Summarise), "{phases:?}");
        }
    }
}

#[test]
fn ooc_counts_are_probe_invariant() {
    for (g, delta) in graphs() {
        let src = InMemorySource::from_graph(&g);
        let full = g.num_edges() * hare::ooc::LANE_BYTES_PER_EDGE;
        for budget in [full / 5 + 1, 2 * full + 1] {
            let config = OocConfig::new(delta, budget);
            let (want, want_stats) = count_motifs_ooc(&src, config, 0).unwrap();
            let timing = WallClockProbe::new();
            let (timed, stats) = count_motifs_ooc_probed(&src, config, &timing).unwrap();
            assert_eq!(timed.matrix, want.matrix);
            assert_eq!(stats.chunks, want_stats.chunks);
            assert_eq!(
                stats.peak_resident_lane_bytes,
                want_stats.peak_resident_lane_bytes
            );
            let phases: Vec<Phase> = timing.snapshot().iter().map(|t| t.phase).collect();
            assert!(phases.contains(&Phase::ChunkLoad), "{phases:?}");
            assert!(phases.contains(&Phase::Scan), "{phases:?}");
        }
    }
}

#[test]
fn stream_ticks_are_probe_invariant() {
    let g = hub_burst(25, 2_000, 20_000, 13);
    // Tight budget so eviction (the Evict phase) actually engages.
    for budget in [1 << 12, 1 << 20] {
        let cfg = StreamSampleConfig::new(500, 5_000, budget);
        let mut plain = StreamingEstimator::new(cfg.clone());
        let mut probed = StreamingEstimator::new(cfg);
        let timing = WallClockProbe::new();
        for (i, e) in g.edges().iter().enumerate() {
            plain.push(e.src, e.dst, e.t).unwrap();
            probed.push_probed(e.src, e.dst, e.t, &timing).unwrap();
            if i % 500 == 0 {
                assert_eq!(probed.estimates_probed(&timing), plain.estimates(), "{i}");
            }
        }
        plain.flush();
        probed.flush_probed(&timing);
        assert_eq!(probed.estimates(), plain.estimates());
        assert!(timing
            .snapshot()
            .iter()
            .any(|t| t.phase == Phase::Summarise));
    }
}

#[test]
fn custom_probe_observes_without_perturbing() {
    // A third-party Probe implementation (count-only, no clock): the
    // seam is a public trait, not a closed enum of blessed impls.
    #[derive(Default)]
    struct CountingProbe(std::cell::Cell<u64>);
    impl Probe for CountingProbe {
        fn span<R>(&self, _phase: Phase, f: impl FnOnce() -> R) -> R {
            self.0.set(self.0.get() + 1);
            f()
        }
    }
    let (g, delta) = (paper_fig1_toy(), 10);
    let probe = CountingProbe::default();
    let counts = count_motifs_probed(&g, delta, &probe);
    assert_eq!(counts.matrix, count_motifs(&g, delta).matrix);
    assert!(probe.0.get() >= 2, "scan + fold spans expected");
}
