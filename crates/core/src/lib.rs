//! # hare — scalable exact temporal motif counting
//!
//! A from-scratch Rust reproduction of **FAST/HARE** from Gao, Cheng, Yu,
//! Cao, Huang & Dong, *Scalable Motif Counting for Large-scale Temporal
//! Graphs* (ICDE 2022).
//!
//! Given a temporal graph and a time window δ, this crate exactly counts
//! all 36 canonical **2- and 3-node, 3-edge δ-temporal motifs** (Fig. 2 of
//! the paper): 4 *pair* motifs, 24 *star* motifs and 8 *triangle* motifs.
//!
//! ## Components
//!
//! * [`fused`] — the FAST kernel: one sliding δ-window scan per center
//!   node running Algorithm 1 (every star **and** pair motif, O(1) per
//!   first edge from per-neighbour window aggregates, so linear in the
//!   center's events) and Algorithm 2 (triangles via the per-pair edge
//!   index, δ-windowed by binary search). A compile-time category mask picks stars, triangles
//!   or both, and an orientation flag counts each triangle once (at its
//!   lowest-rank vertex, for whole-graph counts) or from all three
//!   vertices (for per-vertex attribution); every instantiation fills
//!   one [`CenterTally`].
//! * [`fast_pair`](crate::fast_pair::fast_pair) — the cheap pair-only
//!   variant (sliding-window DP, O(|E|)).
//! * [`Hare`] — the hierarchical parallel framework (§IV.C): dynamic
//!   inter-node scheduling for the long tail plus intra-node splitting
//!   for hub nodes above a degree threshold.
//! * [`exec`] — the executor under every parallel driver: one thread
//!   policy (requests clamped to the machine's cores) and one ordered
//!   task map on scoped std threads that hands each task its worker's
//!   scratch.
//! * [`windowed::WindowedCounter`] — exact counts over a sliding time
//!   window: edges expire, motif instances are retired with them, and a
//!   bounded reorder buffer absorbs slightly out-of-order arrivals. A
//!   window wider than the stream is the append-only counter.
//! * [`sample::SampledCounter`] — approximate counts by interval
//!   sampling: windows of the time axis are kept with probability `p`,
//!   counted exactly with the fused kernel, and rescaled into unbiased
//!   per-motif estimates with confidence intervals.
//! * [`stream_sample::StreamingEstimator`] — bounded-memory approximate
//!   counting on unbounded streams: a deterministic seeded interval
//!   reservoir under a hard byte budget, with per-tick unbiased
//!   estimates and confidence intervals; with a budget large enough to
//!   retain everything each tick is bit-identical to
//!   [`windowed::WindowedCounter`].
//! * [`ooc`] — out-of-core exact counting: δ-haloed time chunks of an
//!   [`ooc::EdgeSource`] (a graph in RAM or a bit-packed edge stream)
//!   are streamed through the fused kernel under a resident lane-byte
//!   budget, bit-identical to the in-RAM drivers.
//! * [`query`] — the one query layer both front-ends execute: a
//!   validated [`query::Plan`] per batch query (with its cache key and
//!   typed answer) and a [`query::Session`] per ingest stream.
//! * [`report`] — the canonical JSON wire schema, built in one place so
//!   `hare-count --json` and the `hare-serve` HTTP service emit
//!   byte-identical bodies for the same query.
//!
//! ## Quickstart
//!
//! ```
//! use hare::count_motifs;
//! use temporal_graph::gen::paper_fig1_toy;
//!
//! let graph = paper_fig1_toy(); // Fig. 1 of the paper
//! let counts = count_motifs(&graph, 10); // δ = 10 seconds
//! // The paper identifies one M65 pair instance at δ=10.
//! assert_eq!(counts.get(hare::motif::m(6, 5)), 1);
//! println!("{}", counts.matrix);
//! ```
//!
//! For multi-core counting use [`Hare`]:
//!
//! ```
//! use hare::Hare;
//! use temporal_graph::gen::erdos_renyi_temporal;
//!
//! let graph = erdos_renyi_temporal(100, 2_000, 10_000, 7);
//! let counts = Hare::with_threads(2).count_all(&graph, 500);
//! assert_eq!(counts.matrix, hare::count_motifs(&graph, 500).matrix);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod counters;
pub mod exec;
pub mod fast_pair;
pub mod fingerprint;
pub mod fused;
pub mod hare;
pub mod motif;
pub mod ooc;
pub mod query;
pub mod report;
pub mod sample;
pub mod scratch;
pub mod stream_sample;
pub mod windowed;

pub use counters::{CenterTally, MotifCounts, MotifMatrix, PairCounter, StarCounter, TriCounter};
pub use fingerprint::{
    node_profiles, rank_by_zscore, top_k_nodes, NodeProfile, NodeProfiles, ProfileDistribution,
};
pub use hare::{DegreeThreshold, Hare, HareConfig, Scheduling};
pub use hare_obs::{NoopProbe, Phase, Probe, WallClockProbe};
pub use motif::{Motif, MotifCategory, StarType, TriType};
pub use ooc::{
    count_motifs_ooc, count_motifs_ooc_probed, EdgeSource, InMemorySource, OocConfig, OocStats,
};
pub use sample::{MotifEstimate, SampleConfig, SampledCounter, SampledCounts};
pub use scratch::NeighborScratch;
pub use stream_sample::{StreamEstimates, StreamSampleConfig, StreamingEstimator};
pub use windowed::{StreamError, WindowedCounter};

use temporal_graph::{TemporalGraph, Timestamp};

/// Count all 36 motifs sequentially — the paper's single-threaded "FAST"
/// configuration, implemented as one fused star+pair+triangle scan per
/// node ([`fused::count_graph`]), oriented so each triangle instance is
/// counted once, at its lowest-rank vertex. Use [`Hare::count_all`] for
/// the parallel framework.
#[must_use]
pub fn count_motifs(g: &TemporalGraph, delta: Timestamp) -> MotifCounts {
    count_motifs_probed(g, delta, &NoopProbe)
}

/// [`count_motifs`] with a [`Probe`] observing the kernel's phase
/// boundaries ([`Phase::Scan`] / [`Phase::Fold`]). Counts are
/// bit-identical across probe implementations: the probe only wraps
/// phases, it never participates in them.
#[must_use]
pub fn count_motifs_probed<P: Probe>(
    g: &TemporalGraph,
    delta: Timestamp,
    probe: &P,
) -> MotifCounts {
    let tally = probe.span(Phase::Scan, || {
        fused::count_graph::<true, true, true>(g, delta)
    });
    probe.span(Phase::Fold, || tally.into_counts_oriented())
}

/// Count only the four pair motifs sequentially (the paper's "FAST-Pair")
/// and return their canonical grid.
#[must_use]
pub fn count_pair_motifs(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let pc = fast_pair::fast_pair(g, delta);
    let mut mx = MotifMatrix::default();
    pc.add_to_matrix_pair_based(&mut mx);
    mx
}

/// Count only the eight triangle motifs sequentially (the paper's
/// "FAST-Tri", oriented) and return their canonical grid.
#[must_use]
pub fn count_triangle_motifs(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let mut mx = MotifMatrix::default();
    fused::count_graph::<false, true, true>(g, delta)
        .tri
        .add_to_matrix_oriented(&mut mx);
    mx
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_graph::gen::paper_fig1_toy;

    #[test]
    fn toy_graph_has_documented_instances() {
        // §III names three instances at δ=10s: M63, M46 and M65. Verify
        // each canonical cell is populated.
        let counts = count_motifs(&paper_fig1_toy(), 10);
        assert!(counts.get(motif::m(6, 3)) >= 1, "M63 instance expected");
        assert!(counts.get(motif::m(4, 6)) >= 1, "M46 instance expected");
        assert_eq!(counts.get(motif::m(6, 5)), 1, "exactly one M65");
    }

    #[test]
    fn specialised_counters_agree_with_full_count() {
        let g = temporal_graph::gen::erdos_renyi_temporal(25, 500, 1_000, 3);
        let delta = 200;
        let full = count_motifs(&g, delta);
        let pair_only = count_pair_motifs(&g, delta);
        let tri_only = count_triangle_motifs(&g, delta);
        for mo in Motif::all() {
            match mo.category() {
                MotifCategory::Pair => assert_eq!(full.get(mo), pair_only.get(mo), "{mo}"),
                MotifCategory::Triangle => assert_eq!(full.get(mo), tri_only.get(mo), "{mo}"),
                MotifCategory::Star => {}
            }
        }
    }

    // The executor contract every parallel driver folds on: all tasks
    // run, results come back in task order, and empty input is empty.

    #[test]
    fn map_preserves_order_and_runs_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let out = exec::map(4, 0, (0..1000).collect(), |x: usize, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn chunked_reduce_matches_sequential() {
        let v: Vec<u64> = (1..=10_000).collect();
        let tasks: Vec<_> = exec::chunks(v.len(), 97).collect();
        let sums = exec::map(3, 0, tasks, |r, _| v[r].iter().sum::<u64>());
        assert_eq!(sums.len(), v.len().div_ceil(97));
        assert_eq!(sums.iter().sum::<u64>(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn empty_inputs() {
        for threads in [0, 1, 4] {
            let out: Vec<u32> = exec::map(threads, 0, Vec::<u32>::new(), |x, _| x);
            assert!(out.is_empty());
            assert_eq!(exec::chunks(0, 97).count(), 0);
        }
    }
}

// Algorithm 1 and Algorithm 2 cell checks, each on its own
// instantiation of the masked kernel.
#[cfg(test)]
#[path = "kernel_tests/fast_star.rs"]
mod fast_star;
#[cfg(test)]
#[path = "kernel_tests/fast_tri.rs"]
mod fast_tri;
// The rescanning kernel as an oracle for the sliding-window one.
#[cfg(test)]
#[path = "kernel_tests/rescan_oracle.rs"]
mod rescan_oracle;
