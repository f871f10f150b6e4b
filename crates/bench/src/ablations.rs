//! Alternative implementations of FAST's design choices, used by the
//! `ablations` and `windowed_streaming` criterion benches to quantify
//! each choice:
//!
//! * [`fast_star_hashmap`] — Algorithm 1 with literal `HashMap`s for
//!   `m_in`/`m_out` (the paper's pseudocode) instead of the stamped
//!   scratch array.
//! * [`fast_tri_linear`] — Algorithm 2 scanning each pair list from the
//!   start instead of binary-searching the δ window (the paper's
//!   "implementation trick" disabled, letting `ξ` grow to the full list
//!   length).
//! * [`stream_windowed`] vs [`stream_append_only`] — the eviction-cost
//!   ablation for the sliding-window engine: the same chronological
//!   stream through `WindowedCounter` (arrival counting **plus**
//!   first-edge retirement at expiry) and through the same counter with
//!   a window no stream outlasts (arrival counting only, nothing ever
//!   retires). Their runtime gap is
//!   the price of exact expiry; shrinking `window` towards `delta`
//!   raises eviction churn without changing arrival cost.
//!
//! All are exact (asserted by tests) — only their constants differ.

use hare::counters::{MotifMatrix, PairCounter, StarCounter, TriCounter};
use hare::motif::{StarType, TriType};
use hare::windowed::WindowedCounter;
use temporal_graph::util::FxHashMap;
use temporal_graph::{Dir, NodeId, TemporalGraph, Timestamp};

/// FAST-Star with per-iteration `HashMap` second-edge accounting
/// (ablation of the stamped scratch array).
#[must_use]
pub fn fast_star_hashmap(g: &TemporalGraph, delta: Timestamp) -> (StarCounter, PairCounter) {
    let mut star = StarCounter::default();
    let mut pair = PairCounter::default();
    let mut counts: FxHashMap<NodeId, [u64; 2]> = FxHashMap::default();
    for u in g.node_ids() {
        let s = g.node_events(u);
        for i in 0..s.len() {
            let e1 = s.get(i);
            counts.clear();
            let mut n = [0u64; 2];
            for e3 in s.slice(i + 1..s.len()) {
                if e3.t - e1.t > delta {
                    break;
                }
                let (d1, d3) = (e1.dir, e3.dir);
                if e3.other == e1.other {
                    let cnt = counts.get(&e1.other).copied().unwrap_or_default();
                    for d2 in Dir::BOTH {
                        pair.add(d1, d2, d3, cnt[d2.index()]);
                        star.add(StarType::II, d1, d2, d3, n[d2.index()] - cnt[d2.index()]);
                    }
                } else {
                    let cw = counts.get(&e3.other).copied().unwrap_or_default();
                    let cv = counts.get(&e1.other).copied().unwrap_or_default();
                    for d2 in Dir::BOTH {
                        star.add(StarType::I, d1, d2, d3, cw[d2.index()]);
                        star.add(StarType::III, d1, d2, d3, cv[d2.index()]);
                    }
                }
                counts.entry(e3.other).or_default()[e3.dir.index()] += 1;
                n[e3.dir.index()] += 1;
            }
        }
    }
    (star, pair)
}

/// FAST-Tri scanning pair lists linearly from the beginning (ablation of
/// the δ-window binary search).
#[must_use]
pub fn fast_tri_linear(g: &TemporalGraph, delta: Timestamp) -> TriCounter {
    let mut tri = TriCounter::default();
    for u in g.node_ids() {
        let s = g.node_events(u);
        for i in 0..s.len() {
            let ei = s.get(i);
            for ej in s.slice(i + 1..s.len()) {
                if ej.t - ei.t > delta {
                    break;
                }
                if ej.other == ei.other {
                    continue;
                }
                let (v, w) = (ei.other, ej.other);
                let v_is_lo = v < w;
                for p in g.pair_events(v, w) {
                    if p.t > ei.t + delta {
                        break;
                    }
                    if p.t < ej.t - delta {
                        continue; // linear skip instead of binary search
                    }
                    let dk = p.dir_from(v_is_lo);
                    let ty = if (p.t, p.edge) < (ei.t, ei.edge) {
                        TriType::I
                    } else if (p.t, p.edge) < (ej.t, ej.edge) {
                        TriType::II
                    } else {
                        TriType::III
                    };
                    tri.add(ty, ei.dir, ej.dir, dk, 1);
                }
            }
        }
    }
    tri
}

/// Drive a whole graph's chronological edge stream through the
/// sliding-window engine and return the final live-window counts. The
/// eviction work (retire-at-expiry) scales with how often edges fall out
/// of `window`, which is what the ablation varies.
#[must_use]
pub fn stream_windowed(
    g: &TemporalGraph,
    delta: Timestamp,
    window: Timestamp,
    slack: Timestamp,
) -> MotifMatrix {
    let mut wc = WindowedCounter::with_slack(delta, window, slack);
    for e in g.edges() {
        wc.push(e.src, e.dst, e.t).expect("chronological stream");
    }
    wc.flush();
    wc.counts()
}

/// The no-eviction baseline: the same stream through the windowed
/// counter at a window no stream outlasts (full-history counts, no
/// retirement work).
#[must_use]
pub fn stream_append_only(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    stream_windowed(g, delta, Timestamp::MAX / 2, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_graph::gen::{erdos_renyi_temporal, GenConfig};

    #[test]
    fn hashmap_variant_is_exact() {
        let g = erdos_renyi_temporal(30, 800, 2_000, 11);
        let delta = 300;
        let (star_a, pair_a) = fast_star_hashmap(&g, delta);
        let b = hare::fused::count_graph::<true, false, false>(&g, delta);
        assert_eq!(star_a, b.star);
        assert_eq!(pair_a, b.pair);
    }

    #[test]
    fn linear_tri_variant_is_exact() {
        let g = GenConfig {
            nodes: 50,
            edges: 1_500,
            seed: 3,
            ..GenConfig::default()
        }
        .generate();
        let delta = 5_000;
        assert_eq!(
            fast_tri_linear(&g, delta),
            hare::fused::count_graph::<false, true, false>(&g, delta).tri
        );
    }

    #[test]
    fn streaming_hooks_are_exact() {
        let g = erdos_renyi_temporal(20, 600, 1_500, 5);
        let delta = 200;
        // Append-only and a wider-than-the-stream window both equal the
        // full batch count.
        let batch = hare::count_motifs(&g, delta).matrix;
        assert_eq!(stream_append_only(&g, delta), batch);
        let span = g.time_span() + 1;
        assert_eq!(stream_windowed(&g, delta, span, 0), batch);
        // A tight window equals batch over the trailing window.
        let windowed = stream_windowed(&g, delta, delta, 0);
        assert!(windowed.total() <= batch.total());
    }
}
