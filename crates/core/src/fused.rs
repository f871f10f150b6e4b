//! The FAST kernel: Algorithms 1 and 2 in one window scan per center
//! node, generic over the motif categories it counts.
//!
//! Algorithms 1 and 2 enumerate exactly the same `(e_i, e_j)` pairs of
//! `S_u` — a first edge and a later edge within δ — and differ only in
//! what they do per pair: Algorithm 1 answers second-edge queries from
//! the [`NeighborScratch`] counters (star and pair motifs), Algorithm 2
//! probes the pair edge list `E(v, w)` (triangle motifs). One scan
//! serves both:
//!
//! * one traversal of the SoA timestamp lane per first edge, sharing the
//!   `t ≤ t_1 + δ` window bound and the scratch population between the
//!   star/pair and triangle updates;
//! * the [`CenterTally`]'s flat cells (`[u64; 24]` star, `[u64; 8]` pair,
//!   `[u64; 24]` triangle) as accumulators, with `(d1, d3)`-hoisted
//!   offsets instead of per-step indexed counter calls;
//! * branch-free triangle type classification (two total-order
//!   comparisons summed).
//!
//! The scan is generic over a compile-time category mask. `STARS`
//! counts star and pair motifs, `TRIS` triangle motifs, and a false flag
//! compiles its branch away: without `STARS` there is no scratch
//! traffic, without `TRIS` no bloom test or pair-list probe. So
//! `<true, false>` is FAST-Star, `<false, true>` is FAST-Tri and
//! `<true, true>` fuses both. Counter addition is commutative, so the
//! fused pass equals a `STARS` pass plus a `TRIS` pass cell for cell —
//! asserted by the tests below and by the property suite.
//!
//! Star instances are counted once, at their unique center; pair
//! instances once from each endpoint (halved at fold time by
//! [`crate::PairCounter::add_to_matrix_center_based`]). Triangle
//! attribution is the third compile-time flag, `ORIENTED`:
//!
//! * **three-view** (`ORIENTED = false`, §IV.B as written): every
//!   instance is counted from each of its three vertices and lands once
//!   in each of its class's three isomorphic cells (Fig. 8), so the fold
//!   divides the class sum by 3 ([`crate::TriCounter::add_to_matrix`]).
//!   Per-vertex attribution ([`crate::NodeProfiles`]) and the sampling
//!   estimators need this view.
//! * **oriented** (`ORIENTED = true`, the whole-graph drivers): a
//!   `rank` slice orders the nodes, and center `u` probes a first edge to
//!   `v` only when `rank(v) > rank(u)` and a later edge to `w` only when
//!   `rank(w) > rank(u)`. Each instance is then counted once, from its
//!   lowest-rank vertex, in exactly one of its class's cells, and the
//!   fold sums the class cells
//!   ([`crate::TriCounter::add_to_matrix_oriented`]). Any total order is
//!   exact; the drivers pass ascending `(degree, id)`
//!   ([`temporal_graph::TemporalGraph::node_rank`]), the static-graph
//!   degree-ordering trick, which moves the pair-list probes off the
//!   hubs that own most δ-window pairs. A `TRIS`-only oriented pass
//!   skips a first edge's whole window when `v` ranks below `u`.
//!
//! Orientation touches only the triangle half: star and pair cells are
//! identical under both flags. Triangle types compare the global
//! `(t, edge_id)` total order, so timestamp ties resolve exactly as in
//! the enumeration oracle; the δ windows use raw timestamps, as the
//! paper states.
//!
//! hare-lint: no-alloc

use crate::counters::CenterTally;
use crate::scratch::NeighborScratch;
use temporal_graph::{NodeId, TemporalGraph, Timestamp, TsLane, TsRead};

/// Count the masked categories centered at `u` into `tally`, restricted
/// to first-edge positions `first_edge_range` within `S_u`. The full
/// range runs Algorithms 1 and/or 2 for `u`; sub-ranges are HARE's
/// intra-node parallel unit, the sampling engines' windows and the
/// out-of-core driver's chunks.
///
/// With `ORIENTED`, `rank` must hold one distinct value per node of the
/// graph's id space (any total order; triangles are counted at their
/// lowest-rank vertex). Three-view callers pass `&[]`: the slice is not
/// read.
///
/// `scratch` must cover the graph's node count; it is reset internally
/// (and untouched when `STARS` is false).
#[allow(clippy::too_many_arguments)]
pub fn count_node<const STARS: bool, const TRIS: bool, const ORIENTED: bool>(
    g: &TemporalGraph,
    u: NodeId,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    rank: &[u32],
    scratch: &mut NeighborScratch,
    tally: &mut CenterTally,
) {
    debug_assert!(
        !ORIENTED || rank.len() >= g.num_nodes(),
        "rank must cover every node"
    );
    let rank_u = if ORIENTED { rank[u as usize] } else { 0 };
    // One layout dispatch per node; the generic scan monomorphises so the
    // raw path compiles to plain slice indexing and the compressed path
    // inlines the O(1) bit-unpack.
    let s = g.node_events(u);
    let range = first_edge_range;
    match s.ts_lane() {
        TsLane::Raw(ts) => {
            scan::<_, STARS, TRIS, ORIENTED>(g, &s, ts, range, delta, rank, rank_u, scratch, tally);
        }
        TsLane::Packed(p) => {
            scan::<_, STARS, TRIS, ORIENTED>(g, &s, p, range, delta, rank, rank_u, scratch, tally);
        }
    }
}

/// Sequential FAST over the whole graph: one masked scan per node into
/// one tally (the single-threaded hot path behind [`crate::count_motifs`]
/// and [`crate::count_triangle_motifs`]). `ORIENTED` passes use the
/// graph's own [`TemporalGraph::node_rank`].
#[must_use]
pub fn count_graph<const STARS: bool, const TRIS: bool, const ORIENTED: bool>(
    g: &TemporalGraph,
    delta: Timestamp,
) -> CenterTally {
    let mut tally = CenterTally::default();
    let rank = g.node_rank();
    crate::scratch::with_thread_scratch(g.num_nodes(), |scratch| {
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            if len < 2 {
                continue; // no (e1, e3) window can open
            }
            count_node::<STARS, TRIS, ORIENTED>(g, u, 0..len, delta, rank, scratch, &mut tally);
        }
    });
    tally
}

/// The scan proper, generic over the timestamp lane representation and
/// the category mask.
///
/// The window upper bound `t_hi = t_1 + δ` is non-decreasing in `i`, so
/// its end position `j_end` is maintained by a monotone two-pointer
/// advance instead of a per-`j` compare-and-break: the inner loops below
/// run over `i+1..j_end` with a hoisted trip count, which keeps them
/// branch-minimal and auto-vectorisation-friendly, and makes the window
/// bound derivation O(2|E|) amortised per node instead of O(Σ window²).
#[allow(clippy::too_many_arguments)]
fn scan<T: TsRead, const STARS: bool, const TRIS: bool, const ORIENTED: bool>(
    g: &TemporalGraph,
    s: &temporal_graph::NodeEvents<'_>,
    ts: T,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    rank: &[u32],
    rank_u: u32,
    scratch: &mut NeighborScratch,
    tally: &mut CenterTally,
) {
    let packed = s.packed_lane();
    let eids = s.edge_lane();
    let pairs = g.pairs();
    let n_events = ts.len();
    debug_assert!(first_edge_range.end <= n_events);
    let star_acc = &mut tally.star.cells;
    let pair_acc = &mut tally.pair.cells;
    let tri_acc = &mut tally.tri.cells;

    let mut j_end = first_edge_range.start;
    for i in first_edge_range {
        let t1 = ts.at(i);
        let t_hi = t1.saturating_add(delta);
        if j_end <= i {
            j_end = i + 1;
        }
        while j_end < n_events && ts.at(j_end) <= t_hi {
            j_end += 1;
        }
        // Empty δ-window: nothing can complete — skip all setup. Bursty
        // real graphs leave most windows empty at paper-scale δ.
        if i + 1 >= j_end {
            continue;
        }
        let p1 = packed[i];
        let v = p1 >> 1;
        // Oriented: only a higher-rank v can close a triangle owned by u.
        let tri_first = TRIS && (!ORIENTED || rank[v as usize] > rank_u);
        if !STARS && !tri_first {
            continue;
        }
        let d1 = (p1 & 1) as usize;
        // d1·4, hoisted over the window.
        let b1 = d1 << 2;
        // Edge ids are chronological ranks under the global (t, input
        // position) total order, so bare id compares replace (t, edge)
        // tuple compares everywhere below.
        let e1_id = eids[i];
        // v's neighbour signature: one register test rejects the frequent
        // wedges with no closing edge before any hash probe.
        let bloom_v = if tri_first { pairs.bloom_of(v) } else { 0 };
        if STARS {
            scratch.reset();
        }
        // Running totals of second-edge candidates per direction (the
        // paper's #e_in / #e_out).
        let mut n = [0u64; 2];
        // v's in-window counts, tracked in registers: v is fixed for the
        // whole window, so events to v never touch the scratch array at
        // all and the Star-III read is free.
        let mut cv = [0u64; 2];
        // One-entry pair-list memo: bursty sequences hit the same far
        // endpoint in runs, making consecutive probes of E(v, w) free.
        let mut memo_w = u32::MAX;
        let mut memo_evs: &[temporal_graph::PairEvent] = &[];

        for j in i + 1..j_end {
            let p3 = packed[j];
            let w = p3 >> 1;
            let d3 = (p3 & 1) as usize;
            let base = b1 | d3; // d1·4 + d3; d2 contributes ·2

            if w == v {
                // Pair motifs + Star-II (second edge elsewhere). No
                // triangle can span (u, v, v).
                if STARS {
                    pair_acc[base] += cv[0];
                    pair_acc[base | 2] += cv[1];
                    star_acc[8 + base] += n[0] - cv[0];
                    star_acc[8 + (base | 2)] += n[1] - cv[1];
                    cv[d3] += 1;
                }
            } else {
                // Star-I (second edge at w) + Star-III (second edge at v).
                if STARS {
                    let cw = scratch.get(w);
                    star_acc[base] += cw[0];
                    star_acc[base | 2] += cw[1];
                    star_acc[16 + base] += cv[0];
                    star_acc[16 + (base | 2)] += cv[1];
                }

                // Triangles: opposite edges from E(v, w) inside the
                // [t_j − δ, t_i + δ] window (Algorithm 2's trick). The
                // bloom test is an exact negative for unconnected pairs;
                // oriented passes also leave lower-rank w to that vertex.
                if tri_first
                    && temporal_graph::PairIndex::bloom_may_connect(bloom_v, w)
                    && (!ORIENTED || rank[w as usize] > rank_u)
                {
                    if w != memo_w {
                        memo_w = w;
                        memo_evs = pairs.events_between(v, w);
                    }
                    let evs = memo_evs;
                    if !evs.is_empty() {
                        let dk_flip = usize::from(v >= w); // dirs stored relative to lo
                        let tbase = b1 | (d3 << 1); // di·4 + dj·2
                        let ej_id = eids[j];
                        let t_lo = ts.at(j).saturating_sub(delta);
                        let start = evs.partition_point(|p| p.t < t_lo);
                        for p in &evs[start..] {
                            if p.t > t_hi {
                                break;
                            }
                            let dk = p.dir_from_lo.index() ^ dk_flip;
                            // Type by position in the chronological total
                            // order: before e_i → I (0), between → II (1),
                            // after e_j → III (2).
                            let ty = usize::from(p.edge >= e1_id) + usize::from(p.edge >= ej_id);
                            tri_acc[(ty << 3) | tbase | dk] += 1;
                        }
                    }
                }

                if STARS {
                    // e3 becomes a second-edge candidate for later third
                    // edges (events to v are covered by the register pair).
                    scratch.bump(w, d3);
                }
            }

            if STARS {
                n[d3] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::MotifMatrix;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy, GenConfig};

    /// The fused pass against a `STARS` pass and a `TRIS` pass, in both
    /// orientations: each half fills only its own cells, together they
    /// equal the fused tally cell for cell, and orientation changes the
    /// triangle cells but neither the star/pair cells nor the folded
    /// triangle grid.
    fn assert_fused_equals_separate_passes(g: &TemporalGraph, delta: Timestamp, what: &str) {
        let fused = count_graph::<true, true, false>(g, delta);
        let stars = count_graph::<true, false, false>(g, delta);
        let tris = count_graph::<false, true, false>(g, delta);
        assert_eq!(stars.tri.total(), 0, "{what}");
        assert_eq!(tris.star.total() + tris.pair.total(), 0, "{what}");
        assert_eq!(fused.star, stars.star, "{what}");
        assert_eq!(fused.pair, stars.pair, "{what}");
        assert_eq!(fused.tri, tris.tri, "{what}");

        let oriented = count_graph::<true, true, true>(g, delta);
        let o_tris = count_graph::<false, true, true>(g, delta);
        assert_eq!(count_graph::<true, false, true>(g, delta), stars, "{what}");
        assert_eq!(o_tris.star.total() + o_tris.pair.total(), 0, "{what}");
        assert_eq!(
            (&oriented.star, &oriented.pair),
            (&fused.star, &fused.pair),
            "{what}"
        );
        assert_eq!(oriented.tri, o_tris.tri, "{what}");
        assert_eq!(3 * oriented.tri.total(), fused.tri.total(), "{what}");
        let (mut want, mut got) = (MotifMatrix::default(), MotifMatrix::default());
        fused.tri.add_to_matrix(&mut want);
        oriented.tri.add_to_matrix_oriented(&mut got);
        assert_eq!(got, want, "{what}");
    }

    #[test]
    fn fused_equals_separate_passes_on_toy() {
        let g = paper_fig1_toy();
        for delta in [0, 5, 10, 50] {
            assert_fused_equals_separate_passes(&g, delta, &format!("delta={delta}"));
        }
    }

    #[test]
    fn fused_equals_separate_passes_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi_temporal(25, 600, 800, seed);
            assert_fused_equals_separate_passes(&g, 150, &format!("seed={seed}"));
        }
    }

    #[test]
    fn fused_equals_separate_passes_on_skewed_graph() {
        let g = GenConfig {
            nodes: 80,
            edges: 2_000,
            zipf_exponent: 1.2,
            seed: 5,
            ..GenConfig::default()
        }
        .generate();
        assert_fused_equals_separate_passes(&g, 20_000, "skewed");
    }

    #[test]
    fn fused_range_split_equals_full_run() {
        let g = hub_burst(30, 1_500, 8_000, 9);
        let delta = 800;
        let full = count_graph::<true, true, false>(&g, delta);
        let full_oriented = count_graph::<true, true, true>(&g, delta);

        let mut scratch = NeighborScratch::new(g.num_nodes());
        let mut split = CenterTally::default();
        let mut split_oriented = CenterTally::default();
        let rank = g.node_rank();
        for u in g.node_ids() {
            let len = g.node_events(u).len();
            let third = len / 3;
            for range in [0..third, third..len] {
                count_node::<true, true, false>(
                    &g,
                    u,
                    range.clone(),
                    delta,
                    &[],
                    &mut scratch,
                    &mut split,
                );
                count_node::<true, true, true>(
                    &g,
                    u,
                    range,
                    delta,
                    rank,
                    &mut scratch,
                    &mut split_oriented,
                );
            }
        }
        assert_eq!(split, full);
        assert_eq!(split_oriented, full_oriented);
    }

    #[test]
    fn fused_empty_and_tiny_graphs() {
        for edges in [vec![], vec![temporal_graph::TemporalEdge::new(0, 1, 1)]] {
            let g = TemporalGraph::from_edges(edges);
            for t in [
                count_graph::<true, true, false>(&g, 100),
                count_graph::<true, true, true>(&g, 100),
            ] {
                assert_eq!(t.star.total() + t.pair.total() + t.tri.total(), 0);
            }
        }
    }
}
