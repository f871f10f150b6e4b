//! The rescanning FAST kernel, kept as a test oracle for the
//! sliding-window one in [`crate::fused`].
//!
//! `count_node` and `scan` below are the kernel as it stood before the
//! window aggregates: every first edge resets a stamped `(out, in)`
//! counter per neighbour ([`crate::scratch::stamped`]) and rescans its
//! whole δ-window, Algorithm 1 as the paper writes it. Its cost is the
//! sum of the window lengths, so it serves only to check the linear
//! kernel cell for cell — star, pair and triangle cells, on the same
//! first-edge sub-ranges every driver hands the kernel — and the
//! closed-form checks at the `u32`/`u64` word boundary.

use crate::counters::CenterTally;
use crate::scratch::stamped::StampedScratch as NeighborScratch;
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
pub(crate) fn count_node<const STARS: bool, const TRIS: bool, const ORIENTED: bool>(
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
        // wedges with no closing edge before any pair lookup.
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
        // One-entry pair-slot memo: bursty sequences hit the same far
        // endpoint in runs, making consecutive lookups of E(v, w) free.
        let mut memo_w = u32::MAX;
        let mut memo_slot = None;

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
                        memo_slot = pairs.slot_between(v, w);
                    }
                    if let Some(slot) = memo_slot {
                        let evs = pairs.events_of_slot(slot as usize);
                        let dk_flip = usize::from(v >= w); // dirs stored relative to lo
                        let tbase = b1 | (d3 << 1); // di·4 + dj·2
                        let ej_id = eids[j];
                        let t_lo = ts.at(j).saturating_sub(delta);
                        let start = evs.ts().partition_point(|&t| t < t_lo);
                        for p in evs.slice(start..evs.len()) {
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

mod tests {
    use super::NeighborScratch as StampedScratch;
    use crate::counters::CenterTally;
    use crate::exec;
    use crate::motif::StarType::{I, II, III};
    use crate::scratch::{self, NeighborScratch, NARROW_MAX_EVENTS};
    use proptest::prelude::*;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy, GenConfig};
    use temporal_graph::Dir::{In, Out};
    use temporal_graph::{LaneLayout, NodeId, TemporalEdge, TemporalGraph, Timestamp};

    /// Both kernels over one first-edge range of `u`: the star/pair pass
    /// and the fused oriented pass (the whole-graph drivers' kernel) must
    /// agree cell for cell, and the sliding window must leave its scratch
    /// empty.
    fn assert_range_agrees(
        g: &TemporalGraph,
        u: NodeId,
        range: std::ops::Range<usize>,
        delta: Timestamp,
        scratch: &mut NeighborScratch,
        stamped: &mut StampedScratch,
        what: &str,
    ) {
        let rank = g.node_rank();
        let (mut got, mut want) = (CenterTally::default(), CenterTally::default());
        let r = range.clone();
        crate::fused::count_node::<true, false, false>(g, u, r, delta, &[], scratch, &mut got);
        super::count_node::<true, false, false>(
            g,
            u,
            range.clone(),
            delta,
            &[],
            stamped,
            &mut want,
        );
        assert_eq!(got, want, "{what}: u={u} range={range:?} δ={delta}");
        let (mut got, mut want) = (CenterTally::default(), CenterTally::default());
        let r = range.clone();
        crate::fused::count_node::<true, true, true>(g, u, r, delta, rank, scratch, &mut got);
        super::count_node::<true, true, true>(g, u, range.clone(), delta, rank, stamped, &mut want);
        assert_eq!(got, want, "{what} (fused): u={u} range={range:?} δ={delta}");
        assert!(
            scratch::is_empty(scratch),
            "{what}: scratch left dirty by u={u} {range:?}"
        );
    }

    /// The first-edge ranges the drivers cut a lane into, each tiling
    /// `0..len`:
    /// * HARE's hub split, equal position chunks ([`exec::chunks`]);
    /// * the out-of-core owned ranges and the samplers' runs, the
    ///   positions whose timestamps fall in consecutive aligned time
    ///   intervals of `width` (`partition_point` cuts, as the
    ///   out-of-core driver and `lane_runs` make them), including intervals holding no
    ///   event.
    fn driver_ranges(
        g: &TemporalGraph,
        u: NodeId,
        delta: Timestamp,
    ) -> Vec<std::ops::Range<usize>> {
        let lane = g.node_events(u).ts_lane();
        let len = lane.len();
        let mut ranges = Vec::new();
        for size in [1, 2, 3, len / 4 + 1, len / 2 + 1, len] {
            ranges.extend(exec::chunks(len, size));
        }
        if len > 0 {
            let (first, last) = (lane.get(0), lane.get(len - 1));
            // At most ~100 intervals per width.
            let d = delta.clamp((last - first) / 64 + 1, last - first + 1);
            for width in [d, 3 * d, (last - first) / 5 + 1] {
                // Aligned on multiples of `width`, as the sampling grid is.
                let mut t = first.div_euclid(width) * width;
                while t <= last {
                    let cut = |b: Timestamp| lane.partition_point(|x| x < b);
                    ranges.push(cut(t)..cut(t + width));
                    t += width;
                }
            }
        }
        ranges
    }

    /// Every driver range of every node agrees, on raw and compressed
    /// lanes.
    fn assert_graph_agrees(g: &TemporalGraph, deltas: &[Timestamp], what: &str) {
        for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
            let g = g.clone().into_lane_layout(layout);
            let mut scratch = NeighborScratch::new(g.num_nodes());
            let mut stamped = StampedScratch::new(g.num_nodes());
            for &delta in deltas {
                for u in g.node_ids() {
                    for range in driver_ranges(&g, u, delta) {
                        let what = format!("{what} {layout:?}");
                        assert_range_agrees(&g, u, range, delta, &mut scratch, &mut stamped, &what);
                    }
                }
            }
        }
    }

    /// δ = 0, a short δ that leaves most windows empty, a few paper-scale
    /// values, the whole span, and a δ whose bound saturates.
    fn deltas_for(g: &TemporalGraph) -> Vec<Timestamp> {
        let span = g.time_span();
        vec![0, 1, span / 50, span / 7, span, span + 1, Timestamp::MAX]
    }

    #[test]
    fn sliding_window_equals_rescan_on_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi_temporal(20, 400, 2_000, seed);
            assert_graph_agrees(&g, &deltas_for(&g), &format!("er seed={seed}"));
        }
    }

    #[test]
    fn sliding_window_equals_rescan_on_hub_bursts() {
        for seed in 0..2 {
            let g = hub_burst(12, 500, 3_000, seed);
            assert_graph_agrees(&g, &deltas_for(&g), &format!("hub seed={seed}"));
        }
        let skewed = GenConfig {
            nodes: 40,
            edges: 800,
            zipf_exponent: 1.3,
            seed: 11,
            ..GenConfig::default()
        }
        .generate();
        assert_graph_agrees(&skewed, &deltas_for(&skewed), "skewed");
    }

    #[test]
    fn sliding_window_equals_rescan_on_timestamp_ties() {
        // Four timestamps for 300 edges: almost every window is a run of
        // ties, resolved by input position.
        let ties = erdos_renyi_temporal(10, 300, 4, 5);
        assert_graph_agrees(&ties, &[0, 1, 2, 3, 4], "ties");
        assert_graph_agrees(&paper_fig1_toy(), &[0, 5, 10, 50], "toy");
    }

    /// A lane of `a` out-edges to v, then `b` in-edges from w, then `c`
    /// out-edges to v again, all at distinct timestamps inside one δ:
    /// every star and pair cell of center 0 has a closed form.
    fn three_block_lane(a: u64, b: u64, c: u64) -> (CenterTally, usize) {
        let (v, w) = (1, 2);
        let mut edges = Vec::new();
        let mut t = 0;
        for (n, src, dst) in [(a, 0, v), (b, w, 0), (c, 0, v)] {
            for _ in 0..n {
                edges.push(TemporalEdge::new(src, dst, t));
                t += 1;
            }
        }
        let g = TemporalGraph::from_edges(edges);
        let len = g.node_events(0).len();
        let mut tally = CenterTally::default();
        let mut scratch = NeighborScratch::new(g.num_nodes());
        crate::fused::count_node::<true, false, false>(
            &g,
            0,
            0..len,
            t,
            &[],
            &mut scratch,
            &mut tally,
        );
        assert!(scratch::is_empty(&scratch));
        (tally, len)
    }

    fn choose(n: u64, k: u32) -> u64 {
        (0..u64::from(k)).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    /// Star and pair cells of [`three_block_lane`] against their closed
    /// forms.
    fn assert_three_blocks(a: u64, b: u64, c: u64) {
        let (t, _) = three_block_lane(a, b, c);
        let s = &t.star;
        // Star-II: v, then w, then v.
        assert_eq!(s.get(II, Out, In, Out), a * b * c);
        // Star-III: two at v then one at w, or two at w then one at v.
        assert_eq!(s.get(III, Out, Out, In), choose(a, 2) * b);
        assert_eq!(s.get(III, In, In, Out), choose(b, 2) * c);
        // Star-I: one at v then two at w, or one at w then two at v.
        assert_eq!(s.get(I, Out, In, In), a * choose(b, 2));
        assert_eq!(s.get(I, In, Out, Out), b * choose(c, 2));
        let stars = a * b * c + choose(a, 2) * b + choose(b, 2) * c + a * choose(b, 2);
        assert_eq!(s.total(), stars + b * choose(c, 2));
        assert_eq!(t.pair.get(Out, Out, Out), choose(a + c, 3));
        assert_eq!(t.pair.get(In, In, In), choose(b, 3));
        assert_eq!(t.pair.total(), choose(a + c, 3) + choose(b, 3));
    }

    #[test]
    fn closed_forms_on_both_sides_of_the_word_split() {
        // Small enough to read.
        assert_three_blocks(3, 4, 5);
        // u32 words: the prefix sums wrap, the cells must not.
        let (_, len) = three_block_lane(3, 40_000, 40_000);
        assert!(len <= NARROW_MAX_EVENTS);
        assert_three_blocks(3, 40_000, 40_000);
        // u64 words: one window's Star-II and Star-III cells (b·c and up
        // to (b − 1)·c) pass 2^32, which u32 words would wrap.
        let (_, len) = three_block_lane(3, 70_000, 70_000);
        assert!(len > NARROW_MAX_EVENTS && 70_000 * 70_000 > u64::from(u32::MAX));
        assert_three_blocks(3, 70_000, 70_000);
    }

    #[test]
    fn single_pair_lane_counts_choose_three_at_the_word_split() {
        // n same-direction events to one neighbour inside δ: C(n, 3) pair
        // instances from the center. The longest u32 lane; then a lane
        // whose first window holds C(n − 1, 2) > 2^32 pairs.
        for n in [NARROW_MAX_EVENTS as u64, 100_000] {
            let g = TemporalGraph::from_edges(
                (0..n)
                    .map(|t| TemporalEdge::new(0, 1, t as Timestamp))
                    .collect(),
            );
            let mut tally = CenterTally::default();
            let mut scratch = NeighborScratch::new(2);
            let len = n as usize;
            let delta = n as Timestamp;
            crate::fused::count_node::<true, false, false>(
                &g,
                0,
                0..len,
                delta,
                &[],
                &mut scratch,
                &mut tally,
            );
            assert_eq!(tally.pair.get(Out, Out, Out), choose(n, 3), "n={n}");
            assert_eq!(
                tally.pair.total() + tally.star.total(),
                choose(n, 3),
                "n={n}"
            );
            assert!(scratch::is_empty(&scratch));
        }
        assert!(choose(99_999, 2) > u64::from(u32::MAX));
    }

    /// Arbitrary small multigraphs with heavy ties, any δ, and an
    /// arbitrary first-edge range plus a three-way split of every lane.
    fn graph_case() -> impl Strategy<Value = (TemporalGraph, Timestamp, u8, (usize, usize))> {
        (
            temporal_graph::gen::arb::graph(7, 70, 50),
            0i64..70,
            0u8..2,
            (0usize..101, 0usize..101),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn sliding_window_equals_rescan_on_any_range((g, delta, packed, (x, y)) in graph_case()) {
            let layout = if packed == 1 { LaneLayout::Compressed } else { LaneLayout::Raw };
            let g = g.into_lane_layout(layout);
            let mut scratch = NeighborScratch::new(g.num_nodes());
            let mut stamped = StampedScratch::new(g.num_nodes());
            for u in g.node_ids() {
                let len = g.node_events(u).len();
                let (a, b) = ((x * len / 100).min(y * len / 100), (x * len / 100).max(y * len / 100));
                for range in [a..b, 0..a, b..len, 0..len] {
                    assert_range_agrees(&g, u, range, delta, &mut scratch, &mut stamped, "prop");
                }
            }
        }
    }
}
