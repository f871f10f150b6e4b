//! The FAST kernel: Algorithms 1 and 2 in one window scan per center
//! node, generic over the motif categories it counts.
//!
//! Algorithms 1 and 2 enumerate the same `(e_i, e_j)` pairs of `S_u` — a
//! first edge and a later edge within δ — and differ in what they do
//! with them: Algorithm 1 counts star and pair motifs from per-neighbour
//! counters of the window, Algorithm 2 probes the pair edge list
//! `E(v, w)` (triangle motifs). One scan serves both:
//!
//! * one sliding window `(i, j_end)` per lane: both ends only move
//!   forward, each event enters once at the right end and leaves once at
//!   the left, and the window's per-neighbour aggregates (the
//!   [`NeighborScratch`] entries plus one 2×2 pair total) answer every
//!   star and pair cell of a first edge in O(1). The paper's
//!   Algorithm 1 rescans the whole δ-window after each first edge
//!   instead; Paranjape, Benson and Leskovec count 2-node and star
//!   motifs in time linear in each center's events, and so does this
//!   scan;
//! * a walk of the window only for first edges whose triangle half runs
//!   (`v` ranks above `u` in oriented passes), sharing the window bound;
//! * the [`CenterTally`]'s flat cells (`[u64; 24]` star, `[u64; 8]` pair,
//!   `[u64; 24]` triangle) as accumulators, with the first edge's
//!   direction offset hoisted instead of per-step indexed counter calls;
//! * branch-free triangle type classification (two total-order
//!   comparisons summed).
//!
//! **Cost model.** The star/pair half is O(|S_u|) per center: O(1) per
//! event entering or leaving the window and O(1) per first edge, whatever
//! δ. The triangle half costs the wedges it walks — the window events of
//! every first edge that can close a triangle — plus their pair-list
//! probes. A sub-range call also pays for filling and draining the
//! window it starts and ends in. The rescanning loop, O(Σ |window|), is
//! kept only as the test oracle the sliding window is checked against
//! cell for cell (`kernel_tests/rescan_oracle.rs`).
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
use crate::scratch::{Entry, NeighborScratch, Word, NARROW_MAX_EVENTS};
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
/// `scratch` must cover the graph's node count. The `STARS` scan fills
/// it and empties it again before returning (`TRIS` alone leaves it
/// untouched).
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
    let s = g.node_events(u);
    let range = first_edge_range;
    // `u32` window words are exact up to NARROW_MAX_EVENTS lane events;
    // a longer lane runs the same scan over `u64` words.
    if STARS && s.len() > NARROW_MAX_EVENTS {
        let entries = u64::entries(scratch);
        scan_lane::<u64, STARS, TRIS, ORIENTED>(g, u, &s, range, delta, rank, entries, tally);
    } else {
        let entries = u32::entries(scratch);
        scan_lane::<u32, STARS, TRIS, ORIENTED>(g, u, &s, range, delta, rank, entries, tally);
    }
}

/// One layout dispatch per node; the generic scan monomorphises so the
/// raw path compiles to plain slice indexing and the compressed path
/// inlines the O(1) bit-unpack.
#[allow(clippy::too_many_arguments)]
fn scan_lane<W: Word, const STARS: bool, const TRIS: bool, const ORIENTED: bool>(
    g: &TemporalGraph,
    u: NodeId,
    s: &temporal_graph::NodeEvents<'_>,
    range: std::ops::Range<usize>,
    delta: Timestamp,
    rank: &[u32],
    entries: &mut [Entry<W>],
    tally: &mut CenterTally,
) {
    let rank_u = if ORIENTED { rank[u as usize] } else { 0 };
    let mut window = Window::new(entries);
    match s.ts_lane() {
        TsLane::Raw(ts) => {
            scan::<_, W, STARS, TRIS, ORIENTED>(
                g,
                s,
                ts,
                range,
                delta,
                rank,
                rank_u,
                &mut window,
                tally,
            );
        }
        TsLane::Packed(p) => {
            scan::<_, W, STARS, TRIS, ORIENTED>(
                g,
                s,
                p,
                range,
                delta,
                rank,
                rank_u,
                &mut window,
                tally,
            );
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

/// The sliding δ-window of one center's lane: its events' per-neighbour
/// aggregates (see [`crate::scratch`]) plus six lane-wide sums, updated
/// in O(1) per event entering or leaving.
///
/// Prefix counts `N_e(p)` count the direction-`e` events that entered
/// the window before position `p`. The formulas read only differences
/// of them inside one window's lifetime, so their origin is immaterial.
struct Window<'s, W> {
    entries: &'s mut [Entry<W>],
    /// `A[d][e]`: ordered pairs of window events to one neighbour, the
    /// earlier in direction `d` and the later in `e`, summed over every
    /// neighbour.
    pairs: [[W; 2]; 2],
    /// `N(lo)`: prefix counts at the window's first position (events
    /// that have left it).
    at_lo: [W; 2],
    /// `N(hi)`: prefix counts one past its last position (events that
    /// have entered it).
    at_hi: [W; 2],
}

impl<'s, W: Word> Window<'s, W> {
    fn new(entries: &'s mut [Entry<W>]) -> Self {
        Window {
            entries,
            pairs: Default::default(),
            at_lo: Default::default(),
            at_hi: Default::default(),
        }
    }

    /// The event `packed` (neighbour `<< 1 | dir`) enters at the right end.
    #[inline]
    fn push(&mut self, packed: u32) {
        let d = (packed & 1) as usize;
        let e = &mut self.entries[(packed >> 1) as usize];
        e.m[d][0] = e.m[d][0].plus(self.at_hi[0]);
        e.m[d][1] = e.m[d][1].plus(self.at_hi[1]);
        // It is the later event of a pair with every window event to the
        // same neighbour.
        e.q01 = e.q01.plus(e.c[0].times(W::of(d)));
        self.pairs[0][d] = self.pairs[0][d].plus(e.c[0]);
        self.pairs[1][d] = self.pairs[1][d].plus(e.c[1]);
        e.c[d] = e.c[d].plus(W::of(1));
        self.at_hi[d] = self.at_hi[d].plus(W::of(1));
    }

    /// The window's first event, `packed`, leaves at the left end.
    #[inline]
    fn pop(&mut self, packed: u32) {
        let d = (packed & 1) as usize;
        let e = &mut self.entries[(packed >> 1) as usize];
        e.c[d] = e.c[d].minus(W::of(1));
        e.m[d][0] = e.m[d][0].minus(self.at_lo[0]);
        e.m[d][1] = e.m[d][1].minus(self.at_lo[1]);
        // It was the earlier event of a pair with every other window
        // event to the same neighbour.
        e.q01 = e.q01.minus(e.c[1].times(W::of(1 - d)));
        self.pairs[d][0] = self.pairs[d][0].minus(e.c[0]);
        self.pairs[d][1] = self.pairs[d][1].minus(e.c[1]);
        self.at_lo[d] = self.at_lo[d].plus(W::of(1));
    }

    /// Zero the entry of `packed`'s neighbour: the end-of-scan drain.
    #[inline]
    fn clear(&mut self, packed: u32) {
        self.entries[(packed >> 1) as usize] = Entry::default();
    }

    /// Add the star and pair cells of a first edge to neighbour `v` whose
    /// window this is, at cell base `b1 = d1·4`. With `Q` the ordered
    /// pairs of the window's events to `v`, for second-edge direction `d`
    /// and third-edge direction `e`:
    ///
    /// * pair `= Q[d][e]`;
    /// * Star-I (second and third edge at one `w ≠ v`) `= A[d][e] − Q[d][e]`;
    /// * Star-II (first and third edge at `v`) `= m[e][d] − c[e]·N_d(lo)
    ///   − Q[d][e]`: each third edge at `v` sees `N_d(k) − N_d(lo)`
    ///   direction-`d` events before it, `Q` of them at `v`;
    /// * Star-III (first and second edge at `v`) `= c[d]·N_e(hi) − m[d][e]
    ///   − [d = e]·c[d] − Q[d][e]`: each second edge at `v` sees
    ///   `N_e(hi) − N_e(j + 1)` direction-`e` events after it.
    #[inline]
    fn add_first_edge(&self, v: NodeId, b1: usize, star: &mut [u64; 24], pair: &mut [u64; 8]) {
        let e = self.entries[v as usize];
        let [c0, c1] = e.c;
        let q = [
            [c0.choose2(), e.q01],
            [c0.times(c1).minus(e.q01), c1.choose2()],
        ];
        for d2 in 0..2 {
            for d3 in 0..2 {
                let k = b1 | d2 << 1 | d3;
                let q = q[d2][d3];
                let tie = if d2 == d3 { e.c[d2] } else { W::default() };
                pair[k] += q.widen();
                star[k] += self.pairs[d2][d3].minus(q).widen();
                let star_ii = e.m[d3][d2].minus(e.c[d3].times(self.at_lo[d2]));
                star[8 + k] += star_ii.minus(q).widen();
                let star_iii = e.c[d2].times(self.at_hi[d3]).minus(e.m[d2][d3]);
                star[16 + k] += star_iii.minus(tie).minus(q).widen();
            }
        }
    }
}

/// The scan proper, generic over the timestamp lane representation, the
/// window word and the category mask.
///
/// The window `(i, hi)` holds the events after the first edge `e_i` up
/// to the δ bound `t_i + δ`. Both ends only move forward: each event is
/// pushed once at the right end and popped once at the left (when it
/// becomes the first edge), so the star/pair half costs O(|S_u|) plus
/// O(1) per first edge. Triangles still walk each window whose first
/// edge can close one.
#[allow(clippy::too_many_arguments)]
fn scan<T: TsRead, W: Word, const STARS: bool, const TRIS: bool, const ORIENTED: bool>(
    g: &TemporalGraph,
    s: &temporal_graph::NodeEvents<'_>,
    ts: T,
    first_edge_range: std::ops::Range<usize>,
    delta: Timestamp,
    rank: &[u32],
    rank_u: u32,
    window: &mut Window<'_, W>,
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
    let end = first_edge_range.end;

    let mut hi = first_edge_range.start;
    for i in first_edge_range {
        // Slide the left end past e_i, which was the window's first event
        // unless the window was empty (then both ends jump past it).
        if hi <= i {
            hi = i + 1;
        } else if STARS {
            window.pop(packed[i]);
        }
        let t1 = ts.at(i);
        let t_hi = t1.saturating_add(delta);
        while hi < n_events && ts.at(hi) <= t_hi {
            if STARS {
                window.push(packed[hi]);
            }
            hi += 1;
        }
        // Empty δ-window: nothing can complete — skip all setup. Bursty
        // real graphs leave most windows empty at paper-scale δ.
        if i + 1 >= hi {
            continue;
        }
        let p1 = packed[i];
        let v = p1 >> 1;
        // d1·4, the first edge's cell base.
        let b1 = ((p1 & 1) as usize) << 2;
        if STARS {
            window.add_first_edge(v, b1, star_acc, pair_acc);
        }
        // Oriented: only a higher-rank v can close a triangle owned by u.
        let tri_first = TRIS && (!ORIENTED || rank[v as usize] > rank_u);
        if !tri_first {
            continue;
        }
        // Edge ids are chronological ranks under the global (t, input
        // position) total order, so bare id compares replace (t, edge)
        // tuple compares everywhere below.
        let e1_id = eids[i];
        // v's neighbour signature: one register test rejects the frequent
        // wedges with no closing edge before any pair lookup.
        let bloom_v = pairs.bloom_of(v);
        // One-entry pair-slot memo: bursty sequences hit the same far
        // endpoint in runs, making consecutive lookups of E(v, w) free.
        let mut memo_w = u32::MAX;
        let mut memo_slot = None;

        for j in i + 1..hi {
            let p3 = packed[j];
            let w = p3 >> 1;
            // Triangles: opposite edges from E(v, w) inside the
            // [t_j − δ, t_i + δ] window (Algorithm 2's trick). No
            // triangle spans (u, v, v). The bloom test is an exact
            // negative for unconnected pairs; oriented passes also leave
            // lower-rank w to that vertex.
            if w == v
                || !temporal_graph::PairIndex::bloom_may_connect(bloom_v, w)
                || (ORIENTED && rank[w as usize] <= rank_u)
            {
                continue;
            }
            if w != memo_w {
                memo_w = w;
                memo_slot = pairs.slot_between(v, w);
            }
            if let Some(slot) = memo_slot {
                let evs = pairs.events_of_slot(slot as usize);
                let dk_flip = usize::from(v >= w); // dirs stored relative to lo
                let tbase = b1 | (((p3 & 1) as usize) << 1); // di·4 + dj·2
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
    }
    // Drain: leave every entry empty for the next call.
    if STARS {
        for &p in &packed[end..hi] {
            window.clear(p);
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
