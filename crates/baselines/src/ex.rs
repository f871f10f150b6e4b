//! EX: the exact counting algorithm of Paranjape, Benson & Leskovec
//! (*Motifs in Temporal Networks*, WSDM 2017) — the paper's main
//! competitor.
//!
//! EX decomposes the 36-motif problem by topology and attacks each part
//! with dedicated counter machinery (the "more than ten triple and tuple
//! counters" the HARE paper refers to in §V.E):
//!
//! * **2-node motifs** — per node pair, a δ-windowed
//!   [`SequenceCounter`] over the pair's direction-labelled edge list.
//! * **star motifs** — per center node, same-neighbour edge pairs are
//!   enumerated as the *bonded* pair of a star and the isolated edge is
//!   counted in bulk from direction prefix arrays over `S_u` (global
//!   minus to-that-neighbour corrections). This also yields the pair
//!   motifs as the "middle edge to the same neighbour" case.
//! * **triangle motifs** — static triangles are enumerated first
//!   (neighbour-set intersection), then each one's three temporal edge
//!   lists are merged and fed to a 6-label [`SequenceCounter`]
//!   (pair-slot × direction); label triples covering all three pairs map
//!   to the 8 triangle classes.
//!
//! All parts are exact and agree with FAST and the enumeration oracle
//! (asserted in tests). `count_all_parallel` parallelises each phase over
//! its natural unit (pairs / centers / static triangles) on
//! [`hare::exec::map`], the analogue of the OpenMP port the paper
//! benchmarks in Fig. 11.

use std::sync::OnceLock;

use hare::counters::{MotifMatrix, PairCounter, StarCounter};
use hare::exec;
use hare::motif::{Motif, StarType};
use temporal_graph::util::FxHashMap;
use temporal_graph::{Dir, NodeId, TemporalEdge, TemporalGraph, Timestamp};

use crate::enumerate::classify;
use crate::seq_counter::SequenceCounter;

// ---------------------------------------------------------------------
// 2-node motifs
// ---------------------------------------------------------------------

/// Exact pair-motif counts (EX's 2-node algorithm): per pair slot, a
/// direction-labelled sequence counter. Each instance is counted once
/// (per unordered pair), so the fold does not halve.
#[must_use]
pub fn count_pairs(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let pairs = g.pairs();
    let slots: Vec<usize> = (0..pairs.num_pairs()).collect();
    let pc = slots.iter().fold(PairCounter::default(), |acc, &slot| {
        count_pair_slot(g, slot, delta, acc)
    });
    let mut mx = MotifMatrix::default();
    pc.add_to_matrix_pair_based(&mut mx);
    mx
}

fn count_pair_slot(
    g: &TemporalGraph,
    slot: usize,
    delta: Timestamp,
    mut acc: PairCounter,
) -> PairCounter {
    let events: Vec<(u8, Timestamp)> = g
        .pairs()
        .events_of_slot(slot)
        .iter()
        .map(|p| (p.dir_from_lo.index() as u8, p.t))
        .collect();
    let mut counter: SequenceCounter<2> = SequenceCounter::default();
    counter.count(&events, delta);
    for d1 in Dir::BOTH {
        for d2 in Dir::BOTH {
            for d3 in Dir::BOTH {
                acc.add(d1, d2, d3, counter.get(d1.index(), d2.index(), d3.index()));
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------
// Star motifs (plus center-based pair counts as a byproduct)
// ---------------------------------------------------------------------

/// Exact star-motif counters via EX's per-center machinery. The returned
/// pair counter is center-based (each pair instance seen from both
/// endpoints), like Algorithm 1's.
#[must_use]
pub fn count_stars(g: &TemporalGraph, delta: Timestamp) -> (StarCounter, PairCounter) {
    let mut star = StarCounter::default();
    let mut pair = PairCounter::default();
    for u in g.node_ids() {
        count_stars_at(g, u, delta, &mut star, &mut pair);
    }
    (star, pair)
}

/// EX star counting for one center node.
///
/// For every same-neighbour edge pair `(a, b)` of `S_u` within δ (the
/// bonded pair of a prospective star) we count, from prefix arrays, the
/// isolated edges in three position ranges:
///
/// * before `a` within δ of `b`  → Star-I,
/// * strictly between `a` and `b` → Star-II (to another neighbour) or a
///   pair motif (to the same neighbour),
/// * after `b` within δ of `a`   → Star-III.
#[allow(clippy::needless_range_loop)] // dir-indexed prefix arrays read clearer indexed
fn count_stars_at(
    g: &TemporalGraph,
    u: NodeId,
    delta: Timestamp,
    star: &mut StarCounter,
    pair: &mut PairCounter,
) {
    let s = g.node_events(u);
    if s.len() < 3 {
        return;
    }

    // Global direction prefix counts over S_u: prefix[d][i] = #events
    // with dir d among positions [0, i).
    let mut prefix = [vec![0u32; s.len() + 1], vec![0u32; s.len() + 1]];
    for (i, ev) in s.iter().enumerate() {
        for d in 0..2 {
            prefix[d][i + 1] = prefix[d][i] + u32::from(ev.dir.index() == d);
        }
    }
    let range_count = |d: usize, lo: usize, hi: usize| -> u64 {
        // events with dir d in positions [lo, hi)
        u64::from(prefix[d][hi.max(lo)] - prefix[d][lo])
    };

    // Per-neighbour position lists with their own direction prefixes.
    let mut by_nbr: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    for (i, ev) in s.iter().enumerate() {
        by_nbr.entry(ev.other).or_default().push(i as u32);
    }

    for (_, positions) in by_nbr.iter() {
        if positions.len() < 2 {
            continue;
        }
        // Direction prefix over this neighbour's own positions.
        let mut nprefix = [
            vec![0u32; positions.len() + 1],
            vec![0u32; positions.len() + 1],
        ];
        for (k, &p) in positions.iter().enumerate() {
            let dir = s.dir(p as usize).index();
            for d in 0..2 {
                nprefix[d][k + 1] = nprefix[d][k] + u32::from(dir == d);
            }
        }
        // Count of this neighbour's events with dir d and position in
        // [lo, hi), where lo/hi index into `positions`.
        let nbr_range = |d: usize, lo: usize, hi: usize| -> u64 {
            u64::from(nprefix[d][hi.max(lo)] - nprefix[d][lo])
        };

        for (ka, &pa) in positions.iter().enumerate() {
            let ea = s.get(pa as usize);
            for (kb, &pb) in positions.iter().enumerate().skip(ka + 1) {
                let eb = s.get(pb as usize);
                if eb.t - ea.t > delta {
                    break;
                }
                let (da, db) = (ea.dir, eb.dir);

                // Star-I: isolated edge c strictly before a with
                // t_b − t_c ≤ δ → positions [lo, pa).
                let lo = s.partition_point(|e| e.t < eb.t - delta);
                if lo < pa as usize {
                    for dc in Dir::BOTH {
                        let all = range_count(dc.index(), lo, pa as usize);
                        // Exclude edges to this same neighbour (those are
                        // pair-motif middles counted elsewhere / below).
                        let klo = positions.partition_point(|&p| (p as usize) < lo);
                        let same = nbr_range(dc.index(), klo, ka);
                        star.add(StarType::I, dc, da, db, all - same);
                    }
                }

                // Star-II + pair motifs: middle edge strictly between.
                if pb > pa + 1 {
                    for dc in Dir::BOTH {
                        let all = range_count(dc.index(), pa as usize + 1, pb as usize);
                        let same = nbr_range(dc.index(), ka + 1, kb);
                        star.add(StarType::II, da, dc, db, all - same);
                        pair.add(da, dc, db, same);
                    }
                }

                // Star-III: isolated edge c strictly after b with
                // t_c − t_a ≤ δ → positions (pb, hi).
                let hi = s.partition_point(|e| e.t <= ea.t + delta);
                if hi > pb as usize + 1 {
                    for dc in Dir::BOTH {
                        let all = range_count(dc.index(), pb as usize + 1, hi);
                        let khi = positions.partition_point(|&p| (p as usize) < hi);
                        let same = nbr_range(dc.index(), kb + 1, khi);
                        star.add(StarType::III, da, db, dc, all - same);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Triangle motifs
// ---------------------------------------------------------------------

/// A static triangle: three nodes pairwise connected by at least one
/// temporal edge (in either direction).
pub type StaticTriangle = (NodeId, NodeId, NodeId);

/// Enumerate static triangles `(a < b < c)` from the pair index.
#[must_use]
pub fn static_triangles(g: &TemporalGraph) -> Vec<StaticTriangle> {
    // Static adjacency (sorted) from the distinct connected pairs.
    let pairs = g.pairs();
    let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); g.num_nodes()];
    for slot in 0..pairs.num_pairs() {
        let (a, b) = pairs.key(slot);
        adj[a as usize].push(b);
        adj[b as usize].push(a);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    let mut out = Vec::new();
    for slot in 0..pairs.num_pairs() {
        let (a, b) = pairs.key(slot);
        // Intersect adj(a) and adj(b), keeping c > b to dedupe.
        let (mut i, mut j) = (0usize, 0usize);
        let (la, lb) = (&adj[a as usize], &adj[b as usize]);
        while i < la.len() && j < lb.len() {
            match la[i].cmp(&lb[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if la[i] > b {
                        out.push((a, b, la[i]));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    out
}

/// Label-triple → motif lookup table for the 6-label triangle counter.
/// Label encoding: `pair_slot * 2 + dir_from_lower`, with pair slots
/// 0=(x,y), 1=(x,z), 2=(y,z) for the triangle's sorted nodes x < y < z.
fn tri_label_lut() -> &'static [Option<Motif>; 216] {
    static LUT: OnceLock<[Option<Motif>; 216]> = OnceLock::new();
    LUT.get_or_init(|| {
        let edge_of = |label: usize, t: Timestamp| -> TemporalEdge {
            let (lo, hi) = match label / 2 {
                0 => (0, 1),
                1 => (0, 2),
                _ => (1, 2),
            };
            if label.is_multiple_of(2) {
                TemporalEdge::new(lo, hi, t)
            } else {
                TemporalEdge::new(hi, lo, t)
            }
        };
        let mut lut = [None; 216];
        for l1 in 0..6 {
            for l2 in 0..6 {
                for l3 in 0..6 {
                    // Valid triangle sequences use all three pair slots.
                    let slots = [l1 / 2, l2 / 2, l3 / 2];
                    let mut seen = [false; 3];
                    for &s in &slots {
                        seen[s] = true;
                    }
                    if seen == [true; 3] {
                        lut[(l1 * 6 + l2) * 6 + l3] =
                            classify(edge_of(l1, 1), edge_of(l2, 2), edge_of(l3, 3));
                    }
                }
            }
        }
        lut
    })
}

/// Exact triangle-motif counts via static triangle enumeration plus the
/// merged-sequence counter. Each instance counted once.
#[must_use]
pub fn count_triangles(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let triangles = static_triangles(g);
    triangles.iter().fold(MotifMatrix::default(), |acc, &tri| {
        count_one_triangle(g, tri, delta, acc)
    })
}

fn count_one_triangle(
    g: &TemporalGraph,
    (x, y, z): StaticTriangle,
    delta: Timestamp,
    mut acc: MotifMatrix,
) -> MotifMatrix {
    // Merge the three pair lists by edge id (chronological total order),
    // labelling each event with pair slot × direction.
    let lists = [
        g.pair_events(x, y),
        g.pair_events(x, z),
        g.pair_events(y, z),
    ];
    let mut merged: Vec<(u8, Timestamp, u32)> =
        Vec::with_capacity(lists.iter().map(|l| l.len()).sum());
    for (slot, list) in lists.iter().enumerate() {
        for p in *list {
            let label = (slot * 2 + p.dir_from_lo.index()) as u8;
            merged.push((label, p.t, p.edge));
        }
    }
    merged.sort_unstable_by_key(|&(_, _, id)| id);
    let events: Vec<(u8, Timestamp)> = merged.iter().map(|&(l, t, _)| (l, t)).collect();

    let mut counter: SequenceCounter<6> = SequenceCounter::default();
    counter.count(&events, delta);
    let lut = tri_label_lut();
    for l1 in 0..6 {
        for l2 in 0..6 {
            for l3 in 0..6 {
                if let Some(m) = lut[(l1 * 6 + l2) * 6 + l3] {
                    acc.add(m, counter.get(l1, l2, l3));
                }
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------
// Full counts
// ---------------------------------------------------------------------

/// Exact counts of all 36 motifs (EX, single-threaded).
#[must_use]
pub fn count_all(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let mut mx = count_pairs(g, delta);
    let (star, _) = count_stars(g, delta);
    star.add_to_matrix(&mut mx);
    let tri = count_triangles(g, delta);
    mx.merge(&tri);
    mx
}

/// Parallel EX: the pair, star and triangle phases run one after
/// another, each fanned out over its natural unit (pair slots, centers,
/// static triangles) on [`hare::exec::workers`]`(num_threads)` threads
/// and folded in task order. This is the analogue of the paper's OpenMP
/// EX port used in Fig. 11.
#[must_use]
pub fn count_all_parallel(g: &TemporalGraph, delta: Timestamp, num_threads: usize) -> MotifMatrix {
    let num_pairs = g.pairs().num_pairs();
    let slots = exec::map(
        num_threads,
        0,
        exec::chunks(num_pairs, 256.max(num_pairs / 64 + 1)).collect(),
        |range, _| {
            range.fold(PairCounter::default(), |acc, slot| {
                count_pair_slot(g, slot, delta, acc)
            })
        },
    );
    let mut pc = PairCounter::default();
    for part in &slots {
        pc.merge(part);
    }
    let mut mx = MotifMatrix::default();
    pc.add_to_matrix_pair_based(&mut mx);

    let num_nodes = g.num_nodes();
    let centers = exec::map(
        num_threads,
        0,
        exec::chunks(num_nodes, 256.max(num_nodes / 64 + 1)).collect(),
        |range, _| {
            let mut star = StarCounter::default();
            let mut pair = PairCounter::default();
            for u in range {
                count_stars_at(g, u as NodeId, delta, &mut star, &mut pair);
            }
            star
        },
    );
    let mut star = StarCounter::default();
    for part in &centers {
        star.merge(part);
    }
    star.add_to_matrix(&mut mx);

    let triangles = static_triangles(g);
    let tris = exec::map(
        num_threads,
        0,
        triangles.chunks(64.max(triangles.len() / 64 + 1)).collect(),
        |chunk, _| {
            chunk.iter().fold(MotifMatrix::default(), |acc, &tri| {
                count_one_triangle(g, tri, delta, acc)
            })
        },
    );
    for part in &tris {
        mx.merge(part);
    }
    mx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_all;
    use hare::motif::{m, MotifCategory};
    use temporal_graph::gen::{erdos_renyi_temporal, paper_fig1_toy, GenConfig};

    #[test]
    fn ex_pairs_match_oracle() {
        let g = paper_fig1_toy();
        let mx = count_pairs(&g, 10);
        assert_eq!(mx.get(m(6, 5)), 1);
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn ex_stars_match_fast_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi_temporal(15, 250, 300, seed);
            let delta = 80;
            let (ex_star, ex_pair) = count_stars(&g, delta);
            let fast = hare::fused::count_graph::<true, false, false>(&g, delta);
            assert_eq!(ex_star, fast.star, "stars, seed {seed}");
            assert_eq!(ex_pair, fast.pair, "pairs, seed {seed}");
        }
    }

    #[test]
    fn static_triangle_enumeration_on_known_graph() {
        // Triangle 0-1-2 plus a pendant pair 2-3.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 1),
            TemporalEdge::new(1, 2, 2),
            TemporalEdge::new(2, 0, 3),
            TemporalEdge::new(2, 3, 4),
        ]);
        assert_eq!(static_triangles(&g), vec![(0, 1, 2)]);
    }

    #[test]
    fn tri_label_lut_has_48_valid_entries() {
        let lut = tri_label_lut();
        let valid = lut.iter().filter(|e| e.is_some()).count();
        // 3! pair-slot orders × 2^3 directions.
        assert_eq!(valid, 48);
        for motif in lut.iter().flatten() {
            assert_eq!(motif.category(), MotifCategory::Triangle);
        }
    }

    #[test]
    fn ex_triangles_match_oracle_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi_temporal(12, 220, 250, seed);
            let delta = 70;
            let ex = count_triangles(&g, delta);
            let oracle = enumerate_all(&g, delta);
            for mo in Motif::all().filter(|m| m.category() == MotifCategory::Triangle) {
                assert_eq!(ex.get(mo), oracle.get(mo), "{mo} seed={seed}");
            }
        }
    }

    #[test]
    fn ex_full_count_matches_fast_and_oracle() {
        let g = GenConfig {
            nodes: 60,
            edges: 1_500,
            time_span: 20_000,
            seed: 17,
            ..GenConfig::default()
        }
        .generate();
        let delta = 2_000;
        let ex = count_all(&g, delta);
        let fast = hare::count_motifs(&g, delta);
        assert_eq!(ex, fast.matrix);
        let oracle = enumerate_all(&g, delta);
        assert_eq!(ex, oracle);
    }

    #[test]
    fn parallel_ex_matches_sequential() {
        let g = erdos_renyi_temporal(25, 600, 800, 8);
        let delta = 150;
        let seq = count_all(&g, delta);
        for threads in 1..=4 {
            assert_eq!(
                count_all_parallel(&g, delta, threads),
                seq,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![]);
        assert_eq!(count_all(&g, 100).total(), 0);
        assert!(static_triangles(&g).is_empty());
    }
}
