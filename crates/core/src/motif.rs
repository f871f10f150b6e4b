//! The 36-motif taxonomy of Fig. 2 and its canonical counter mappings.
//!
//! The paper categorises all 2- and 3-node, 3-edge δ-temporal motifs into
//! three classes by topology (§IV):
//!
//! * **pair** motifs — 2 nodes, all 3 edges between them (4 classes,
//!   grid cells `M55, M56, M65, M66`),
//! * **star** motifs — 3 nodes, center node touching all 3 edges
//!   (24 classes, grid columns 1–4),
//! * **triangle** motifs — 3 nodes, 3 distinct node pairs (8 classes,
//!   cells `M15..M45, M16..M46`).
//!
//! Counting happens in *counter space* (`Star[type][d1][d2][d3]`,
//! `Pair[d1][d2][d3]`, `Tri[type][di][dj][dk]`) and is folded into the
//! canonical 6×6 grid at the end. The fold tables in this module are
//! anchored to every constraint the paper states in text:
//!
//! * `Star[I, in, o, in] = M24` (§IV.A.2);
//! * the all-outward stars of types I/III are `M13`/`M53` (§V.D compares
//!   their near-equal counts on WikiTalk);
//! * the four pair isomorphism classes (§IV.A.3, with the paper's obvious
//!   typo in the last identity corrected so that every class is one
//!   direction pattern and its mirror — see [`pair_motif`]);
//! * all 24 triangle cells of Fig. 8, cross-validated against the three
//!   worked instances of Fig. 1 (`M63`, `M46`, `M65`, `M25`).

use temporal_graph::Dir;

/// One of the 36 canonical δ-temporal motifs, addressed by its Fig. 2 grid
/// position `M{row}{col}` with `row, col ∈ 1..=6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Motif {
    row: u8,
    col: u8,
}

impl Motif {
    /// Construct `M{row}{col}`.
    ///
    /// # Panics
    /// Panics unless `1 <= row, col <= 6`.
    #[must_use]
    pub const fn new(row: u8, col: u8) -> Motif {
        assert!(row >= 1 && row <= 6 && col >= 1 && col <= 6);
        Motif { row, col }
    }

    /// Grid row, `1..=6`.
    #[inline]
    #[must_use]
    pub const fn row(self) -> u8 {
        self.row
    }

    /// Grid column, `1..=6`.
    #[inline]
    #[must_use]
    pub const fn col(self) -> u8 {
        self.col
    }

    /// Topological category of this grid cell.
    #[must_use]
    pub const fn category(self) -> MotifCategory {
        match (self.row, self.col) {
            (1..=4, 5..=6) => MotifCategory::Triangle,
            (5..=6, 5..=6) => MotifCategory::Pair,
            _ => MotifCategory::Star,
        }
    }

    /// All 36 motifs in row-major order.
    pub fn all() -> impl Iterator<Item = Motif> {
        (1..=6).flat_map(|r| (1..=6).map(move |c| Motif::new(r, c)))
    }
}

impl std::str::FromStr for Motif {
    type Err = String;

    /// Parse the canonical `M{row}{col}` grid name (`"M11"`..`"M66"`,
    /// case-insensitive on the `M`) — the inverse of [`Motif`]'s
    /// `Display`. Used by `--rank-motif` and the `/nodes/top?motif=`
    /// query parameter.
    fn from_str(s: &str) -> Result<Motif, String> {
        let err = || format!("invalid motif {s:?}: expected M11..M66");
        let digits = s.strip_prefix('M').or_else(|| s.strip_prefix('m'));
        let [r, c] = digits.ok_or_else(err)?.as_bytes() else {
            return Err(err());
        };
        let (row, col) = (r.wrapping_sub(b'0'), c.wrapping_sub(b'0'));
        if (1..=6).contains(&row) && (1..=6).contains(&col) {
            Ok(Motif { row, col })
        } else {
            Err(err())
        }
    }
}

impl std::fmt::Display for Motif {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}{}", self.row, self.col)
    }
}

/// Shorthand constructor used pervasively in tables and tests.
#[inline]
#[must_use]
pub const fn m(row: u8, col: u8) -> Motif {
    Motif::new(row, col)
}

/// Topological category of a motif (§IV, Fig. 2 colour coding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MotifCategory {
    /// 2 nodes, 3 edges between them (green cells).
    Pair,
    /// 3 nodes, one center incident to all 3 edges (blue cells).
    Star,
    /// 3 nodes, 3 distinct pairs (yellow cells).
    Triangle,
}

/// Star motif type by the time position of the *isolated* edge — the edge
/// whose non-center endpoint differs from the other two (§IV.A.1, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StarType {
    /// Isolated edge is first in time.
    I = 0,
    /// Isolated edge is second in time.
    II = 1,
    /// Isolated edge is third in time.
    III = 2,
}

impl StarType {
    /// Counter index (0, 1, 2).
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// All three types in index order.
    pub const ALL: [StarType; 3] = [StarType::I, StarType::II, StarType::III];
}

/// Triangle motif type by the time position of the *opposite* edge `e_k`
/// relative to the center's two edges `e_i < e_j` (§IV.B.1, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriType {
    /// `t_k < t_i`: opposite edge comes first.
    I = 0,
    /// `t_i <= t_k <= t_j`: opposite edge in the middle.
    II = 1,
    /// `t_j < t_k`: opposite edge comes last.
    III = 2,
}

impl TriType {
    /// Counter index (0, 1, 2).
    #[inline]
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// All three types in index order.
    pub const ALL: [TriType; 3] = [TriType::I, TriType::II, TriType::III];
}

/// Grid cell for a star counter entry `Star[ty, d1, d2, d3]`, where
/// `d1..d3` are the directions (w.r.t. the center) of the three edges in
/// time order.
///
/// Convention: the *isolated* edge's direction picks the
/// row inside the type's row block (`Out` → first row); the two bonded
/// edges `(d_a, d_b)` in time order pick the column
/// `2·[d_a = Out] + [d_b = In] + 1`.
#[must_use]
pub fn star_motif(ty: StarType, d1: Dir, d2: Dir, d3: Dir) -> Motif {
    let (isolated, bond_a, bond_b) = match ty {
        StarType::I => (d1, d2, d3),
        StarType::II => (d2, d1, d3),
        StarType::III => (d3, d1, d2),
    };
    let base_row = match ty {
        StarType::I => 1,
        StarType::II => 3,
        StarType::III => 5,
    };
    let row = base_row + matches!(isolated, Dir::In) as u8;
    let col = 2 * matches!(bond_a, Dir::Out) as u8 + matches!(bond_b, Dir::In) as u8 + 1;
    Motif::new(row, col)
}

/// Grid cell for a pair counter entry `Pair[d1, d2, d3]` (directions
/// w.r.t. one endpoint, edges in time order).
///
/// Swapping the two nodes flips every direction, so cells come in
/// isomorphic mirror pairs; both map to the same motif (§IV.A.3):
/// `M55 = {ooo, iii}`, `M56 = {oii, ioo}`, `M65 = {oio, ioi}`,
/// `M66 = {ooi, iio}`.
#[must_use]
pub fn pair_motif(d1: Dir, d2: Dir, d3: Dir) -> Motif {
    // Canonicalise so the first edge is outward.
    let (d2, d3) = if d1 == Dir::Out {
        (d2, d3)
    } else {
        (d2.flip(), d3.flip())
    };
    match (d2, d3) {
        (Dir::Out, Dir::Out) => m(5, 5),
        (Dir::In, Dir::In) => m(5, 6),
        (Dir::In, Dir::Out) => m(6, 5),
        (Dir::Out, Dir::In) => m(6, 6),
    }
}

/// Grid cell for a triangle counter entry `Tri[ty, di, dj, dk]`.
///
/// `di, dj` are the directions (w.r.t. the center `u`) of the center's two
/// edges in time order; `dk` is the direction of the opposite edge w.r.t.
/// `v = e_i.v` (`Out` = `v -> w`). Each of the 8 motif classes corresponds
/// to exactly one cell of each type (Fig. 8); the full 24-cell table below
/// is transcribed from the paper's Fig. 8.
#[must_use]
pub fn tri_motif(ty: TriType, di: Dir, dj: Dir, dk: Dir) -> Motif {
    use Dir::{In as I, Out as O};
    match (ty, di, dj, dk) {
        // M15: Tri[I,in,in,o] ~ Tri[II,in,o,o] ~ Tri[III,o,o,o]
        (TriType::I, I, I, O) | (TriType::II, I, O, O) | (TriType::III, O, O, O) => m(1, 5),
        // M16: Tri[I,in,in,in] ~ Tri[II,o,o,o] ~ Tri[III,in,o,o]
        (TriType::I, I, I, I) | (TriType::II, O, O, O) | (TriType::III, I, O, O) => m(1, 6),
        // M25: Tri[I,o,in,o] ~ Tri[II,in,o,in] ~ Tri[III,o,in,o]
        (TriType::I, O, I, O) | (TriType::II, I, O, I) | (TriType::III, O, I, O) => m(2, 5),
        // M26: Tri[I,in,o,in] ~ Tri[II,o,in,o] ~ Tri[III,in,o,in]
        (TriType::I, I, O, I) | (TriType::II, O, I, O) | (TriType::III, I, O, I) => m(2, 6),
        // M35: Tri[I,o,o,o] ~ Tri[II,in,in,in] ~ Tri[III,o,in,in]
        (TriType::I, O, O, O) | (TriType::II, I, I, I) | (TriType::III, O, I, I) => m(3, 5),
        // M36: Tri[I,o,in,in] ~ Tri[II,o,o,in] ~ Tri[III,in,in,o]
        (TriType::I, O, I, I) | (TriType::II, O, O, I) | (TriType::III, I, I, O) => m(3, 6),
        // M45: Tri[I,in,o,o] ~ Tri[II,in,in,o] ~ Tri[III,o,o,in]
        (TriType::I, I, O, O) | (TriType::II, I, I, O) | (TriType::III, O, O, I) => m(4, 5),
        // M46: Tri[I,o,o,in] ~ Tri[II,o,in,in] ~ Tri[III,in,in,in]
        (TriType::I, O, O, I) | (TriType::II, O, I, I) | (TriType::III, I, I, I) => m(4, 6),
    }
}

/// Classify one chronologically ordered edge triple as a canonical
/// motif. Returns `None` if the triple spans more than 3 distinct nodes
/// (not a 2-/3-node motif). Timestamps are not δ-checked — callers
/// enforce the window.
#[must_use]
pub fn classify_instance(
    e1: temporal_graph::TemporalEdge,
    e2: temporal_graph::TemporalEdge,
    e3: temporal_graph::TemporalEdge,
) -> Option<Motif> {
    use temporal_graph::NodeId;
    let edges = [e1, e2, e3];
    let mut nodes: [NodeId; 6] = [0; 6];
    let mut n = 0usize;
    for e in &edges {
        for node in [e.src, e.dst] {
            if !nodes[..n].contains(&node) {
                nodes[n] = node;
                n += 1;
            }
        }
    }
    match n {
        2 => {
            // Pair motif: directions relative to e1's source.
            let anchor = e1.src;
            let dir = |e: &temporal_graph::TemporalEdge| {
                if e.src == anchor {
                    Dir::Out
                } else {
                    Dir::In
                }
            };
            Some(pair_motif(Dir::Out, dir(&e2), dir(&e3)))
        }
        3 => {
            // Star if some node touches all three edges.
            if let Some(&center) = nodes[..3]
                .iter()
                .find(|&&v| edges.iter().all(|e| e.src == v || e.dst == v))
            {
                let far = edges.map(|e| if e.src == center { e.dst } else { e.src });
                let ty = if far[1] == far[2] {
                    StarType::I
                } else if far[0] == far[2] {
                    StarType::II
                } else {
                    debug_assert_eq!(far[0], far[1]);
                    StarType::III
                };
                let d = |i: usize| edges[i].dir_from(center);
                Some(star_motif(ty, d(0), d(1), d(2)))
            } else {
                // Triangle: use the vertex shared by e1 and e2 as center
                // (its opposite edge is then e3 → Triangle-III); Fig. 8
                // guarantees any center choice yields the same class.
                let center = if e1.src == e2.src || e1.src == e2.dst {
                    e1.src
                } else {
                    e1.dst
                };
                let v = if e1.src == center { e1.dst } else { e1.src };
                let dk = if e3.src == v { Dir::Out } else { Dir::In };
                Some(tri_motif(
                    TriType::III,
                    e1.dir_from(center),
                    e2.dir_from(center),
                    dk,
                ))
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use temporal_graph::Dir::{In, Out};

    #[test]
    fn grid_categories_match_fig2_colour_blocks() {
        let mut pair = 0;
        let mut star = 0;
        let mut tri = 0;
        for mo in Motif::all() {
            match mo.category() {
                MotifCategory::Pair => pair += 1,
                MotifCategory::Star => star += 1,
                MotifCategory::Triangle => tri += 1,
            }
        }
        assert_eq!((pair, star, tri), (4, 24, 8));
    }

    #[test]
    fn motif_display_and_accessors() {
        let mo = m(2, 4);
        assert_eq!(mo.to_string(), "M24");
        assert_eq!((mo.row(), mo.col()), (2, 4));
    }

    #[test]
    #[should_panic]
    fn motif_out_of_range_panics() {
        let _ = Motif::new(0, 3);
    }

    #[test]
    fn star_anchor_from_paper_text() {
        // §IV.A.2: "Star[I,in,o,in] records the number of motif instances
        // of M24".
        assert_eq!(star_motif(StarType::I, In, Out, In), m(2, 4));
        // §V.D: M13 / M53 are the all-outward type-I / type-III stars.
        assert_eq!(star_motif(StarType::I, Out, Out, Out), m(1, 3));
        assert_eq!(star_motif(StarType::III, Out, Out, Out), m(5, 3));
    }

    #[test]
    fn star_mapping_is_a_bijection_onto_star_cells() {
        let mut seen: HashMap<Motif, (StarType, Dir, Dir, Dir)> = HashMap::new();
        for ty in StarType::ALL {
            for d1 in Dir::BOTH {
                for d2 in Dir::BOTH {
                    for d3 in Dir::BOTH {
                        let mo = star_motif(ty, d1, d2, d3);
                        assert_eq!(mo.category(), MotifCategory::Star, "{mo}");
                        let prev = seen.insert(mo, (ty, d1, d2, d3));
                        assert!(prev.is_none(), "{mo} mapped twice");
                    }
                }
            }
        }
        assert_eq!(seen.len(), 24);
    }

    #[test]
    fn star_types_occupy_their_fig3_row_blocks() {
        for d1 in Dir::BOTH {
            for d2 in Dir::BOTH {
                for d3 in Dir::BOTH {
                    assert!(matches!(star_motif(StarType::I, d1, d2, d3).row(), 1 | 2));
                    assert!(matches!(star_motif(StarType::II, d1, d2, d3).row(), 3 | 4));
                    assert!(matches!(star_motif(StarType::III, d1, d2, d3).row(), 5 | 6));
                }
            }
        }
    }

    #[test]
    fn pair_mapping_matches_paper_identities() {
        // §IV.A.3, typo-corrected: each class is a pattern and its mirror.
        assert_eq!(pair_motif(In, In, In), m(5, 5));
        assert_eq!(pair_motif(Out, Out, Out), m(5, 5));
        assert_eq!(pair_motif(In, Out, Out), m(5, 6));
        assert_eq!(pair_motif(Out, In, In), m(5, 6));
        assert_eq!(pair_motif(In, Out, In), m(6, 5));
        assert_eq!(pair_motif(Out, In, Out), m(6, 5));
        assert_eq!(pair_motif(In, In, Out), m(6, 6));
        assert_eq!(pair_motif(Out, Out, In), m(6, 6));
    }

    #[test]
    fn pair_mapping_is_flip_invariant() {
        for d1 in Dir::BOTH {
            for d2 in Dir::BOTH {
                for d3 in Dir::BOTH {
                    assert_eq!(
                        pair_motif(d1, d2, d3),
                        pair_motif(d1.flip(), d2.flip(), d3.flip())
                    );
                }
            }
        }
    }

    #[test]
    fn pair_cells_cover_all_four_pair_motifs() {
        let mut seen = std::collections::HashSet::new();
        for d1 in Dir::BOTH {
            for d2 in Dir::BOTH {
                for d3 in Dir::BOTH {
                    let mo = pair_motif(d1, d2, d3);
                    assert_eq!(mo.category(), MotifCategory::Pair);
                    seen.insert(mo);
                }
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn tri_mapping_covers_each_class_once_per_type() {
        // Fig. 8: each of the 8 triangle motifs corresponds to exactly one
        // cell of each type, and the 24 cells partition exactly.
        let mut by_class: HashMap<Motif, Vec<TriType>> = HashMap::new();
        for ty in TriType::ALL {
            let mut per_type = std::collections::HashSet::new();
            for di in Dir::BOTH {
                for dj in Dir::BOTH {
                    for dk in Dir::BOTH {
                        let mo = tri_motif(ty, di, dj, dk);
                        assert_eq!(mo.category(), MotifCategory::Triangle);
                        assert!(per_type.insert(mo), "{mo} duplicated within type");
                        by_class.entry(mo).or_default().push(ty);
                    }
                }
            }
            assert_eq!(per_type.len(), 8);
        }
        assert_eq!(by_class.len(), 8);
        for (mo, types) in by_class {
            assert_eq!(types.len(), 3, "{mo} must appear once per type");
        }
    }

    #[test]
    fn tri_worked_examples_from_fig1() {
        // §IV.B.2 example 1: center v_e, e_i=(1s,d,o), e_j=(6s,c,o),
        // e_k = (v_d -> v_c, 10s): dir w.r.t. v = v_d is Out, type III.
        // "thus Tri[III,o,o,o] += 1" — and §III has no class claim; Fig. 8
        // puts Tri[III,o,o,o] in M15.
        assert_eq!(tri_motif(TriType::III, Out, Out, Out), m(1, 5));
        // §III: <(v_e,v_c,6s),(v_d,v_c,10s),(v_d,v_e,14s)> is M46. With
        // center v_e this is Tri[II, o, in, dk] with e_k = v_d -> v_c seen
        // from v = v_c: In. (The §IV.B.2 text writes Tri[II,o,in,o] — a
        // typo; Fig. 8 and the §III class statement require dk = in.)
        assert_eq!(tri_motif(TriType::II, Out, In, In), m(4, 6));
        // §IV.B.3: <(v_a,v_c,8s),(v_d,v_a,9s),(v_c,v_d,17s)> is M25 and is
        // seen as Tri[III,o,in,o] / Tri[II,in,o,in] / Tri[I,o,in,o] from
        // centers v_a / v_c / v_d.
        assert_eq!(tri_motif(TriType::III, Out, In, Out), m(2, 5));
        assert_eq!(tri_motif(TriType::II, In, Out, In), m(2, 5));
        assert_eq!(tri_motif(TriType::I, Out, In, Out), m(2, 5));
    }

    #[test]
    fn tri_fig8_first_column_cells() {
        // Spot-check the remaining Fig. 8 rows.
        assert_eq!(tri_motif(TriType::I, In, Out, Out), m(4, 5));
        assert_eq!(tri_motif(TriType::II, In, In, Out), m(4, 5));
        assert_eq!(tri_motif(TriType::III, Out, Out, In), m(4, 5));
        assert_eq!(tri_motif(TriType::I, Out, Out, Out), m(3, 5));
        assert_eq!(tri_motif(TriType::II, In, In, In), m(3, 5));
        assert_eq!(tri_motif(TriType::III, Out, In, In), m(3, 5));
        assert_eq!(tri_motif(TriType::I, In, Out, In), m(2, 6));
        assert_eq!(tri_motif(TriType::II, Out, In, Out), m(2, 6));
        assert_eq!(tri_motif(TriType::III, In, Out, In), m(2, 6));
        assert_eq!(tri_motif(TriType::I, In, In, In), m(1, 6));
        assert_eq!(tri_motif(TriType::II, Out, Out, Out), m(1, 6));
        assert_eq!(tri_motif(TriType::III, In, Out, Out), m(1, 6));
        assert_eq!(tri_motif(TriType::I, Out, In, In), m(3, 6));
        assert_eq!(tri_motif(TriType::II, Out, Out, In), m(3, 6));
        assert_eq!(tri_motif(TriType::III, In, In, Out), m(3, 6));
    }

    #[test]
    fn motif_parse_roundtrips_display() {
        for motif in Motif::all() {
            assert_eq!(motif.to_string().parse::<Motif>(), Ok(motif));
        }
        assert_eq!("m65".parse::<Motif>(), Ok(m(6, 5)));
        for bad in ["", "M", "M1", "M111", "M07", "M70", "X11", "M 1", "Mab"] {
            assert!(bad.parse::<Motif>().is_err(), "{bad:?}");
        }
    }
}
