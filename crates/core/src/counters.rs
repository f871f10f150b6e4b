//! The compact counting structures of §IV: the quadruple counters
//! `Star[·,·,·,·]` and `Tri[·,·,·,·]`, the triple counter `Pair[·,·,·]`,
//! the [`CenterTally`] the FAST kernel fills, and the canonical 6×6
//! result grid they fold into.
//!
//! The counters store their cells flat, in the order the kernel indexes
//! them: `ty·8 + d1·4 + d2·2 + d3` for stars and triangles, `d1·4 +
//! d2·2 + d3` for pairs (`Out = 0`, `In = 1`).

use crate::motif::{pair_motif, star_motif, tri_motif, Motif, MotifCategory, StarType, TriType};
use temporal_graph::Dir;

/// Flat index of a `[type][d1][d2][d3]` cell.
#[inline]
fn quad(ty: usize, d1: Dir, d2: Dir, d3: Dir) -> usize {
    (ty << 3) | triple(d1, d2, d3)
}

/// Flat index of a `[d1][d2][d3]` cell.
#[inline]
fn triple(d1: Dir, d2: Dir, d3: Dir) -> usize {
    (d1.index() << 2) | (d2.index() << 1) | d3.index()
}

fn add_cells<const N: usize>(a: &mut [u64; N], b: &[u64; N]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// The raw per-center output of the FAST kernel ([`crate::fused`]): the
/// star, pair and triangle counters of whichever centers and first-edge
/// ranges were scanned into it. Tallies of disjoint scans merge by
/// addition, so one node, one HARE task, one sampled window or one
/// whole graph all use the same type.
///
/// The triangle cells follow the kernel's orientation flag: a
/// three-view tally holds every instance once per vertex, an oriented
/// tally once, at its lowest-rank vertex. Fold each with its own
/// method ([`CenterTally::into_counts`] or
/// [`CenterTally::into_counts_oriented`]); never merge the two kinds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CenterTally {
    /// Star cells (each instance at its unique center).
    pub star: StarCounter,
    /// Pair cells (each instance once from each endpoint).
    pub pair: PairCounter,
    /// Triangle cells: three-view (once from each vertex) or oriented
    /// (once, from the lowest-rank vertex), per the producing scan.
    pub tri: TriCounter,
}

impl CenterTally {
    /// Element-wise accumulate another tally.
    pub fn merge(&mut self, other: &CenterTally) {
        self.star.merge(&other.star);
        self.pair.merge(&other.pair);
        self.tri.merge(&other.tri);
    }

    /// Fold a whole-graph **three-view** tally into the canonical grid:
    /// star cells map 1:1, pair mirror cells halve (each instance was
    /// seen from both endpoints), triangle class cells third (seen from
    /// all three vertices).
    #[must_use]
    pub fn into_counts(self) -> MotifCounts {
        let mut matrix = MotifMatrix::default();
        self.tri.add_to_matrix(&mut matrix);
        self.finish(matrix)
    }

    /// Fold a whole-graph **oriented** tally into the canonical grid: as
    /// [`CenterTally::into_counts`], except that triangle class cells
    /// are summed (each instance was seen once).
    #[must_use]
    pub fn into_counts_oriented(self) -> MotifCounts {
        let mut matrix = MotifMatrix::default();
        self.tri.add_to_matrix_oriented(&mut matrix);
        self.finish(matrix)
    }

    fn finish(self, mut matrix: MotifMatrix) -> MotifCounts {
        self.star.add_to_matrix(&mut matrix);
        self.pair.add_to_matrix_center_based(&mut matrix);
        MotifCounts {
            matrix,
            star: self.star,
            pair: self.pair,
            tri: self.tri,
        }
    }
}

/// Quadruple counter for star temporal motifs:
/// `Star[type][d1][d2][d3]` (§IV.A.2). 3×2×2×2 = 24 cells, one per
/// non-isomorphic star motif.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StarCounter {
    pub(crate) cells: [u64; 24],
}

impl StarCounter {
    /// Counter value for `Star[ty, d1, d2, d3]`.
    #[inline]
    #[must_use]
    pub fn get(&self, ty: StarType, d1: Dir, d2: Dir, d3: Dir) -> u64 {
        self.cells[quad(ty.index(), d1, d2, d3)]
    }

    /// Add `n` to `Star[ty, d1, d2, d3]`.
    #[inline]
    pub fn add(&mut self, ty: StarType, d1: Dir, d2: Dir, d3: Dir, n: u64) {
        self.cells[quad(ty.index(), d1, d2, d3)] += n;
    }

    /// Subtract `n` from `Star[ty, d1, d2, d3]` (used by windowed counting
    /// to retire expired instances; the caller guarantees `n` was added
    /// earlier, so the cell never goes negative).
    #[inline]
    pub fn sub(&mut self, ty: StarType, d1: Dir, d2: Dir, d3: Dir, n: u64) {
        self.cells[quad(ty.index(), d1, d2, d3)] -= n;
    }

    /// Element-wise accumulate another counter (used to reduce per-thread
    /// partials in HARE).
    pub fn merge(&mut self, other: &StarCounter) {
        add_cells(&mut self.cells, &other.cells);
    }

    /// Sum over all 24 cells.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Iterate `(type, d1, d2, d3, count)` over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (StarType, Dir, Dir, Dir, u64)> + '_ {
        StarType::ALL.into_iter().flat_map(move |ty| {
            Dir::BOTH.into_iter().flat_map(move |d1| {
                Dir::BOTH.into_iter().flat_map(move |d2| {
                    Dir::BOTH
                        .into_iter()
                        .map(move |d3| (ty, d1, d2, d3, self.get(ty, d1, d2, d3)))
                })
            })
        })
    }

    /// Fold into the canonical grid. Star cells map 1:1 onto star motifs,
    /// so this is a plain relabelling.
    pub fn add_to_matrix(&self, matrix: &mut MotifMatrix) {
        for (ty, d1, d2, d3, n) in self.iter() {
            matrix.add(star_motif(ty, d1, d2, d3), n);
        }
    }
}

/// Triple counter for pair temporal motifs: `Pair[d1][d2][d3]` (§IV.A.3).
/// 8 cells; isomorphic mirror cells fold onto the 4 pair motifs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCounter {
    pub(crate) cells: [u64; 8],
}

impl PairCounter {
    /// Counter value for `Pair[d1, d2, d3]`.
    #[inline]
    #[must_use]
    pub fn get(&self, d1: Dir, d2: Dir, d3: Dir) -> u64 {
        self.cells[triple(d1, d2, d3)]
    }

    /// Add `n` to `Pair[d1, d2, d3]`.
    #[inline]
    pub fn add(&mut self, d1: Dir, d2: Dir, d3: Dir, n: u64) {
        self.cells[triple(d1, d2, d3)] += n;
    }

    /// Subtract `n` from `Pair[d1, d2, d3]` (used by windowed counting to
    /// retire expired instances; the caller guarantees `n` was added
    /// earlier, so the cell never goes negative).
    #[inline]
    pub fn sub(&mut self, d1: Dir, d2: Dir, d3: Dir, n: u64) {
        self.cells[triple(d1, d2, d3)] -= n;
    }

    /// Element-wise accumulate another counter.
    pub fn merge(&mut self, other: &PairCounter) {
        add_cells(&mut self.cells, &other.cells);
    }

    /// Sum over all 8 cells.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Iterate `(d1, d2, d3, count)` over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (Dir, Dir, Dir, u64)> + '_ {
        Dir::BOTH.into_iter().flat_map(move |d1| {
            Dir::BOTH.into_iter().flat_map(move |d2| {
                Dir::BOTH
                    .into_iter()
                    .map(move |d3| (d1, d2, d3, self.get(d1, d2, d3)))
            })
        })
    }

    /// Fold into the grid for a **center-based** count (FAST-Star visits
    /// both endpoints of each pair instance as center, so every instance
    /// lands once in each of its two mirror cells → divide the folded sum
    /// by 2).
    ///
    /// In debug builds, asserts the mirror-cell equality invariant.
    pub fn add_to_matrix_center_based(&self, matrix: &mut MotifMatrix) {
        debug_assert!(self.mirror_cells_balanced(), "mirror cells out of balance");
        for (d1, d2, d3, n) in self.iter() {
            // Attribute only the canonical (first-edge-outward) cell to
            // avoid double counting; its mirror carries an equal value.
            if d1 == Dir::Out {
                let mirror = self.get(d1.flip(), d2.flip(), d3.flip());
                matrix.add(pair_motif(d1, d2, d3), (n + mirror) / 2);
            }
        }
    }

    /// Fold into the grid for a **pair-based** count (FAST-Pair visits
    /// each unordered pair once, so cells already hold disjoint instance
    /// sets; mirror cells are summed without division).
    pub fn add_to_matrix_pair_based(&self, matrix: &mut MotifMatrix) {
        for (d1, d2, d3, n) in self.iter() {
            matrix.add(pair_motif(d1, d2, d3), n);
        }
    }

    /// Invariant of center-based counting: `Pair[a,b,c] == Pair[¬a,¬b,¬c]`
    /// because every instance is seen once from each endpoint.
    #[must_use]
    pub fn mirror_cells_balanced(&self) -> bool {
        Dir::BOTH.into_iter().all(|d2| {
            Dir::BOTH
                .into_iter()
                .all(|d3| self.get(Dir::Out, d2, d3) == self.get(Dir::In, d2.flip(), d3.flip()))
        })
    }
}

/// Quadruple counter for triangle temporal motifs:
/// `Tri[type][di][dj][dk]` (§IV.B.2). 24 cells folding 3:1 onto the 8
/// triangle motifs (Fig. 8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriCounter {
    pub(crate) cells: [u64; 24],
}

impl TriCounter {
    /// Counter value for `Tri[ty, di, dj, dk]`.
    #[inline]
    #[must_use]
    pub fn get(&self, ty: TriType, di: Dir, dj: Dir, dk: Dir) -> u64 {
        self.cells[quad(ty.index(), di, dj, dk)]
    }

    /// Add `n` to `Tri[ty, di, dj, dk]`.
    #[inline]
    pub fn add(&mut self, ty: TriType, di: Dir, dj: Dir, dk: Dir, n: u64) {
        self.cells[quad(ty.index(), di, dj, dk)] += n;
    }

    /// Element-wise accumulate another counter.
    pub fn merge(&mut self, other: &TriCounter) {
        add_cells(&mut self.cells, &other.cells);
    }

    /// Sum over all 24 cells.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Iterate `(type, di, dj, dk, count)` over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (TriType, Dir, Dir, Dir, u64)> + '_ {
        TriType::ALL.into_iter().flat_map(move |ty| {
            Dir::BOTH.into_iter().flat_map(move |di| {
                Dir::BOTH.into_iter().flat_map(move |dj| {
                    Dir::BOTH
                        .into_iter()
                        .map(move |dk| (ty, di, dj, dk, self.get(ty, di, dj, dk)))
                })
            })
        })
    }

    /// Fold a **three-view** counter into the grid. §IV.B's FAST-Tri
    /// counts each triangle instance once per vertex (3×), landing once
    /// in each of its class's three cells (Fig. 8) — so the per-class
    /// fold divides the cell sum by 3.
    ///
    /// In debug builds, asserts the three cells of every class agree.
    pub fn add_to_matrix(&self, matrix: &mut MotifMatrix) {
        debug_assert!(self.class_cells_balanced(), "class cells out of balance");
        let sums = self.class_sums();
        for mo in Motif::all().filter(|mo| mo.category() == MotifCategory::Triangle) {
            matrix.add(mo, sums.get(mo) / 3);
        }
    }

    /// Fold an **oriented** counter into the grid. The oriented kernel
    /// counts each instance once, from its lowest-rank vertex, so it
    /// lands in exactly one of its class's three cells — which one
    /// depends on the rank order — and the per-class fold sums them.
    /// The class cells need not agree, so there is no balance check;
    /// oriented tallies are checked by differential against the
    /// oracles instead.
    pub fn add_to_matrix_oriented(&self, matrix: &mut MotifMatrix) {
        matrix.merge(&self.class_sums());
    }

    /// Per-class cell sums: the triangle motifs of the grid, each
    /// holding the sum of its class's three cells.
    fn class_sums(&self) -> MotifMatrix {
        let mut sums = MotifMatrix::default();
        for (ty, di, dj, dk, n) in self.iter() {
            sums.add(tri_motif(ty, di, dj, dk), n);
        }
        sums
    }

    /// Invariant of whole-graph three-view FAST-Tri: the three
    /// isomorphic cells of each class each count every instance exactly
    /// once, so they agree. (Oriented tallies do not satisfy it.)
    #[must_use]
    pub fn class_cells_balanced(&self) -> bool {
        let mut per_class: std::collections::HashMap<Motif, Vec<u64>> = Default::default();
        for (ty, di, dj, dk, n) in self.iter() {
            per_class
                .entry(tri_motif(ty, di, dj, dk))
                .or_default()
                .push(n);
        }
        per_class.values().all(|v| v.iter().all(|&n| n == v[0]))
    }
}

/// The canonical 6×6 result grid of Fig. 2 / Fig. 10: `counts[r][c]` is
/// the number of instances of motif `M{r+1}{c+1}`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MotifMatrix {
    counts: [[u64; 6]; 6],
}

impl MotifMatrix {
    /// Count of the given motif.
    #[inline]
    #[must_use]
    pub fn get(&self, m: Motif) -> u64 {
        self.counts[m.row() as usize - 1][m.col() as usize - 1]
    }

    /// Set the count of the given motif.
    #[inline]
    pub fn set(&mut self, m: Motif, n: u64) {
        self.counts[m.row() as usize - 1][m.col() as usize - 1] = n;
    }

    /// Add to the count of the given motif.
    #[inline]
    pub fn add(&mut self, m: Motif, n: u64) {
        self.counts[m.row() as usize - 1][m.col() as usize - 1] += n;
    }

    /// Subtract from the count of the given motif (used by windowed
    /// counting to retire expired instances; the caller guarantees `n` was
    /// added earlier, so the cell never goes negative).
    #[inline]
    pub fn sub(&mut self, m: Motif, n: u64) {
        self.counts[m.row() as usize - 1][m.col() as usize - 1] -= n;
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &MotifMatrix) {
        for r in 0..6 {
            for c in 0..6 {
                self.counts[r][c] += other.counts[r][c];
            }
        }
    }

    /// Iterate `(motif, count)` in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Motif, u64)> + '_ {
        Motif::all().map(move |m| (m, self.get(m)))
    }

    /// Total instances across all 36 motifs.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.iter().map(|(_, n)| n).sum()
    }

    /// Total instances within one category.
    #[must_use]
    pub fn category_total(&self, cat: MotifCategory) -> u64 {
        self.iter()
            .filter(|(m, _)| m.category() == cat)
            .map(|(_, n)| n)
            .sum()
    }

    /// Raw row-major array (row/col are 0-based here).
    #[must_use]
    pub fn as_array(&self) -> &[[u64; 6]; 6] {
        &self.counts
    }
}

impl std::fmt::Display for MotifMatrix {
    /// Render in the layout of Fig. 10: six rows of six counts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "        col1        col2        col3        col4        col5        col6"
        )?;
        for r in 0..6 {
            write!(f, "row{}", r + 1)?;
            for c in 0..6 {
                write!(f, "{:>12}", self.counts[r][c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Final result of a full 36-motif count: the canonical grid plus access
/// to the raw counters for diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MotifCounts {
    /// Canonical 6×6 grid.
    pub matrix: MotifMatrix,
    /// Raw star counter (per-center attribution).
    pub star: StarCounter,
    /// Raw pair counter (attribution depends on the producing algorithm).
    pub pair: PairCounter,
    /// Raw triangle counter, attributed as the producing driver's kernel
    /// was oriented: the whole-graph drivers ([`crate::count_motifs`],
    /// [`crate::Hare`], [`crate::count_motifs_ooc`]) count each instance
    /// once, at its lowest-rank vertex; three-view folds such as the
    /// exact `p = 1` sample hold each instance once per vertex.
    pub tri: TriCounter,
}

impl MotifCounts {
    /// Count of one motif.
    #[inline]
    #[must_use]
    pub fn get(&self, m: Motif) -> u64 {
        self.matrix.get(m)
    }

    /// Total across all 36 motifs.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.matrix.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motif::m;
    use temporal_graph::Dir::{In, Out};

    #[test]
    fn star_counter_get_add_merge() {
        let mut a = StarCounter::default();
        a.add(StarType::I, In, Out, In, 3);
        assert_eq!(a.get(StarType::I, In, Out, In), 3);
        assert_eq!(a.get(StarType::II, In, Out, In), 0);
        let mut b = StarCounter::default();
        b.add(StarType::I, In, Out, In, 2);
        b.add(StarType::III, Out, Out, Out, 5);
        a.merge(&b);
        assert_eq!(a.get(StarType::I, In, Out, In), 5);
        assert_eq!(a.get(StarType::III, Out, Out, Out), 5);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn counters_subtract_what_was_added() {
        let mut s = StarCounter::default();
        s.add(StarType::II, Out, In, Out, 5);
        s.sub(StarType::II, Out, In, Out, 3);
        assert_eq!(s.get(StarType::II, Out, In, Out), 2);
        let mut p = PairCounter::default();
        p.add(In, In, Out, 4);
        p.sub(In, In, Out, 4);
        assert_eq!(p.total(), 0);
        let mut mx = MotifMatrix::default();
        mx.add(m(2, 6), 7);
        mx.sub(m(2, 6), 6);
        assert_eq!(mx.get(m(2, 6)), 1);
    }

    #[test]
    fn star_counter_folds_to_correct_cells() {
        let mut s = StarCounter::default();
        s.add(StarType::I, In, Out, In, 7);
        let mut mx = MotifMatrix::default();
        s.add_to_matrix(&mut mx);
        assert_eq!(mx.get(m(2, 4)), 7);
        assert_eq!(mx.total(), 7);
    }

    #[test]
    fn pair_counter_center_based_fold_halves() {
        let mut p = PairCounter::default();
        // A center-based count sees each instance from both endpoints.
        p.add(Out, Out, Out, 4);
        p.add(In, In, In, 4);
        let mut mx = MotifMatrix::default();
        p.add_to_matrix_center_based(&mut mx);
        assert_eq!(mx.get(m(5, 5)), 4);
        assert_eq!(mx.total(), 4);
    }

    #[test]
    fn pair_counter_pair_based_fold_sums() {
        let mut p = PairCounter::default();
        p.add(Out, In, Out, 2); // M65
        p.add(In, Out, In, 3); // M65 mirror — disjoint instances here
        let mut mx = MotifMatrix::default();
        p.add_to_matrix_pair_based(&mut mx);
        assert_eq!(mx.get(m(6, 5)), 5);
    }

    #[test]
    fn pair_mirror_balance_invariant() {
        let mut p = PairCounter::default();
        p.add(Out, In, Out, 2);
        assert!(!p.mirror_cells_balanced());
        p.add(In, Out, In, 2);
        assert!(p.mirror_cells_balanced());
    }

    #[test]
    fn tri_counter_fold_divides_by_three() {
        let mut t = TriCounter::default();
        // M25's three isomorphic cells (Fig. 8), one count each.
        t.add(TriType::I, Out, In, Out, 1);
        t.add(TriType::II, In, Out, In, 1);
        t.add(TriType::III, Out, In, Out, 1);
        assert!(t.class_cells_balanced());
        let mut mx = MotifMatrix::default();
        t.add_to_matrix(&mut mx);
        assert_eq!(mx.get(m(2, 5)), 1);
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn tri_counter_oriented_fold_sums_class_cells() {
        let mut t = TriCounter::default();
        // Two M25 instances, each seen once but from different vertices,
        // plus one M26 instance: class cells need not agree.
        t.add(TriType::I, Out, In, Out, 1);
        t.add(TriType::III, Out, In, Out, 1);
        t.add(TriType::I, In, Out, In, 1);
        let mut mx = MotifMatrix::default();
        t.add_to_matrix_oriented(&mut mx);
        assert_eq!(mx.get(m(2, 5)), 2);
        assert_eq!(mx.get(m(2, 6)), 1);
        assert_eq!(mx.category_total(MotifCategory::Triangle), 3);
        assert_eq!(mx.total(), 3);
    }

    #[test]
    fn tri_class_balance_detects_mismatch() {
        let mut t = TriCounter::default();
        t.add(TriType::I, Out, In, Out, 2);
        t.add(TriType::II, In, Out, In, 1);
        assert!(!t.class_cells_balanced());
    }

    #[test]
    fn matrix_accessors_and_totals() {
        let mut mx = MotifMatrix::default();
        mx.set(m(1, 1), 5);
        mx.add(m(1, 1), 2);
        mx.add(m(5, 5), 1);
        mx.add(m(1, 5), 10);
        assert_eq!(mx.get(m(1, 1)), 7);
        assert_eq!(mx.total(), 18);
        assert_eq!(mx.category_total(MotifCategory::Star), 7);
        assert_eq!(mx.category_total(MotifCategory::Pair), 1);
        assert_eq!(mx.category_total(MotifCategory::Triangle), 10);
    }

    #[test]
    fn matrix_merge_and_display() {
        let mut a = MotifMatrix::default();
        a.add(m(3, 3), 1);
        let mut b = MotifMatrix::default();
        b.add(m(3, 3), 2);
        a.merge(&b);
        assert_eq!(a.get(m(3, 3)), 3);
        let shown = a.to_string();
        assert!(shown.contains("row3"));
        assert!(shown.lines().count() >= 7);
    }

    #[test]
    fn counter_iterators_visit_every_cell() {
        assert_eq!(StarCounter::default().iter().count(), 24);
        assert_eq!(PairCounter::default().iter().count(), 8);
        assert_eq!(TriCounter::default().iter().count(), 24);
        assert_eq!(MotifMatrix::default().iter().count(), 36);
    }

    #[test]
    fn flat_cells_follow_the_kernel_layout() {
        let mut s = StarCounter::default();
        s.add(StarType::III, In, Out, In, 1);
        assert_eq!(s.cells[16 + 4 + 1], 1);
        let mut p = PairCounter::default();
        p.add(Out, In, In, 1);
        assert_eq!(p.cells[2 + 1], 1);
        let mut t = TriCounter::default();
        t.add(TriType::II, Out, Out, In, 1);
        assert_eq!(t.cells[8 + 1], 1);
    }

    #[test]
    fn motif_counts_assembly() {
        // Two partial tallies (one pair endpoint each) merged, then folded.
        let mut t = CenterTally::default();
        t.star.add(StarType::I, Out, Out, Out, 2);
        t.pair.add(Out, Out, Out, 1);
        let mut other = CenterTally::default();
        other.pair.add(In, In, In, 1);
        for (ty, di, dj, dk) in [
            (TriType::I, Out, Out, Out),
            (TriType::II, In, In, In),
            (TriType::III, Out, In, In),
        ] {
            other.tri.add(ty, di, dj, dk, 1);
        }
        t.merge(&other);
        assert_eq!(t.pair.total(), 2);
        let counts = t.into_counts();
        assert_eq!(counts.get(m(1, 3)), 2); // star
        assert_eq!(counts.get(m(5, 5)), 1); // pair
        assert_eq!(counts.get(m(3, 5)), 1); // triangle (M35 class)
        assert_eq!(counts.total(), 4);
    }
}
