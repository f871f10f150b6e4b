//! Reusable per-thread scratch state for FAST-Star: the per-neighbour
//! aggregates of the kernel's sliding δ-window ([`crate::fused`]).
//!
//! Algorithm 1 keeps two HashMaps (`m_in`, `m_out`) that are rebuilt for
//! every first edge by rescanning its δ-window. The kernel instead slides
//! one window `(i, j_end)` along the lane, adding each event once at the
//! right end and removing it once at the left, and keeps per neighbour
//! `v` of the center one seven-word entry indexed by `v`:
//!
//! * `c[d]` — the window's events to `v` in direction `d`;
//! * `q01` — ordered pairs of them, an `out` event before an `in` one
//!   (the other three direction pairs follow from `c`);
//! * `m[d][e]` — over the window's direction-`d` events to `v`, the sum
//!   of the prefix count of direction `e` at each event's position (the
//!   direction-`e` events that entered the window before it).
//!
//! These seven words answer every star and pair cell of a first edge to
//! `v` in O(1). An entry is all zeros outside a window, so there is no
//! generation stamp: the kernel empties what it filled before it returns.
//!
//! **Width and exactness.** Entries are `u32` words (28 bytes per node
//! and worker) updated with wrapping arithmetic. Every update and every
//! cell formula is a ring operation, so a cell is exact modulo 2^32, and
//! so exact outright while its true value is below 2^32. A cell counts
//! pairs of window events, fewer than n²/2 for a lane of n events, which
//! holds for every lane of at most [`NARROW_MAX_EVENTS`] (92 681) events.
//! Longer lanes run the same generic code over `u64` words, in a second
//! entry array allocated the first time such a lane is counted.
//!
//! hare-lint: no-alloc

/// The longest lane the `u32` entries count exactly: a cell counts pairs
/// of window events, fewer than n²/2 for a lane of n events, and
/// 92 681²/2 < 2^32.
pub const NARROW_MAX_EVENTS: usize = 92_681;

/// A scratch counter word: `u32` or `u64`, with the wrapping ring
/// operations the window arithmetic is written in.
pub(crate) trait Word: Copy + Default + Eq + std::fmt::Debug {
    /// `x` truncated to the word.
    fn of(x: usize) -> Self;
    /// Zero-extended to 64 bits.
    fn widen(self) -> u64;
    /// Wrapping `self + rhs`.
    #[must_use]
    fn plus(self, rhs: Self) -> Self;
    /// Wrapping `self − rhs`.
    #[must_use]
    fn minus(self, rhs: Self) -> Self;
    /// Wrapping `self · rhs`.
    #[must_use]
    fn times(self, rhs: Self) -> Self;
    /// C(self, 2), exact modulo the word (for any `self` that counts
    /// events, i.e. below 2^32).
    #[must_use]
    fn choose2(self) -> Self;
    /// This width's entry array in `scratch`, covering its node space.
    fn entries(scratch: &mut NeighborScratch) -> &mut [Entry<Self>];
}

impl Word for u32 {
    #[inline]
    fn of(x: usize) -> u32 {
        x as u32
    }
    #[inline]
    fn widen(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn plus(self, rhs: u32) -> u32 {
        self.wrapping_add(rhs)
    }
    #[inline]
    fn minus(self, rhs: u32) -> u32 {
        self.wrapping_sub(rhs)
    }
    #[inline]
    fn times(self, rhs: u32) -> u32 {
        self.wrapping_mul(rhs)
    }
    #[inline]
    fn choose2(self) -> u32 {
        let c = u64::from(self);
        ((c * c.saturating_sub(1)) >> 1) as u32
    }
    fn entries(scratch: &mut NeighborScratch) -> &mut [Entry<u32>] {
        &mut scratch.narrow
    }
}

impl Word for u64 {
    #[inline]
    fn of(x: usize) -> u64 {
        x as u64
    }
    #[inline]
    fn widen(self) -> u64 {
        self
    }
    #[inline]
    fn plus(self, rhs: u64) -> u64 {
        self.wrapping_add(rhs)
    }
    #[inline]
    fn minus(self, rhs: u64) -> u64 {
        self.wrapping_sub(rhs)
    }
    #[inline]
    fn times(self, rhs: u64) -> u64 {
        self.wrapping_mul(rhs)
    }
    #[inline]
    fn choose2(self) -> u64 {
        let c = u128::from(self);
        ((c * c.saturating_sub(1)) >> 1) as u64
    }
    fn entries(scratch: &mut NeighborScratch) -> &mut [Entry<u64>] {
        let n = scratch.narrow.len();
        if scratch.wide.len() < n {
            // hare-lint: allow(alloc, reason = "once per thread, only for a lane past NARROW_MAX_EVENTS")
            scratch.wide.resize(n, Entry::default());
        }
        &mut scratch.wide
    }
}

/// One neighbour's share of the sliding window (see the module docs):
/// seven words, all zero while the neighbour has no event in it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Entry<W> {
    /// Window events to the neighbour, `[out, in]`.
    pub(crate) c: [W; 2],
    /// Ordered pairs of those events, `out` first, `in` second.
    pub(crate) q01: W,
    /// `m[d][e]`: Σ over the direction-`d` events of the prefix count of
    /// direction `e` at their positions.
    pub(crate) m: [[W; 2]; 2],
}

/// Per-neighbour window aggregates for every node of the largest graph
/// counted with it: `u32` entries, plus `u64` ones once a lane longer
/// than [`NARROW_MAX_EVENTS`] has been counted.
#[derive(Debug, Clone, Default)]
pub struct NeighborScratch {
    narrow: Vec<Entry<u32>>,
    wide: Vec<Entry<u64>>,
}

impl NeighborScratch {
    /// Scratch able to index neighbours `0..num_nodes`.
    #[must_use]
    pub fn new(num_nodes: usize) -> NeighborScratch {
        let mut scratch = NeighborScratch::default();
        scratch.ensure_nodes(num_nodes);
        scratch
    }

    /// Grow the scratch to index neighbours `0..num_nodes` (no-op when
    /// already large enough). New entries are empty, like every entry
    /// between kernel calls, so one thread-local scratch is reused across
    /// graphs and tasks.
    pub fn ensure_nodes(&mut self, num_nodes: usize) {
        if self.narrow.len() < num_nodes {
            // hare-lint: allow(alloc, reason = "amortised growth, only on a larger graph")
            self.narrow.resize(num_nodes, Entry::default());
        }
    }
}

thread_local! {
    // Idle scratches of this thread, reused across calls, runs and graphs
    // (`ensure_nodes` grows them monotonically). A call takes one out for
    // its duration, so a counting call nested inside another (an
    // `exec::map` task that counts) takes a second one instead of
    // finding the first borrowed.
    static THREAD_SCRATCH: std::cell::RefCell<Vec<NeighborScratch>> =
        // hare-lint: allow(alloc, reason = "an empty list allocates nothing; it grows once per nesting level")
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with one of this thread's reusable scratches, grown to cover
/// `num_nodes`. Re-entrant: `f` may call it again (directly or through
/// any counting entry point) and gets a scratch of its own.
///
/// Scratches grow monotonically and are retained for the thread's
/// lifetime (28 bytes per node of the largest graph counted on that
/// thread, per nesting level, plus 56 bytes per node once a lane longer
/// than [`NARROW_MAX_EVENTS`] has been counted). That is the right trade
/// for counting workloads — re-allocation never happens — but a
/// long-lived process that counted one huge graph keeps that thread's
/// high-water allocation until the thread exits. If `f` panics, its
/// scratch is dropped rather than returned, since a kernel interrupted
/// mid-window leaves entries filled.
pub fn with_thread_scratch<R>(num_nodes: usize, f: impl FnOnce(&mut NeighborScratch) -> R) -> R {
    let mut scratch = THREAD_SCRATCH
        .with(|idle| idle.borrow_mut().pop())
        .unwrap_or_default();
    scratch.ensure_nodes(num_nodes);
    let out = f(&mut scratch);
    // hare-lint: allow(alloc, reason = "returns the scratch; grows the idle list once per nesting level")
    THREAD_SCRATCH.with(|idle| idle.borrow_mut().push(scratch));
    out
}

/// The stamped per-neighbour `(out, in)` counters Algorithm 1 rebuilds
/// for every first edge: the scratch of the rescanning oracle kernel the
/// tests compare [`crate::fused`] against.
#[cfg(test)]
pub(crate) mod stamped {
    use temporal_graph::{Dir, NodeId};

    /// One neighbour's scratch state: generation mark plus `[out, in]`
    /// counts.
    #[derive(Debug, Clone, Copy, Default)]
    struct Entry {
        mark: u32,
        counts: [u32; 2],
    }

    /// Stamped per-neighbour `(in, out)` counters, equivalent to the
    /// paper's `m_in`/`m_out` HashMaps but with O(1) reset.
    #[derive(Debug, Clone)]
    pub(crate) struct StampedScratch {
        pub(super) stamp: u32,
        entries: Vec<Entry>,
    }

    impl StampedScratch {
        /// Scratch able to index neighbours `0..num_nodes`.
        pub(crate) fn new(num_nodes: usize) -> StampedScratch {
            StampedScratch {
                stamp: 1,
                entries: vec![Entry::default(); num_nodes],
            }
        }

        /// Forget all entries (O(1) amortised; on stamp wrap-around the
        /// mark array is rezeroed).
        pub(crate) fn reset(&mut self) {
            self.stamp = match self.stamp.checked_add(1) {
                Some(s) => s,
                None => {
                    for e in &mut self.entries {
                        e.mark = 0;
                    }
                    1
                }
            };
        }

        /// Increment the count of `(v, dir)`.
        pub(crate) fn add(&mut self, v: NodeId, dir: Dir) {
            self.bump(v, dir.index());
        }

        /// Increment the count of `(v, dir)` with the direction given as
        /// a counter index (`0` = out, `1` = in).
        pub(crate) fn bump(&mut self, v: NodeId, dir_index: usize) {
            let e = &mut self.entries[v as usize];
            if e.mark != self.stamp {
                e.mark = self.stamp;
                e.counts = [0; 2];
            }
            e.counts[dir_index] += 1;
        }

        /// Current `[out, in]` counts for neighbour `v`.
        pub(crate) fn get(&self, v: NodeId) -> [u64; 2] {
            let e = self.entries[v as usize];
            if e.mark == self.stamp {
                [u64::from(e.counts[0]), u64::from(e.counts[1])]
            } else {
                [0; 2]
            }
        }
    }
}

/// Every entry is all zeros, as it must be between kernel calls.
#[cfg(test)]
pub(crate) fn is_empty(scratch: &NeighborScratch) -> bool {
    scratch.narrow.iter().all(|e| *e == Entry::default())
        && scratch.wide.iter().all(|e| *e == Entry::default())
}

#[cfg(test)]
mod tests {
    use super::stamped::StampedScratch as NeighborScratch;
    use super::*;
    use temporal_graph::Dir;

    #[test]
    fn counts_accumulate_per_direction() {
        let mut s = NeighborScratch::new(4);
        s.add(2, Dir::Out);
        s.add(2, Dir::Out);
        s.add(2, Dir::In);
        assert_eq!(s.get(2), [2, 1]);
        assert_eq!(s.get(3), [0, 0]);
    }

    #[test]
    fn reset_clears_logically() {
        let mut s = NeighborScratch::new(4);
        s.add(1, Dir::In);
        assert_eq!(s.get(1), [0, 1]);
        s.reset();
        assert_eq!(s.get(1), [0, 0]);
        s.add(1, Dir::Out);
        assert_eq!(s.get(1), [1, 0]);
    }

    #[test]
    fn stamp_wraparound_is_safe() {
        let mut s = NeighborScratch::new(2);
        s.stamp = u32::MAX - 1;
        s.add(0, Dir::Out);
        s.reset(); // stamp = MAX
        s.add(1, Dir::In);
        s.reset(); // wraps: marks rezeroed, stamp = 1
        assert_eq!(s.get(0), [0, 0]);
        assert_eq!(s.get(1), [0, 0]);
        s.add(0, Dir::In);
        assert_eq!(s.get(0), [0, 1]);
    }

    #[test]
    fn entry_is_seven_words() {
        assert_eq!(std::mem::size_of::<Entry<u32>>(), 28);
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 56);
    }

    #[test]
    fn choose2_is_exact_past_the_word() {
        assert_eq!(0u32.choose2(), 0);
        assert_eq!(1u32.choose2(), 0);
        assert_eq!(5u32.choose2(), 10);
        // C(92 680, 2) needs 33 bits before the halving.
        assert_eq!(92_680u32.choose2(), 4_294_744_860);
        assert_eq!(u64::from(u32::MAX).choose2(), 9_223_372_030_412_324_865);
    }

    #[test]
    fn wide_entries_are_allocated_on_first_use_only() {
        let mut s = super::NeighborScratch::new(3);
        assert!(s.wide.is_empty());
        assert_eq!(u64::entries(&mut s).len(), 3);
        s.ensure_nodes(5);
        assert_eq!(u32::entries(&mut s).len(), 5);
        assert_eq!(u64::entries(&mut s).len(), 5);
        assert!(is_empty(&s));
    }
}
