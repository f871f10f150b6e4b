//! Reusable per-thread scratch state for FAST-Star.
//!
//! Algorithm 1 keeps two HashMaps (`m_in`, `m_out`) that are re-initialised
//! for every first-edge position. Allocating/clearing maps in the inner
//! loop dominates run time on large graphs, so we use the classic *stamped
//! array* trick: one flat array indexed by neighbour id, with a generation
//! stamp marking which entries belong to the current iteration. Reset is
//! O(1); lookups are a single indexed load.
//!
//! Each neighbour's stamp and both direction counts live in **one**
//! 12-byte `Entry`, so a lookup or increment touches a single cache
//! line (the previous two-array layout paid two misses per random
//! neighbour access). `u32` counts are safe: a count never exceeds the
//! builder-asserted edge-count bound of `u32::MAX`.
//!
//! hare-lint: no-alloc

use temporal_graph::{Dir, NodeId};

/// One neighbour's scratch state: generation mark plus `[out, in]`
/// counts, sized to share a cache line with its neighbours.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    mark: u32,
    counts: [u32; 2],
}

/// Stamped per-neighbour `(in, out)` counters, equivalent to the paper's
/// `m_in`/`m_out` HashMaps but with O(1) reset.
#[derive(Debug, Clone)]
pub struct NeighborScratch {
    stamp: u32,
    entries: Vec<Entry>,
}

impl NeighborScratch {
    /// Scratch able to index neighbours `0..num_nodes`.
    #[must_use]
    pub fn new(num_nodes: usize) -> NeighborScratch {
        NeighborScratch {
            stamp: 1,
            // hare-lint: allow(alloc, reason = "pool construction, once per thread")
            entries: vec![Entry::default(); num_nodes],
        }
    }

    /// Forget all entries (O(1) amortised; on stamp wrap-around the mark
    /// array is rezeroed).
    #[inline]
    pub fn reset(&mut self) {
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

    /// Grow the scratch to index neighbours `0..num_nodes` (no-op when
    /// already large enough). New entries carry mark 0, which can never
    /// equal the live stamp (≥ 1), so they read as empty — this lets one
    /// thread-local scratch be reused across graphs and tasks.
    pub fn ensure_nodes(&mut self, num_nodes: usize) {
        if self.entries.len() < num_nodes {
            // hare-lint: allow(alloc, reason = "amortised growth, only on a larger graph")
            self.entries.resize(num_nodes, Entry::default());
        }
    }

    /// Increment the count of `(v, dir)`.
    #[inline]
    pub fn add(&mut self, v: NodeId, dir: Dir) {
        self.bump(v, dir.index());
    }

    /// Increment the count of `(v, dir)` with the direction given as a
    /// counter index (`0` = out, `1` = in) — the form the data-oriented
    /// kernels already hold in hand.
    #[inline]
    pub fn bump(&mut self, v: NodeId, dir_index: usize) {
        let e = &mut self.entries[v as usize];
        if e.mark != self.stamp {
            e.mark = self.stamp;
            e.counts = [0; 2];
        }
        e.counts[dir_index] += 1;
    }

    /// Current `[out, in]` counts for neighbour `v`.
    #[inline]
    #[must_use]
    pub fn get(&self, v: NodeId) -> [u64; 2] {
        let e = self.entries[v as usize];
        if e.mark == self.stamp {
            [u64::from(e.counts[0]), u64::from(e.counts[1])]
        } else {
            [0; 2]
        }
    }
}

thread_local! {
    // One scratch per thread, reused across calls, runs and graphs
    // (`ensure_nodes` grows it monotonically). Shared by the sequential
    // drivers and every `exec::map` worker so no counting path allocates
    // per-call scratch.
    static THREAD_SCRATCH: std::cell::RefCell<NeighborScratch> =
        std::cell::RefCell::new(NeighborScratch::new(0));
}

/// Run `f` with this thread's reusable scratch, grown to cover
/// `num_nodes`.
///
/// The scratch grows monotonically and is retained for the thread's
/// lifetime (~12 bytes per node of the largest graph counted on that
/// thread). That is the right trade for counting workloads — reset is
/// O(1), re-allocation never happens — but a long-lived process that
/// counted one huge graph keeps that thread's high-water allocation
/// until the thread exits.
pub fn with_thread_scratch<R>(num_nodes: usize, f: impl FnOnce(&mut NeighborScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.ensure_nodes(num_nodes);
        f(&mut scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
