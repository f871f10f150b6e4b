//! The generic δ-windowed 3-edge *sequence counter* used by the EX
//! baseline (the `ThreeTEdgeMotifCounter` of Paranjape et al.).
//!
//! Given a chronological stream of events carrying small integer labels,
//! it counts, for every label triple `(l1, l2, l3)`, the ordered event
//! triples `a < b < c` with `t_c − t_a ≤ δ`. The sliding-window dynamic
//! program maintains singleton (`c1`) and ordered-pair (`c2`) counts for
//! the current window; pushing an event closes `c2[l1][l2]` triples, and
//! evicting the window's oldest event reverses its pair contributions.
//! O(L²) per event.
//!
//! EX instantiates it with `L = 2` (direction labels — the 2-node
//! algorithm) and `L = 6` (pair × direction labels — the per-static-
//! triangle algorithm).

use temporal_graph::Timestamp;

/// δ-windowed counter of ordered 3-event label sequences.
#[derive(Debug, Clone)]
pub struct SequenceCounter<const L: usize> {
    c1: [u64; L],
    c2: [[u64; L]; L],
    c3: Vec<u64>, // flattened [L][L][L]
}

impl<const L: usize> Default for SequenceCounter<L> {
    fn default() -> Self {
        SequenceCounter {
            c1: [0; L],
            c2: [[0; L]; L],
            c3: vec![0; L * L * L],
        }
    }
}

impl<const L: usize> SequenceCounter<L> {
    /// Count all label triples of the event stream `(label, t)`, which
    /// must be in chronological order. Counts accumulate across calls;
    /// window state resets per call.
    pub fn count(&mut self, events: &[(u8, Timestamp)], delta: Timestamp) {
        self.c1 = [0; L];
        self.c2 = [[0; L]; L];
        let mut start = 0usize;
        for &(lc, tc) in events {
            let t_lo = tc.saturating_sub(delta);
            while events[start].1 < t_lo {
                self.evict(events[start].0 as usize);
                start += 1;
            }
            self.push(lc as usize);
        }
    }

    #[inline]
    fn push(&mut self, l: usize) {
        debug_assert!(l < L);
        // Close triples ending at this event.
        for l1 in 0..L {
            for l2 in 0..L {
                self.c3[(l1 * L + l2) * L + l] += self.c2[l1][l2];
            }
        }
        // Extend pairs and singletons.
        for l1 in 0..L {
            self.c2[l1][l] += self.c1[l1];
        }
        self.c1[l] += 1;
    }

    #[inline]
    fn evict(&mut self, l: usize) {
        debug_assert!(l < L);
        // The evictee is the window's oldest event: remove it as a
        // singleton first, then as the first element of each pair.
        self.c1[l] -= 1;
        for (l2, c) in self.c1.iter().enumerate() {
            self.c2[l][l2] -= c;
        }
    }

    /// Accumulated count of the label triple `(l1, l2, l3)`.
    #[inline]
    #[must_use]
    pub fn get(&self, l1: usize, l2: usize, l3: usize) -> u64 {
        self.c3[(l1 * L + l2) * L + l3]
    }

    /// Reset accumulated triple counts.
    pub fn clear(&mut self) {
        self.c3.fill(0);
    }

    /// Sum of all triple counts.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.c3.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_triples_within_window() {
        // Labels 0,1,0,1 at t=0,1,2,3 with δ=2: triples are positions
        // (0,1,2) -> (0,1,0) and (1,2,3) -> (1,0,1).
        let mut c: SequenceCounter<2> = SequenceCounter::default();
        c.count(&[(0, 0), (1, 1), (0, 2), (1, 3)], 2);
        assert_eq!(c.get(0, 1, 0), 1);
        assert_eq!(c.get(1, 0, 1), 1);
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn big_window_counts_all_combinations() {
        // n same-label events, huge δ: C(n,3) triples of (0,0,0).
        let events: Vec<(u8, Timestamp)> = (0..10).map(|i| (0, i)).collect();
        let mut c: SequenceCounter<1> = SequenceCounter::default();
        c.count(&events, 1_000);
        assert_eq!(c.get(0, 0, 0), 120);
        // δ = i64::MAX over negative timestamps: `t − δ` saturates at
        // i64::MIN instead of wrapping and evicting past the end.
        let mut c: SequenceCounter<1> = SequenceCounter::default();
        c.count(&[(0, -100), (0, -50), (0, -10)], Timestamp::MAX);
        assert_eq!(c.get(0, 0, 0), 1);
    }

    #[test]
    fn zero_delta_requires_simultaneity() {
        let mut c: SequenceCounter<2> = SequenceCounter::default();
        c.count(&[(0, 5), (1, 5), (0, 5), (1, 6)], 0);
        // Only the three t=5 events form a triple.
        assert_eq!(c.get(0, 1, 0), 1);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn accumulates_across_calls_but_resets_window() {
        let mut c: SequenceCounter<1> = SequenceCounter::default();
        c.count(&[(0, 0), (0, 1), (0, 2)], 10);
        c.count(&[(0, 100), (0, 101), (0, 102)], 10);
        assert_eq!(c.get(0, 0, 0), 2, "one triple per call, no cross-talk");
        c.clear();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn eviction_boundary_is_inclusive() {
        // t_c - t_a == δ must count (Definition 2 uses ≤).
        let mut c: SequenceCounter<1> = SequenceCounter::default();
        c.count(&[(0, 0), (0, 5), (0, 10)], 10);
        assert_eq!(c.get(0, 0, 0), 1);
        let mut c: SequenceCounter<1> = SequenceCounter::default();
        c.count(&[(0, 0), (0, 5), (0, 11)], 10);
        assert_eq!(c.get(0, 0, 0), 0);
    }

    #[test]
    fn matches_brute_force_on_random_stream() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut events: Vec<(u8, Timestamp)> = (0..120)
            .map(|_| (rng.gen_range(0..3u8), rng.gen_range(0..200)))
            .collect();
        events.sort_by_key(|&(_, t)| t);
        let delta = 40;

        let mut c: SequenceCounter<3> = SequenceCounter::default();
        c.count(&events, delta);

        let mut brute = vec![0u64; 27];
        for i in 0..events.len() {
            for j in i + 1..events.len() {
                for k in j + 1..events.len() {
                    if events[k].1 - events[i].1 <= delta {
                        let (a, b, c) = (
                            events[i].0 as usize,
                            events[j].0 as usize,
                            events[k].0 as usize,
                        );
                        brute[(a * 3 + b) * 3 + c] += 1;
                    }
                }
            }
        }
        for l1 in 0..3 {
            for l2 in 0..3 {
                for l3 in 0..3 {
                    assert_eq!(
                        c.get(l1, l2, l3),
                        brute[(l1 * 3 + l2) * 3 + l3],
                        "triple ({l1},{l2},{l3})"
                    );
                }
            }
        }
    }
}
