//! Sliding-window (expiring) motif counting.
//!
//! This module answers the deployment question the paper's §I poses for
//! "frequently updated dynamic systems": **how many motifs are there
//! right now, over the last `W` time units?** [`WindowedCounter`]
//! maintains the exact 36-motif counts over a moving window of width
//! `W >= δ`:
//!
//! * **Arrival** — a new edge counts every motif instance it completes,
//!   using the backward Algorithm-1 identity (each instance counted
//!   once, at its chronologically *last* edge).
//! * **Expiry** — when the watermark advances past `t + W`, the edge at
//!   `t` leaves the window and every motif instance whose chronologically
//!   *first* edge it was is retired by the mirrored *forward* identity.
//!   Because edges expire in the same total order they arrived, each
//!   instance is subtracted exactly once, exactly when it stops being
//!   fully inside the window.
//!
//! The invariant maintained between every pair of operations is that
//! [`WindowedCounter::counts`] equals a from-scratch batch FAST run over
//! the currently-live edges — asserted tick-by-tick by the differential
//! suite in `tests/windowed_vs_batch.rs`.
//!
//! A bounded **reorder buffer** absorbs slightly out-of-order arrivals:
//! with slack `s`, any edge timestamped within `s` of the newest arrival
//! is accepted and re-sorted; only edges older than that are rejected
//! with [`StreamError::OutOfOrder`].
//!
//! A window wider than the stream's time span never expires anything,
//! so `WindowedCounter::new(delta, Timestamp::MAX / 2)` is the
//! append-only counter: exact counts over the whole history so far.
//!
//! ```
//! use hare::windowed::WindowedCounter;
//! let mut wc = WindowedCounter::new(10, 50); // δ = 10, W = 50
//! wc.push(0, 1, 100).unwrap();
//! wc.push(1, 2, 105).unwrap();
//! wc.push(2, 0, 108).unwrap(); // closes the cyclic triangle M26
//! assert_eq!(wc.counts().get(hare::motif::m(2, 6)), 1);
//! wc.advance_to(200); // the whole triangle has left the window
//! assert_eq!(wc.counts().total(), 0);
//! ```

use std::collections::{BTreeMap, VecDeque};

use crate::counters::{MotifMatrix, PairCounter, StarCounter};
use crate::motif::{classify_instance, StarType};
use temporal_graph::util::FxHashMap;
use temporal_graph::{Dir, NodeId, TemporalEdge, Timestamp};

/// Why [`WindowedCounter::push`] or
/// [`crate::stream_sample::StreamingEstimator::push`] refused an edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The edge arrived too late: its timestamp is below the acceptance
    /// floor (reorder slack behind the newest arrival, or an explicit
    /// watermark). Equal timestamps are never late.
    OutOfOrder {
        /// Timestamp of the rejected edge.
        got: Timestamp,
        /// The acceptance floor at the time of the push.
        last: Timestamp,
    },
    /// Self-loops cannot participate in motifs and are rejected.
    SelfLoop,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { got, last } => {
                write!(f, "edge at t={got} arrived after t={last}")
            }
            StreamError::SelfLoop => write!(f, "self-loop rejected"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One live edge as seen from a node or pair list, with the processing
/// rank `id` as the tie-breaker of the chronological total order.
#[derive(Debug, Clone, Copy)]
struct WinEvent {
    t: Timestamp,
    other: NodeId,
    dir: Dir,
    id: u64,
}

/// A live edge in global `(t, id)` order, as stored in the expiry queue.
#[derive(Debug, Clone, Copy)]
struct LiveEdge {
    src: NodeId,
    dst: NodeId,
    t: Timestamp,
    id: u64,
}

/// Exact 36-motif counts over a sliding time window of a temporal edge
/// stream.
///
/// Configured by three quantities, all in timestamp units:
///
/// * `delta` — the motif window δ (max span of an instance's 3 edges);
/// * `window` — the sliding window width `W >= δ`: an edge at `t` is
///   *live* while `watermark - t <= W`;
/// * `slack` — the reorder bound: an arrival is accepted iff its
///   timestamp is `>= max_seen - slack` (and not before an explicit
///   [`WindowedCounter::advance_to`] watermark).
///
/// Memory holds only the live window plus the reorder buffer (all
/// per-node and per-pair lists are dropped as soon as their last live
/// edge expires), so the counter runs indefinitely on an unbounded
/// stream.
#[derive(Debug, Clone)]
pub struct WindowedCounter {
    delta: Timestamp,
    window: Timestamp,
    slack: Timestamp,
    node_events: FxHashMap<NodeId, VecDeque<WinEvent>>,
    pair_events: FxHashMap<(NodeId, NodeId), VecDeque<WinEvent>>, // dir rel. lo
    live: VecDeque<LiveEdge>,
    buffer: BTreeMap<(Timestamp, u64), (NodeId, NodeId)>,
    star: StarCounter,
    pair: PairCounter,
    tri_matrix: MotifMatrix,
    /// Expiry anchor: max processed timestamp / explicit advance.
    watermark: Option<Timestamp>,
    /// Max timestamp ever pushed (drives reorder-buffer release).
    max_seen: Option<Timestamp>,
    /// Hard floor set by `advance_to`: arrivals below it are rejected.
    hard_floor: Option<Timestamp>,
    next_seq: u64,
    next_id: u64,
    accepted: u64,
    // reusable scratch (plain map: δ windows are usually small)
    mid: FxHashMap<NodeId, [u64; 2]>,
}

impl WindowedCounter {
    /// New counter with in-order ingestion (`slack = 0`).
    ///
    /// # Panics
    /// Panics unless `0 <= delta <= window`.
    #[must_use]
    pub fn new(delta: Timestamp, window: Timestamp) -> WindowedCounter {
        WindowedCounter::with_slack(delta, window, 0)
    }

    /// New counter accepting arrivals up to `slack` behind the newest
    /// timestamp seen, re-sorted by a bounded reorder buffer.
    ///
    /// # Panics
    /// Panics unless `0 <= delta <= window` and `slack >= 0`.
    #[must_use]
    pub fn with_slack(delta: Timestamp, window: Timestamp, slack: Timestamp) -> WindowedCounter {
        assert!(delta >= 0, "delta must be non-negative");
        assert!(window >= delta, "window must be at least delta");
        assert!(slack >= 0, "slack must be non-negative");
        WindowedCounter {
            delta,
            window,
            slack,
            node_events: FxHashMap::default(),
            pair_events: FxHashMap::default(),
            live: VecDeque::new(),
            buffer: BTreeMap::new(),
            star: StarCounter::default(),
            pair: PairCounter::default(),
            tri_matrix: MotifMatrix::default(),
            watermark: None,
            max_seen: None,
            hard_floor: None,
            next_seq: 0,
            next_id: 0,
            accepted: 0,
            mid: FxHashMap::default(),
        }
    }

    /// The configured δ.
    #[must_use]
    pub fn delta(&self) -> Timestamp {
        self.delta
    }

    /// The configured window width `W`.
    #[must_use]
    pub fn window(&self) -> Timestamp {
        self.window
    }

    /// The configured reorder slack.
    #[must_use]
    pub fn slack(&self) -> Timestamp {
        self.slack
    }

    /// Current watermark: the largest processed timestamp or explicit
    /// [`WindowedCounter::advance_to`] target, whichever is later. `None`
    /// until something is processed or advanced.
    #[must_use]
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Number of edges currently inside the window (processed, not yet
    /// expired).
    #[must_use]
    pub fn live_edges(&self) -> usize {
        self.live.len()
    }

    /// Number of accepted arrivals still held in the reorder buffer.
    #[must_use]
    pub fn buffered_edges(&self) -> usize {
        self.buffer.len()
    }

    /// Total number of arrivals accepted so far (processed + buffered).
    #[must_use]
    pub fn num_accepted(&self) -> u64 {
        self.accepted
    }

    /// Earliest timestamp a new arrival must carry to be accepted, or
    /// `None` while everything is acceptable.
    #[must_use]
    pub fn accept_floor(&self) -> Option<Timestamp> {
        let slack_floor = self.max_seen.map(|m| m.saturating_sub(self.slack));
        match (self.hard_floor, slack_floor) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Ingest one edge.
    ///
    /// Arrivals may be out of order by up to `slack`: the edge is staged
    /// in the reorder buffer and processed once no earlier timestamp can
    /// still arrive. Equal timestamps are always accepted; ties are
    /// processed in arrival order (the same stable order batch counting
    /// uses for ties).
    ///
    /// # Errors
    /// [`StreamError::OutOfOrder`] if `t` is below [`Self::accept_floor`]
    /// (too late for the slack, or behind an explicit watermark);
    /// [`StreamError::SelfLoop`] if `src == dst`.
    pub fn push(&mut self, src: NodeId, dst: NodeId, t: Timestamp) -> Result<(), StreamError> {
        if src == dst {
            return Err(StreamError::SelfLoop);
        }
        if let Some(floor) = self.accept_floor() {
            if t < floor {
                return Err(StreamError::OutOfOrder {
                    got: t,
                    last: floor,
                });
            }
        }
        self.max_seen = Some(self.max_seen.map_or(t, |m| m.max(t)));
        self.buffer.insert((t, self.next_seq), (src, dst));
        self.next_seq += 1;
        self.accepted += 1;
        let release_to = self.max_seen.expect("just set").saturating_sub(self.slack);
        self.release_until(release_to);
        Ok(())
    }

    /// Advance the watermark to `t`: process every buffered arrival
    /// timestamped `<= t`, expire edges older than `t - W`, and reject
    /// all future arrivals timestamped `< t`. Watermarks only move
    /// forward; an earlier `t` is a no-op.
    pub fn advance_to(&mut self, t: Timestamp) {
        if self.hard_floor.is_some_and(|f| f >= t) && self.watermark.is_some_and(|w| w >= t) {
            return;
        }
        self.release_until(t);
        self.hard_floor = Some(self.hard_floor.map_or(t, |f| f.max(t)));
        self.watermark = Some(self.watermark.map_or(t, |w| w.max(t)));
        self.expire();
    }

    /// Drain the reorder buffer, processing every accepted arrival. After
    /// a flush, arrivals older than the largest timestamp seen are
    /// rejected (they would violate the already-processed order).
    pub fn flush(&mut self) {
        if let Some(max) = self.max_seen {
            self.release_until(max);
            self.hard_floor = Some(self.hard_floor.map_or(max, |f| f.max(max)));
        }
    }

    /// Exact counts over the live window: every motif instance whose
    /// three edges are all inside `[watermark - W, watermark]`.
    #[must_use]
    pub fn counts(&self) -> MotifMatrix {
        let mut mx = MotifMatrix::default();
        self.star.add_to_matrix(&mut mx);
        self.pair.add_to_matrix_center_based(&mut mx);
        mx.merge(&self.tri_matrix);
        mx
    }

    /// Process buffered arrivals with `t <= cutoff`, in `(t, seq)` order.
    fn release_until(&mut self, cutoff: Timestamp) {
        while let Some((&(t, _), _)) = self.buffer.first_key_value() {
            if t > cutoff {
                break;
            }
            let ((t, _), (src, dst)) = self.buffer.pop_first().expect("non-empty");
            self.process(src, dst, t);
        }
    }

    /// Count and store one edge. Called in non-decreasing `(t, seq)`
    /// order by the reorder buffer.
    fn process(&mut self, src: NodeId, dst: NodeId, t: Timestamp) {
        debug_assert!(self.watermark.is_none_or(|w| t >= w));
        self.watermark = Some(self.watermark.map_or(t, |w| w.max(t)));
        self.expire();

        // Motif instances completed by this edge (it is their last edge).
        self.count_completions(src, Dir::Out, dst, t);
        self.count_completions(dst, Dir::In, src, t);
        self.count_triangle_completions(src, dst, t);

        // Store it as a live edge.
        let id = self.next_id;
        self.next_id += 1;
        self.node_events
            .entry(src)
            .or_default()
            .push_back(WinEvent {
                t,
                other: dst,
                dir: Dir::Out,
                id,
            });
        self.node_events
            .entry(dst)
            .or_default()
            .push_back(WinEvent {
                t,
                other: src,
                dir: Dir::In,
                id,
            });
        let (lo, hi) = if src <= dst { (src, dst) } else { (dst, src) };
        let dir_from_lo = if src == lo { Dir::Out } else { Dir::In };
        self.pair_events
            .entry((lo, hi))
            .or_default()
            .push_back(WinEvent {
                t,
                other: 0,
                dir: dir_from_lo,
                id,
            });
        self.live.push_back(LiveEdge { src, dst, t, id });
    }

    /// Retire every edge that has fallen out of the window. Edges leave
    /// in `(t, id)` order — the same total order they were stored in — so
    /// when an edge is retired, everything later in the order is still
    /// live and the first-edge retirement identity sees exactly the
    /// instances that were counted at arrival.
    fn expire(&mut self) {
        let Some(wm) = self.watermark else { return };
        while let Some(&front) = self.live.front() {
            if wm.saturating_sub(front.t) <= self.window {
                break;
            }
            self.live.pop_front();
            self.retire(front);
        }
    }

    /// Remove one expired edge from the store and subtract every motif
    /// instance whose chronologically-first edge it was.
    fn retire(&mut self, e: LiveEdge) {
        // Drop the stored events first: the retirement scans then see
        // exactly the edges *after* `e` in the total order (everything
        // before it has already been retired).
        for u in [e.src, e.dst] {
            let list = self.node_events.get_mut(&u).expect("node list present");
            let ev = list.pop_front().expect("node event present");
            debug_assert_eq!(ev.id, e.id);
            if list.is_empty() {
                self.node_events.remove(&u);
            }
        }
        let key = if e.src <= e.dst {
            (e.src, e.dst)
        } else {
            (e.dst, e.src)
        };
        let pair_list = self.pair_events.get_mut(&key).expect("pair list present");
        let p = pair_list.pop_front().expect("pair event present");
        debug_assert_eq!(p.id, e.id);
        if pair_list.is_empty() {
            self.pair_events.remove(&key);
        }

        self.retire_completions(e.src, Dir::Out, e.dst, e.t);
        self.retire_completions(e.dst, Dir::In, e.src, e.t);
        self.retire_triangles(e);
    }

    /// Star/pair instances completed by the arrival with center `u`,
    /// third edge = the arrival (direction `d3` w.r.t. `u`, far endpoint
    /// `w`, time `t3`): backward Algorithm 1 anchored at the new third
    /// edge.
    fn count_completions(&mut self, u: NodeId, d3: Dir, w: NodeId, t3: Timestamp) {
        let Some(events) = self.node_events.get(&u) else {
            return;
        };
        self.mid.clear();
        let mut n = [0u64; 2];
        // The earliest first edge within δ. Saturating: at W = i64::MAX a
        // live edge can lie further back than any i64 distance.
        let floor = t3.saturating_sub(self.delta);
        // Scan candidate first edges backwards; `mid` holds the events
        // strictly between the candidate and the arrival.
        for e1 in events.iter().rev() {
            if e1.t < floor {
                break;
            }
            let d1 = e1.dir;
            if e1.other == w {
                let cnt = self.mid.get(&w).copied().unwrap_or_default();
                for d2 in Dir::BOTH {
                    let c = cnt[d2.index()];
                    self.pair.add(d1, d2, d3, c);
                    self.star.add(StarType::II, d1, d2, d3, n[d2.index()] - c);
                }
            } else {
                let cw = self.mid.get(&w).copied().unwrap_or_default();
                let cv = self.mid.get(&e1.other).copied().unwrap_or_default();
                for d2 in Dir::BOTH {
                    self.star.add(StarType::I, d1, d2, d3, cw[d2.index()]);
                    self.star.add(StarType::III, d1, d2, d3, cv[d2.index()]);
                }
            }
            // e1 becomes a middle candidate for earlier first edges.
            self.mid.entry(e1.other).or_default()[e1.dir.index()] += 1;
            n[e1.dir.index()] += 1;
        }
    }

    /// The exact mirror of [`Self::count_completions`], run at expiry:
    /// star/pair instances whose *first* edge is the retired edge
    /// (direction `d1` w.r.t. center `u`, far endpoint `v`, time `t1`).
    /// Scans forward over the remaining (strictly later) events of `u`;
    /// `mid` holds the events strictly between the retired edge and the
    /// candidate third edge.
    fn retire_completions(&mut self, u: NodeId, d1: Dir, v: NodeId, t1: Timestamp) {
        let Some(events) = self.node_events.get(&u) else {
            return;
        };
        self.mid.clear();
        let mut n = [0u64; 2];
        // No overflow here or in `retire_triangles`: expiry runs before
        // each arrival is stored, so live edges lie at most W apart, and
        // W < i64::MAX whenever one retires.
        for e3 in events.iter() {
            if e3.t - t1 > self.delta {
                break;
            }
            let d3 = e3.dir;
            if e3.other == v {
                let cnt = self.mid.get(&v).copied().unwrap_or_default();
                for d2 in Dir::BOTH {
                    let c = cnt[d2.index()];
                    self.pair.sub(d1, d2, d3, c);
                    self.star.sub(StarType::II, d1, d2, d3, n[d2.index()] - c);
                }
            } else {
                let cw = self.mid.get(&e3.other).copied().unwrap_or_default();
                let cv = self.mid.get(&v).copied().unwrap_or_default();
                for d2 in Dir::BOTH {
                    self.star.sub(StarType::I, d1, d2, d3, cw[d2.index()]);
                    self.star.sub(StarType::III, d1, d2, d3, cv[d2.index()]);
                }
            }
            // e3 becomes a middle candidate for later third edges.
            self.mid.entry(e3.other).or_default()[e3.dir.index()] += 1;
            n[e3.dir.index()] += 1;
        }
    }

    /// Triangle instances closed by the arrival `(a -> b, t3)`: one
    /// earlier live edge a–u and one earlier live edge b–u, both within δ.
    fn count_triangle_completions(&mut self, a: NodeId, b: NodeId, t3: Timestamp) {
        let closing = TemporalEdge::new(a, b, t3);
        let Some(a_events) = self.node_events.get(&a) else {
            return;
        };
        // Saturating, as in `count_completions`.
        let floor = t3.saturating_sub(self.delta);
        for ea in a_events.iter().rev() {
            if ea.t < floor {
                break;
            }
            let u = ea.other;
            if u == b {
                continue;
            }
            let (lo, hi) = if b <= u { (b, u) } else { (u, b) };
            let Some(bu) = self.pair_events.get(&(lo, hi)) else {
                continue;
            };
            let ea_edge = match ea.dir {
                Dir::Out => TemporalEdge::new(a, u, ea.t),
                Dir::In => TemporalEdge::new(u, a, ea.t),
            };
            for eb in bu.iter().rev() {
                if eb.t < floor {
                    break;
                }
                let eb_edge = match eb.dir {
                    // dir is relative to `lo`.
                    Dir::Out => TemporalEdge::new(lo, hi, eb.t),
                    Dir::In => TemporalEdge::new(hi, lo, eb.t),
                };
                // Chronological order of the two earlier edges by
                // (t, processing rank) — the same total order as batch.
                let (first, second) = if (ea.t, ea.id) < (eb.t, eb.id) {
                    (ea_edge, eb_edge)
                } else {
                    (eb_edge, ea_edge)
                };
                let motif = classify_instance(first, second, closing)
                    .expect("closed triple is a 3-node motif");
                self.tri_matrix.add(motif, 1);
            }
        }
    }

    /// The mirror of [`Self::count_triangle_completions`], run at expiry:
    /// triangle instances whose *first* edge is the retired edge
    /// `(a -> b, t1)` — one later live edge a–u and one later live edge
    /// b–u, both within δ of `t1`.
    fn retire_triangles(&mut self, e: LiveEdge) {
        let opening = TemporalEdge::new(e.src, e.dst, e.t);
        let (a, b, t1, id1) = (e.src, e.dst, e.t, e.id);
        let Some(a_events) = self.node_events.get(&a) else {
            return;
        };
        for ea in a_events.iter() {
            if ea.t - t1 > self.delta {
                break;
            }
            let u = ea.other;
            if u == b {
                continue;
            }
            let (lo, hi) = if b <= u { (b, u) } else { (u, b) };
            let Some(bu) = self.pair_events.get(&(lo, hi)) else {
                continue;
            };
            let ea_edge = match ea.dir {
                Dir::Out => TemporalEdge::new(a, u, ea.t),
                Dir::In => TemporalEdge::new(u, a, ea.t),
            };
            // Skip b–u edges from before the retired edge in the total
            // order (a triangle they open is retired when *they* expire).
            let start = bu.partition_point(|ev| ev.id < id1);
            for eb in bu.range(start..) {
                if eb.t - t1 > self.delta {
                    break;
                }
                let eb_edge = match eb.dir {
                    Dir::Out => TemporalEdge::new(lo, hi, eb.t),
                    Dir::In => TemporalEdge::new(hi, lo, eb.t),
                };
                let (second, third) = if (ea.t, ea.id) < (eb.t, eb.id) {
                    (ea_edge, eb_edge)
                } else {
                    (eb_edge, ea_edge)
                };
                let motif = classify_instance(opening, second, third)
                    .expect("closed triple is a 3-node motif");
                self.tri_matrix.sub(motif, 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motif::m;
    use temporal_graph::gen::{erdos_renyi_temporal, paper_fig1_toy, GenConfig};
    use temporal_graph::GraphBuilder;

    /// Batch oracle: FAST over the accepted edges (arrival order) whose
    /// timestamps fall in `[wm - window, wm]`.
    fn batch_window(
        accepted: &[(NodeId, NodeId, Timestamp)],
        delta: Timestamp,
        window: Timestamp,
        wm: Timestamp,
    ) -> MotifMatrix {
        let mut b = GraphBuilder::new();
        for &(s, d, t) in accepted {
            if t <= wm && wm - t <= window {
                b.add_edge(s, d, t);
            }
        }
        crate::count_motifs(&b.build(), delta).matrix
    }

    /// Drive a whole graph through a windowed counter, checking the
    /// differential invariant after every arrival.
    fn check_graph(g: &temporal_graph::TemporalGraph, delta: Timestamp, window: Timestamp) {
        let mut wc = WindowedCounter::new(delta, window);
        let mut accepted = Vec::new();
        for e in g.edges() {
            wc.push(e.src, e.dst, e.t).unwrap();
            accepted.push((e.src, e.dst, e.t));
            let wm = wc.watermark().unwrap();
            assert_eq!(
                wc.counts(),
                batch_window(&accepted, delta, window, wm),
                "delta {delta} window {window} at t={wm}"
            );
        }
    }

    #[test]
    fn window_equals_batch_on_toy_graph() {
        let g = paper_fig1_toy();
        for (delta, window) in [(0, 0), (5, 5), (5, 8), (10, 10), (10, 20), (10, 100)] {
            check_graph(&g, delta, window);
        }
    }

    #[test]
    fn window_equals_batch_on_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi_temporal(12, 300, 250, seed);
            check_graph(&g, 60, 60);
            check_graph(&g, 60, 140);
        }
    }

    #[test]
    fn window_equals_batch_on_bursty_graph() {
        let g = GenConfig {
            nodes: 25,
            edges: 600,
            time_span: 4_000,
            seed: 17,
            ..GenConfig::default()
        }
        .generate();
        check_graph(&g, 300, 500);
    }

    #[test]
    fn unbounded_window_matches_append_only_streaming() {
        // With a window wider than the stream nothing expires: after
        // every arrival the counts equal batch FAST over the prefix.
        let g = erdos_renyi_temporal(15, 400, 300, 7);
        let delta = 90;
        let mut wc = append_only(delta);
        for (i, e) in g.edges().iter().enumerate() {
            wc.push(e.src, e.dst, e.t).unwrap();
            let prefix = temporal_graph::TemporalGraph::from_edges(g.edges()[..=i].to_vec());
            assert_eq!(wc.counts(), crate::count_motifs(&prefix, delta).matrix);
        }
    }

    /// The append-only counter: a window no stream can outlast.
    fn append_only(delta: Timestamp) -> WindowedCounter {
        WindowedCounter::new(delta, Timestamp::MAX / 2)
    }

    fn append_only_over(g: &temporal_graph::TemporalGraph, delta: Timestamp) -> MotifMatrix {
        let mut wc = append_only(delta);
        for e in g.edges() {
            wc.push(e.src, e.dst, e.t).unwrap();
        }
        wc.counts()
    }

    #[test]
    fn append_only_equals_batch_on_toy_graph() {
        let g = paper_fig1_toy();
        for delta in [0, 5, 10, 50] {
            assert_eq!(
                append_only_over(&g, delta),
                crate::count_motifs(&g, delta).matrix,
                "{delta}"
            );
        }
    }

    #[test]
    fn append_only_equals_batch_on_random_graphs() {
        for seed in 0..4 {
            let g = erdos_renyi_temporal(15, 400, 300, seed);
            assert_eq!(
                append_only_over(&g, 90),
                crate::count_motifs(&g, 90).matrix,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn append_only_equals_batch_on_bursty_graph() {
        let g = GenConfig {
            nodes: 30,
            edges: 800,
            time_span: 5_000,
            seed: 13,
            ..GenConfig::default()
        }
        .generate();
        assert_eq!(
            append_only_over(&g, 400),
            crate::count_motifs(&g, 400).matrix
        );
    }

    #[test]
    fn append_only_counts_are_monotone() {
        let g = erdos_renyi_temporal(10, 150, 100, 5);
        let mut wc = append_only(40);
        let mut prev = 0u64;
        for e in g.edges() {
            wc.push(e.src, e.dst, e.t).unwrap();
            let now = wc.counts().total();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn append_only_rejects_out_of_order_and_self_loops() {
        let mut wc = append_only(10);
        wc.push(0, 1, 100).unwrap();
        assert_eq!(
            wc.push(1, 2, 99),
            Err(StreamError::OutOfOrder { got: 99, last: 100 })
        );
        assert_eq!(wc.push(3, 3, 100), Err(StreamError::SelfLoop));
        // Counter still usable afterwards.
        wc.push(1, 2, 100).unwrap();
        wc.push(2, 0, 100).unwrap();
        assert_eq!(wc.live_edges(), 3);
        assert_eq!(wc.counts().get(m(2, 6)), 1, "the cyclic triangle");
    }

    #[test]
    fn append_only_equal_timestamps_are_accepted_only_decreasing_rejected() {
        // Zero slack accepts t == newest and rejects only t < newest.
        let mut wc = append_only(10);
        wc.push(0, 1, 100).unwrap();
        wc.push(1, 2, 100).unwrap();
        wc.push(2, 3, 100).unwrap();
        assert_eq!(wc.live_edges(), 3);
        assert_eq!(
            wc.push(3, 4, 99),
            Err(StreamError::OutOfOrder { got: 99, last: 100 })
        );
        // The rejection did not disturb the accepted prefix.
        wc.push(3, 4, 100).unwrap();
        assert_eq!(wc.live_edges(), 4);
    }

    #[test]
    fn append_only_equal_timestamps_match_batch_tie_breaking() {
        // All edges at one instant: arrival order must agree with the
        // builder's stable input order.
        let edges = vec![
            TemporalEdge::new(0, 1, 7),
            TemporalEdge::new(1, 2, 7),
            TemporalEdge::new(2, 0, 7),
            TemporalEdge::new(0, 1, 7),
        ];
        let g = temporal_graph::TemporalGraph::from_edges(edges);
        assert_eq!(append_only_over(&g, 0), crate::count_motifs(&g, 0).matrix);
    }

    #[test]
    fn advance_past_everything_empties_the_window() {
        let g = paper_fig1_toy();
        let mut wc = WindowedCounter::new(10, 10);
        for e in g.edges() {
            wc.push(e.src, e.dst, e.t).unwrap();
        }
        assert!(wc.counts().total() > 0);
        wc.advance_to(g.max_time().unwrap() + 11);
        assert_eq!(wc.counts(), MotifMatrix::default());
        assert_eq!(wc.live_edges(), 0);
        // Internals are fully drained, not just zeroed.
        assert!(wc.pair_events.is_empty());
        assert!(wc.node_events.is_empty());
    }

    #[test]
    fn doc_example_cycle_expires() {
        let mut wc = WindowedCounter::new(10, 50);
        wc.push(0, 1, 100).unwrap();
        wc.push(1, 2, 105).unwrap();
        wc.push(2, 0, 108).unwrap();
        assert_eq!(wc.counts().get(m(2, 6)), 1);
        // At watermark 150 the first edge (t=100) is exactly W old: live.
        wc.advance_to(150);
        assert_eq!(wc.counts().get(m(2, 6)), 1);
        assert_eq!(wc.live_edges(), 3);
        // One tick later it expires and takes the triangle with it.
        wc.advance_to(151);
        assert_eq!(wc.counts().total(), 0);
        assert_eq!(wc.live_edges(), 2);
    }

    #[test]
    fn slack_accepts_and_reorders_late_arrivals() {
        // Edges delivered out of order within slack 10; δ covers all.
        let delta = 50;
        let mut wc = WindowedCounter::with_slack(delta, 1_000, 10);
        let arrivals = [(0u32, 1u32, 100i64), (1, 2, 95), (2, 0, 103), (0, 2, 97)];
        for &(s, d, t) in &arrivals {
            wc.push(s, d, t).unwrap();
        }
        wc.flush();
        // Same edges in timestamp order through a strict counter.
        let mut sorted = arrivals;
        sorted.sort_by_key(|&(_, _, t)| t);
        let mut strict = WindowedCounter::new(delta, 1_000);
        for &(s, d, t) in &sorted {
            strict.push(s, d, t).unwrap();
        }
        assert_eq!(wc.counts(), strict.counts());
        assert_eq!(wc.num_accepted(), 4);
    }

    #[test]
    fn beyond_slack_is_rejected_with_the_floor() {
        let mut wc = WindowedCounter::with_slack(10, 100, 5);
        wc.push(0, 1, 50).unwrap();
        assert_eq!(
            wc.push(1, 2, 44),
            Err(StreamError::OutOfOrder { got: 44, last: 45 })
        );
        wc.push(1, 2, 45).unwrap(); // exactly at the floor: accepted
        assert_eq!(wc.push(2, 2, 50), Err(StreamError::SelfLoop));
        assert_eq!(wc.num_accepted(), 2);
    }

    #[test]
    fn advance_to_sets_a_hard_floor() {
        let mut wc = WindowedCounter::with_slack(10, 100, 50);
        wc.push(0, 1, 100).unwrap();
        wc.advance_to(90);
        assert_eq!(
            wc.push(1, 2, 80),
            Err(StreamError::OutOfOrder { got: 80, last: 90 })
        );
        wc.push(1, 2, 90).unwrap();
        // Watermarks only move forward (t=100 is still buffered, so the
        // watermark is the advance target, not the newest arrival).
        wc.advance_to(10);
        assert_eq!(wc.watermark(), Some(90));
        wc.flush();
        assert_eq!(wc.watermark(), Some(100));
    }

    #[test]
    fn buffered_edges_process_on_release_not_on_push() {
        let mut wc = WindowedCounter::with_slack(10, 100, 20);
        wc.push(0, 1, 100).unwrap();
        // Within slack of max_seen: still buffered, not yet processed.
        assert_eq!(wc.live_edges(), 0);
        assert_eq!(wc.buffered_edges(), 1);
        wc.push(1, 2, 125).unwrap(); // releases t <= 105
        assert_eq!(wc.live_edges(), 1);
        assert_eq!(wc.buffered_edges(), 1);
        wc.flush();
        assert_eq!(wc.live_edges(), 2);
        assert_eq!(wc.buffered_edges(), 0);
        assert_eq!(wc.watermark(), Some(125));
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        // All edges at one instant, W = δ = 0: ties must be processed in
        // arrival order, matching the builder's stable order.
        let edges = [(0u32, 1u32), (1, 2), (2, 0), (0, 1)];
        let mut wc = WindowedCounter::new(0, 0);
        let mut b = GraphBuilder::new();
        for &(s, d) in &edges {
            wc.push(s, d, 7).unwrap();
            b.add_edge(s, d, 7);
        }
        assert_eq!(wc.counts(), crate::count_motifs(&b.build(), 0).matrix);
        wc.advance_to(8);
        assert_eq!(wc.counts().total(), 0);
    }

    #[test]
    fn degenerate_window_equals_delta() {
        for seed in 0..3 {
            let g = erdos_renyi_temporal(10, 250, 120, seed);
            check_graph(&g, 40, 40);
        }
    }

    #[test]
    #[should_panic(expected = "window must be at least delta")]
    fn window_smaller_than_delta_panics() {
        let _ = WindowedCounter::new(10, 5);
    }
}
