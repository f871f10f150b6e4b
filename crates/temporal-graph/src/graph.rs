//! The immutable [`TemporalGraph`] representation and its two indexes.
//!
//! Every counting algorithm in the paper is driven by one or both of:
//!
//! 1. **Node event sequences** `S_u` (§IV.A.3): for each node `u`, the
//!    time-ordered list of edges incident to `u`, each seen as
//!    `(t, other, dir)` relative to `u`. Stored as a CSR-style
//!    structure-of-arrays arena (see *Lane layout* below) so a sequence
//!    is a set of contiguous per-field slices.
//! 2. **Pair edge lists** `E(v, w)` (§IV.B): for each unordered node pair,
//!    the time-ordered list of edges between them (both directions).
//!    FAST-Tri binary-searches these within the δ window, which is the
//!    "implementation trick" the paper uses to bound `ξ` by `d^δ`.
//!
//! # Lane layout
//!
//! The event arena is stored as three parallel lanes indexed by global
//! event position (`node_offsets[u]..node_offsets[u + 1]` is `S_u`):
//!
//! * `ev_ts` — the timestamp lane. The δ-window scan and the
//!   window binary search touch **only** this lane, so a scan streams
//!   8 bytes per event instead of a 24-byte [`Event`] struct. This lane
//!   has two selectable layouts ([`LaneLayout`]): raw `Box<[i64]>` and
//!   delta-from-anchor bit-packed ([`crate::lanes::PackedTs`]); kernels
//!   consume it through [`crate::lanes::TsLane`], which decodes on the
//!   fly with O(1) random access either way.
//! * `ev_packed: Box<[u32]>` — the topology lane, encoding
//!   `other << 1 | dir` (`dir`: [`Dir::Out`] = 0, [`Dir::In`] = 1). One
//!   4-byte load yields both the far endpoint and the direction; the
//!   builder asserts `num_nodes < 2^31` so the shift never truncates.
//! * `ev_edge: Box<[u32]>` — the global edge id (chronological rank)
//!   lane, read only where the total order matters (triangle
//!   classification, enumeration baselines).
//!
//! Invariants (established by the builder, relied on by every kernel):
//! within each `S_u` all three lanes are sorted by `(t, edge)`; `edge`
//! values are strictly increasing; and the three lanes always have equal
//! length `2·|E|`. [`NodeEvents`] is the borrowed view tying the lanes
//! of one node together; [`Event`] is the materialised
//! array-of-structs form for call sites that are not hot.
//!
//! # Node rank
//!
//! Beside the lanes the graph keeps one `u32` per node, stored in its
//! [`PairIndex`]: the node's position in ascending `(degree, id)` order
//! ([`TemporalGraph::node_rank`]). The whole-graph triangle count visits
//! each instance only from its lowest-rank vertex, HARE reads its
//! hubs-first schedule and its `TopK` threshold off the same array, and
//! the pair index files each pair under its lower-rank endpoint.

use crate::lanes::{LaneLayout, PackedTs, TsLane};
use crate::types::{Dir, EdgeId, NodeId, TemporalEdge, Timestamp};

/// One entry of a node's event sequence `S_u`: an incident edge viewed
/// from the owning node (`e = (t, v, dir)` in the paper's notation).
///
/// This is the *materialised* form — storage is the SoA lane arena
/// described in the module docs; [`NodeEvents::get`] assembles an
/// `Event` on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Timestamp of the underlying edge.
    pub t: Timestamp,
    /// The endpoint on the other side (`e.v`).
    pub other: NodeId,
    /// Global edge id (chronological rank; see crate docs).
    pub edge: EdgeId,
    /// Direction relative to the owning node (`e.dir`).
    pub dir: Dir,
}

/// Borrowed SoA view over one node's event sequence `S_u`.
///
/// The three lanes (`ts`, `packed`, `edges`) are parallel slices of the
/// graph's event arena (see the module docs for the encoding). Hot
/// kernels read the lanes directly ([`NodeEvents::ts_lane`],
/// [`NodeEvents::packed_lane`]); everything else can use the indexed
/// accessors or iterate materialised [`Event`]s.
#[derive(Debug, Clone, Copy)]
pub struct NodeEvents<'a> {
    ts: TsLane<'a>,
    packed: &'a [u32],
    edges: &'a [EdgeId],
}

impl<'a> NodeEvents<'a> {
    /// `|S_u|` — the node's total degree.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// `true` if the node has no incident edges.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Materialise the `i`-th event.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Event {
        Event {
            t: self.ts.get(i),
            other: self.packed[i] >> 1,
            edge: self.edges[i],
            dir: dir_of(self.packed[i]),
        }
    }

    /// Timestamp of the `i`-th event.
    #[inline]
    #[must_use]
    pub fn t(&self, i: usize) -> Timestamp {
        self.ts.get(i)
    }

    /// Far endpoint of the `i`-th event.
    #[inline]
    #[must_use]
    pub fn other(&self, i: usize) -> NodeId {
        self.packed[i] >> 1
    }

    /// Direction of the `i`-th event relative to the owning node.
    #[inline]
    #[must_use]
    pub fn dir(&self, i: usize) -> Dir {
        dir_of(self.packed[i])
    }

    /// Global edge id of the `i`-th event.
    #[inline]
    #[must_use]
    pub fn edge(&self, i: usize) -> EdgeId {
        self.edges[i]
    }

    /// Raw packed value `other << 1 | dir` of the `i`-th event.
    #[inline]
    #[must_use]
    pub fn packed(&self, i: usize) -> u32 {
        self.packed[i]
    }

    /// The timestamp lane (δ-window scans binary-search / stream this).
    /// Match on the returned [`TsLane`] once per node and stay
    /// monomorphised over [`crate::lanes::TsRead`] in hot loops.
    #[inline]
    #[must_use]
    pub fn ts_lane(&self) -> TsLane<'a> {
        self.ts
    }

    /// The packed topology lane (`other << 1 | dir` per event).
    #[inline]
    #[must_use]
    pub fn packed_lane(&self) -> &'a [u32] {
        self.packed
    }

    /// The global edge id lane.
    #[inline]
    #[must_use]
    pub fn edge_lane(&self) -> &'a [EdgeId] {
        self.edges
    }

    /// Sub-view over a contiguous range of event positions.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[inline]
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> NodeEvents<'a> {
        NodeEvents {
            ts: self.ts.slice(range.clone()),
            packed: &self.packed[range.clone()],
            edges: &self.edges[range],
        }
    }

    /// Iterate materialised [`Event`]s in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = Event> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }

    /// `slice::partition_point` over materialised events: the index of
    /// the first event for which `pred` is false (events for which it is
    /// true must form a prefix).
    #[inline]
    #[must_use]
    pub fn partition_point(&self, mut pred: impl FnMut(Event) -> bool) -> usize {
        // Binary search over positions; each probe materialises one event.
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl<'a> IntoIterator for NodeEvents<'a> {
    type Item = Event;
    type IntoIter = NodeEventsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        NodeEventsIter {
            view: self,
            next: 0,
        }
    }
}

/// Iterator over a [`NodeEvents`] view, yielding materialised [`Event`]s.
#[derive(Debug, Clone)]
pub struct NodeEventsIter<'a> {
    view: NodeEvents<'a>,
    next: usize,
}

impl Iterator for NodeEventsIter<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if self.next < self.view.len() {
            let e = self.view.get(self.next);
            self.next += 1;
            Some(e)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeEventsIter<'_> {}

/// Decode the direction bit of a packed lane entry.
#[inline]
fn dir_of(packed: u32) -> Dir {
    if packed & 1 == 0 {
        Dir::Out
    } else {
        Dir::In
    }
}

/// One entry of a pair edge list `E(v, w)`, stored relative to the
/// *smaller* endpoint of the unordered pair.
///
/// This is the *materialised* form — storage is the index's
/// struct-of-arrays event layout (see [`PairIndex`]); [`PairEvents::get`]
/// assembles a `PairEvent` on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairEvent {
    /// Timestamp of the underlying edge.
    pub t: Timestamp,
    /// Global edge id (chronological rank).
    pub edge: EdgeId,
    /// Direction relative to the smaller endpoint: `Out` means
    /// `lo -> hi`, `In` means `hi -> lo`.
    pub dir_from_lo: Dir,
}

impl PairEvent {
    /// Direction of this edge relative to the given endpoint.
    ///
    /// `endpoint_is_lo` must reflect whether the caller's reference node is
    /// the smaller endpoint of the pair.
    #[inline]
    #[must_use]
    pub fn dir_from(&self, endpoint_is_lo: bool) -> Dir {
        if endpoint_is_lo {
            self.dir_from_lo
        } else {
            self.dir_from_lo.flip()
        }
    }
}

/// Borrowed view over one pair edge list `E(v, w)` (or a contiguous part
/// of it), in time order.
///
/// The timestamps and edge ids are parallel slices of the index's event
/// arrays; the directions are bits of the index's shared bitset, starting
/// at bit `first`. Readers get materialised [`PairEvent`]s by value. Two
/// views compare equal when they hold the same events.
#[derive(Clone, Copy, Default)]
pub struct PairEvents<'a> {
    t: &'a [Timestamp],
    edge: &'a [EdgeId],
    dirs: &'a [u64],
    first: usize,
}

impl<'a> PairEvents<'a> {
    /// Number of events in the view.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// `true` if the view holds no events.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Materialise the `i`-th event.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> PairEvent {
        let bit = self.first + i;
        PairEvent {
            t: self.t[i],
            edge: self.edge[i],
            dir_from_lo: dir_of((self.dirs[bit >> 6] >> (bit & 63)) as u32),
        }
    }

    /// The timestamp array (δ-window searches read only this).
    #[inline]
    #[must_use]
    pub fn ts(&self) -> &'a [Timestamp] {
        self.t
    }

    /// Sub-view over a contiguous range of event positions.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[inline]
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> PairEvents<'a> {
        PairEvents {
            t: &self.t[range.clone()],
            edge: &self.edge[range.clone()],
            dirs: self.dirs,
            first: self.first + range.start,
        }
    }

    /// Iterate materialised [`PairEvent`]s in time order.
    #[inline]
    #[must_use]
    pub fn iter(&self) -> PairEventsIter<'a> {
        self.into_iter()
    }

    /// `slice::partition_point` over materialised events: the index of
    /// the first event for which `pred` is false (events for which it is
    /// true must form a prefix).
    #[inline]
    #[must_use]
    pub fn partition_point(&self, mut pred: impl FnMut(PairEvent) -> bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

impl std::fmt::Debug for PairEvents<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for PairEvents<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for PairEvents<'_> {}

impl<'a> IntoIterator for PairEvents<'a> {
    type Item = PairEvent;
    type IntoIter = PairEventsIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        PairEventsIter {
            view: self,
            next: 0,
        }
    }
}

/// Iterator over a [`PairEvents`] view, yielding materialised
/// [`PairEvent`]s.
#[derive(Debug, Clone)]
pub struct PairEventsIter<'a> {
    view: PairEvents<'a>,
    next: usize,
}

impl Iterator for PairEventsIter<'_> {
    type Item = PairEvent;

    #[inline]
    fn next(&mut self) -> Option<PairEvent> {
        if self.next < self.view.len() {
            let e = self.view.get(self.next);
            self.next += 1;
            Some(e)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.view.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PairEventsIter<'_> {}

/// Index over the unordered node pairs with at least one edge.
///
/// Each pair belongs to its *owner*, the endpoint of lower node rank
/// (ascending `(degree, id)`, see [`TemporalGraph::node_rank`]), and the
/// pairs are stored as a compressed sparse row keyed by the owner:
/// `his[pair_base[u]..pair_base[u + 1]]` are `u`'s neighbours of higher
/// rank, ascending by id, and a pair's slot is its position in `his`.
/// Keying by rank instead of by id keeps hub rows short: a hub owns only
/// its pairs with the few nodes ranked above it (on the hub-skewed
/// benchmark input the longest row holds 52 pairs where an id-keyed row
/// held 5 169). Slot `s`'s time-ordered events are positions
/// `offsets[s]..offsets[s + 1]` of three event arrays: timestamps, edge
/// ids, and one direction bit per event (set for `In`, i.e. the edge
/// runs from the pair's larger id to its smaller) in a `u64` bitset.
/// In bytes: 16 per node (`pair_base`, the bloom and the rank), 8 per
/// pair (`his` and `offsets`) and 12⅛ per edge; no hash table is built.
/// A lookup reads the two ranks and binary-searches the owner's row.
/// Against the `FxHashMap` probe it replaced, `hare-count --profile`
/// scan time fell 5–9 % on the hub-skewed and dense benchmark inputs
/// (2 vCPU); rows keyed by the smaller id instead made the per-node
/// profile pass 8 % slower than the hash probe. The graph build reads
/// the index off its event lanes (see `PairIndex::from_lanes`): it sorts
/// only each node's distinct higher-rank neighbours.
#[derive(Debug, Clone)]
pub struct PairIndex {
    pair_base: Box<[u32]>,
    his: Box<[NodeId]>,
    offsets: Box<[u32]>,
    t: Box<[Timestamp]>,
    edge: Box<[EdgeId]>,
    dirs: Box<[u64]>,
    // Per-node 64-bit neighbour signatures: bit `sig(w)` is set iff some
    // edge connects the node to `w`. One register test filters the
    // (frequent) non-adjacent probes of the triangle kernel before they
    // pay for a row search; a clear bit is an exact negative.
    blooms: Box<[u64]>,
    // Each node's position in ascending `(degree, id)` order: it routes
    // a lookup to the owner's row, and the kernels read it as
    // `TemporalGraph::node_rank`.
    rank: Box<[u32]>,
}

impl PairIndex {
    /// Bloom bit of neighbour `w` (multiplicative mix into 0..64).
    #[inline]
    fn bloom_bit(w: NodeId) -> u64 {
        1u64 << (w.wrapping_mul(0x9E37_79B1) >> 26 & 63)
    }

    /// A stable-sort build, kept as the oracle of the build from the
    /// lanes: one `((owner, other), event)` tuple per edge, stable-sorted
    /// by owner and then by the other endpoint.
    #[cfg(test)]
    pub(crate) fn build_by_sort(rank: &[u32], edges: &[TemporalEdge]) -> PairIndex {
        let num_nodes = rank.len();
        // Edges are already in chronological (id) order, so a stable sort
        // by pair key keeps each pair's events time-ordered.
        let mut tagged: Vec<((NodeId, NodeId), PairEvent)> = edges
            .iter()
            .enumerate()
            .map(|(id, e)| {
                let (lo, hi) = e.unordered_pair();
                let owned = if rank[lo as usize] < rank[hi as usize] {
                    (lo, hi)
                } else {
                    (hi, lo)
                };
                let dir_from_lo = if e.src == lo { Dir::Out } else { Dir::In };
                (
                    owned,
                    PairEvent {
                        t: e.t,
                        edge: id as EdgeId,
                        dir_from_lo,
                    },
                )
            })
            .collect();
        tagged.sort_by_key(|&(key, ev)| (key, ev.edge));

        let mut pair_base = vec![0u32; num_nodes + 1];
        let mut his = Vec::new();
        let mut offsets = Vec::new();
        let mut t = Vec::with_capacity(tagged.len());
        let mut edge = Vec::with_capacity(tagged.len());
        let mut dirs = vec![0u64; tagged.len().div_ceil(64)];
        let mut blooms = vec![0u64; num_nodes];
        let mut last = None;
        for (key, ev) in tagged {
            if last != Some(key) {
                last = Some(key);
                let (owner, other) = key;
                pair_base[owner as usize + 1] += 1;
                his.push(other);
                offsets.push(t.len() as u32);
                blooms[owner as usize] |= PairIndex::bloom_bit(other);
                blooms[other as usize] |= PairIndex::bloom_bit(owner);
            }
            dirs[t.len() >> 6] |= (ev.dir_from_lo as u64) << (t.len() & 63);
            t.push(ev.t);
            edge.push(ev.edge);
        }
        offsets.push(t.len() as u32);
        for i in 1..pair_base.len() {
            pair_base[i] += pair_base[i - 1];
        }

        PairIndex {
            pair_base: pair_base.into_boxed_slice(),
            his: his.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            t: t.into_boxed_slice(),
            edge: edge.into_boxed_slice(),
            dirs: dirs.into_boxed_slice(),
            blooms: blooms.into_boxed_slice(),
            rank: rank.into(),
        }
    }

    /// The 64-bit neighbour signature of node `v` (0 for nodes without
    /// edges). Test candidates with [`PairIndex::bloom_may_connect`].
    #[inline]
    #[must_use]
    pub fn bloom_of(&self, v: NodeId) -> u64 {
        self.blooms.get(v as usize).copied().unwrap_or(0)
    }

    /// `false` guarantees no edge connects the signature's node to `w`
    /// (`true` may be a false positive — follow with a real lookup).
    #[inline]
    #[must_use]
    pub fn bloom_may_connect(bloom: u64, w: NodeId) -> bool {
        bloom & PairIndex::bloom_bit(w) != 0
    }

    /// Slot of the unordered pair `{a, b}`, or `None` if no edge connects
    /// them — including `a == b` and ids outside the graph.
    #[inline]
    #[must_use]
    pub fn slot_between(&self, a: NodeId, b: NodeId) -> Option<u32> {
        // Ids outside the graph have no rank. For `a == b` the search
        // misses: a row holds only neighbours ranked above its owner.
        let (rank_a, rank_b) = (*self.rank.get(a as usize)?, *self.rank.get(b as usize)?);
        let (owner, other) = if rank_a < rank_b { (a, b) } else { (b, a) };
        let (start, end) = (
            self.pair_base[owner as usize],
            self.pair_base[owner as usize + 1],
        );
        let row = &self.his[start as usize..end as usize];
        row.binary_search(&other).ok().map(|i| start + i as u32)
    }

    /// Number of distinct unordered pairs with at least one edge.
    #[inline]
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.his.len()
    }

    /// The `i`-th pair key `(lo, hi)`, smaller id first. Slots run by
    /// owner id and then by the other endpoint's id, so keys are not in
    /// `(lo, hi)` order.
    ///
    /// # Panics
    /// Panics if `slot >= self.num_pairs()`.
    #[inline]
    #[must_use]
    pub fn key(&self, slot: usize) -> (NodeId, NodeId) {
        let other = self.his[slot];
        // The last row starting at or before `slot` holds it (rows of
        // nodes that own no pair are empty and share a start).
        let owner = (self.pair_base.partition_point(|&b| b as usize <= slot) - 1) as NodeId;
        (owner.min(other), owner.max(other))
    }

    /// Time-ordered events of the `i`-th pair.
    ///
    /// # Panics
    /// Panics if `slot >= self.num_pairs()`.
    #[inline]
    #[must_use]
    pub fn events_of_slot(&self, slot: usize) -> PairEvents<'_> {
        let (start, end) = (self.offsets[slot] as usize, self.offsets[slot + 1] as usize);
        PairEvents {
            t: &self.t[start..end],
            edge: &self.edge[start..end],
            dirs: &self.dirs,
            first: start,
        }
    }

    /// Time-ordered events between `a` and `b` (either order); an empty
    /// view if the pair has no edges.
    #[inline]
    #[must_use]
    pub fn events_between(&self, a: NodeId, b: NodeId) -> PairEvents<'_> {
        match self.slot_between(a, b) {
            Some(slot) => self.events_of_slot(slot as usize),
            None => PairEvents::default(),
        }
    }

    /// Heap bytes held by the index: at most 16 per node, 8 per pair and
    /// 12⅛ per edge, plus a few words of rounding.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.pair_base)
            + size_of_val(&*self.his)
            + size_of_val(&*self.offsets)
            + size_of_val(&*self.t)
            + size_of_val(&*self.edge)
            + size_of_val(&*self.dirs)
            + size_of_val(&*self.blooms)
            + size_of_val(&*self.rank)
    }
}

/// The packed-lane node space: `other << 1 | dir` must fit a `u32`, so
/// a graph holds at most 2^31 − 1 nodes.
pub(crate) const MAX_NODES: usize = (u32::MAX >> 1) as usize;

/// The edge-id space: ids are `u32` chronological ranks.
pub(crate) const MAX_EDGES: usize = u32::MAX as usize;

impl PairIndex {
    /// Derive the index from the event lanes (`node_start[u]..
    /// node_start[u + 1]` is `S_u`) and the node rank. `S_u` holds each
    /// of node `u`'s events in `(t, edge)` order: its sorted distinct
    /// neighbours ranked above it are its row of `his`, and its events
    /// to them, taken in lane order, land in each pair's run. Rows are
    /// laid out in id order, so each starts where the previous ended and
    /// everything is written straight into the final arrays.
    fn from_lanes(
        node_start: &[usize],
        rank: Box<[u32]>,
        ts: &[Timestamp],
        packed: &[u32],
        edge: &[EdgeId],
    ) -> PairIndex {
        let num_nodes = node_start.len() - 1;
        // Each edge lands in exactly one pair: its owner's.
        let num_events = node_start[num_nodes] / 2;
        let mut ev_t = vec![0 as Timestamp; num_events];
        let mut ev_edge = vec![0 as EdgeId; num_events];
        let mut dirs = vec![0u64; num_events.div_ceil(64)];
        let mut blooms = vec![0u64; num_nodes];
        let mut pair_base = vec![0u32; num_nodes + 1];
        // `mark[w]` holds `(u + 1) << 32 | x` once `w` is a listed
        // neighbour of `u`, where `x` is first `u`'s event count to `w`,
        // then where the next such event goes in the event arrays (both
        // below 2^32: edge ids are `u32`). `partners` and `upper` collect
        // `u`'s neighbours ranked above it and the positions in `S_u` of
        // its events to them. The loops are branch-free: whether an
        // event goes up and whether its neighbour is new are coin flips
        // on real graphs.
        let mut mark = vec![0u64; num_nodes];
        let mut partners: Vec<NodeId> = Vec::new();
        let mut upper: Vec<u32> = Vec::new();
        let mut his: Vec<NodeId> = Vec::new();
        let mut offsets: Vec<u32> = Vec::new();
        let mut at = 0usize;
        for u in 0..num_nodes {
            let stamp = (u as u64 + 1) << 32;
            let rank_u = rank[u];
            let run = node_start[u]..node_start[u + 1];
            if partners.len() < run.len() {
                partners.resize(run.len(), 0);
                upper.resize(run.len(), 0);
            }
            let (mut num_partners, mut num_upper, mut bloom) = (0, 0, 0);
            for (i, &p) in packed[run.clone()].iter().enumerate() {
                let w = p >> 1;
                bloom |= PairIndex::bloom_bit(w);
                let up = rank[w as usize] > rank_u;
                let m = mark[w as usize];
                let new = up & (m >> 32 << 32 != stamp);
                mark[w as usize] = if new { stamp } else { m } + u64::from(up);
                partners[num_partners] = w;
                num_partners += usize::from(new);
                upper[num_upper] = i as u32;
                num_upper += usize::from(up);
            }
            blooms[u] = bloom;
            let partners = &mut partners[..num_partners];
            partners.sort_unstable();
            his.extend_from_slice(partners);
            pair_base[u + 1] = his.len() as u32;
            for &w in partners.iter() {
                offsets.push(at as u32);
                let m = &mut mark[w as usize];
                let count = *m as u32 as usize;
                *m = stamp | at as u64;
                at += count;
            }
            for &i in &upper[..num_upper] {
                let i = run.start + i as usize;
                let w = packed[i] >> 1;
                let m = &mut mark[w as usize];
                let to = *m as u32 as usize;
                ev_t[to] = ts[i];
                ev_edge[to] = edge[i];
                // Stored relative to the smaller id: flip when `u` is
                // the larger endpoint.
                let dir = (packed[i] & 1) ^ u32::from(u as NodeId > w);
                dirs[to >> 6] |= u64::from(dir) << (to & 63);
                *m += 1;
            }
        }
        debug_assert_eq!(at, num_events);
        offsets.push(num_events as u32);
        PairIndex {
            pair_base: pair_base.into_boxed_slice(),
            his: his.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            t: ev_t.into_boxed_slice(),
            edge: ev_edge.into_boxed_slice(),
            dirs: dirs.into_boxed_slice(),
            blooms: blooms.into_boxed_slice(),
            rank,
        }
    }
}

/// Timestamp-lane storage: raw slice or per-run bit-packed deltas. The
/// other two lanes are cheap (4 bytes/event each) and stay raw in both
/// layouts.
#[derive(Debug, Clone)]
enum TsStore {
    Raw(Box<[Timestamp]>),
    Packed(PackedTs),
}

impl TsStore {
    /// The lane view of node `u`'s run `node_offsets[u]..node_offsets[u+1]`.
    #[inline]
    fn lane(&self, u: usize, lo: usize, hi: usize) -> TsLane<'_> {
        match self {
            TsStore::Raw(ts) => TsLane::Raw(&ts[lo..hi]),
            TsStore::Packed(p) => TsLane::Packed(p.run(u, hi - lo)),
        }
    }

    fn layout(&self) -> LaneLayout {
        match self {
            TsStore::Raw(_) => LaneLayout::Raw,
            TsStore::Packed(_) => LaneLayout::Compressed,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            TsStore::Raw(ts) => ts.len() * std::mem::size_of::<Timestamp>(),
            TsStore::Packed(p) => p.heap_bytes(),
        }
    }
}

/// An immutable temporal graph, optimised for motif counting.
///
/// Construct with [`crate::GraphBuilder`] (or the
/// [`TemporalGraph::from_edges`] shortcut). Nodes are `0..num_nodes`; edge
/// ids are chronological ranks under the `(t, input_position)` total order.
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    num_nodes: usize,
    edges: Box<[TemporalEdge]>,
    node_offsets: Box<[usize]>,
    // SoA event arena — see the module docs for the lane layout.
    ev_ts: TsStore,
    ev_packed: Box<[u32]>,
    ev_edge: Box<[EdgeId]>,
    // Also holds the node rank (see `TemporalGraph::node_rank`).
    pairs: PairIndex,
}

impl TemporalGraph {
    /// Build from raw edges with default options (self-loops stripped,
    /// node ids taken literally). See [`crate::GraphBuilder`] for control.
    #[must_use]
    pub fn from_edges(edges: Vec<TemporalEdge>) -> TemporalGraph {
        let mut b = crate::GraphBuilder::new();
        b.extend(edges);
        b.build()
    }

    /// Internal constructor used by `GraphBuilder` and the reader. `edges`
    /// must be sorted by `(t, original position)` and free of
    /// self-loops, and every endpoint must be `< num_nodes`. One counting
    /// pass sizes everything; the lane fill and the [`PairIndex`]
    /// derivation from the lanes then write the final arrays in place.
    ///
    /// # Panics
    /// Panics past the edge-id space (`u32`) or the packed-lane node
    /// space (2^31 − 1 nodes). The text reader checks both and returns
    /// a typed error instead.
    pub(crate) fn from_sorted_edges(num_nodes: usize, edges: Vec<TemporalEdge>) -> TemporalGraph {
        assert!(edges.len() <= MAX_EDGES, "edge count exceeds u32 id space");
        assert!(
            num_nodes <= MAX_NODES,
            "node count exceeds the packed-lane id space (2^31 - 1)"
        );
        debug_assert!(edges.windows(2).all(|w| w[0].t <= w[1].t));

        // Counting pass, then a prefix sum: each node's degree places its
        // lane run.
        let mut node_start = vec![0usize; num_nodes + 1];
        for e in &edges {
            node_start[e.src as usize + 1] += 1;
            node_start[e.dst as usize + 1] += 1;
        }
        for i in 1..node_start.len() {
            node_start[i] += node_start[i - 1];
        }
        let node_rank = crate::stats::degree_rank(num_nodes, |u| node_start[u + 1] - node_start[u]);

        // Fill pass in edge-id order, so each S_u comes out in `(t, edge)`
        // order.
        let n_events = edges.len() * 2;
        let mut ev_ts = vec![0 as Timestamp; n_events];
        let mut ev_packed = vec![0u32; n_events];
        let mut ev_edge = vec![0 as EdgeId; n_events];
        let mut cursors = node_start.clone();
        for (id, e) in edges.iter().enumerate() {
            let id = id as EdgeId;
            let s = &mut cursors[e.src as usize];
            ev_ts[*s] = e.t;
            ev_packed[*s] = (e.dst << 1) | Dir::Out as u32;
            ev_edge[*s] = id;
            *s += 1;
            let d = &mut cursors[e.dst as usize];
            ev_ts[*d] = e.t;
            ev_packed[*d] = (e.src << 1) | Dir::In as u32;
            ev_edge[*d] = id;
            *d += 1;
        }
        drop(cursors);
        let pairs = PairIndex::from_lanes(&node_start, node_rank, &ev_ts, &ev_packed, &ev_edge);

        TemporalGraph {
            num_nodes,
            edges: edges.into_boxed_slice(),
            node_offsets: node_start.into_boxed_slice(),
            ev_ts: TsStore::Raw(ev_ts.into_boxed_slice()),
            ev_packed: ev_packed.into_boxed_slice(),
            ev_edge: ev_edge.into_boxed_slice(),
            pairs,
        }
    }

    /// Build directly from an already-chronological edge list with an
    /// explicit node-id space (so sub-graphs keep global node ids even
    /// when high-id nodes have no edges in the slice). This is the
    /// entry point the out-of-core chunk driver uses: a chunk cut from a
    /// sorted edge stream is itself sorted, and re-sorting (or
    /// re-deriving `num_nodes` from the slice) would break the
    /// order-isomorphism between chunk-local and global edge ids.
    ///
    /// # Panics
    /// Panics if `edges` is not sorted by timestamp, contains a
    /// self-loop, or references a node `>= num_nodes`.
    #[must_use]
    pub fn from_chronological_edges(num_nodes: usize, edges: Vec<TemporalEdge>) -> TemporalGraph {
        assert!(
            edges.windows(2).all(|w| w[0].t <= w[1].t),
            "edges must be sorted by timestamp"
        );
        for e in &edges {
            assert!(!e.is_self_loop(), "self-loop {e} not allowed");
            assert!(
                (e.src as usize) < num_nodes && (e.dst as usize) < num_nodes,
                "edge {e} references a node >= num_nodes ({num_nodes})"
            );
        }
        TemporalGraph::from_sorted_edges(num_nodes, edges)
    }

    /// Number of nodes (`|V|`).
    #[inline]
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of temporal edges (`|E|`).
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges in chronological order; the slice index is the edge id.
    #[inline]
    #[must_use]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// The edge with the given id.
    #[inline]
    #[must_use]
    pub fn edge(&self, id: EdgeId) -> TemporalEdge {
        self.edges[id as usize]
    }

    /// The time-ordered event sequence `S_u` of node `u`, as a borrowed
    /// SoA view over the lane arena.
    #[inline]
    #[must_use]
    pub fn node_events(&self, u: NodeId) -> NodeEvents<'_> {
        let lo = self.node_offsets[u as usize];
        let hi = self.node_offsets[u as usize + 1];
        NodeEvents {
            ts: self.ev_ts.lane(u as usize, lo, hi),
            packed: &self.ev_packed[lo..hi],
            edges: &self.ev_edge[lo..hi],
        }
    }

    /// The storage layout of the timestamp lane.
    #[inline]
    #[must_use]
    pub fn lane_layout(&self) -> LaneLayout {
        self.ev_ts.layout()
    }

    /// Re-encode the timestamp lane into `layout`. Queries and counts
    /// are bit-identical across layouts (differentially tested); only
    /// the resident footprint and decode cost change. A no-op when the
    /// graph already uses `layout`.
    #[must_use]
    pub fn into_lane_layout(mut self, layout: LaneLayout) -> TemporalGraph {
        self.ev_ts = match (self.ev_ts, layout) {
            (TsStore::Raw(ts), LaneLayout::Compressed) => {
                TsStore::Packed(PackedTs::encode(&self.node_offsets, &ts))
            }
            (TsStore::Packed(p), LaneLayout::Raw) => {
                let mut ts = vec![0 as Timestamp; self.ev_packed.len()];
                for u in 0..self.num_nodes {
                    let (lo, hi) = (self.node_offsets[u], self.node_offsets[u + 1]);
                    let lane = TsLane::Packed(p.run(u, hi - lo));
                    for (i, slot) in ts[lo..hi].iter_mut().enumerate() {
                        *slot = lane.get(i);
                    }
                }
                TsStore::Raw(ts.into_boxed_slice())
            }
            (store, _) => store,
        };
        self
    }

    /// Heap bytes held by the three event lanes (timestamp store +
    /// packed topology + edge ids). This is the quantity the out-of-core
    /// chunk budget bounds; the edge list and pair index are accounted
    /// separately.
    #[must_use]
    pub fn resident_lane_bytes(&self) -> usize {
        self.ev_ts.heap_bytes()
            + self.ev_packed.len() * std::mem::size_of::<u32>()
            + self.ev_edge.len() * std::mem::size_of::<EdgeId>()
    }

    /// Total degree of `u` (in-degree + out-degree, counting multi-edges) —
    /// i.e. `|S_u|`, the paper's `d_i`.
    #[inline]
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        self.node_offsets[u as usize + 1] - self.node_offsets[u as usize]
    }

    /// Each node's position in ascending `(degree, id)` order: a
    /// permutation of `0..num_nodes`, so `node_rank()[u] == num_nodes - 1`
    /// for the highest-degree node. Built once by a counting sort over
    /// the degrees (see [`crate::stats::degree_rank`]); unaffected by
    /// [`TemporalGraph::into_lane_layout`].
    #[inline]
    #[must_use]
    pub fn node_rank(&self) -> &[u32] {
        &self.pairs.rank
    }

    /// The pair index over `E(v, w)` lists.
    #[inline]
    #[must_use]
    pub fn pairs(&self) -> &PairIndex {
        &self.pairs
    }

    /// Time-ordered edges between `a` and `b`, both directions.
    #[inline]
    #[must_use]
    pub fn pair_events(&self, a: NodeId, b: NodeId) -> PairEvents<'_> {
        self.pairs.events_between(a, b)
    }

    /// Earliest timestamp, or `None` for an empty graph.
    #[inline]
    #[must_use]
    pub fn min_time(&self) -> Option<Timestamp> {
        self.edges.first().map(|e| e.t)
    }

    /// Latest timestamp, or `None` for an empty graph.
    #[inline]
    #[must_use]
    pub fn max_time(&self) -> Option<Timestamp> {
        self.edges.last().map(|e| e.t)
    }

    /// `max_time - min_time`, or 0 for graphs with < 2 edges. Saturates
    /// at `Timestamp::MAX` for spans wider than that.
    #[inline]
    #[must_use]
    pub fn time_span(&self) -> Timestamp {
        match (self.min_time(), self.max_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => 0,
        }
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes as NodeId
    }

    /// A stable 64-bit content fingerprint of the graph.
    ///
    /// Hashes the node count and the SoA event lanes (per-node offsets,
    /// timestamp lane, packed topology lane) through a splitmix64
    /// chain. The lanes are a deterministic function of the sorted edge
    /// list, so rebuilding from the same edges — including
    /// `TemporalGraph::from_edges(g.edges().to_vec())` — reproduces the
    /// fingerprint bit-for-bit, while any change to an endpoint, a
    /// direction, a timestamp, or the node count changes it. Identity
    /// is *content*, not isomorphism class: relabelling nodes yields a
    /// different fingerprint.
    ///
    /// `hare-serve` uses this as the dataset half of its result-cache
    /// key, so cached query results can never be served for a graph
    /// with different content under a reused name.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use crate::util::splitmix64_mix as mix;
        // Tag the hash domain so an empty graph is not the zero state.
        let mut h = mix(0x6861_7265_5F66_7030, self.num_nodes as u64);
        for &off in self.node_offsets.iter() {
            h = mix(h, off as u64);
        }
        // Walk the lanes per node run (their concatenation is the global
        // event order), decoding timestamps through the lane view so the
        // fingerprint is a function of content, not of [`LaneLayout`].
        for u in 0..self.num_nodes {
            let (lo, hi) = (self.node_offsets[u], self.node_offsets[u + 1]);
            let ts = self.ev_ts.lane(u, lo, hi);
            for (i, &p) in self.ev_packed[lo..hi].iter().enumerate() {
                h = mix(mix(h, ts.get(i) as u64), u64::from(p));
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> TemporalGraph {
        // Fig. 1 of the paper: a=0, b=1, c=2, d=3, e=4.
        TemporalGraph::from_edges(vec![
            TemporalEdge::new(4, 3, 1),
            TemporalEdge::new(0, 2, 4),
            TemporalEdge::new(4, 2, 6),
            TemporalEdge::new(0, 2, 8),
            TemporalEdge::new(3, 0, 9),
            TemporalEdge::new(3, 2, 10),
            TemporalEdge::new(0, 1, 11),
            TemporalEdge::new(3, 4, 14),
            TemporalEdge::new(0, 2, 15),
            TemporalEdge::new(2, 3, 17),
            TemporalEdge::new(4, 3, 18),
            TemporalEdge::new(3, 4, 21),
        ])
    }

    #[test]
    fn toy_graph_shape() {
        let g = toy();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 12);
        assert_eq!(g.min_time(), Some(1));
        assert_eq!(g.max_time(), Some(21));
        assert_eq!(g.time_span(), 20);
    }

    #[test]
    fn node_sequence_matches_paper_example() {
        // §IV.A.3: S_a = <(4s,c,o),(8s,c,o),(9s,d,in),(11s,b,o),(15s,c,o)>
        let g = toy();
        let sa: Vec<_> = g
            .node_events(0)
            .iter()
            .map(|e| (e.t, e.other, e.dir))
            .collect();
        assert_eq!(
            sa,
            vec![
                (4, 2, Dir::Out),
                (8, 2, Dir::Out),
                (9, 3, Dir::In),
                (11, 1, Dir::Out),
                (15, 2, Dir::Out),
            ]
        );
        // §IV.B.2: S_e = <(1s,d,o),(6s,c,o),(14s,d,in),(18s,d,o),(21s,d,in)>
        let se: Vec<_> = g
            .node_events(4)
            .iter()
            .map(|e| (e.t, e.other, e.dir))
            .collect();
        assert_eq!(
            se,
            vec![
                (1, 3, Dir::Out),
                (6, 2, Dir::Out),
                (14, 3, Dir::In),
                (18, 3, Dir::Out),
                (21, 3, Dir::In),
            ]
        );
    }

    #[test]
    fn sequences_are_time_ordered() {
        let g = toy();
        for u in g.node_ids() {
            let s = g.node_events(u);
            assert!((1..s.len()).all(|i| s.t(i - 1) <= s.t(i)), "S_{u} unsorted");
            assert!(s.edge_lane().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn node_events_view_accessors_agree() {
        let g = toy();
        for u in g.node_ids() {
            let s = g.node_events(u);
            assert_eq!(s.len(), g.degree(u));
            assert_eq!(s.is_empty(), g.degree(u) == 0);
            for (i, ev) in s.iter().enumerate() {
                assert_eq!(ev, s.get(i));
                assert_eq!(ev.t, s.t(i));
                assert_eq!(ev.other, s.other(i));
                assert_eq!(ev.dir, s.dir(i));
                assert_eq!(ev.edge, s.edge(i));
                assert_eq!(s.packed(i), (ev.other << 1) | ev.dir as u32);
            }
            // Lanes are parallel and equally long.
            assert_eq!(s.ts_lane().len(), s.len());
            assert_eq!(s.packed_lane().len(), s.len());
            assert_eq!(s.edge_lane().len(), s.len());
        }
    }

    #[test]
    fn node_events_slice_and_partition_point() {
        let g = toy();
        let s = g.node_events(0);
        let tail = s.slice(2..s.len());
        assert_eq!(tail.len(), s.len() - 2);
        assert_eq!(tail.get(0), s.get(2));
        // partition_point agrees with a linear scan on the same predicate.
        for cut in [0, 5, 9, 12, 100] {
            let via_view = s.partition_point(|e| e.t < cut);
            let via_scan = s.iter().take_while(|e| e.t < cut).count();
            assert_eq!(via_view, via_scan, "cut={cut}");
        }
        let it = s.into_iter();
        assert_eq!(it.len(), s.len());
        assert_eq!(it.count(), s.len());
    }

    #[test]
    fn degrees_sum_to_twice_edges() {
        let g = toy();
        let total: usize = g.node_ids().map(|u| g.degree(u)).sum();
        assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn pair_index_matches_paper_example() {
        // §IV.B.2: E(v_c, v_d) = {(v_d, v_c, 10s), (v_c, v_d, 17s)}
        let g = toy();
        let evs = g.pair_events(2, 3);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs.get(0).t, 10);
        assert_eq!(evs.get(0).dir_from_lo, Dir::In); // d -> c means hi -> lo
        assert_eq!(evs.get(1).t, 17);
        assert_eq!(evs.get(1).dir_from_lo, Dir::Out); // c -> d means lo -> hi

        // Symmetric query.
        assert_eq!(g.pair_events(3, 2), evs);
        // Direction relative to each endpoint.
        assert_eq!(evs.get(0).dir_from(true), Dir::In); // from c's view: inward
        assert_eq!(evs.get(0).dir_from(false), Dir::Out); // from d's view: outward
    }

    #[test]
    fn pair_index_empty_for_unconnected_pair() {
        let g = toy();
        assert!(g.pair_events(1, 4).is_empty());
    }

    #[test]
    fn pair_events_view_accessors_agree() {
        let g = toy();
        // E(a, c): a -> c at 4, 8 and 15 (ids 1, 3, 8).
        let evs = g.pair_events(0, 2);
        let all: Vec<PairEvent> = evs.iter().collect();
        assert_eq!(all.len(), 3);
        assert_eq!(all.iter().map(|p| p.t).collect::<Vec<_>>(), [4, 8, 15]);
        assert!(all.iter().all(|p| p.dir_from_lo == Dir::Out));
        for (i, p) in all.iter().enumerate() {
            assert_eq!(evs.get(i), *p);
        }
        let tail = evs.slice(1..3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.get(0), all[1]);
        assert_eq!(tail.iter().collect::<Vec<_>>(), all[1..]);
        assert!(evs.slice(3..3).is_empty());
        for cut in [0, 4, 5, 15, 16] {
            let via_view = evs.partition_point(|p| p.t < cut);
            let via_scan = all.iter().take_while(|p| p.t < cut).count();
            assert_eq!(via_view, via_scan, "cut={cut}");
        }
        let it = evs.into_iter();
        assert_eq!(it.len(), 3);
        assert_eq!(format!("{evs:?}"), format!("{all:?}"));
        assert_ne!(evs, tail);
    }

    #[test]
    fn pair_events_time_ordered() {
        let g = toy();
        let p = g.pairs();
        let mut seen = 0;
        for slot in 0..p.num_pairs() {
            let evs: Vec<PairEvent> = p.events_of_slot(slot).iter().collect();
            assert!(!evs.is_empty());
            assert!(evs.windows(2).all(|w| w[0].edge < w[1].edge));
            assert!(evs.windows(2).all(|w| w[0].t <= w[1].t));
            seen += evs.len();
        }
        assert_eq!(seen, g.num_edges());
    }

    /// Ids that are not in the index — a node paired with itself, ids at
    /// or past `num_nodes`, the largest id — find no slot and no events,
    /// as they did when lookups went through a hash map. Node 0 is a hub
    /// with the lowest id: an id-keyed row would hold all its 300 pairs,
    /// but it ranks highest, so it owns none and each spoke owns its pair
    /// with it.
    #[test]
    fn lookups_outside_the_index_are_absent() {
        let mut edges = Vec::new();
        for k in 1..=300u32 {
            edges.push(TemporalEdge::new(0, k, i64::from(k)));
            edges.push(TemporalEdge::new(k, 0, i64::from(k) + 1000));
        }
        edges.push(TemporalEdge::new(7, 9, 5000));
        let g = TemporalGraph::from_chronological_edges(400, {
            edges.sort_by_key(|e| e.t);
            edges
        });
        let p = g.pairs();
        assert_eq!(p.num_pairs(), 301);
        for k in 1..=300u32 {
            let slot = p.slot_between(0, k).expect("hub pair");
            assert_eq!(p.slot_between(k, 0), Some(slot));
            assert_eq!(p.key(slot as usize), (0, k));
            let evs = g.pair_events(k, 0);
            assert_eq!(evs.len(), 2);
            assert_eq!(evs.get(0).dir_from_lo, Dir::Out);
            assert_eq!(evs.get(1).dir_from_lo, Dir::In);
        }
        assert_eq!(p.pair_base[1], 0, "the hub owns no pair");
        assert_eq!(
            p.key(p.slot_between(9, 7).expect("spoke pair") as usize),
            (7, 9)
        );
        let absent = [
            (0, 0),
            (5, 5),
            (399, 399),
            (400, 400),
            (0, 301),
            (0, 399),
            (0, 400),
            (400, 0),
            (7, 8),
            (9, 7 + 1000),
            (399, 400),
            (400, 401),
            (u32::MAX, 0),
            (0, u32::MAX),
            (u32::MAX, u32::MAX),
            (u32::MAX - 1, u32::MAX),
        ];
        for (a, b) in absent {
            assert_eq!(p.slot_between(a, b), None, "({a}, {b})");
            assert!(p.events_between(a, b).is_empty(), "({a}, {b})");
            assert!(g.pair_events(a, b).is_empty(), "({a}, {b})");
        }
        // An empty graph answers the same way.
        let empty = TemporalGraph::from_edges(vec![]);
        assert_eq!(empty.pairs().slot_between(0, 1), None);
        assert!(empty.pair_events(0, 0).is_empty());
    }

    /// The index's heap footprint stays at 16 bytes per node (12 of its
    /// own and the node rank), 8 per pair and 12⅛ per edge (plus
    /// rounding), so a later change cannot grow it back unnoticed.
    #[test]
    fn pair_index_footprint_is_pinned() {
        let within = |g: &TemporalGraph| {
            let (n, p, e) = (g.num_nodes(), g.pairs().num_pairs(), g.num_edges());
            let bytes = g.pairs().heap_bytes();
            // bytes ≤ 16·n + 8·p + 12.2·e + 64, in tenths of a byte.
            assert!(
                10 * bytes <= 160 * n + 80 * p + 122 * e + 640,
                "{bytes} bytes for {n} nodes, {p} pairs, {e} edges"
            );
        };
        within(&toy());
        within(&TemporalGraph::from_edges(vec![]));
        within(&crate::gen::erdos_renyi_temporal(500, 20_000, 100_000, 3));
        within(&crate::gen::hub_burst(2_000, 10_000, 100_000, 7));
    }

    #[test]
    fn edge_ids_are_chronological_ranks() {
        let g = toy();
        for (i, e) in g.edges().iter().enumerate() {
            assert_eq!(g.edge(i as EdgeId), *e);
        }
        assert!(g.edges().windows(2).all(|w| w[0].t <= w[1].t));
    }

    #[test]
    fn empty_graph() {
        let g = TemporalGraph::from_edges(vec![]);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.min_time(), None);
        assert_eq!(g.time_span(), 0);
        assert_eq!(g.pairs().num_pairs(), 0);
    }

    #[test]
    fn fingerprint_is_pinned_and_rebuild_stable() {
        let g = toy();
        // Pinned value: the fingerprint is a persisted cache key
        // (hare-serve result cache), so accidental changes to the hash
        // chain must fail loudly here.
        assert_eq!(g.fingerprint(), 0x994A_8322_3AD1_5D48);
        // A node-id-preserving rebuild from the same edges is identical.
        let rebuilt = TemporalGraph::from_edges(g.edges().to_vec());
        assert_eq!(rebuilt.fingerprint(), g.fingerprint());
    }

    #[test]
    fn fingerprint_separates_content_changes() {
        let base = vec![
            TemporalEdge::new(0, 1, 10),
            TemporalEdge::new(1, 2, 12),
            TemporalEdge::new(2, 0, 14),
        ];
        let fp = |edges: Vec<TemporalEdge>| TemporalGraph::from_edges(edges).fingerprint();
        let reference = fp(base.clone());
        // Timestamp, endpoint, direction, and multiplicity changes all
        // move the fingerprint.
        let mut shifted = base.clone();
        shifted[1].t = 13;
        assert_ne!(fp(shifted), reference);
        let mut rerouted = base.clone();
        rerouted[2] = TemporalEdge::new(2, 1, 14);
        assert_ne!(fp(rerouted), reference);
        let mut flipped = base.clone();
        flipped[0] = TemporalEdge::new(1, 0, 10);
        assert_ne!(fp(flipped), reference);
        let mut duplicated = base.clone();
        duplicated.push(TemporalEdge::new(0, 1, 10));
        assert_ne!(fp(duplicated), reference);
        // Relabelling nodes changes content identity too.
        let relabelled = vec![
            TemporalEdge::new(1, 0, 10),
            TemporalEdge::new(0, 2, 12),
            TemporalEdge::new(2, 1, 14),
        ];
        assert_ne!(fp(relabelled), reference);
        // Empty graphs fingerprint deterministically without colliding
        // with a 1-node graph.
        assert_eq!(
            TemporalGraph::from_edges(vec![]).fingerprint(),
            TemporalGraph::from_edges(vec![]).fingerprint()
        );
    }

    #[test]
    fn compressed_layout_is_bit_identical_to_raw() {
        let g = toy();
        let c = g.clone().into_lane_layout(LaneLayout::Compressed);
        assert_eq!(g.lane_layout(), LaneLayout::Raw);
        assert_eq!(c.lane_layout(), LaneLayout::Compressed);
        // Every event accessor agrees, including sliced views.
        for u in g.node_ids() {
            let (a, b) = (g.node_events(u), c.node_events(u));
            assert_eq!(a.len(), b.len());
            assert!(b.ts_lane().as_raw().is_none() || b.is_empty());
            for i in 0..a.len() {
                assert_eq!(a.get(i), b.get(i), "node {u} event {i}");
            }
            if a.len() >= 2 {
                let (sa, sb) = (a.slice(1..a.len()), b.slice(1..b.len()));
                assert_eq!(sa.get(0), sb.get(0));
            }
            for cut in [0, 7, 15, 30] {
                assert_eq!(
                    a.partition_point(|e| e.t < cut),
                    b.partition_point(|e| e.t < cut)
                );
            }
        }
        // The fingerprint is layout-independent, and the round trip back
        // to raw is lossless.
        assert_eq!(c.fingerprint(), g.fingerprint());
        let back = c.into_lane_layout(LaneLayout::Raw);
        assert_eq!(back.lane_layout(), LaneLayout::Raw);
        assert_eq!(back.fingerprint(), g.fingerprint());
    }

    #[test]
    fn lane_layout_conversion_is_idempotent_and_tracks_bytes() {
        let g = toy();
        let raw_bytes = g.resident_lane_bytes();
        assert_eq!(raw_bytes, 2 * g.num_edges() * (8 + 4 + 4));
        let same = g.clone().into_lane_layout(LaneLayout::Raw);
        assert_eq!(same.resident_lane_bytes(), raw_bytes);
        let c = g.into_lane_layout(LaneLayout::Compressed);
        // The toy spans 21 ticks: deltas pack into ≤ 5 bits, so the ts
        // store shrinks even with per-node metadata.
        assert!(c.resident_lane_bytes() < raw_bytes);
        let still = c.clone().into_lane_layout(LaneLayout::Compressed);
        assert_eq!(still.resident_lane_bytes(), c.resident_lane_bytes());
    }

    #[test]
    fn from_chronological_edges_keeps_global_ids() {
        // A "chunk" missing the high-id node still reserves its id space.
        let g = TemporalGraph::from_chronological_edges(
            10,
            vec![TemporalEdge::new(1, 2, 5), TemporalEdge::new(2, 9, 7)],
        );
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.degree(9), 1);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by timestamp")]
    fn from_chronological_edges_rejects_unsorted() {
        let _ = TemporalGraph::from_chronological_edges(
            3,
            vec![TemporalEdge::new(0, 1, 9), TemporalEdge::new(1, 2, 3)],
        );
    }

    #[test]
    #[should_panic(expected = "num_nodes")]
    fn from_chronological_edges_rejects_out_of_range_node() {
        let _ = TemporalGraph::from_chronological_edges(2, vec![TemporalEdge::new(0, 5, 1)]);
    }

    #[test]
    fn timestamp_ties_keep_input_order() {
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, 5),
            TemporalEdge::new(1, 2, 5),
            TemporalEdge::new(2, 0, 5),
        ]);
        assert_eq!(g.edge(0), TemporalEdge::new(0, 1, 5));
        assert_eq!(g.edge(1), TemporalEdge::new(1, 2, 5));
        assert_eq!(g.edge(2), TemporalEdge::new(2, 0, 5));
    }

    mod pair_index_oracle {
        use super::*;
        use proptest::prelude::*;

        /// `got` equals the sort-built oracle `want` array for array, and
        /// both answer every accessor as the edge list says: the keys are
        /// the distinct unordered pairs, each once, `events_of_slot` holds
        /// a pair's edges in id order, and `slot_between` finds every key
        /// from either end and nothing for the `probes` that are not keys.
        fn same_pairs(
            got: &PairIndex,
            want: &PairIndex,
            edges: &[TemporalEdge],
            probes: &[(NodeId, NodeId)],
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(&got.pair_base, &want.pair_base);
            prop_assert_eq!(&got.his, &want.his);
            prop_assert_eq!(&got.offsets, &want.offsets);
            prop_assert_eq!(&got.t, &want.t);
            prop_assert_eq!(&got.edge, &want.edge);
            prop_assert_eq!(&got.dirs, &want.dirs);
            prop_assert_eq!(&got.blooms, &want.blooms);
            prop_assert_eq!(&got.rank, &want.rank);
            // Each pair's edges in id order, keyed by pair.
            let mut lists = std::collections::BTreeMap::<_, Vec<PairEvent>>::new();
            for (id, e) in edges.iter().enumerate() {
                let (lo, hi) = e.unordered_pair();
                lists.entry((lo, hi)).or_default().push(PairEvent {
                    t: e.t,
                    edge: id as EdgeId,
                    dir_from_lo: if e.src == lo { Dir::Out } else { Dir::In },
                });
            }
            for index in [got, want] {
                prop_assert_eq!(index.num_pairs(), lists.len());
                for slot in 0..index.num_pairs() {
                    let (lo, hi) = index.key(slot);
                    prop_assert!(lo < hi);
                    let list = lists.get(&(lo, hi));
                    prop_assert!(list.is_some(), "key {:?} has no edge", (lo, hi));
                    // Distinct keys: each finds its own slot.
                    prop_assert_eq!(index.slot_between(lo, hi), Some(slot as u32));
                    prop_assert_eq!(index.slot_between(hi, lo), Some(slot as u32));
                    let evs: Vec<PairEvent> = index.events_of_slot(slot).iter().collect();
                    prop_assert_eq!(Some(&evs), list);
                    prop_assert_eq!(index.events_between(hi, lo), index.events_of_slot(slot));
                }
                let keys: Vec<(NodeId, NodeId)> = lists.keys().copied().collect();
                for &(a, b) in probes {
                    let present = keys.binary_search(&(a.min(b), a.max(b))).is_ok();
                    let slot = index.slot_between(a, b);
                    prop_assert_eq!(slot.is_some(), present);
                    if let Some(slot) = slot {
                        prop_assert_eq!(index.key(slot as usize), (a.min(b), a.max(b)));
                    }
                    prop_assert_eq!(index.events_between(a, b).is_empty(), !present);
                }
            }
            Ok(())
        }

        proptest! {
            /// The build from the lanes equals the sort build on random
            /// multigraphs: few timestamps (so ties are common),
            /// repeated pairs in both directions, sparse node ids, and
            /// up to 1 200 edges, a third of them on node 0 when `hub` is
            /// 1 (so lane runs range from one event to hundreds).
            #[test]
            fn counting_build_matches_sort_build(
                shape in (2u32..400, 1i64..60, 0u8..2),
                raw in proptest::collection::vec((0u32..1_000_000, 0u32..1_000_000, 0i64..1_000), 0..1200),
                probes in proptest::collection::vec((0u32..420, 0u32..420), 0..200),
            ) {
                let (span, times, hub) = shape;
                let g = TemporalGraph::from_edges(
                    raw.iter()
                        .enumerate()
                        .map(|(i, &(s, d, t))| {
                            let s = if hub == 1 && i % 3 == 0 { 0 } else { s % span };
                            TemporalEdge::new(s, d % span, t % times)
                        })
                        .collect(),
                );
                let slow = PairIndex::build_by_sort(g.node_rank(), g.edges());
                // Random pairs (mostly absent, some past `num_nodes`),
                // every node with itself, and the largest ids.
                let mut probes = probes;
                probes.extend((0..=span).map(|a| (a, a)));
                probes.extend([(0, u32::MAX), (u32::MAX, span), (u32::MAX, u32::MAX)]);
                same_pairs(g.pairs(), &slow, g.edges(), &probes)?;
                for a in 0..=span {
                    prop_assert_eq!(g.pairs().bloom_of(a), slow.bloom_of(a));
                }
            }
        }
    }
}
