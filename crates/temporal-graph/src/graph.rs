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

use crate::lanes::{LaneLayout, PackedTs, TsLane};
use crate::types::{Dir, EdgeId, NodeId, TemporalEdge, Timestamp};
use crate::util::FxHashMap;

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

/// Index over the unordered node pairs with at least one edge.
///
/// Layout mirrors CSR: `keys[i]` is the i-th pair `(lo, hi)`,
/// `events[offsets[i]..offsets[i+1]]` its time-ordered edges. `slot_of`
/// provides O(1) lookup from a pair to its slot (a single predictable
/// hash probe — measured faster here than a sorted-adjacency binary
/// search, whose log(d) compares mispredict on skewed graphs).
#[derive(Debug, Clone)]
pub struct PairIndex {
    keys: Box<[(NodeId, NodeId)]>,
    offsets: Box<[usize]>,
    events: Box<[PairEvent]>,
    slot_of: FxHashMap<(NodeId, NodeId), u32>,
    // Per-node 64-bit neighbour signatures: bit `sig(w)` is set iff some
    // edge connects the node to `w`. One register test filters the
    // (frequent) non-adjacent probes of the triangle kernel before they
    // pay for a hash lookup; a clear bit is an exact negative.
    blooms: Box<[u64]>,
}

/// Stable counting sort of `items` by `key(item)`, which must be below
/// `buckets`.
fn counting_sort(items: &[u32], buckets: usize, key: impl Fn(u32) -> NodeId) -> Vec<u32> {
    let mut next = vec![0usize; buckets + 1];
    for &x in items {
        next[key(x) as usize + 1] += 1;
    }
    for b in 1..next.len() {
        next[b] += next[b - 1];
    }
    let mut out = vec![0u32; items.len()];
    for &x in items {
        let at = &mut next[key(x) as usize];
        out[*at] = x;
        *at += 1;
    }
    out
}

impl PairIndex {
    /// Bloom bit of neighbour `w` (multiplicative mix into 0..64).
    #[inline]
    fn bloom_bit(w: NodeId) -> u64 {
        1u64 << (w.wrapping_mul(0x9E37_79B1) >> 26 & 63)
    }

    /// Build from chronological edges without a comparison sort. Slots
    /// are handed out in first-seen order (one hash probe per edge), two
    /// counting-sort passes put only the distinct keys in order, and a
    /// counting-sort fill in edge-id order places each pair's events
    /// time-ordered.
    pub(crate) fn build(num_nodes: usize, edges: &[TemporalEdge]) -> PairIndex {
        let mut slot_of: FxHashMap<(NodeId, NodeId), u32> = FxHashMap::default();
        // First-seen slot of each edge, and each such slot's key and size.
        let mut seen_slot = Vec::with_capacity(edges.len());
        let mut seen: Vec<((NodeId, NodeId), u32)> = Vec::new();
        for e in edges {
            let key = e.unordered_pair();
            let next = seen.len() as u32;
            let slot = *slot_of.entry(key).or_insert(next);
            if slot == next {
                seen.push((key, 0));
            }
            seen[slot as usize].1 += 1;
            seen_slot.push(slot);
        }

        // Final slots are the keys in ascending order: two stable
        // counting sorts of the first-seen slots, by `hi` then by `lo`.
        // `rank` maps a first-seen slot to its final one.
        let first_seen: Vec<u32> = (0..seen.len() as u32).collect();
        let by_hi = counting_sort(&first_seen, num_nodes, |s| seen[s as usize].0 .1);
        let order = counting_sort(&by_hi, num_nodes, |s| seen[s as usize].0 .0);
        let mut rank = vec![0u32; seen.len()];
        let mut keys = Vec::with_capacity(seen.len());
        let mut offsets = Vec::with_capacity(seen.len() + 1);
        // Per first-seen slot: the next free position of its event run.
        let mut cursor = vec![0usize; seen.len()];
        let mut blooms = vec![0u64; num_nodes];
        let mut at = 0;
        for (final_slot, &s) in order.iter().enumerate() {
            let (key, len) = seen[s as usize];
            rank[s as usize] = final_slot as u32;
            keys.push(key);
            offsets.push(at);
            cursor[s as usize] = at;
            at += len as usize;
            let (lo, hi) = key;
            blooms[lo as usize] |= PairIndex::bloom_bit(hi);
            blooms[hi as usize] |= PairIndex::bloom_bit(lo);
        }
        offsets.push(at);
        // hare-lint: allow(map-iter, reason = "each value is rewritten on its own; visit order cannot show")
        for slot in slot_of.values_mut() {
            *slot = rank[*slot as usize];
        }

        // Edge ids ascend through this loop, so every pair's run fills
        // in edge-id (chronological) order.
        let mut events = vec![
            PairEvent {
                t: 0,
                edge: 0,
                dir_from_lo: Dir::Out,
            };
            edges.len()
        ];
        for (id, (e, &s)) in edges.iter().zip(&seen_slot).enumerate() {
            let pos = &mut cursor[s as usize];
            events[*pos] = PairEvent {
                t: e.t,
                edge: id as EdgeId,
                dir_from_lo: if e.src <= e.dst { Dir::Out } else { Dir::In },
            };
            *pos += 1;
        }

        PairIndex {
            keys: keys.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            events: events.into_boxed_slice(),
            slot_of,
            blooms: blooms.into_boxed_slice(),
        }
    }

    /// The stable-sort build [`PairIndex::build`] replaced, kept as its
    /// oracle: one `((lo, hi), event)` tuple per edge, stable-sorted by
    /// pair key.
    #[cfg(test)]
    pub(crate) fn build_by_sort(num_nodes: usize, edges: &[TemporalEdge]) -> PairIndex {
        // Edges are already in chronological (id) order, so a stable sort
        // by pair key keeps each pair's events time-ordered.
        let mut tagged: Vec<((NodeId, NodeId), PairEvent)> = edges
            .iter()
            .enumerate()
            .map(|(id, e)| {
                let (lo, hi) = e.unordered_pair();
                let dir_from_lo = if e.src == lo { Dir::Out } else { Dir::In };
                (
                    (lo, hi),
                    PairEvent {
                        t: e.t,
                        edge: id as EdgeId,
                        dir_from_lo,
                    },
                )
            })
            .collect();
        tagged.sort_by_key(|&(key, ev)| (key, ev.edge));

        let mut keys: Vec<(NodeId, NodeId)> = Vec::new();
        let mut offsets = Vec::with_capacity(tagged.len() / 2 + 2);
        let mut events = Vec::with_capacity(tagged.len());
        let mut slot_of = FxHashMap::default();
        let mut blooms = vec![0u64; num_nodes];
        for (key, ev) in tagged {
            if keys.last() != Some(&key) {
                slot_of.insert(key, keys.len() as u32);
                keys.push(key);
                offsets.push(events.len());
                let (lo, hi) = key;
                blooms[lo as usize] |= PairIndex::bloom_bit(hi);
                blooms[hi as usize] |= PairIndex::bloom_bit(lo);
            }
            events.push(ev);
        }
        offsets.push(events.len());

        PairIndex {
            keys: keys.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            events: events.into_boxed_slice(),
            slot_of,
            blooms: blooms.into_boxed_slice(),
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
    /// them.
    #[inline]
    #[must_use]
    pub fn slot_between(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.slot_of.get(&key).copied()
    }

    /// Number of distinct unordered pairs with at least one edge.
    #[inline]
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.keys.len()
    }

    /// The `i`-th pair key `(lo, hi)`.
    #[inline]
    #[must_use]
    pub fn key(&self, slot: usize) -> (NodeId, NodeId) {
        self.keys[slot]
    }

    /// Time-ordered events of the `i`-th pair.
    #[inline]
    #[must_use]
    pub fn events_of_slot(&self, slot: usize) -> &[PairEvent] {
        &self.events[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// Time-ordered events between `a` and `b` (either order); empty slice
    /// if the pair has no edges.
    #[inline]
    #[must_use]
    pub fn events_between(&self, a: NodeId, b: NodeId) -> &[PairEvent] {
        match self.slot_between(a, b) {
            Some(slot) => self.events_of_slot(slot as usize),
            None => &[],
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

    /// Internal constructor used by the builder. `edges` must be sorted by
    /// `(t, original position)` and free of self-loops, and every endpoint
    /// must be `< num_nodes`.
    pub(crate) fn from_sorted_edges(num_nodes: usize, edges: Vec<TemporalEdge>) -> TemporalGraph {
        TemporalGraph::from_sorted_edges_with_threads(num_nodes, edges, 1)
    }

    /// Like [`TemporalGraph::from_sorted_edges`], building the event
    /// lanes with up to `threads` worker threads (per-shard lane fills
    /// over disjoint node ranges, merged in node order — each event slot
    /// is computed from the same edge either way, so the result is
    /// bit-identical to the sequential build).
    pub(crate) fn from_sorted_edges_with_threads(
        num_nodes: usize,
        edges: Vec<TemporalEdge>,
        threads: usize,
    ) -> TemporalGraph {
        assert!(
            edges.len() <= u32::MAX as usize,
            "edge count exceeds u32 id space"
        );
        assert!(
            num_nodes <= (u32::MAX >> 1) as usize,
            "node count exceeds the packed-lane id space (2^31 - 1)"
        );
        debug_assert!(edges.windows(2).all(|w| w[0].t <= w[1].t));

        // Per-node degree counting pass, then prefix sums, then a fill pass
        // in edge-id order so each S_u comes out time-ordered.
        let mut counts = vec![0usize; num_nodes + 1];
        for e in &edges {
            counts[e.src as usize + 1] += 1;
            counts[e.dst as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let node_offsets = counts.clone().into_boxed_slice();

        let n_events = edges.len() * 2;
        let mut ev_ts = vec![0 as Timestamp; n_events];
        let mut ev_packed = vec![0u32; n_events];
        let mut ev_edge = vec![0 as EdgeId; n_events];
        if threads > 1 && num_nodes > 1 {
            fill_lanes_parallel(
                &edges,
                &node_offsets,
                threads,
                &mut ev_ts,
                &mut ev_packed,
                &mut ev_edge,
            );
        } else {
            let mut cursors = counts;
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
        }

        let pairs = PairIndex::build(num_nodes, &edges);

        TemporalGraph {
            num_nodes,
            edges: edges.into_boxed_slice(),
            node_offsets,
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

    /// The pair index over `E(v, w)` lists.
    #[inline]
    #[must_use]
    pub fn pairs(&self) -> &PairIndex {
        &self.pairs
    }

    /// Time-ordered edges between `a` and `b`, both directions.
    #[inline]
    #[must_use]
    pub fn pair_events(&self, a: NodeId, b: NodeId) -> &[PairEvent] {
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

    /// `max_time - min_time`, or 0 for graphs with < 2 edges.
    #[inline]
    #[must_use]
    pub fn time_span(&self) -> Timestamp {
        match (self.min_time(), self.max_time()) {
            (Some(a), Some(b)) => b - a,
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

/// Parallel lane fill: shard the node-id space into contiguous ranges of
/// roughly equal event mass, then let one thread per shard scan the full
/// edge list (read-only) and write only its own disjoint arena region.
/// Every event slot receives exactly the value the sequential fill would
/// write (the slot position depends only on `node_offsets` and the
/// edge's rank among its node's events, both of which are fixed before
/// the fill), so the build is bit-identical to sequential.
fn fill_lanes_parallel(
    edges: &[TemporalEdge],
    node_offsets: &[usize],
    threads: usize,
    ev_ts: &mut [Timestamp],
    ev_packed: &mut [u32],
    ev_edge: &mut [EdgeId],
) {
    let num_nodes = node_offsets.len() - 1;
    let n_events = ev_ts.len();
    // Shard boundaries on node ids, balanced by event count.
    let shards = threads.min(num_nodes).max(1);
    let mut bounds = Vec::with_capacity(shards + 1);
    bounds.push(0usize);
    for s in 1..shards {
        let target = n_events * s / shards;
        let cut = node_offsets.partition_point(|&off| off < target);
        let cut = cut.clamp(*bounds.last().expect("non-empty"), num_nodes);
        bounds.push(cut);
    }
    bounds.push(num_nodes);

    std::thread::scope(|scope| {
        let mut ts_rest = ev_ts;
        let mut packed_rest = ev_packed;
        let mut edge_rest = ev_edge;
        for w in bounds.windows(2) {
            let (n0, n1) = (w[0], w[1]);
            let shard_events = node_offsets[n1] - node_offsets[n0];
            let (ts_own, ts_next) = ts_rest.split_at_mut(shard_events);
            let (packed_own, packed_next) = packed_rest.split_at_mut(shard_events);
            let (edge_own, edge_next) = edge_rest.split_at_mut(shard_events);
            ts_rest = ts_next;
            packed_rest = packed_next;
            edge_rest = edge_next;
            if n0 == n1 {
                continue;
            }
            scope.spawn(move || {
                let base = node_offsets[n0];
                // Cursors relative to this shard's arena region.
                let mut cursors: Vec<usize> =
                    node_offsets[n0..n1].iter().map(|&off| off - base).collect();
                let node_range = (n0 as NodeId)..(n1 as NodeId);
                for (id, e) in edges.iter().enumerate() {
                    let id = id as EdgeId;
                    if node_range.contains(&e.src) {
                        let s = &mut cursors[(e.src as usize) - n0];
                        ts_own[*s] = e.t;
                        packed_own[*s] = (e.dst << 1) | Dir::Out as u32;
                        edge_own[*s] = id;
                        *s += 1;
                    }
                    if node_range.contains(&e.dst) {
                        let d = &mut cursors[(e.dst as usize) - n0];
                        ts_own[*d] = e.t;
                        packed_own[*d] = (e.src << 1) | Dir::In as u32;
                        edge_own[*d] = id;
                        *d += 1;
                    }
                }
            });
        }
    });
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
        assert_eq!(evs[0].t, 10);
        assert_eq!(evs[0].dir_from_lo, Dir::In); // d -> c means hi -> lo
        assert_eq!(evs[1].t, 17);
        assert_eq!(evs[1].dir_from_lo, Dir::Out); // c -> d means lo -> hi

        // Symmetric query.
        assert_eq!(g.pair_events(3, 2), evs);
        // Direction relative to each endpoint.
        assert_eq!(evs[0].dir_from(true), Dir::In); // from c's view: inward
        assert_eq!(evs[0].dir_from(false), Dir::Out); // from d's view: outward
    }

    #[test]
    fn pair_index_empty_for_unconnected_pair() {
        let g = toy();
        assert!(g.pair_events(1, 4).is_empty());
    }

    #[test]
    fn pair_events_time_ordered() {
        let g = toy();
        let p = g.pairs();
        let mut seen = 0;
        for slot in 0..p.num_pairs() {
            let evs = p.events_of_slot(slot);
            assert!(!evs.is_empty());
            assert!(evs.windows(2).all(|w| w[0].edge < w[1].edge));
            assert!(evs.windows(2).all(|w| w[0].t <= w[1].t));
            seen += evs.len();
        }
        assert_eq!(seen, g.num_edges());
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
    fn parallel_lane_build_is_bit_identical() {
        let edges: Vec<TemporalEdge> = (0..500)
            .map(|i| TemporalEdge::new(i % 23, (i * 7 + 1) % 23, (i as i64 * 13) % 97))
            .filter(|e| !e.is_self_loop())
            .collect();
        let mut sorted = edges;
        sorted.sort_by_key(|e| e.t);
        let seq = TemporalGraph::from_sorted_edges(23, sorted.clone());
        for threads in [2, 3, 4, 8, 64] {
            let par = TemporalGraph::from_sorted_edges_with_threads(23, sorted.clone(), threads);
            assert_eq!(par.fingerprint(), seq.fingerprint(), "threads={threads}");
            for u in seq.node_ids() {
                let (a, b) = (seq.node_events(u), par.node_events(u));
                assert_eq!(a.len(), b.len());
                for i in 0..a.len() {
                    assert_eq!(a.get(i), b.get(i), "threads={threads} node {u}");
                }
            }
        }
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

        proptest! {
            /// The counting build equals the sort build it replaced on
            /// random multigraphs: few timestamps (so ties are common),
            /// repeated pairs in both directions, and sparse node ids.
            #[test]
            fn counting_build_matches_sort_build(
                shape in (2u32..300, 1i64..30),
                raw in proptest::collection::vec((0u32..1_000_000, 0u32..1_000_000, 0i64..1_000), 0..200),
            ) {
                let (span, times) = shape;
                let g = TemporalGraph::from_edges(
                    raw.iter()
                        .map(|&(s, d, t)| TemporalEdge::new(s % span, d % span, t % times))
                        .collect(),
                );
                let n = g.num_nodes();
                let fast = PairIndex::build(n, g.edges());
                let slow = PairIndex::build_by_sort(n, g.edges());
                prop_assert_eq!(&fast.keys, &slow.keys);
                prop_assert_eq!(&fast.offsets, &slow.offsets);
                prop_assert_eq!(&fast.events, &slow.events);
                prop_assert_eq!(&fast.slot_of, &slow.slot_of);
                prop_assert_eq!(&fast.blooms, &slow.blooms);
                for a in 0..=span {
                    prop_assert_eq!(fast.bloom_of(a), slow.bloom_of(a));
                    for b in 0..=span.min(40) {
                        prop_assert_eq!(fast.slot_between(a, b), slow.slot_between(a, b));
                    }
                }
                for slot in 0..slow.num_pairs() {
                    let (lo, hi) = slow.key(slot);
                    prop_assert_eq!(fast.slot_between(hi, lo), Some(slot as u32));
                }
            }
        }
    }
}
