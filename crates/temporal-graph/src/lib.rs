//! # temporal-graph
//!
//! Substrate crate for the HARE/FAST temporal motif counting reproduction
//! (Gao et al., *Scalable Motif Counting for Large-scale Temporal Graphs*,
//! ICDE 2022).
//!
//! A *temporal graph* `G = {V, E, T}` is a multiset of directed, timestamped
//! edges `(src, dst, t)` (Definition 1 of the paper). This crate provides:
//!
//! * [`TemporalEdge`], [`Dir`], and the id/timestamp primitive types,
//! * [`GraphBuilder`] — validating construction (self-loop stripping,
//!   optional id compaction, stable time ordering),
//! * [`TemporalGraph`] — an immutable, query-optimised representation with
//!   the two indexes every counting algorithm in the paper needs:
//!   per-node time-ordered event sequences `S_u` and the per-pair edge
//!   lists `E(v, w)`,
//! * [`io`] — loaders/writers for the SNAP-style `src dst t` text format
//!   used by the paper's 16 public datasets,
//! * [`lanes`] — the selectable timestamp-lane layouts ([`LaneLayout`]):
//!   raw 8-byte slices or delta-from-anchor bit-packed runs with O(1)
//!   random-access decode,
//! * [`ooc`] — [`ooc::PackedEdges`], a bit-packed chronological edge
//!   stream read by time range, so out-of-core counting never
//!   materialises the full graph,
//! * [`gen`] — deterministic synthetic generators used as calibrated
//!   stand-ins for datasets that cannot be downloaded in this environment,
//! * [`stats`] — degree/time statistics backing Table II and Fig. 9.
//!
//! ## Ordering model
//!
//! All algorithms in the workspace agree on one **total order** over edges:
//! sort by `(t, input_position)`. After [`GraphBuilder::build`] the edge id
//! *is* the rank in this order, so `e1.id < e2.id ⟺ e1 ≤ e2` chronologically
//! with deterministic tie-breaking. This makes "exact counting" well defined
//! on real data where timestamps collide (docs/ARCHITECTURE.md, "One total
//! order", says how this differs from counters that skip tied instances).
//!
//! ## Example
//!
//! ```
//! use temporal_graph::{GraphBuilder, Dir};
//!
//! // A fragment of the toy graph of Fig. 1 (nodes a=0, b=1, c=2, d=3, e=4).
//! let mut b = GraphBuilder::new();
//! b.add_edge(4, 3, 1); // (v_e, v_d, 1s)
//! b.add_edge(0, 2, 4); // (v_a, v_c, 4s)
//! b.add_edge(4, 2, 6); // (v_e, v_c, 6s)
//! b.add_edge(0, 2, 8); // (v_a, v_c, 8s)
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 5);
//! assert_eq!(g.num_edges(), 4);
//! // S_a: time-ordered events incident to node a
//! let ev: Vec<_> = g.node_events(0).iter().map(|e| (e.t, e.other, e.dir)).collect();
//! assert_eq!(ev, vec![(4, 2, Dir::Out), (8, 2, Dir::Out)]);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod builder;
mod graph;
mod types;

pub mod gen;
pub mod io;
pub mod lanes;
pub mod ooc;
pub mod stats;
pub mod util;

pub use builder::GraphBuilder;
pub use graph::{
    Event, NodeEvents, NodeEventsIter, PairEvent, PairEvents, PairEventsIter, PairIndex,
    TemporalGraph,
};
pub use lanes::{LaneLayout, TsLane, TsRead};
pub use types::{Dir, EdgeId, NodeId, TemporalEdge, Timestamp};
