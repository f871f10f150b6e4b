//! BT: chronological backtracking temporal subgraph isomorphism
//! (Mackey et al., *A chronological edge-driven approach to temporal
//! subgraph isomorphism*, IEEE Big Data 2018).
//!
//! A motif is specified as a [`MotifPattern`]: a sequence of pattern edges
//! over node variables, in chronological order. The matcher scans graph
//! edges in the global `(t, id)` order as candidates for pattern edge 0,
//! then recursively extends the partial embedding edge by edge, pruning on
//! the δ window and on node-binding consistency. Every instance is
//! matched exactly once because pattern edges map to graph edges in
//! strictly increasing chronological order.
//!
//! Unlike FAST, BT handles **arbitrary k-node l-edge motifs** — it is both
//! the paper's BT/BT-Pair baseline (Table III) and this workspace's
//! implementation of the paper's "future work" direction (higher-order
//! motifs), as well as the exact subroutine inside the BTS sampler.

use hare::counters::MotifMatrix;
use hare::motif::Motif;
use temporal_graph::{EdgeId, NodeId, TemporalEdge, TemporalGraph, Timestamp};

use crate::enumerate::classify;

/// Errors from [`MotifPattern::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// Pattern has no edges.
    Empty,
    /// A pattern edge is a self-loop.
    SelfLoop {
        /// Index of the offending pattern edge.
        edge: usize,
    },
    /// Node variables must be `0..n` with each label first appearing in
    /// order (canonical labelling).
    NonCanonicalLabels,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Empty => write!(f, "pattern has no edges"),
            PatternError::SelfLoop { edge } => write!(f, "pattern edge {edge} is a self-loop"),
            PatternError::NonCanonicalLabels => {
                write!(
                    f,
                    "pattern node labels must first appear in 0,1,2,... order"
                )
            }
        }
    }
}

impl std::error::Error for PatternError {}

/// A temporal motif pattern: directed edges over node variables, listed
/// in chronological order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MotifPattern {
    edges: Vec<(u8, u8)>,
    num_nodes: u8,
}

impl MotifPattern {
    /// Validate and build a pattern. Labels must be canonical: the first
    /// edge is `(0, 1)` or `(1, 0)`... more precisely each new label must
    /// be exactly one greater than the largest seen so far.
    pub fn new(edges: Vec<(u8, u8)>) -> Result<MotifPattern, PatternError> {
        if edges.is_empty() {
            return Err(PatternError::Empty);
        }
        let mut next = 0u8;
        for (i, &(a, b)) in edges.iter().enumerate() {
            if a == b {
                return Err(PatternError::SelfLoop { edge: i });
            }
            for n in [a, b] {
                if n > next {
                    return Err(PatternError::NonCanonicalLabels);
                }
                if n == next {
                    next += 1;
                }
            }
        }
        Ok(MotifPattern {
            edges,
            num_nodes: next,
        })
    }

    /// The canonical 3-edge pattern of one of the 36 grid motifs.
    #[must_use]
    pub fn for_motif(target: Motif) -> MotifPattern {
        canonical_patterns()
            .into_iter()
            .find(|(m, _)| *m == target)
            .map(|(_, p)| p)
            .expect("every grid motif has a canonical pattern")
    }

    /// Pattern edges in chronological order.
    #[must_use]
    pub fn edges(&self) -> &[(u8, u8)] {
        &self.edges
    }

    /// Number of node variables.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes as usize
    }

    /// Number of pattern edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Count embeddings of this pattern in `g` within time window `delta`.
    #[must_use]
    pub fn count(&self, g: &TemporalGraph, delta: Timestamp) -> u64 {
        let mut count = 0;
        self.enumerate(g, delta, |_| count += 1);
        count
    }

    /// Enumerate embeddings; the callback receives the matched graph edge
    /// ids in pattern (chronological) order.
    pub fn enumerate(&self, g: &TemporalGraph, delta: Timestamp, mut visit: impl FnMut(&[EdgeId])) {
        let mut binding: Vec<Option<NodeId>> = vec![None; self.num_nodes()];
        let mut matched: Vec<EdgeId> = Vec::with_capacity(self.num_edges());
        for (id, &e) in g.edges().iter().enumerate() {
            let id = id as EdgeId;
            if self.try_bind(0, e, &mut binding) {
                matched.push(id);
                self.extend(g, delta, e.t, id, 1, &mut binding, &mut matched, &mut visit);
                matched.pop();
                self.unbind(0, &mut binding);
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // recursion state is explicit by design
    fn extend(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        t0: Timestamp,
        last_id: EdgeId,
        level: usize,
        binding: &mut Vec<Option<NodeId>>,
        matched: &mut Vec<EdgeId>,
        visit: &mut impl FnMut(&[EdgeId]),
    ) {
        if level == self.num_edges() {
            visit(matched);
            return;
        }
        let (pa, pb) = self.edges[level];
        let deadline = t0 + delta;

        // Choose the cheapest candidate source: pair index if both ends
        // bound, a node's event list if one end is bound, otherwise the
        // global chronological edge array.
        match (binding[pa as usize], binding[pb as usize]) {
            (Some(a), Some(b)) => {
                let evs = g.pair_events(a, b);
                let start = evs.partition_point(|p| p.edge <= last_id);
                for p in evs.slice(start..evs.len()) {
                    if p.t > deadline {
                        break;
                    }
                    let e = g.edge(p.edge);
                    if e.src == a && e.dst == b {
                        matched.push(p.edge);
                        self.extend(g, delta, t0, p.edge, level + 1, binding, matched, visit);
                        matched.pop();
                    }
                }
            }
            (Some(a), None) => {
                let evs = g.node_events(a);
                let start = evs.partition_point(|ev| ev.edge <= last_id);
                for ev in evs.slice(start..evs.len()) {
                    if ev.t > deadline {
                        break;
                    }
                    let e = g.edge(ev.edge);
                    if e.src == a && self.try_bind_node(pb, e.dst, binding) {
                        matched.push(ev.edge);
                        self.extend(g, delta, t0, ev.edge, level + 1, binding, matched, visit);
                        matched.pop();
                        binding[pb as usize] = None;
                    }
                }
            }
            (None, Some(b)) => {
                let evs = g.node_events(b);
                let start = evs.partition_point(|ev| ev.edge <= last_id);
                for ev in evs.slice(start..evs.len()) {
                    if ev.t > deadline {
                        break;
                    }
                    let e = g.edge(ev.edge);
                    if e.dst == b && self.try_bind_node(pa, e.src, binding) {
                        matched.push(ev.edge);
                        self.extend(g, delta, t0, ev.edge, level + 1, binding, matched, visit);
                        matched.pop();
                        binding[pa as usize] = None;
                    }
                }
            }
            (None, None) => {
                // Disconnected prefix: scan the chronological edge array.
                for id in (last_id + 1) as usize..g.num_edges() {
                    let e = g.edge(id as EdgeId);
                    if e.t > deadline {
                        break;
                    }
                    if self.try_bind(level, e, binding) {
                        matched.push(id as EdgeId);
                        self.extend(
                            g,
                            delta,
                            t0,
                            id as EdgeId,
                            level + 1,
                            binding,
                            matched,
                            visit,
                        );
                        matched.pop();
                        self.unbind(level, binding);
                    }
                }
            }
        }
    }

    /// Bind both endpoints of pattern edge `level` to graph edge `e`,
    /// respecting existing bindings and injectivity. Returns `false`
    /// without side effects on mismatch.
    fn try_bind(&self, level: usize, e: TemporalEdge, binding: &mut [Option<NodeId>]) -> bool {
        let (pa, pb) = self.edges[level];
        let prev_a = binding[pa as usize];
        match prev_a {
            Some(bound) if bound != e.src => return false,
            _ => {}
        }
        if prev_a.is_none() && !self.try_bind_node(pa, e.src, binding) {
            return false;
        }
        let ok = match binding[pb as usize] {
            Some(bound) => bound == e.dst,
            None => self.try_bind_node(pb, e.dst, binding),
        };
        if !ok && prev_a.is_none() {
            binding[pa as usize] = None;
        }
        ok
    }

    fn unbind(&self, level: usize, binding: &mut [Option<NodeId>]) {
        let (pa, pb) = self.edges[level];
        // Only unbind variables first bound at this level; callers use
        // this only for level 0 and the disconnected-prefix path, where
        // both endpoints were freshly bound (or binding failed cleanly).
        binding[pa as usize] = None;
        binding[pb as usize] = None;
    }

    /// Bind a single node variable, enforcing injectivity.
    fn try_bind_node(&self, var: u8, node: NodeId, binding: &mut [Option<NodeId>]) -> bool {
        if binding.contains(&Some(node)) {
            return false;
        }
        binding[var as usize] = Some(node);
        true
    }
}

/// The canonical pattern of every grid motif, derived by classifying all
/// canonically labelled 3-edge sequences (exactly one per motif).
#[must_use]
pub fn canonical_patterns() -> Vec<(Motif, MotifPattern)> {
    let all_pairs: [(u8, u8); 6] = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)];
    let mut out: Vec<(Motif, MotifPattern)> = Vec::with_capacity(36);
    for &e2 in &all_pairs {
        for &e3 in &all_pairs {
            let Ok(pattern) = MotifPattern::new(vec![(0, 1), e2, e3]) else {
                continue;
            };
            let motif = classify(
                TemporalEdge::new(0, 1, 1),
                TemporalEdge::new(e2.0 as NodeId, e2.1 as NodeId, 2),
                TemporalEdge::new(e3.0 as NodeId, e3.1 as NodeId, 3),
            )
            .expect("canonical sequences are 2- or 3-node");
            debug_assert!(
                !out.iter().any(|(m, _)| *m == motif),
                "duplicate canonical pattern for {motif}"
            );
            out.push((motif, pattern));
        }
    }
    debug_assert_eq!(out.len(), 36);
    out
}

/// Count all 36 motifs by running BT once per canonical pattern — the
/// slowest exact algorithm after raw enumeration; used as a secondary
/// oracle and as the paper's BT baseline.
#[must_use]
pub fn bt_count_all(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let mut mx = MotifMatrix::default();
    for (motif, pattern) in canonical_patterns() {
        mx.add(motif, pattern.count(g, delta));
    }
    mx
}

/// The paper's BT-Pair baseline: BT restricted to the four pair motifs.
#[must_use]
pub fn bt_count_pairs(g: &TemporalGraph, delta: Timestamp) -> MotifMatrix {
    let mut mx = MotifMatrix::default();
    for (motif, pattern) in canonical_patterns() {
        if motif.category() == hare::motif::MotifCategory::Pair {
            mx.add(motif, pattern.count(g, delta));
        }
    }
    mx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_all;
    use hare::motif::{m, MotifCategory};
    use temporal_graph::gen::{erdos_renyi_temporal, paper_fig1_toy};

    #[test]
    fn canonical_patterns_cover_all_36_motifs() {
        let pats = canonical_patterns();
        assert_eq!(pats.len(), 36);
        let motifs: std::collections::HashSet<_> = pats.iter().map(|(m, _)| *m).collect();
        assert_eq!(motifs.len(), 36);
        for (motif, p) in &pats {
            match motif.category() {
                MotifCategory::Pair => assert_eq!(p.num_nodes(), 2),
                _ => assert_eq!(p.num_nodes(), 3),
            }
            assert_eq!(p.num_edges(), 3);
        }
    }

    #[test]
    fn pattern_validation() {
        assert_eq!(MotifPattern::new(vec![]).unwrap_err(), PatternError::Empty);
        assert_eq!(
            MotifPattern::new(vec![(0, 0)]).unwrap_err(),
            PatternError::SelfLoop { edge: 0 }
        );
        assert_eq!(
            MotifPattern::new(vec![(0, 2)]).unwrap_err(),
            PatternError::NonCanonicalLabels
        );
        assert!(MotifPattern::new(vec![(0, 1), (1, 2), (2, 0)]).is_ok());
    }

    #[test]
    fn bt_matches_enumeration_on_toy_graph() {
        let g = paper_fig1_toy();
        for delta in [5, 10, 25] {
            assert_eq!(bt_count_all(&g, delta), enumerate_all(&g, delta));
        }
    }

    #[test]
    fn bt_matches_enumeration_on_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi_temporal(12, 150, 200, seed);
            let delta = 60;
            assert_eq!(
                bt_count_all(&g, delta),
                enumerate_all(&g, delta),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn bt_pairs_counts_only_pair_cells() {
        let g = paper_fig1_toy();
        let mx = bt_count_pairs(&g, 10);
        assert_eq!(mx.get(m(6, 5)), 1);
        assert_eq!(mx.total(), 1);
    }

    #[test]
    fn four_edge_burst_pattern() {
        // 2-node, 4-edge motif (beyond the 36 grid motifs): k parallel
        // edges hold C(k,4) instances of the all-same-direction pattern.
        let k = 7u64;
        let edges = (0..k)
            .map(|i| temporal_graph::TemporalEdge::new(0, 1, i as i64))
            .collect();
        let g = temporal_graph::TemporalGraph::from_edges(edges);
        let p = MotifPattern::new(vec![(0, 1); 4]).unwrap();
        let expect = k * (k - 1) * (k - 2) * (k - 3) / 24;
        assert_eq!(p.count(&g, 100), expect);
    }

    #[test]
    fn four_node_path_pattern() {
        // 4-node temporal path a->b->c->d.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            temporal_graph::TemporalEdge::new(0, 1, 1),
            temporal_graph::TemporalEdge::new(1, 2, 2),
            temporal_graph::TemporalEdge::new(2, 3, 3),
        ]);
        let p = MotifPattern::new(vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        assert_eq!(p.count(&g, 10), 1);
        assert_eq!(p.count(&g, 1), 0);
    }

    #[test]
    fn delta_pruning_in_matcher() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            temporal_graph::TemporalEdge::new(0, 1, 0),
            temporal_graph::TemporalEdge::new(0, 1, 100),
            temporal_graph::TemporalEdge::new(0, 1, 200),
        ]);
        let p = MotifPattern::for_motif(m(5, 5));
        assert_eq!(p.count(&g, 200), 1);
        assert_eq!(p.count(&g, 199), 0);
    }

    #[test]
    fn injectivity_prevents_node_reuse() {
        // Pattern wants 3 distinct nodes; graph offers only 2.
        let g = temporal_graph::TemporalGraph::from_edges(vec![
            temporal_graph::TemporalEdge::new(0, 1, 1),
            temporal_graph::TemporalEdge::new(1, 0, 2),
            temporal_graph::TemporalEdge::new(0, 1, 3),
        ]);
        let star = MotifPattern::new(vec![(0, 1), (0, 2), (0, 2)]).unwrap();
        assert_eq!(star.count(&g, 10), 0);
    }

    #[test]
    fn enumerate_reports_ids_in_order() {
        let g = paper_fig1_toy();
        let p = MotifPattern::for_motif(m(6, 5));
        let mut seen = Vec::new();
        p.enumerate(&g, 10, |ids| seen.push(ids.to_vec()));
        assert_eq!(seen.len(), 1);
        assert!(seen[0].windows(2).all(|w| w[0] < w[1]));
    }
}
