//! HARE: the hierarchical parallel framework of §IV.C.
//!
//! FAST converts motif counting into an embarrassingly parallel problem —
//! different center nodes share no mutable state — but naive node-level
//! parallelism founders on the long-tailed degree distribution of real
//! temporal graphs: a handful of hub nodes carry most of the total work
//! (Fig. 9). HARE therefore combines two strategies:
//!
//! * **inter-node parallel** — nodes with degree ≤ `thrd` are distributed
//!   across threads in small chunks that idle workers pull from a shared
//!   queue (the equivalent of OpenMP `schedule(dynamic)`);
//! * **intra-node parallel** — for each node with degree > `thrd`, the
//!   first-edge loop of Algorithms 1 and 2 is itself split across threads,
//!   each thread accumulating into a private counter that is reduced at
//!   the end (the equivalent of OpenMP `reduction`).
//!
//! The default `thrd` follows the paper's §V.F setting: the minimum degree
//! among the top-20 nodes. Counter addition is commutative and
//! associative, so results are **bit-identical** across thread counts and
//! schedules — asserted by the integration tests.
//!
//! Scheduling and allocation discipline (this crate's additions to §IV.C):
//!
//! * tasks allocate **nothing** — [`crate::exec::map`] hands each task
//!   its worker's [`crate::NeighborScratch`], grown on demand and reused
//!   across tasks, runs and graphs; each task fills one inline
//!   [`CenterTally`];
//! * both strategies run as **one** parallel operation: the heavy nodes'
//!   first-edge ranges come first, then the light-node chunks, all in
//!   **degree-descending** order, so the most expensive work is
//!   scheduled first and cannot straggle at the end of the run, and a
//!   run pays for one round of worker threads however many hubs it has
//!   (counter addition commutes, so ordering cannot change results);
//! * the order and the `TopK` threshold are read off the graph's
//!   build-time [`TemporalGraph::node_rank`] — no per-run sort;
//! * every task runs the masked FAST kernel ([`crate::fused::count_node`])
//!   instantiated for the categories the query asks for: full 36-motif
//!   runs fuse star+pair+triangle counting into one window scan per node,
//!   `--only stars` / `--only triangles` compile the other half away.
//!   The kernel is oriented by the same rank, so each triangle instance
//!   is counted once, at its lowest-rank vertex, and hubs — which rank
//!   highest — shed nearly all of their triangle probes;
//! * requested thread counts are **clamped to the machine's available
//!   parallelism** ([`crate::exec::workers`]), and graphs below
//!   [`SEQ_FALLBACK_EVENTS`] total events run as a one-task plan on one
//!   worker, on the calling thread — on small inputs pool construction
//!   and task hand-off used to make `HARE/k` slower than `HARE/1`. Both
//!   adaptations only change *scheduling*; counters stay bit-identical
//!   to every other configuration.

use std::ops::Range;

use crate::counters::{CenterTally, MotifCounts, PairCounter};
use crate::exec;
use crate::fast_pair::count_pair_events;
use crate::fused::count_node;
use hare_obs::{NoopProbe, Phase, Probe};
use temporal_graph::{stats, NodeId, TemporalGraph, Timestamp};

/// Below this many events (`2|E|`) a graph runs as one task on the
/// calling thread regardless of the configured thread count: the fixed
/// cost of building a thread pool and stealing tasks exceeds the whole
/// counting run, which made multi-threaded HARE *slower* than
/// single-threaded on small graphs. The counters are unaffected — only
/// the schedule changes.
pub const SEQ_FALLBACK_EVENTS: usize = 1 << 15;

/// How HARE decides which nodes get intra-node parallel treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegreeThreshold {
    /// `thrd` = minimum degree among the `k` highest-degree nodes
    /// (paper default: `TopK(20)`).
    TopK(usize),
    /// Fixed absolute threshold (Fig. 12b sweeps this).
    Fixed(usize),
    /// Disable intra-node parallelism entirely ("without thrd").
    Disabled,
}

/// Chunking discipline for the inter-node phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Many small chunks pulled from a shared queue (≈ OpenMP
    /// `schedule(dynamic)`).
    Dynamic,
    /// One contiguous chunk per thread (≈ OpenMP default static
    /// schedule). Used as the "without thrd" baseline in Fig. 12b.
    Static,
}

/// Configuration of the HARE framework.
#[derive(Debug, Clone)]
pub struct HareConfig {
    /// Worker threads; `0` uses all available cores.
    pub num_threads: usize,
    /// Degree threshold policy for intra-node parallelism.
    pub degree_threshold: DegreeThreshold,
    /// Inter-node chunking discipline.
    pub scheduling: Scheduling,
    /// Minimum nodes per inter-node task under dynamic scheduling.
    pub min_task_nodes: usize,
    /// Minimum first-edge positions per intra-node task.
    pub min_task_events: usize,
}

impl Default for HareConfig {
    fn default() -> Self {
        HareConfig {
            num_threads: 0,
            degree_threshold: DegreeThreshold::TopK(20),
            scheduling: Scheduling::Dynamic,
            min_task_nodes: 128,
            min_task_events: 512,
        }
    }
}

/// The HARE counting engine. Construct once, run any number of counts.
///
/// ```
/// use hare::{Hare, HareConfig};
/// use temporal_graph::gen::paper_fig1_toy;
///
/// let engine = Hare::with_threads(2);
/// let counts = engine.count_all(&paper_fig1_toy(), 10);
/// assert_eq!(counts.get(hare::motif::m(6, 5)), 1); // the M65 instance
/// ```
#[derive(Debug, Clone, Default)]
pub struct Hare {
    cfg: HareConfig,
}

impl Hare {
    /// Engine with an explicit configuration.
    #[must_use]
    pub fn new(cfg: HareConfig) -> Hare {
        Hare { cfg }
    }

    /// Engine with default policies and a fixed thread count.
    #[must_use]
    pub fn with_threads(num_threads: usize) -> Hare {
        Hare::new(HareConfig {
            num_threads,
            ..HareConfig::default()
        })
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &HareConfig {
        &self.cfg
    }

    /// Worker threads a run will actually use: the configured count
    /// clamped to the machine's available parallelism (`0` = all cores),
    /// per [`exec::workers`].
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        exec::workers(self.cfg.num_threads)
    }

    /// Workers a run on `g` gets: one when the graph is small enough that
    /// the pool costs more than the count (the whole run is then a
    /// one-task plan on the calling thread).
    fn workers_for(&self, g: &TemporalGraph) -> usize {
        if 2 * g.num_edges() < SEQ_FALLBACK_EVENTS {
            1
        } else {
            self.effective_threads()
        }
    }

    /// Resolve the degree threshold for a concrete graph. Returns
    /// `usize::MAX` when intra-node parallelism is disabled.
    #[must_use]
    pub fn resolve_threshold(&self, g: &TemporalGraph) -> usize {
        match self.cfg.degree_threshold {
            DegreeThreshold::TopK(k) => stats::default_degree_threshold(g, k),
            DegreeThreshold::Fixed(t) => t,
            DegreeThreshold::Disabled => usize::MAX,
        }
    }

    fn inter_chunk(&self, items: usize) -> usize {
        let threads = self.effective_threads();
        match self.cfg.scheduling {
            Scheduling::Dynamic => (items / (threads * 8)).max(self.cfg.min_task_nodes).max(1),
            Scheduling::Static => items.div_ceil(threads).max(1),
        }
    }

    fn intra_ranges(&self, len: usize) -> impl Iterator<Item = Range<usize>> {
        let threads = self.effective_threads();
        exec::chunks(len, (len / (threads * 4)).max(self.cfg.min_task_events))
    }

    /// Count all 36 motifs (FAST-Star + FAST-Tri under the hierarchical
    /// schedule) and fold into the canonical grid.
    #[must_use]
    pub fn count_all(&self, g: &TemporalGraph, delta: Timestamp) -> MotifCounts {
        self.count_all_probed(g, delta, &NoopProbe)
    }

    /// [`Hare::count_all`] with a [`Probe`] observing the engine's
    /// phase boundaries: [`Phase::Scan`] wraps the scheduled kernel
    /// scans, [`Phase::Fold`] wraps the counter → grid fold. The probe
    /// stays on the calling thread (spans bracket whole parallel
    /// sections), and counts are bit-identical across probe
    /// implementations.
    #[must_use]
    pub fn count_all_probed<P: Probe>(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        probe: &P,
    ) -> MotifCounts {
        let tally = probe.span(Phase::Scan, || self.run::<true, true>(g, delta));
        probe.span(Phase::Fold, || tally.into_counts_oriented())
    }

    /// Count into the canonical 6×6 grid, optionally restricted to one
    /// motif category (`None` = all 36 motifs). This is the single
    /// entry point behind every `--only` / `?only=` query shape, so the
    /// CLI and the HTTP service cannot drift apart: `Some(Pair)` runs
    /// FAST-Pair over pair slots, `Some(Star)` / `Some(Triangle)` run
    /// the kernel masked to that category per center node, `None` runs
    /// the fused scan. Results are bit-identical across thread counts.
    #[must_use]
    pub fn count_matrix(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        only: Option<crate::MotifCategory>,
    ) -> crate::MotifMatrix {
        self.count_matrix_probed(g, delta, only, &NoopProbe)
    }

    /// [`Hare::count_matrix`] with a [`Probe`] observing the phase
    /// boundaries ([`Phase::Scan`] around each arm's kernel run,
    /// [`Phase::Fold`] around the grid fold). Bit-identical to
    /// [`Hare::count_matrix`] for every probe implementation.
    #[must_use]
    pub fn count_matrix_probed<P: Probe>(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        only: Option<crate::MotifCategory>,
        probe: &P,
    ) -> crate::MotifMatrix {
        use crate::MotifCategory;
        match only {
            Some(MotifCategory::Pair) => {
                let pc = probe.span(Phase::Scan, || self.count_pair(g, delta));
                probe.span(Phase::Fold, || {
                    let mut mx = crate::MotifMatrix::default();
                    pc.add_to_matrix_pair_based(&mut mx);
                    mx
                })
            }
            Some(MotifCategory::Triangle) => {
                let t = probe.span(Phase::Scan, || self.run::<false, true>(g, delta));
                probe.span(Phase::Fold, || {
                    let mut mx = crate::MotifMatrix::default();
                    t.tri.add_to_matrix_oriented(&mut mx);
                    mx
                })
            }
            Some(MotifCategory::Star) => {
                let t = probe.span(Phase::Scan, || self.run::<true, false>(g, delta));
                probe.span(Phase::Fold, || {
                    let mut mx = crate::MotifMatrix::default();
                    t.star.add_to_matrix(&mut mx);
                    mx
                })
            }
            None => self.count_all_probed(g, delta, probe).matrix,
        }
    }

    /// Count pair motifs only (parallel FAST-Pair over pair slots; each
    /// instance counted once — fold with
    /// [`PairCounter::add_to_matrix_pair_based`]).
    #[must_use]
    pub fn count_pair(&self, g: &TemporalGraph, delta: Timestamp) -> PairCounter {
        let pairs = g.pairs();
        let workers = self.workers_for(g);
        let n = pairs.num_pairs();
        let size = if workers == 1 { n } else { self.inter_chunk(n) };
        // FAST-Pair reads no neighbour scratch, hence `num_nodes = 0`.
        exec::map(workers, 0, exec::chunks(n, size).collect(), |slots, _| {
            let mut pc = PairCounter::default();
            for slot in slots {
                count_pair_events(pairs.events_of_slot(slot), delta, &mut pc);
            }
            pc
        })
        .into_iter()
        .fold(PairCounter::default(), |mut a, b| {
            a.merge(&b);
            a
        })
    }

    /// The hierarchical schedule over the masked kernel: `STARS` /
    /// `TRIS` pick the categories every task counts (see
    /// [`crate::fused`]). Every task is oriented by the graph's
    /// [`TemporalGraph::node_rank`], so the tally folds with
    /// [`CenterTally::into_counts_oriented`].
    fn run<const STARS: bool, const TRIS: bool>(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
    ) -> CenterTally {
        let thrd = self.resolve_threshold(g);
        let rank = g.node_rank();
        // Hubs first: descending (degree, id) is the reverse of the
        // build-time rank, so no sort is needed, and the heavy nodes
        // (degree > thrd) are a prefix of it.
        let mut nodes: Vec<NodeId> = vec![0; g.num_nodes()];
        for u in g.node_ids() {
            nodes[g.num_nodes() - 1 - rank[u as usize] as usize] = u;
        }
        let (heavy, light) = nodes.split_at(nodes.partition_point(|&u| g.degree(u) > thrd));

        // One parallel op: every heavy node's first-edge ranges
        // (intra-node parallelism), then the light nodes in chunks
        // (inter-node parallelism). Listing the hub ranges first
        // front-loads the expensive work, and a single op pays for one
        // round of worker threads instead of one per heavy node. On one
        // worker the plan is a single task over every node's full range —
        // counter addition commutes, so the fold is bit-identical.
        let workers = self.workers_for(g);
        let tasks: Vec<Task<'_>> = if workers == 1 {
            vec![Task::Nodes(&nodes)]
        } else {
            let hubs = heavy.iter().flat_map(|&u| {
                self.intra_ranges(g.degree(u))
                    .map(move |range| Task::Range(u, range))
            });
            let chunk = self.inter_chunk(light.len());
            hubs.chain(light.chunks(chunk).map(Task::Nodes)).collect()
        };
        exec::map(workers, g.num_nodes(), tasks, |task, scratch| {
            let mut partial = CenterTally::default();
            let mut count = |u: NodeId, range: Range<usize>| {
                count_node::<STARS, TRIS, true>(g, u, range, delta, rank, scratch, &mut partial);
            };
            match task {
                Task::Range(u, range) => count(u, range),
                Task::Nodes(nodes) => {
                    for &u in nodes {
                        count(u, 0..g.degree(u));
                    }
                }
            }
            partial
        })
        .into_iter()
        .fold(CenterTally::default(), |mut a, b| {
            a.merge(&b);
            a
        })
    }
}

/// One unit of HARE's parallel op.
enum Task<'a> {
    /// A first-edge range of one heavy node.
    Range(NodeId, Range<usize>),
    /// A chunk of light nodes, each over its full range.
    Nodes(&'a [NodeId]),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast_pair::fast_pair;
    use crate::fused::count_graph;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy, GenConfig};

    fn engines() -> Vec<Hare> {
        vec![
            Hare::with_threads(1),
            Hare::with_threads(2),
            Hare::with_threads(4),
            Hare::new(HareConfig {
                num_threads: 3,
                degree_threshold: DegreeThreshold::Fixed(5),
                min_task_nodes: 1,
                min_task_events: 4,
                ..HareConfig::default()
            }),
            Hare::new(HareConfig {
                num_threads: 2,
                degree_threshold: DegreeThreshold::Disabled,
                scheduling: Scheduling::Static,
                ..HareConfig::default()
            }),
        ]
    }

    /// Sequential reference built from a `STARS` pass and a `TRIS` pass.
    fn separate_passes(g: &TemporalGraph, delta: Timestamp) -> CenterTally {
        let mut t = count_graph::<true, false, true>(g, delta);
        t.merge(&count_graph::<false, true, true>(g, delta));
        t
    }

    #[test]
    fn all_configs_match_sequential_on_random_graph() {
        let g = erdos_renyi_temporal(30, 600, 500, 13);
        let delta = 80;
        let stars = count_graph::<true, false, true>(&g, delta);
        let tris = count_graph::<false, true, true>(&g, delta);
        for engine in engines() {
            assert_eq!(
                engine.run::<true, false>(&g, delta),
                stars,
                "{:?}",
                engine.config()
            );
            assert_eq!(
                engine.run::<false, true>(&g, delta),
                tris,
                "{:?}",
                engine.config()
            );
        }
    }

    #[test]
    fn count_all_matches_sequential_on_skewed_graph() {
        let g = GenConfig {
            nodes: 150,
            edges: 4_000,
            zipf_exponent: 1.1,
            seed: 99,
            ..GenConfig::default()
        }
        .generate();
        let delta = 50_000;
        let seq = separate_passes(&g, delta).into_counts_oriented();
        for engine in engines() {
            let par = engine.count_all(&g, delta);
            assert_eq!(par.matrix, seq.matrix, "{:?}", engine.config());
        }
    }

    #[test]
    fn intra_node_path_exercised_by_hub_graph() {
        let g = hub_burst(50, 20_000, 200_000, 5);
        let delta = 1_000;
        // Large enough to reach the pool, and the hub is forced through
        // the intra-node path in many small first-edge ranges.
        assert!(2 * g.num_edges() >= SEQ_FALLBACK_EVENTS);
        assert!(g.degree(0) > 100, "hub must exceed threshold");
        let seq = separate_passes(&g, delta);
        for k in [1, 2, 4] {
            let engine = Hare::new(HareConfig {
                num_threads: k,
                degree_threshold: DegreeThreshold::Fixed(100),
                min_task_events: 16,
                ..HareConfig::default()
            });
            assert_eq!(engine.run::<true, true>(&g, delta), seq, "k={k}");
            let stars = engine.run::<true, false>(&g, delta);
            assert_eq!(
                (stars.star, stars.pair),
                (seq.star.clone(), seq.pair.clone()),
                "k={k}"
            );
            assert_eq!(engine.run::<false, true>(&g, delta).tri, seq.tri, "k={k}");
        }
    }

    #[test]
    fn parallel_pair_matches_sequential() {
        let g = erdos_renyi_temporal(10, 800, 400, 21);
        let delta = 100;
        let seq = fast_pair(&g, delta);
        for engine in engines() {
            assert_eq!(engine.count_pair(&g, delta), seq);
        }
    }

    #[test]
    fn toy_graph_end_to_end() {
        let g = paper_fig1_toy();
        let counts = Hare::with_threads(2).count_all(&g, 10);
        assert_eq!(counts.get(crate::motif::m(6, 5)), 1);
    }

    #[test]
    fn threshold_resolution_policies() {
        let g = hub_burst(20, 500, 5_000, 2);
        let auto = Hare::new(HareConfig {
            degree_threshold: DegreeThreshold::TopK(5),
            ..HareConfig::default()
        });
        let t = auto.resolve_threshold(&g);
        assert!(t >= 1 && t < g.degree(0));
        let fixed = Hare::new(HareConfig {
            degree_threshold: DegreeThreshold::Fixed(7),
            ..HareConfig::default()
        });
        assert_eq!(fixed.resolve_threshold(&g), 7);
        let off = Hare::new(HareConfig {
            degree_threshold: DegreeThreshold::Disabled,
            ..HareConfig::default()
        });
        assert_eq!(off.resolve_threshold(&g), usize::MAX);
    }

    /// Pinned: HARE/k is bit-identical to sequential FAST at every k,
    /// on both sides of the sequential-fallback threshold (the small
    /// graph takes the fallback, the large one the pool path).
    #[test]
    fn hare_k_equals_fast_at_every_k() {
        let small = erdos_renyi_temporal(40, 900, 700, 17);
        assert!(2 * small.num_edges() < SEQ_FALLBACK_EVENTS);
        let large = GenConfig {
            nodes: 400,
            edges: 20_000,
            time_span: 40_000,
            zipf_exponent: 1.1,
            seed: 23,
            ..GenConfig::default()
        }
        .generate();
        assert!(2 * large.num_edges() >= SEQ_FALLBACK_EVENTS);
        for (g, delta) in [(&small, 90), (&large, 400)] {
            let seq = crate::count_motifs(g, delta);
            for k in [1, 2, 4, 8] {
                let engine = Hare::with_threads(k);
                assert!(engine.effective_threads() >= 1);
                let par = engine.count_all(g, delta);
                assert_eq!(par.matrix, seq.matrix, "k={k}");
                assert_eq!(par.star, seq.star, "k={k}");
                assert_eq!(par.tri, seq.tri, "k={k}");
            }
        }
    }

    #[test]
    fn effective_threads_is_clamped_to_available_parallelism() {
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Hare::with_threads(1).effective_threads(), 1);
        assert_eq!(Hare::with_threads(usize::MAX).effective_threads(), avail);
        assert_eq!(Hare::with_threads(0).effective_threads(), avail);
    }

    #[test]
    fn empty_graph_all_apis() {
        let g = temporal_graph::TemporalGraph::from_edges(vec![]);
        let engine = Hare::with_threads(2);
        assert_eq!(engine.count_all(&g, 10).total(), 0);
        assert_eq!(engine.count_pair(&g, 10).total(), 0);
        use crate::MotifCategory::{Pair, Star, Triangle};
        for only in [Star, Pair, Triangle] {
            assert_eq!(engine.count_matrix(&g, 10, Some(only)).total(), 0);
        }
    }
}
