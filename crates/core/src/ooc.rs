//! Out-of-core counting: exact motif counts and node profiles for
//! graphs whose event lanes do not fit in RAM.
//!
//! The driver never materialises the whole graph. It plans timestamp
//! cuts against an [`EdgeSource`]'s time index, then for each chunk
//! `[lo, hi)`:
//!
//! 1. loads the δ-**haloed** edge range `[lo − δ, hi + δ)` — the halo is
//!    two-sided because the fused kernel's triangle probe reads pair
//!    events in `[t_j − δ, t_1 + δ]`, which for a first edge at
//!    `t_1 ∈ [lo, hi)` can reach δ before the chunk and δ after it;
//! 2. builds an ordinary in-RAM [`TemporalGraph`] over the halo (local
//!    edge ids are order-isomorphic to the global chronological ranks,
//!    so the kernel's bare-id triangle classification is preserved);
//! 3. runs the fused kernel with first-edge positions restricted to
//!    `t_1 ∈ [lo, hi)` — chunks partition the timestamp axis half-open,
//!    so every `(e_1, …)` contribution group is counted exactly once,
//!    with timestamp ties never straddling a cut.
//!
//! Whole-graph counts run the oriented kernel under the source's
//! **global** node rank ([`EdgeSource::node_rank`]), never a chunk
//! graph's own: a chunk sees only local degrees, and a rank that
//! changed from chunk to chunk could count an instance at two vertices
//! (or none). Node profiles keep the three-view kernel, which needs no
//! rank.
//!
//! Counter addition is commutative, so the chunked accumulation is
//! **bit-identical** to the in-RAM [`crate::count_motifs`] /
//! [`NodeProfiles::compute`] — pinned by the tests below and the
//! `lane_ooc_equivalence` differential suite.
//!
//! Chunk sizing: a binary search over the cut timestamp finds the
//! largest `hi` whose haloed edge count keeps the resident lane arenas
//! (at [`LANE_BYTES_PER_EDGE`] per edge) within the caller's byte
//! budget, degrading to minimum progress (`hi = lo + 1`) when even one
//! time unit exceeds it. Budgets only bound the *lane arenas*; the
//! per-node scratch and (for profiles) the dense profile accumulator
//! remain O(|V|) resident, like every other driver in the crate.

use std::borrow::Cow;
use std::io;

use crate::counters::{CenterTally, MotifCounts};
use crate::fingerprint::{fold_tally, NodeProfile, NodeProfiles};
use crate::fused::count_node;
use crate::scratch::NeighborScratch;
use hare_obs::{NoopProbe, Phase, Probe};
use temporal_graph::ooc::LaneFile;
use temporal_graph::{stats, LaneLayout, TemporalEdge, TemporalGraph, Timestamp};

/// Resident lane bytes per temporal edge in a raw-layout chunk graph:
/// every edge spawns two events, each holding an 8-byte timestamp, a
/// 4-byte packed neighbour word and a 4-byte edge id.
pub const LANE_BYTES_PER_EDGE: usize = 2 * (8 + 4 + 4);

/// A chronological edge stream the out-of-core driver can plan cuts
/// against and load time ranges from. Implementations must present the
/// same `(t, position)` total order everywhere.
pub trait EdgeSource {
    /// Node id space (`max id + 1`) of the stream.
    fn num_nodes(&self) -> usize;
    /// Total number of edges.
    fn num_edges(&self) -> u64;
    /// Earliest timestamp, or `None` when empty.
    fn min_time(&self) -> Option<Timestamp>;
    /// Latest timestamp, or `None` when empty.
    fn max_time(&self) -> Option<Timestamp>;
    /// Number of edges with timestamp strictly before `t`.
    fn count_until(&self, t: Timestamp) -> io::Result<u64>;
    /// All edges with timestamp in `[lo, hi)`, in stream order.
    fn load_range(&self, lo: Timestamp, hi: Timestamp) -> io::Result<Vec<TemporalEdge>>;
    /// One distinct rank per node id (a permutation of
    /// `0..num_nodes()`), fixed for the whole stream. The oriented
    /// triangle count is exact under any total order; ascending
    /// `(degree, id)` over the whole stream makes it cheapest.
    fn node_rank(&self) -> Cow<'_, [u32]>;
}

/// An in-RAM chronological edge slice as an [`EdgeSource`] — the
/// differential reference for the file-backed source, and the path the
/// CLI uses to honour `--chunk-budget` on datasets it already loaded.
#[derive(Debug, Clone)]
pub struct InMemorySource {
    num_nodes: usize,
    edges: Vec<TemporalEdge>,
    node_rank: Box<[u32]>,
}

impl InMemorySource {
    /// Wrap a chronologically sorted, self-loop-free edge list. The node
    /// rank is derived from the edges' degrees, so it equals the rank of
    /// the graph built from the same edges.
    ///
    /// # Panics
    /// Panics if the edges are not sorted by timestamp or reference a
    /// node `>= num_nodes`.
    #[must_use]
    pub fn new(num_nodes: usize, edges: Vec<TemporalEdge>) -> InMemorySource {
        assert!(
            edges.windows(2).all(|w| w[0].t <= w[1].t),
            "edges must be sorted by timestamp"
        );
        let mut degree = vec![0usize; num_nodes];
        for e in &edges {
            degree[e.src as usize] += 1;
            degree[e.dst as usize] += 1;
        }
        let node_rank = stats::degree_rank(num_nodes, |u| degree[u]);
        InMemorySource {
            num_nodes,
            edges,
            node_rank,
        }
    }

    /// View an already-built graph's edge stream (shares its total
    /// order and node rank, so out-of-core results are bit-identical to
    /// counting `g` directly, raw cells included).
    #[must_use]
    pub fn from_graph(g: &TemporalGraph) -> InMemorySource {
        InMemorySource {
            num_nodes: g.num_nodes(),
            edges: g.edges().to_vec(),
            node_rank: g.node_rank().into(),
        }
    }
}

impl EdgeSource for InMemorySource {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    fn min_time(&self) -> Option<Timestamp> {
        self.edges.first().map(|e| e.t)
    }

    fn max_time(&self) -> Option<Timestamp> {
        self.edges.last().map(|e| e.t)
    }

    fn count_until(&self, t: Timestamp) -> io::Result<u64> {
        Ok(self.edges.partition_point(|e| e.t < t) as u64)
    }

    fn load_range(&self, lo: Timestamp, hi: Timestamp) -> io::Result<Vec<TemporalEdge>> {
        if lo >= hi {
            return Ok(Vec::new());
        }
        let a = self.edges.partition_point(|e| e.t < lo);
        let b = self.edges.partition_point(|e| e.t < hi);
        Ok(self.edges[a..b].to_vec())
    }

    fn node_rank(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(&self.node_rank)
    }
}

/// A `HARELG01` lane file ([`temporal_graph::ooc::LaneFile`]) as an
/// [`EdgeSource`]: only the block index stays resident; edge ranges are
/// `pread` off disk per chunk.
#[derive(Debug)]
pub struct LaneFileSource {
    file: LaneFile,
}

impl LaneFileSource {
    /// Open a lane file as an edge source.
    pub fn open(path: &std::path::Path) -> io::Result<LaneFileSource> {
        Ok(LaneFileSource {
            file: LaneFile::open(path)?,
        })
    }

    /// Wrap an already-open lane file.
    #[must_use]
    pub fn from_file(file: LaneFile) -> LaneFileSource {
        LaneFileSource { file }
    }
}

impl EdgeSource for LaneFileSource {
    fn num_nodes(&self) -> usize {
        self.file.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.file.num_edges()
    }

    fn min_time(&self) -> Option<Timestamp> {
        self.file.min_time()
    }

    fn max_time(&self) -> Option<Timestamp> {
        self.file.max_time()
    }

    fn count_until(&self, t: Timestamp) -> io::Result<u64> {
        self.file.count_until(t)
    }

    fn load_range(&self, lo: Timestamp, hi: Timestamp) -> io::Result<Vec<TemporalEdge>> {
        self.file.load_range(lo, hi)
    }

    /// Id order: exact like any total order. A `HARELG01` file does not
    /// store degrees, and deriving them would cost a full pass over the
    /// file.
    fn node_rank(&self) -> Cow<'_, [u32]> {
        Cow::Owned((0..self.num_nodes() as u32).collect())
    }
}

/// Tuning of one out-of-core run.
#[derive(Debug, Clone, Copy)]
pub struct OocConfig {
    /// Motif window δ.
    pub delta: Timestamp,
    /// Upper bound on the resident lane arenas of any one chunk graph,
    /// in bytes ([`LANE_BYTES_PER_EDGE`] per haloed edge under the raw
    /// layout; the compressed layout typically lands well under it).
    pub budget_bytes: usize,
    /// Timestamp-lane layout of the chunk graphs.
    pub lane_layout: LaneLayout,
}

impl OocConfig {
    /// Config with the given δ and lane budget, raw layout.
    #[must_use]
    pub fn new(delta: Timestamp, budget_bytes: usize) -> OocConfig {
        OocConfig {
            delta,
            budget_bytes,
            lane_layout: LaneLayout::Raw,
        }
    }
}

/// What one out-of-core run did — the proof obligations of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OocStats {
    /// Number of chunk graphs built and scanned.
    pub chunks: usize,
    /// Largest resident lane arena across all chunks, in bytes.
    pub peak_resident_lane_bytes: usize,
    /// The budget the run was planned against.
    pub budget_bytes: usize,
    /// Cuts where even the minimum-progress chunk (`hi = lo + 1`) plus
    /// its δ-halo exceeded the budget and the driver proceeded anyway
    /// (exactness is never traded for the budget). Zero means the peak
    /// stayed under budget by construction.
    pub forced_cuts: usize,
}

/// Find the largest cut `hi ∈ (lo, max_t + 1]` whose haloed edge mass
/// fits the budget, or `lo + 1` (minimum progress, `forced = true`)
/// when none does.
fn plan_cut(
    src: &impl EdgeSource,
    lo: Timestamp,
    max_t: Timestamp,
    delta: Timestamp,
    budget_bytes: usize,
) -> io::Result<(Timestamp, bool)> {
    let base = src.count_until(lo.saturating_sub(delta))?;
    let fits = |edges: u64| -> bool {
        (edges as u128) * (LANE_BYTES_PER_EDGE as u128) <= budget_bytes as u128
    };
    let mut a = lo.saturating_add(1);
    let mut b = max_t.saturating_add(1);
    if fits(src.count_until(b.saturating_add(delta))? - base) {
        return Ok((b, false));
    }
    if !fits(src.count_until(a.saturating_add(delta))? - base) {
        return Ok((a, true));
    }
    // Largest feasible hi in [a, b); i128 midpoints avoid overflow on
    // full-span timestamp ranges.
    while a < b {
        let mid = ((i128::from(a) + i128::from(b) + 1) / 2) as Timestamp;
        if fits(src.count_until(mid.saturating_add(delta))? - base) {
            a = mid;
        } else {
            b = mid - 1;
        }
    }
    Ok((a, false))
}

/// Drive `per_chunk` over the planned chunk graphs. `per_chunk` gets the
/// chunk graph plus the `[lo, hi)` first-edge time range it owns.
fn drive_chunks<P: Probe>(
    src: &impl EdgeSource,
    config: OocConfig,
    probe: &P,
    mut per_chunk: impl FnMut(&TemporalGraph, Timestamp, Timestamp),
) -> io::Result<OocStats> {
    let mut stats = OocStats {
        chunks: 0,
        peak_resident_lane_bytes: 0,
        budget_bytes: config.budget_bytes,
        forced_cuts: 0,
    };
    let (Some(min_t), Some(max_t)) = (src.min_time(), src.max_time()) else {
        return Ok(stats);
    };
    let mut lo = min_t;
    loop {
        let (hi, forced) = plan_cut(src, lo, max_t, config.delta, config.budget_bytes)?;
        stats.forced_cuts += usize::from(forced);
        let g = probe.span(Phase::ChunkLoad, || -> io::Result<TemporalGraph> {
            let halo = src.load_range(
                lo.saturating_sub(config.delta),
                hi.saturating_add(config.delta),
            )?;
            Ok(
                TemporalGraph::from_chronological_edges(src.num_nodes(), halo)
                    .into_lane_layout(config.lane_layout),
            )
        })?;
        stats.chunks += 1;
        stats.peak_resident_lane_bytes =
            stats.peak_resident_lane_bytes.max(g.resident_lane_bytes());
        probe.span(Phase::Scan, || per_chunk(&g, lo, hi));
        if hi > max_t {
            return Ok(stats);
        }
        lo = hi;
    }
}

/// Per-node first-edge position range owned by chunk `[lo, hi)`.
fn owned_range(
    g: &TemporalGraph,
    u: temporal_graph::NodeId,
    lo: Timestamp,
    hi: Timestamp,
) -> std::ops::Range<usize> {
    let ts = g.node_events(u).ts_lane();
    ts.partition_point(|t| t < lo)..ts.partition_point(|t| t < hi)
}

/// Exact whole-graph motif counts computed out of core, oriented by
/// [`EdgeSource::node_rank`]. The grid is bit-identical to
/// [`crate::count_motifs`] over the same edge stream, for any budget and
/// either lane layout; the raw triangle cells are too whenever the
/// source's rank equals the graph's (as for [`InMemorySource`]).
pub fn count_motifs_ooc(
    src: &impl EdgeSource,
    config: OocConfig,
) -> io::Result<(MotifCounts, OocStats)> {
    count_motifs_ooc_probed(src, config, &NoopProbe)
}

/// [`count_motifs_ooc`] with a [`Probe`] observing the phase
/// boundaries: [`Phase::ChunkLoad`] wraps each chunk's load + arena
/// build, [`Phase::Scan`] wraps its kernel pass, [`Phase::Fold`] wraps
/// the final counter fold. Counts and stats are bit-identical across
/// probe implementations.
pub fn count_motifs_ooc_probed<P: Probe>(
    src: &impl EdgeSource,
    config: OocConfig,
    probe: &P,
) -> io::Result<(MotifCounts, OocStats)> {
    let mut tally = CenterTally::default();
    let mut scratch = NeighborScratch::new(src.num_nodes());
    let rank = src.node_rank();
    let stats = drive_chunks(src, config, probe, |g, lo, hi| {
        for u in g.node_ids() {
            if g.node_events(u).len() < 2 {
                continue;
            }
            let range = owned_range(g, u, lo, hi);
            if range.is_empty() {
                continue;
            }
            let delta = config.delta;
            count_node::<true, true, true>(g, u, range, delta, &rank, &mut scratch, &mut tally);
        }
    })?;
    let counts = probe.span(Phase::Fold, || tally.into_counts_oriented());
    Ok((counts, stats))
}

/// Sparse per-node motif profiles computed out of core. Bit-identical
/// to [`NodeProfiles::compute`] over the same edge stream. Keeps a dense
/// 288-byte accumulator per node resident (the node space must fit in
/// RAM — the same assumption every scratch-based kernel makes); only
/// the *edge* lanes are budget-bounded.
pub fn node_profiles_ooc(
    src: &impl EdgeSource,
    config: OocConfig,
) -> io::Result<(NodeProfiles, OocStats)> {
    let num_nodes = src.num_nodes();
    let mut dense: Vec<NodeProfile> = vec![NodeProfile::default(); num_nodes];
    let mut scratch = NeighborScratch::new(num_nodes);
    let stats = drive_chunks(src, config, &NoopProbe, |g, lo, hi| {
        for u in g.node_ids() {
            if g.node_events(u).len() < 2 {
                continue;
            }
            let range = owned_range(g, u, lo, hi);
            if range.is_empty() {
                continue;
            }
            let mut t = CenterTally::default();
            count_node::<true, true, false>(g, u, range, config.delta, &[], &mut scratch, &mut t);
            dense[u as usize].merge_from(&fold_tally(&t));
        }
    })?;
    let entries = dense
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !p.is_empty())
        .map(|(u, p)| (u as temporal_graph::NodeId, p))
        .collect();
    Ok((NodeProfiles::from_entries(entries, num_nodes), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy, GenConfig};
    use temporal_graph::ooc::write_lane_file;

    fn budgets_for(g: &TemporalGraph) -> [usize; 3] {
        let full = g.num_edges() * LANE_BYTES_PER_EDGE;
        [full / 7 + 1, full / 2 + 1, 2 * full + 1]
    }

    #[test]
    fn in_memory_chunked_counts_match_in_ram() {
        for (g, delta) in [
            (paper_fig1_toy(), 10),
            (erdos_renyi_temporal(25, 600, 800, 3), 150),
            (hub_burst(30, 1_500, 8_000, 9), 800),
        ] {
            let want = crate::count_motifs(&g, delta);
            let src = InMemorySource::from_graph(&g);
            for budget in budgets_for(&g) {
                for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
                    let mut config = OocConfig::new(delta, budget);
                    config.lane_layout = layout;
                    let (got, stats) = count_motifs_ooc(&src, config).unwrap();
                    assert_eq!(got.matrix, want.matrix, "budget={budget} layout={layout}");
                    assert_eq!(got.star, want.star, "budget={budget} layout={layout}");
                    assert_eq!(got.tri, want.tri, "budget={budget} layout={layout}");
                    assert!(stats.chunks >= 1);
                    if layout == LaneLayout::Raw && stats.forced_cuts == 0 {
                        // Unforced raw chunks keep the arenas under
                        // budget by construction.
                        assert!(
                            stats.peak_resident_lane_bytes <= budget,
                            "peak {} > budget {budget}",
                            stats.peak_resident_lane_bytes
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn duplicate_timestamp_ties_do_not_straddle_cuts() {
        // Heavy timestamp collisions: every cut lands on a tie boundary.
        let g = GenConfig {
            nodes: 20,
            edges: 800,
            time_span: 40, // 20 edges per timestamp on average
            seed: 11,
            ..GenConfig::default()
        }
        .generate();
        let delta = 7;
        let want = crate::count_motifs(&g, delta);
        let src = InMemorySource::from_graph(&g);
        let (got, stats) = count_motifs_ooc(&src, OocConfig::new(delta, 3_000)).unwrap();
        assert_eq!(got.matrix, want.matrix);
        assert!(stats.chunks > 1, "budget must force multiple chunks");
    }

    #[test]
    fn lane_file_source_counts_match_in_ram() {
        let g = erdos_renyi_temporal(25, 700, 900, 4);
        let delta = 120;
        let want = crate::count_motifs(&g, delta);
        let mut path = std::env::temp_dir();
        path.push(format!("hare-ooc-count-{}.hlg", std::process::id()));
        write_lane_file(&path, g.num_nodes(), g.edges()).unwrap();
        let src = LaneFileSource::open(&path).unwrap();
        assert_eq!(src.num_edges(), g.num_edges() as u64);
        let budget = g.num_edges() * LANE_BYTES_PER_EDGE / 2 + 1;
        let (got, stats) = count_motifs_ooc(&src, OocConfig::new(delta, budget)).unwrap();
        assert_eq!(got.matrix, want.matrix);
        assert!(stats.chunks > 1);
        assert_eq!(stats.forced_cuts, 0);
        assert!(stats.peak_resident_lane_bytes <= budget);
        std::fs::remove_file(&path).unwrap();
    }

    /// Chunk graphs hold only local degrees; the driver must orient
    /// every chunk by the source's global rank. On a hub graph under
    /// tight budgets, a derived in-memory rank reproduces the in-RAM raw
    /// cells, and a lane file's id order reproduces the grid.
    #[test]
    fn chunks_are_oriented_by_the_source_rank() {
        let g = hub_burst(40, 6_000, 30_000, 12);
        let delta = 1_500;
        let want = crate::count_motifs(&g, delta);
        let derived = InMemorySource::new(g.num_nodes(), g.edges().to_vec());
        assert_eq!(&*derived.node_rank(), g.node_rank());
        let mut path = std::env::temp_dir();
        path.push(format!("hare-ooc-rank-{}.hlg", std::process::id()));
        write_lane_file(&path, g.num_nodes(), g.edges()).unwrap();
        let lane = LaneFileSource::open(&path).unwrap();
        let identity: Vec<u32> = (0..g.num_nodes() as u32).collect();
        assert_eq!(&*lane.node_rank(), &identity[..]);
        for budget in budgets_for(&g) {
            for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
                let mut config = OocConfig::new(delta, budget);
                config.lane_layout = layout;
                let (got, stats) = count_motifs_ooc(&derived, config).unwrap();
                assert_eq!(got, want, "budget={budget} layout={layout}");
                let (got, _) = count_motifs_ooc(&lane, config).unwrap();
                assert_eq!(got.matrix, want.matrix, "budget={budget} layout={layout}");
                assert_eq!(got.star, want.star, "budget={budget} layout={layout}");
                assert_eq!(
                    got.tri.total(),
                    want.tri.total(),
                    "budget={budget} layout={layout}"
                );
                if budget < g.num_edges() * LANE_BYTES_PER_EDGE {
                    assert!(stats.chunks > 1, "budget={budget}");
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn profiles_match_in_ram() {
        let g = hub_burst(25, 1_000, 5_000, 6);
        let delta = 400;
        let want = NodeProfiles::compute(&g, delta, 1);
        let src = InMemorySource::from_graph(&g);
        for budget in budgets_for(&g) {
            let (got, _) = node_profiles_ooc(&src, OocConfig::new(delta, budget)).unwrap();
            assert_eq!(got, want, "budget={budget}");
        }
    }

    #[test]
    fn empty_and_tiny_sources() {
        let empty = InMemorySource::new(0, vec![]);
        let (counts, stats) = count_motifs_ooc(&empty, OocConfig::new(10, 1_000)).unwrap();
        assert_eq!(counts.total(), 0);
        assert_eq!(stats.chunks, 0);
        let (profiles, _) = node_profiles_ooc(&empty, OocConfig::new(10, 1_000)).unwrap();
        assert!(profiles.is_empty());

        let one = InMemorySource::new(2, vec![TemporalEdge::new(0, 1, 5)]);
        let (counts, stats) = count_motifs_ooc(&one, OocConfig::new(10, 1_000)).unwrap();
        assert_eq!(counts.total(), 0);
        assert_eq!(stats.chunks, 1);
    }

    #[test]
    fn degenerate_budget_still_terminates_and_is_exact() {
        let g = erdos_renyi_temporal(10, 150, 80, 1);
        let delta = 15;
        let want = crate::count_motifs(&g, delta);
        let src = InMemorySource::from_graph(&g);
        // A budget below one edge forces minimum-progress cuts everywhere.
        let (got, stats) = count_motifs_ooc(&src, OocConfig::new(delta, 1)).unwrap();
        assert_eq!(got.matrix, want.matrix);
        assert!(stats.chunks > 10);
    }

    #[test]
    #[should_panic(expected = "sorted by timestamp")]
    fn in_memory_source_rejects_unsorted_edges() {
        let _ = InMemorySource::new(
            3,
            vec![TemporalEdge::new(0, 1, 9), TemporalEdge::new(1, 2, 3)],
        );
    }
}
