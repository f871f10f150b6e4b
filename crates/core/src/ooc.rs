//! Out-of-core counting: exact motif counts and node profiles for
//! graphs whose event lanes do not fit in RAM.
//!
//! The driver never materialises the whole graph. It plans every
//! timestamp cut up front against an [`EdgeSource`]'s time index, then
//! runs each chunk `[lo, hi)` as one task of a single parallel op:
//!
//! 1. load the δ-**haloed** edge range `[lo − δ, hi + δ)` — the halo is
//!    two-sided because the fused kernel's triangle probe reads pair
//!    events in `[t_j − δ, t_1 + δ]`, which for a first edge at
//!    `t_1 ∈ [lo, hi)` can reach δ before the chunk and δ after it;
//! 2. build an ordinary in-RAM [`TemporalGraph`] over the halo (local
//!    edge ids are order-isomorphic to the global chronological ranks,
//!    so the kernel's bare-id triangle classification is preserved);
//! 3. run the fused kernel with first-edge positions restricted to
//!    `t_1 ∈ [lo, hi)` — chunks partition the timestamp axis half-open,
//!    so every `(e_1, …)` contribution group is counted exactly once,
//!    with timestamp ties never straddling a cut.
//!
//! Each task merges its chunk's tally (or per-node profiles) into one
//! shared accumulator as soon as the chunk is scanned, so no chunk's
//! result outlives its task.
//!
//! Whole-graph counts run the oriented kernel under the source's
//! **global** node rank ([`EdgeSource::node_rank`]), never a chunk
//! graph's own: a chunk sees only local degrees, and a rank that
//! changed from chunk to chunk could count an instance at two vertices
//! (or none). Node profiles keep the three-view kernel, which needs no
//! rank.
//!
//! Every counter cell is a `u64` sum and integer addition commutes, so
//! the merge order does not matter and the chunked accumulation is
//! **bit-identical** to the in-RAM [`crate::count_motifs`] /
//! [`NodeProfiles::compute`] for every worker count — pinned by the
//! tests below and the `lane_ooc_equivalence` differential suite.
//!
//! Workers and budget: a run uses `W` workers, its `threads` argument
//! (`0` = all cores) clamped to the machine's available parallelism
//! ([`crate::exec::workers`]), and runs its chunks through
//! [`crate::exec::map`] on at most `W` threads, so at most `W` chunk
//! graphs are resident at once. The cuts are planned against
//! `budget / W`: a binary search over the cut timestamp finds the
//! largest `hi` whose haloed edge count keeps one chunk's lane arenas
//! (at [`LANE_BYTES_PER_EDGE`] per edge) within that share, degrading to
//! minimum progress (`hi = lo + 1`) when even one time unit exceeds it.
//! Budgets only bound the *lane arenas*; the per-worker scratch and
//! (for profiles) the dense profile accumulator remain O(|V|) resident,
//! like every other driver in the crate.
//!
//! Sources: [`InMemorySource`] borrows a graph already in RAM;
//! [`PackedEdges`], the bit-packed stream `hare-count --input F
//! --chunk-budget B` reads `F` into, keeps the edges at a few bytes each
//! (4.62 on the `batch_chunked` benchmark input, Email-Eu/2; 6.54 on
//! WikiTalk/64, whose ids are wider); [`LaneFileSource`] keeps only a
//! `HARELG01` file's block index. Besides the source and the budgeted
//! lanes, each resident chunk graph holds its edge list (16 bytes per
//! haloed edge), node offsets and `PairIndex`, and each chunk's halo
//! list lives until its graph is built: on the `batch_chunked` input at
//! its 0.66 MB budget on 2 workers, that working set peaked about
//! 1.5 MB above the stream.

use std::borrow::Cow;
use std::io;
use std::sync::Mutex;

use crate::counters::{CenterTally, MotifCounts};
use crate::exec;
use crate::fingerprint::{fold_tally, NodeProfile, NodeProfiles};
use crate::fused::count_node;
use crate::scratch::NeighborScratch;
use hare_obs::{NoopProbe, Phase, Probe};
use temporal_graph::ooc::{LaneFile, PackedEdges};
use temporal_graph::{LaneLayout, TemporalEdge, TemporalGraph, Timestamp};

/// Resident lane bytes per temporal edge in a raw-layout chunk graph:
/// every edge spawns two events, each holding an 8-byte timestamp, a
/// 4-byte packed neighbour word and a 4-byte edge id.
pub const LANE_BYTES_PER_EDGE: usize = 2 * (8 + 4 + 4);

/// A chronological edge stream the out-of-core driver can plan cuts
/// against and load time ranges from. Implementations must present the
/// same `(t, position)` total order everywhere. Chunks load
/// concurrently, hence `Sync`.
pub trait EdgeSource: Sync {
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

/// A graph already in RAM as an [`EdgeSource`]: borrows its edge list
/// and node rank, so out-of-core results are bit-identical to counting
/// the graph directly, raw cells included. The differential reference
/// for the other sources, and the route of a chunked plan run on a
/// graph it already holds.
#[derive(Debug, Clone, Copy)]
pub struct InMemorySource<'a> {
    graph: &'a TemporalGraph,
}

impl<'a> InMemorySource<'a> {
    /// Borrow an already-built graph's edge stream and node rank.
    #[must_use]
    pub fn from_graph(g: &'a TemporalGraph) -> InMemorySource<'a> {
        InMemorySource { graph: g }
    }
}

impl EdgeSource for InMemorySource<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.graph.num_edges() as u64
    }

    fn min_time(&self) -> Option<Timestamp> {
        self.graph.edges().first().map(|e| e.t)
    }

    fn max_time(&self) -> Option<Timestamp> {
        self.graph.edges().last().map(|e| e.t)
    }

    fn count_until(&self, t: Timestamp) -> io::Result<u64> {
        Ok(self.graph.edges().partition_point(|e| e.t < t) as u64)
    }

    fn load_range(&self, lo: Timestamp, hi: Timestamp) -> io::Result<Vec<TemporalEdge>> {
        if lo >= hi {
            return Ok(Vec::new());
        }
        let edges = self.graph.edges();
        let a = edges.partition_point(|e| e.t < lo);
        let b = edges.partition_point(|e| e.t < hi);
        Ok(edges[a..b].to_vec())
    }

    fn node_rank(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(self.graph.node_rank())
    }
}

/// A bit-packed in-RAM edge stream ([`PackedEdges`], what
/// `hare-count --input F --chunk-budget B` reads `F` into) as an
/// [`EdgeSource`]. Its rank is the degree rank counted while reading, so
/// the raw cells equal those of the graph built from the same file.
impl EdgeSource for PackedEdges {
    fn num_nodes(&self) -> usize {
        PackedEdges::num_nodes(self)
    }

    fn num_edges(&self) -> u64 {
        self.len() as u64
    }

    fn min_time(&self) -> Option<Timestamp> {
        PackedEdges::min_time(self)
    }

    fn max_time(&self) -> Option<Timestamp> {
        PackedEdges::max_time(self)
    }

    fn count_until(&self, t: Timestamp) -> io::Result<u64> {
        Ok(PackedEdges::count_until(self, t) as u64)
    }

    fn load_range(&self, lo: Timestamp, hi: Timestamp) -> io::Result<Vec<TemporalEdge>> {
        Ok(PackedEdges::load_range(self, lo, hi))
    }

    fn node_rank(&self) -> Cow<'_, [u32]> {
        Cow::Borrowed(PackedEdges::node_rank(self))
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
    /// Upper bound on the lane arenas of the chunk graphs resident at
    /// once, in bytes ([`LANE_BYTES_PER_EDGE`] per haloed edge under the
    /// raw layout; the compressed layout typically lands well under
    /// it). The run's `W` workers share it: each chunk is planned
    /// against `budget_bytes / W`.
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
    /// The sum of the `W` largest chunk lane arenas, in bytes, for a run
    /// on `W` workers: a bound on the lanes resident at any one moment,
    /// however the chunks land on the workers. Deterministic at a fixed
    /// `W`.
    pub peak_resident_lane_bytes: usize,
    /// The budget the run was planned against.
    pub budget_bytes: usize,
    /// Cuts where even the minimum-progress chunk (`hi = lo + 1`) plus
    /// its δ-halo exceeded the per-worker share of the budget and the
    /// driver proceeded anyway (exactness is never traded for the
    /// budget). Zero means the peak stayed under budget by construction
    /// (raw layout).
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
    // Largest feasible hi in [a, b). The ceiling midpoint lies in
    // (a, b]; i128 avoids overflow on full-span timestamp ranges, and
    // `div_euclid` rounds down for negative sums too.
    while a < b {
        let mid = (i128::from(a) + i128::from(b) + 1).div_euclid(2) as Timestamp;
        if fits(src.count_until(mid.saturating_add(delta))? - base) {
            a = mid;
        } else {
            b = mid - 1;
        }
    }
    Ok((a, false))
}

/// The earliest edge timestamp `>= t`, for `t <= max_t`: the smallest
/// `s` with an edge in `[t, s]`.
fn next_time(src: &impl EdgeSource, t: Timestamp, max_t: Timestamp) -> io::Result<Timestamp> {
    let before = src.count_until(t)?;
    let (mut a, mut b) = (t, max_t);
    while a < b {
        // Floor midpoint in [a, b), negative timestamps included:
        // truncating division would round a negative sum up to `b`.
        let mid = (i128::from(a) + i128::from(b)).div_euclid(2) as Timestamp;
        if src.count_until(mid.saturating_add(1))? > before {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    Ok(a)
}

/// Every cut `[lo, hi)` of the stream, in time order, each planned
/// against `budget_bytes`, and the number of forced ones. After a forced
/// cut the next chunk starts at the next edge's timestamp: the stretch
/// in between owns no first edge, so skipping it keeps every edge in
/// exactly one chunk, and a forced run costs one chunk per distinct
/// timestamp rather than one per time unit.
fn plan_cuts(
    src: &impl EdgeSource,
    delta: Timestamp,
    budget_bytes: usize,
) -> io::Result<(Vec<(Timestamp, Timestamp)>, usize)> {
    let mut cuts = Vec::new();
    let mut forced_cuts = 0;
    let (Some(min_t), Some(max_t)) = (src.min_time(), src.max_time()) else {
        return Ok((cuts, forced_cuts));
    };
    let mut lo = min_t;
    loop {
        let (hi, forced) = plan_cut(src, lo, max_t, delta, budget_bytes)?;
        forced_cuts += usize::from(forced);
        cuts.push((lo, hi));
        if hi > max_t {
            return Ok((cuts, forced_cuts));
        }
        lo = if forced {
            next_time(src, hi, max_t)?
        } else {
            hi
        };
    }
}

/// Plan every chunk against `budget / workers`, then load, build and
/// `scan` each one as one task of a single [`exec::map`] on at most
/// `workers` threads. `scan` gets the chunk graph, the `[lo, hi)`
/// first-edge time range it owns and the worker's scratch, and merges
/// what it finds into the caller's accumulator before the task ends.
///
/// The probe stays on the calling thread: [`Phase::ChunkLoad`] brackets
/// the cut planning and [`Phase::Scan`] the parallel section (every
/// chunk's load, build, scan and merge).
fn drive_chunks<P: Probe>(
    src: &impl EdgeSource,
    config: OocConfig,
    threads: usize,
    probe: &P,
    scan: impl Fn(&TemporalGraph, Timestamp, Timestamp, &mut NeighborScratch) + Sync,
) -> io::Result<OocStats> {
    let workers = exec::workers(threads);
    let (cuts, forced_cuts) = probe.span(Phase::ChunkLoad, || {
        plan_cuts(src, config.delta, config.budget_bytes / workers)
    })?;
    // At most W threads, so at most W chunk graphs are ever resident.
    let arenas: Vec<io::Result<usize>> = probe.span(Phase::Scan, || {
        exec::map(workers, src.num_nodes(), cuts, |(lo, hi), scratch| {
            let halo = src.load_range(
                lo.saturating_sub(config.delta),
                hi.saturating_add(config.delta),
            )?;
            let g = TemporalGraph::from_chronological_edges(src.num_nodes(), halo)
                .into_lane_layout(config.lane_layout);
            scan(&g, lo, hi, scratch);
            Ok(g.resident_lane_bytes())
        })
    });
    let mut arenas = arenas.into_iter().collect::<io::Result<Vec<usize>>>()?;
    arenas.sort_unstable_by(|a, b| b.cmp(a));
    Ok(OocStats {
        chunks: arenas.len(),
        peak_resident_lane_bytes: arenas.iter().take(workers).sum(),
        budget_bytes: config.budget_bytes,
        forced_cuts,
    })
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

/// Run `visit` on every node of chunk `g` that owns a first edge in
/// `[lo, hi)`, with that position range.
fn for_owned_nodes(
    g: &TemporalGraph,
    lo: Timestamp,
    hi: Timestamp,
    mut visit: impl FnMut(temporal_graph::NodeId, std::ops::Range<usize>),
) {
    for u in g.node_ids() {
        if g.node_events(u).len() < 2 {
            continue;
        }
        let range = owned_range(g, u, lo, hi);
        if !range.is_empty() {
            visit(u, range);
        }
    }
}

/// Exact whole-graph motif counts computed out of core, oriented by
/// [`EdgeSource::node_rank`]. The grid is bit-identical to
/// [`crate::count_motifs`] over the same edge stream, for any budget,
/// worker count and either lane layout; the raw triangle cells are too
/// whenever the source's rank equals the graph's (as for
/// [`InMemorySource`]). Chunks run on [`crate::exec::workers`]`(threads)`
/// workers, so `0` = all cores (see the module docs for how they share
/// the budget).
pub fn count_motifs_ooc(
    src: &impl EdgeSource,
    config: OocConfig,
    threads: usize,
) -> io::Result<(MotifCounts, OocStats)> {
    count_motifs_ooc_on(src, config, threads, &NoopProbe)
}

/// [`count_motifs_ooc`] on all cores with a [`Probe`] observing the
/// phase boundaries from the calling thread: [`Phase::ChunkLoad`] wraps
/// the cut planning, [`Phase::Scan`] the parallel section in which every
/// chunk is loaded, built, scanned and merged into the shared tally,
/// [`Phase::Fold`] the conversion of that tally into the grid. Counts
/// and stats are bit-identical across probe implementations.
pub fn count_motifs_ooc_probed<P: Probe>(
    src: &impl EdgeSource,
    config: OocConfig,
    probe: &P,
) -> io::Result<(MotifCounts, OocStats)> {
    count_motifs_ooc_on(src, config, 0, probe)
}

/// [`count_motifs_ooc`] with a [`Probe`]: the one body of both.
pub(crate) fn count_motifs_ooc_on<P: Probe>(
    src: &impl EdgeSource,
    config: OocConfig,
    threads: usize,
    probe: &P,
) -> io::Result<(MotifCounts, OocStats)> {
    let rank = src.node_rank();
    let total = Mutex::new(CenterTally::default());
    let stats = drive_chunks(src, config, threads, probe, |g, lo, hi, scratch| {
        let mut tally = CenterTally::default();
        for_owned_nodes(g, lo, hi, |u, range| {
            count_node::<true, true, true>(g, u, range, config.delta, &rank, scratch, &mut tally);
        });
        total.lock().expect("tally lock poisoned").merge(&tally);
    })?;
    let total = total.into_inner().expect("tally lock poisoned");
    let counts = probe.span(Phase::Fold, || total.into_counts_oriented());
    Ok((counts, stats))
}

/// Sparse per-node motif profiles computed out of core. Bit-identical
/// to [`NodeProfiles::compute`] over the same edge stream, for any
/// budget and worker count (`threads`, `0` = all cores). Keeps a dense
/// 288-byte accumulator per node resident (the node space must fit in
/// RAM — the same assumption every scratch-based kernel makes). Each
/// chunk gathers its non-empty profiles locally and merges them into it
/// under one lock; only the *edge* lanes are budget-bounded.
pub fn node_profiles_ooc(
    src: &impl EdgeSource,
    config: OocConfig,
    threads: usize,
) -> io::Result<(NodeProfiles, OocStats)> {
    let num_nodes = src.num_nodes();
    let dense = Mutex::new(vec![NodeProfile::default(); num_nodes]);
    let stats = drive_chunks(src, config, threads, &NoopProbe, |g, lo, hi, scratch| {
        let mut found = Vec::new();
        for_owned_nodes(g, lo, hi, |u, range| {
            let mut t = CenterTally::default();
            count_node::<true, true, false>(g, u, range, config.delta, &[], scratch, &mut t);
            let profile = fold_tally(&t);
            if !profile.is_empty() {
                found.push((u, profile));
            }
        });
        let mut dense = dense.lock().expect("profile lock poisoned");
        for (u, profile) in &found {
            dense[*u as usize].merge_from(profile);
        }
    })?;
    let entries = dense
        .into_inner()
        .expect("profile lock poisoned")
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

    /// Per-worker budget shares: a seventh (tight enough to force cuts
    /// where δ-halos are wide), a half, and twice the graph's lanes (one
    /// chunk). `degenerate_budget_still_terminates_and_is_exact` forces
    /// every cut.
    fn shares_for(g: &TemporalGraph) -> [usize; 3] {
        let full = g.num_edges() * LANE_BYTES_PER_EDGE;
        [full / 7 + 1, full / 2 + 1, 2 * full + 1]
    }

    /// Thread counts the driver is run with.
    const THREADS: [usize; 4] = [1, 2, 3, 4];

    /// Count at every thread count, budget (`W` × each share) and lane
    /// layout, checking the grid — raw triangle cells too when the
    /// source ranks nodes like `g` — and the budget obligations. Each
    /// run is repeated: its stats must not change at a fixed `W`.
    fn check_counts(src: &impl EdgeSource, g: &TemporalGraph, delta: Timestamp) {
        let want = crate::count_motifs(g, delta);
        for threads in THREADS {
            let w = exec::workers(threads);
            for share in shares_for(g) {
                for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
                    let budget = share * w;
                    let ctx = format!("threads={threads} W={w} budget={budget} layout={layout}");
                    let mut config = OocConfig::new(delta, budget);
                    config.lane_layout = layout;
                    let (got, stats) = count_motifs_ooc(src, config, threads).unwrap();
                    assert_eq!(got.matrix, want.matrix, "{ctx}");
                    assert_eq!(got.star, want.star, "{ctx}");
                    if *src.node_rank() == *g.node_rank() {
                        assert_eq!(got.tri, want.tri, "{ctx}");
                    } else {
                        assert_eq!(got.tri.total(), want.tri.total(), "{ctx}");
                    }
                    assert!(stats.chunks >= 1, "{ctx}");
                    assert_eq!(stats.budget_bytes, budget, "{ctx}");
                    if layout == LaneLayout::Raw && stats.forced_cuts == 0 {
                        // Unforced raw chunks keep the W largest
                        // arenas under budget by construction.
                        assert!(
                            stats.peak_resident_lane_bytes <= budget,
                            "{ctx}: peak {} > budget",
                            stats.peak_resident_lane_bytes
                        );
                    }
                    let (_, again) = count_motifs_ooc(src, config, threads).unwrap();
                    assert_eq!(again, stats, "{ctx}");
                }
            }
        }
    }

    /// `g`'s edge stream, bit-packed.
    fn packed(g: &TemporalGraph) -> PackedEdges {
        PackedEdges::from_edges(g.num_nodes(), g.edges())
    }

    #[test]
    fn in_memory_chunked_counts_match_in_ram() {
        for (g, delta) in [
            (paper_fig1_toy(), 10),
            (erdos_renyi_temporal(25, 600, 800, 3), 150),
            (hub_burst(30, 1_500, 8_000, 9), 800),
            // More than one block of the packed stream.
            (hub_burst(40, 3_000, 20_000, 5), 900),
        ] {
            check_counts(&InMemorySource::from_graph(&g), &g, delta);
            check_counts(&packed(&g), &g, delta);
        }
    }

    /// Borrowing a graph copies neither its edges nor its rank; the
    /// packed stream ranks nodes like the graph.
    #[test]
    fn from_graph_borrows_the_edges_and_rank() {
        let g = erdos_renyi_temporal(25, 600, 800, 3);
        let src = InMemorySource::from_graph(&g);
        assert!(std::ptr::eq(src.graph, &g));
        assert!(matches!(src.node_rank(), Cow::Borrowed(r) if std::ptr::eq(r, g.node_rank())));
        let stream = packed(&g);
        assert!(matches!(EdgeSource::node_rank(&stream), Cow::Borrowed(r) if r == g.node_rank()));
        assert_eq!(stream.load_range(Timestamp::MIN, Timestamp::MAX), g.edges());
    }

    /// The budget is shared by the `W` workers: cuts are planned against
    /// `budget / W`, and the peak is the sum of the `W` largest chunk
    /// arenas, recomputed here from the plan.
    #[test]
    fn workers_share_the_budget_and_the_peak_sums_the_largest_arenas() {
        let g = erdos_renyi_temporal(30, 2_000, 20_000, 8);
        let delta = 100;
        let src = InMemorySource::from_graph(&g);
        let budget = g.num_edges() * LANE_BYTES_PER_EDGE / 3;
        let mut chunks_at = Vec::new();
        for threads in THREADS {
            let w = exec::workers(threads);
            let (_, stats) =
                count_motifs_ooc(&src, OocConfig::new(delta, budget), threads).unwrap();
            let (cuts, forced) = plan_cuts(&src, delta, budget / w).unwrap();
            assert_eq!((stats.chunks, stats.forced_cuts), (cuts.len(), forced));
            let mut arenas: Vec<usize> = cuts
                .iter()
                .map(|&(lo, hi)| {
                    let halo = src.load_range(lo - delta, hi + delta).unwrap();
                    TemporalGraph::from_chronological_edges(g.num_nodes(), halo)
                        .resident_lane_bytes()
                })
                .collect();
            arenas.sort_unstable_by(|a, b| b.cmp(a));
            let top_w: usize = arenas.iter().take(w).sum();
            assert_eq!(stats.peak_resident_lane_bytes, top_w, "threads={threads}");
            assert_eq!(forced, 0, "threads={threads}");
            assert!(top_w <= budget, "threads={threads}");
            chunks_at.push((w, stats.chunks));
        }
        // More workers, smaller shares, at least as many chunks.
        chunks_at.sort_unstable();
        assert!(
            chunks_at.windows(2).all(|p| p[0].1 <= p[1].1),
            "{chunks_at:?}"
        );
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
        let (got, stats) = count_motifs_ooc(&src, OocConfig::new(delta, 3_000), 0).unwrap();
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
        for threads in THREADS {
            let w = exec::workers(threads);
            // Each worker's share is half the graph's lanes.
            let budget = (g.num_edges() * LANE_BYTES_PER_EDGE / 2 + 1) * w;
            let (got, stats) =
                count_motifs_ooc(&src, OocConfig::new(delta, budget), threads).unwrap();
            assert_eq!(got.matrix, want.matrix, "threads={threads}");
            assert!(stats.chunks > 1, "threads={threads}");
            assert_eq!(stats.forced_cuts, 0, "threads={threads}");
            assert!(
                stats.peak_resident_lane_bytes <= budget,
                "threads={threads}"
            );
        }
        check_counts(&src, &g, delta);
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
        let derived = packed(&g);
        assert_eq!(&*EdgeSource::node_rank(&derived), g.node_rank());
        let mut path = std::env::temp_dir();
        path.push(format!("hare-ooc-rank-{}.hlg", std::process::id()));
        write_lane_file(&path, g.num_nodes(), g.edges()).unwrap();
        let lane = LaneFileSource::open(&path).unwrap();
        let identity: Vec<u32> = (0..g.num_nodes() as u32).collect();
        assert_eq!(&*lane.node_rank(), &identity[..]);
        for threads in THREADS {
            let w = exec::workers(threads);
            for share in &shares_for(&g) {
                let budget = share * w;
                for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
                    let ctx = format!("threads={threads} budget={budget} layout={layout}");
                    let mut config = OocConfig::new(delta, budget);
                    config.lane_layout = layout;
                    let (got, stats) = count_motifs_ooc(&derived, config, threads).unwrap();
                    assert_eq!(got, want, "{ctx}");
                    let (got, _) = count_motifs_ooc(&lane, config, threads).unwrap();
                    assert_eq!(got.matrix, want.matrix, "{ctx}");
                    assert_eq!(got.star, want.star, "{ctx}");
                    assert_eq!(got.tri.total(), want.tri.total(), "{ctx}");
                    if *share < g.num_edges() * LANE_BYTES_PER_EDGE {
                        assert!(stats.chunks > 1, "{ctx}");
                    }
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
        let stream = packed(&g);
        let mut path = std::env::temp_dir();
        path.push(format!("hare-ooc-profiles-{}.hlg", std::process::id()));
        write_lane_file(&path, g.num_nodes(), g.edges()).unwrap();
        let lane = LaneFileSource::open(&path).unwrap();
        for threads in THREADS {
            let w = exec::workers(threads);
            for share in shares_for(&g) {
                for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
                    let ctx = format!("threads={threads} share={share} layout={layout}");
                    let mut config = OocConfig::new(delta, share * w);
                    config.lane_layout = layout;
                    let (got, stats) = node_profiles_ooc(&src, config, threads).unwrap();
                    assert_eq!(got, want, "{ctx}");
                    let (got, lane_stats) = node_profiles_ooc(&lane, config, threads).unwrap();
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(lane_stats, stats, "{ctx}");
                    let (got, stream_stats) = node_profiles_ooc(&stream, config, threads).unwrap();
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(stream_stats, stats, "{ctx}");
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_tiny_sources() {
        let empty = PackedEdges::from_edges(0, &[]);
        let (counts, stats) = count_motifs_ooc(&empty, OocConfig::new(10, 1_000), 0).unwrap();
        assert_eq!(counts.total(), 0);
        assert_eq!(stats.chunks, 0);
        let (profiles, _) = node_profiles_ooc(&empty, OocConfig::new(10, 1_000), 0).unwrap();
        assert!(profiles.is_empty());

        let one = PackedEdges::from_edges(2, &[TemporalEdge::new(0, 1, 5)]);
        let (counts, stats) = count_motifs_ooc(&one, OocConfig::new(10, 1_000), 0).unwrap();
        assert_eq!(counts.total(), 0);
        assert_eq!(stats.chunks, 1);
    }

    #[test]
    fn degenerate_budget_still_terminates_and_is_exact() {
        let base = erdos_renyi_temporal(10, 150, 80, 1);
        let delta = 15;
        // Times in 0..80, shifted to straddle zero and to lie wholly
        // below it: the cut searches must round their midpoints down
        // for negative timestamps too.
        for offset in [0, -40, -1_000] {
            let shifted = base
                .edges()
                .iter()
                .map(|e| TemporalEdge::new(e.src, e.dst, e.t + offset))
                .collect();
            let g = TemporalGraph::from_chronological_edges(base.num_nodes(), shifted);
            check_forced_cuts(&g, delta, &format!("offset={offset}"));
        }
        // Adjacent negative timestamps right after a forced cut.
        for times in [[-3, -2, -1], [-2, -1, 0]] {
            let edges = [(0, 1), (1, 2), (2, 0)]
                .iter()
                .zip(times)
                .map(|(&(s, d), t)| TemporalEdge::new(s, d, t))
                .collect();
            let g = TemporalGraph::from_chronological_edges(3, edges);
            check_forced_cuts(&g, 0, &format!("times={times:?}"));
        }
    }

    /// A budget below one edge forces minimum-progress cuts everywhere:
    /// counts and profiles stay exact at every thread count, layout and
    /// source, with one chunk per distinct timestamp.
    fn check_forced_cuts(g: &TemporalGraph, delta: Timestamp, ctx: &str) {
        let want = crate::count_motifs(g, delta);
        let src = InMemorySource::from_graph(g);
        let stream = packed(g);
        let mut times: Vec<Timestamp> = g.edges().iter().map(|e| e.t).collect();
        times.dedup();
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "hare-ooc-degenerate-{}-{}.hlg",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        write_lane_file(&path, g.num_nodes(), g.edges()).unwrap();
        let lane = LaneFileSource::open(&path).unwrap();
        let profiles = NodeProfiles::compute(g, delta, 1);
        for threads in THREADS {
            for layout in [LaneLayout::Raw, LaneLayout::Compressed] {
                let ctx = format!("{ctx} threads={threads} layout={layout}");
                let mut config = OocConfig::new(delta, 1);
                config.lane_layout = layout;
                for (got, stats) in [
                    count_motifs_ooc(&src, config, threads).unwrap(),
                    count_motifs_ooc(&lane, config, threads).unwrap(),
                    count_motifs_ooc(&stream, config, threads).unwrap(),
                ] {
                    assert_eq!(got.matrix, want.matrix, "{ctx}");
                    assert_eq!(stats.chunks, times.len(), "{ctx}");
                    assert!(stats.forced_cuts > 0, "{ctx}");
                }
                assert_eq!(
                    node_profiles_ooc(&src, config, threads).unwrap().0,
                    profiles,
                    "{ctx}"
                );
                assert_eq!(
                    node_profiles_ooc(&lane, config, threads).unwrap().0,
                    profiles,
                    "{ctx}"
                );
                assert_eq!(
                    node_profiles_ooc(&stream, config, threads).unwrap().0,
                    profiles,
                    "{ctx}"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
