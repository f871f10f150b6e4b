//! Approximate motif counting by interval sampling, with per-motif error
//! bounds.
//!
//! Exact FAST answers a whole-history query in one pass, but the
//! ROADMAP's serving scenario wants *interactive* answers on graphs where
//! even the fused scan is too slow. This module trades a controlled,
//! *quantified* amount of accuracy for speed, following the
//! interval-sampling framework of Liu–Benson–Charikar (*A sampling
//! framework for counting temporal motifs*) and the partition-sampling
//! estimators of Wang et al. (*Efficient sampling algorithms for
//! approximate temporal motif counting*):
//!
//! 1. partition the time axis into windows of length `c·δ`, anchored
//!    at the graph's earliest timestamp;
//! 2. keep each window independently with probability `p` (a
//!    deterministic per-window coin derived from the seed);
//! 3. run the **exact fused kernel** on every kept window, restricted to
//!    first-edge positions inside the window but free to read up to `δ`
//!    past its right boundary (the *boundary correction* — instances
//!    spanning a window edge are attributed to the window of their first
//!    edge and never truncated);
//! 4. rescale the summed counts by `1/p` into an unbiased per-motif
//!    estimate, with a variance estimate and a normal-approximation
//!    confidence interval per motif.
//!
//! Because step 3 partitions the exact computation (every unit of kernel
//! work belongs to exactly one window), `p = 1` degenerates to the exact
//! count **bit for bit**, and the estimator's expectation equals the
//! exact count for every `p`. The full derivation (unbiasedness,
//! variance, the boundary correction, and why triangle work may split
//! fractionally across two windows without breaking either property)
//! lives in `docs/ESTIMATORS.md`.
//!
//! ```
//! use hare::sample::{SampleConfig, SampledCounter};
//! use temporal_graph::gen::erdos_renyi_temporal;
//!
//! let g = erdos_renyi_temporal(50, 2_000, 20_000, 11);
//! let exact = hare::count_motifs(&g, 500);
//! let cfg = SampleConfig { prob: 1.0, ..SampleConfig::default() };
//! let est = SampledCounter::new(cfg).count(&g, 500);
//! // p = 1 samples every window: the estimate *is* the exact count.
//! assert_eq!(est.as_exact(), Some(exact.matrix));
//! ```
//!
//! hare-lint: no-alloc

use crate::counters::{CenterTally, MotifMatrix};
use crate::exec;
use crate::fused::count_node;
use crate::motif::{pair_motif, star_motif, tri_motif, Motif, StarType, TriType};
use hare_obs::{NoopProbe, Phase, Probe};
use std::ops::Range;
use temporal_graph::{Dir, NodeId, TemporalGraph, Timestamp, TsLane, TsRead};

/// Configuration of the interval-sampling estimator.
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// Window keep probability `p` in `(0, 1]`. Expected speedup over
    /// exact counting approaches `1/p`; variance scales with `(1-p)/p`.
    pub prob: f64,
    /// Window length factor `c ≥ 1`: the time axis is cut into windows
    /// of length `c·δ`. Larger windows amortise the per-window boundary
    /// work but concentrate more count into each Bernoulli trial
    /// (raising variance on bursty graphs).
    pub window_factor: i64,
    /// Confidence level of the reported intervals, in `(0, 1)`
    /// (e.g. `0.95` for 95% normal-approximation intervals).
    pub confidence: f64,
    /// Seed of the per-window sampling coins. Two runs with the same
    /// seed keep exactly the same windows.
    pub seed: u64,
    /// Worker threads for the window tally driver: `1` counts
    /// sequentially, `0` uses all cores, `n` uses `n` clamped to the
    /// machine's cores ([`crate::exec::workers`]). Results are
    /// bit-identical across thread counts.
    pub threads: usize,
}

impl Default for SampleConfig {
    fn default() -> Self {
        SampleConfig {
            prob: 0.1,
            window_factor: 10,
            confidence: 0.95,
            seed: 0x5EED,
            threads: 1,
        }
    }
}

/// One motif's estimate with its error bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MotifEstimate {
    /// Unbiased point estimate of the motif count.
    pub estimate: f64,
    /// Estimated standard error of [`MotifEstimate::estimate`].
    pub stderr: f64,
    /// Lower bound of the confidence interval (clamped at 0 — counts
    /// are non-negative).
    pub ci_lo: f64,
    /// Upper bound of the confidence interval.
    pub ci_hi: f64,
}

impl MotifEstimate {
    /// `true` if the interval `[ci_lo, ci_hi]` contains `exact`.
    #[inline]
    #[must_use]
    pub fn covers(&self, exact: u64) -> bool {
        let x = exact as f64;
        self.ci_lo <= x && x <= self.ci_hi
    }
}

/// Result of one sampled counting run: 36 per-motif estimates plus the
/// run's sampling metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledCounts {
    cells: [[MotifEstimate; 6]; 6],
    exact: Option<MotifMatrix>,
    /// The window keep probability the run used.
    pub prob: f64,
    /// The confidence level of the per-motif intervals.
    pub confidence: f64,
    /// The motif window δ of the underlying count.
    pub delta: Timestamp,
    /// The sampling window length `c·δ` (clamped to at least 1).
    pub window_len: Timestamp,
    /// Number of windows tiling the graph's time span (including dead
    /// windows with no events).
    pub windows_total: usize,
    /// Number of kept windows that contained at least one event (the
    /// windows the kernel actually counted; kept-but-dead windows
    /// contribute nothing and are not tracked).
    pub windows_sampled: usize,
}

impl SampledCounts {
    /// The estimate of one motif.
    #[inline]
    #[must_use]
    pub fn get(&self, m: Motif) -> MotifEstimate {
        self.cells[m.row() as usize - 1][m.col() as usize - 1]
    }

    /// Iterate `(motif, estimate)` in the canonical row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Motif, MotifEstimate)> + '_ {
        Motif::all().map(move |m| (m, self.get(m)))
    }

    /// Sum of the point estimates over all 36 motifs.
    #[must_use]
    pub fn total_estimate(&self) -> f64 {
        self.iter().map(|(_, e)| e.estimate).sum()
    }

    /// The exact counts, available only when `p = 1` sampled every
    /// window (the degenerate configuration is bit-identical to
    /// [`crate::count_motifs`]).
    #[must_use]
    pub fn as_exact(&self) -> Option<MotifMatrix> {
        self.exact
    }

    /// Mean relative error of the point estimates against exact counts,
    /// over motifs whose exact count is non-zero (the metric used by the
    /// sampling papers).
    #[must_use]
    pub fn mean_relative_error(&self, exact: &MotifMatrix) -> f64 {
        let mut err = 0.0;
        let mut cells = 0usize;
        for (m, n) in exact.iter() {
            if n > 0 {
                err += (self.get(m).estimate - n as f64).abs() / n as f64;
                cells += 1;
            }
        }
        if cells == 0 {
            0.0
        } else {
            err / cells as f64
        }
    }

    /// Fraction of motifs with non-zero exact count whose confidence
    /// interval covers the exact value (1.0 when no motif has a
    /// non-zero count).
    #[must_use]
    pub fn covered_fraction(&self, exact: &MotifMatrix) -> f64 {
        let mut covered = 0usize;
        let mut cells = 0usize;
        for (m, n) in exact.iter() {
            if n > 0 {
                cells += 1;
                covered += usize::from(self.get(m).covers(n));
            }
        }
        if cells == 0 {
            1.0
        } else {
            covered as f64 / cells as f64
        }
    }
}

/// The interval-sampling estimator (one-shot). Construct with a
/// [`SampleConfig`], then [`SampledCounter::count`] any number of
/// graphs; each call makes fresh per-window coins from the same seed.
///
/// One driver counts every thread count: the time axis is cut into
/// window-aligned tasks on [`crate::exec::map`] (the same executor
/// HARE's node tasks use), each task walks the node lanes in node order
/// over its time range, and the per-window tallies are reduced in
/// window order, so counts and intervals are bit-identical across
/// thread counts.
#[derive(Debug, Clone, Default)]
pub struct SampledCounter {
    cfg: SampleConfig,
}

impl SampledCounter {
    /// Estimator with the given configuration.
    ///
    /// # Panics
    /// Panics if `prob` is outside `(0, 1]`, `window_factor < 1`, or
    /// `confidence` is outside `(0, 1)`.
    #[must_use]
    pub fn new(cfg: SampleConfig) -> SampledCounter {
        assert!(
            cfg.prob > 0.0 && cfg.prob <= 1.0,
            "sampling probability must be in (0, 1], got {}",
            cfg.prob
        );
        assert!(
            cfg.window_factor >= 1,
            "window factor must be at least 1, got {}",
            cfg.window_factor
        );
        assert!(
            cfg.confidence > 0.0 && cfg.confidence < 1.0,
            "confidence level must be in (0, 1), got {}",
            cfg.confidence
        );
        SampledCounter { cfg }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SampleConfig {
        &self.cfg
    }

    /// Estimate all 36 motif counts of `g` at window `δ = delta`.
    ///
    /// Runs on [`SampleConfig::threads`] workers; every thread count
    /// produces bit-identical results.
    #[must_use]
    pub fn count(&self, g: &TemporalGraph, delta: Timestamp) -> SampledCounts {
        self.count_probed(g, delta, &NoopProbe)
    }

    /// [`SampledCounter::count`] with a [`Probe`] observing the phase
    /// boundaries: [`Phase::Scan`] wraps the per-window tally driver,
    /// [`Phase::Summarise`] wraps the deterministic reduction and CI
    /// construction. Estimates are bit-identical across probe
    /// implementations.
    #[must_use]
    pub fn count_probed<P: Probe>(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        probe: &P,
    ) -> SampledCounts {
        let window_len = delta.max(0).saturating_mul(self.cfg.window_factor).max(1);
        // `abs_diff`: a span wider than `i64::MAX` must not wrap.
        let windows_total = match (g.min_time(), g.max_time()) {
            (Some(lo), Some(hi)) => {
                (hi.abs_diff(lo) / window_len as u64).saturating_add(1) as usize
            }
            _ => 0,
        };
        let (seed, prob) = (self.cfg.seed, self.cfg.prob);
        let tallies = probe.span(Phase::Scan, || {
            tally_windows(
                g,
                delta,
                self.cfg.threads,
                g.min_time().unwrap_or(0),
                window_len,
                |k| window_kept(seed, k as u64, prob),
            )
        });
        probe.span(Phase::Summarise, || {
            self.summarise(delta, window_len, windows_total, &tallies)
        })
    }

    /// Deterministic reduction of per-window tallies into estimates,
    /// CIs, and (at `p = 1`) the exact grid — the [`Phase::Summarise`]
    /// half of [`SampledCounter::count_probed`].
    fn summarise(
        &self,
        delta: Timestamp,
        window_len: Timestamp,
        windows_total: usize,
        tallies: &[(i128, CenterTally)],
    ) -> SampledCounts {
        // Deterministic reduction in window order: u64 flat totals for
        // the point estimates (and the p = 1 exact path), f64 sums of
        // squares for the variance.
        let tables = FoldTables::new();
        let mut total = CenterTally::default();
        let mut sum_sq = [0.0f64; 36];
        for (_, t) in tallies {
            total.merge(t);
            let x = fold_fractional(t, &tables);
            for (s, v) in sum_sq.iter_mut().zip(x) {
                *s += v * v;
            }
        }

        let p = self.cfg.prob;
        let z = normal_quantile(0.5 + self.cfg.confidence / 2.0);
        let base = fold_fractional(&total, &tables);
        let mut cells = [[MotifEstimate::default(); 6]; 6];
        for (i, cell) in cells.iter_mut().flatten().enumerate() {
            let estimate = base[i] / p;
            // Var[X̂] is estimated unbiasedly by (1-p)/p² · Σ xₖ² over the
            // kept windows (docs/ESTIMATORS.md, eq. V̂).
            let stderr = ((1.0 - p).max(0.0) / (p * p) * sum_sq[i]).sqrt();
            *cell = MotifEstimate {
                estimate,
                stderr,
                ci_lo: (estimate - z * stderr).max(0.0),
                ci_hi: estimate + z * stderr,
            };
        }

        // p = 1 kept every window, so the summed tally is exactly the
        // tally of a full exact run — fold it through the same path
        // `count_motifs` uses.
        let exact = (p >= 1.0).then(|| total.into_counts().matrix);

        SampledCounts {
            cells,
            exact,
            prob: p,
            confidence: self.cfg.confidence,
            delta,
            window_len,
            windows_total,
            windows_sampled: tallies.len(),
        }
    }
}

/// Window tasks per worker: enough slack that one bursty time range
/// does not leave the other workers idle, few enough that the per-task
/// lane seek (one binary search per node) stays small.
const TASKS_PER_WORKER: usize = 4;

/// The fused tally of every kept window that holds at least one event,
/// as `(window, tally)` pairs in ascending window order — the one scan
/// driver behind both estimators ([`SampledCounter`] and
/// [`crate::stream_sample::StreamingEstimator`]).
///
/// Window `k` covers `[origin + k·window_len, origin + (k+1)·window_len)`;
/// ids are `i128`, so no timestamp or span can overflow them. A window's
/// tally is the exact kernel over the node runs whose *first* edge lies
/// in it (the kernel reads up to `δ` past the window on its own), so
/// the windows partition the exact computation. `keep` decides each
/// window once per task; dropped windows cost only the lane walk.
///
/// The time axis is cut into window-aligned tasks balanced by edge
/// count (one task for one worker) and run on [`exec::map`]. Inside its
/// task a worker walks every node's lane in node order from the task
/// start, so its memory is one slot per window it touches, never
/// `O(windows)`. Window tallies are `u64` sums of whole runs, so they
/// and their order are the same for every thread count.
///
/// # Panics
/// Panics if `window_len <= 0`.
pub(crate) fn tally_windows(
    g: &TemporalGraph,
    delta: Timestamp,
    threads: usize,
    origin: Timestamp,
    window_len: Timestamp,
    keep: impl Fn(i128) -> bool + Sync,
) -> Vec<(i128, CenterTally)> {
    assert!(window_len > 0, "window length must be positive");
    let grid = Grid {
        origin,
        len: window_len,
    };
    // Every task pays one lane seek per node, so a task gets at least
    // `num_nodes` edges.
    let workers = exec::workers(threads);
    let parts = if workers == 1 {
        1
    } else {
        (workers * TASKS_PER_WORKER)
            .min(g.num_edges() / g.num_nodes().max(1))
            .max(1)
    };

    const DROPPED: u32 = u32::MAX;
    let tasks = grid.tasks(g, parts);
    let per_task = exec::map(workers, g.num_nodes(), tasks, |task, scratch| {
        // Slots keyed by the window's offset in the task (a `u64`: the
        // whole graph spans fewer than 2^64 windows); a dropped window's
        // slot is `DROPPED`.
        let mut slot_of: temporal_graph::util::FxHashMap<u64, u32> = Default::default();
        // hare-lint: allow(alloc, reason = "per-task setup: one tally per kept window, O(runs)")
        let mut found: Vec<(i128, CenterTally)> = Vec::new();
        task_runs(g, grid, task, |k, u, run| {
            let slot = *slot_of.entry((k - task.0) as u64).or_insert_with(|| {
                if !keep(k) {
                    return DROPPED;
                }
                found.push((k, CenterTally::default()));
                (found.len() - 1) as u32
            });
            if slot != DROPPED {
                let tally = &mut found[slot as usize].1;
                count_node::<true, true, false>(g, u, run, delta, &[], scratch, tally);
            }
        });
        // Into window order, sorting indices rather than whole tallies.
        // hare-lint: allow(alloc, reason = "per-task teardown: one index per kept window")
        let mut order: Vec<u32> = (0..found.len() as u32).collect();
        order.sort_unstable_by_key(|&s| found[s as usize].0);
        order
            .into_iter()
            .map(|s| std::mem::take(&mut found[s as usize]))
            // hare-lint: allow(alloc, reason = "per-task teardown: the task's tallies in window order")
            .collect::<Vec<_>>()
    });
    // Tasks are consecutive window ranges, so task order is window order.
    let mut per_task = per_task.into_iter();
    let mut all = per_task.next().unwrap_or_default();
    for mut more in per_task {
        all.append(&mut more);
    }
    all
}

/// The window grid `origin + k·len` of [`tally_windows`].
#[derive(Clone, Copy)]
struct Grid {
    origin: Timestamp,
    len: Timestamp,
}

impl Grid {
    /// The window holding `t`: 64-bit division unless `t - origin`
    /// overflows.
    #[inline]
    fn window_of(self, t: Timestamp) -> i128 {
        match t.checked_sub(self.origin) {
            Some(d) => i128::from(d.div_euclid(self.len)),
            None => (i128::from(t) - i128::from(self.origin)).div_euclid(i128::from(self.len)),
        }
    }

    /// The first instant of window `k`.
    #[inline]
    fn start_of(self, k: i128) -> i128 {
        i128::from(self.origin) + k * i128::from(self.len)
    }

    /// `g`'s windows cut into at most `parts` consecutive `[k_lo, k_hi)`
    /// ranges at evenly spaced edge ranks (none for an empty graph).
    fn tasks(self, g: &TemporalGraph, parts: usize) -> Vec<(i128, i128)> {
        let edges = g.edges();
        let (Some(first), Some(last)) = (edges.first(), edges.last()) else {
            // hare-lint: allow(alloc, reason = "empty graph: no tasks")
            return Vec::new();
        };
        // hare-lint: allow(alloc, reason = "per-estimate setup: one window range per task")
        let mut tasks = Vec::with_capacity(parts);
        let mut lo = self.window_of(first.t);
        for i in 1..parts {
            let cut = self.window_of(edges[i * edges.len() / parts].t);
            if cut > lo {
                tasks.push((lo, cut));
                lo = cut;
            }
        }
        tasks.push((lo, self.window_of(last.t) + 1));
        tasks
    }
}

/// Visit every `(window, node, positions)` run that starts in windows
/// `k_lo..k_hi` of `grid`, node by node: each node's lane is entered at
/// the task start by binary search.
fn task_runs(
    g: &TemporalGraph,
    grid: Grid,
    (k_lo, k_hi): (i128, i128),
    mut visit: impl FnMut(i128, NodeId, Range<usize>),
) {
    let (t_lo, t_hi) = (grid.start_of(k_lo), grid.start_of(k_hi));
    for u in g.node_ids() {
        let lane = g.node_events(u).ts_lane();
        // A lane with no event in the task's range is skipped unsearched.
        if lane.is_empty()
            || i128::from(lane.get(0)) >= t_hi
            || i128::from(lane.get(lane.len() - 1)) < t_lo
        {
            continue;
        }
        let from = lane.partition_point(|t| i128::from(t) < t_lo);
        let node_visit = |k, run| visit(k, u, run);
        match lane {
            TsLane::Raw(ts) => lane_runs(ts, from, t_hi, grid, node_visit),
            TsLane::Packed(ts) => lane_runs(ts, from, t_hi, grid, node_visit),
        }
    }
}

/// Cut one node's time-sorted lane, from position `from` up to time
/// `t_hi` (a window start), into its runs on `grid`: `visit(k,
/// positions)` once per window that holds events, in ascending window
/// order.
fn lane_runs<T: TsRead>(
    ts: T,
    from: usize,
    t_hi: i128,
    grid: Grid,
    mut visit: impl FnMut(i128, Range<usize>),
) {
    let mut i = from;
    while i < ts.len() && i128::from(ts.at(i)) < t_hi {
        let k = grid.window_of(ts.at(i));
        let mut j = i + 1;
        match Timestamp::try_from(grid.start_of(k + 1)) {
            Ok(end) => {
                while j < ts.len() && ts.at(j) < end {
                    j += 1;
                }
            }
            // The window reaches past `Timestamp::MAX`.
            Err(_) => j = ts.len(),
        }
        visit(k, i..j);
        i = j;
    }
}

/// The deterministic per-window keep/drop coin: a SplitMix64 hash of
/// `(seed, k)` compared against `p` in the unit interval. Windows are
/// decided independently, so any subset of windows can be tallied in
/// any order (or in parallel) without a shared RNG stream.
#[must_use]
pub fn window_kept(seed: u64, k: u64, prob: f64) -> bool {
    if prob >= 1.0 {
        return true;
    }
    // One shared SplitMix64 step (same definition as
    // `TemporalGraph::fingerprint`): state = seed, value = k spread by
    // the golden-ratio constant. Bit-identical to the historical inline
    // form, so seeded runs reproduce across versions.
    let x = temporal_graph::util::splitmix64_mix(seed, k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Top 53 bits as a uniform double in [0, 1).
    ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < prob
}

/// Row-major index of a motif in the flat `[_; 36]` arrays.
#[inline]
fn midx(m: Motif) -> usize {
    (m.row() as usize - 1) * 6 + (m.col() as usize - 1)
}

/// Precomputed flat-cell → motif-index maps, so the per-window fold is
/// ~56 indexed adds instead of three trips through the counter
/// iterators (the fold runs once per sampled window — at small `c` that
/// is the per-window constant that would eat the sampling speedup).
pub(crate) struct FoldTables {
    star: [usize; 24],
    pair: [usize; 8],
    tri: [usize; 24],
}

impl FoldTables {
    pub(crate) fn new() -> FoldTables {
        let dir = |bit: usize| if bit == 0 { Dir::Out } else { Dir::In };
        let mut t = FoldTables {
            star: [0; 24],
            pair: [0; 8],
            tri: [0; 24],
        };
        for i in 0..24 {
            // Flat layout `ty·8 + d1·4 + d2·2 + d3` (see `crate::counters`).
            let (ty, d1, d2, d3) = (i >> 3, (i >> 2) & 1, (i >> 1) & 1, i & 1);
            t.star[i] = midx(star_motif(StarType::ALL[ty], dir(d1), dir(d2), dir(d3)));
            t.tri[i] = midx(tri_motif(TriType::ALL[ty], dir(d1), dir(d2), dir(d3)));
        }
        for i in 0..8 {
            let (d1, d2, d3) = ((i >> 2) & 1, (i >> 1) & 1, i & 1);
            t.pair[i] = midx(pair_motif(dir(d1), dir(d2), dir(d3)));
        }
        t
    }
}

/// Fold one window's flat accumulators into fractional per-motif values:
/// star cells map 1:1, pair mirror cells halve (both endpoints of a pair
/// instance see the same first edge, hence the same window — asserted in
/// debug builds), triangle class cells third (a triangle's three
/// per-center counts may split 2 + 1 across two windows, making thirds
/// the honest per-window attribution).
pub(crate) fn fold_fractional(t: &CenterTally, tables: &FoldTables) -> [f64; 36] {
    let (star, pair, tri) = (&t.star.cells, &t.pair.cells, &t.tri.cells);
    let mut out = [0.0f64; 36];
    for (i, &n) in star.iter().enumerate() {
        out[tables.star[i]] += n as f64;
    }
    for i in 0..4 {
        // `i` has d1 = Out; `i ^ 0b111` is the all-flipped mirror cell.
        // Both hold the same value (debug-asserted), so the halved sum
        // is an exact integer.
        let both = pair[i] + pair[i ^ 0b111];
        debug_assert_eq!(
            pair[i],
            pair[i ^ 0b111],
            "pair mirror cells must balance within a window"
        );
        out[tables.pair[i]] += (both / 2) as f64;
    }
    let mut tri_sums = [0u64; 36];
    for (i, &n) in tri.iter().enumerate() {
        tri_sums[tables.tri[i]] += n;
    }
    for (o, s) in out.iter_mut().zip(tri_sums) {
        if s > 0 {
            *o += s as f64 / 3.0;
        }
    }
    out
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |ε| < 1.2e-9 — far below the sampling noise it is paired with).
pub(crate) fn normal_quantile(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, paper_fig1_toy, GenConfig};
    use temporal_graph::TemporalEdge;

    fn cfg(prob: f64, seed: u64) -> SampleConfig {
        SampleConfig {
            prob,
            window_factor: 4,
            seed,
            ..SampleConfig::default()
        }
    }

    #[test]
    fn p_one_is_bit_identical_to_exact_fast() {
        for (g, delta) in [
            (paper_fig1_toy(), 10),
            (erdos_renyi_temporal(25, 600, 900, 3), 150),
            (hub_burst(30, 1_500, 8_000, 9), 800),
        ] {
            let exact = crate::count_motifs(&g, delta);
            let est = SampledCounter::new(cfg(1.0, 7)).count(&g, delta);
            assert_eq!(est.as_exact(), Some(exact.matrix));
            for (m, e) in est.iter() {
                assert_eq!(e.estimate, exact.get(m) as f64, "{m}");
                assert_eq!(e.stderr, 0.0, "{m}");
                assert_eq!((e.ci_lo, e.ci_hi), (e.estimate, e.estimate), "{m}");
            }
        }
    }

    #[test]
    fn sampled_runs_hide_exact_matrix() {
        let g = erdos_renyi_temporal(25, 600, 900, 3);
        let est = SampledCounter::new(cfg(0.5, 1)).count(&g, 150);
        assert_eq!(est.as_exact(), None);
    }

    #[test]
    fn parallel_driver_is_bit_identical_to_sequential() {
        let g = GenConfig {
            nodes: 80,
            edges: 3_000,
            zipf_exponent: 1.1,
            seed: 12,
            ..GenConfig::default()
        }
        .generate();
        let delta = 20_000;
        for prob in [0.3, 0.7, 1.0] {
            let seq = SampledCounter::new(SampleConfig {
                threads: 1,
                ..cfg(prob, 21)
            })
            .count(&g, delta);
            for threads in [2, 4] {
                let par = SampledCounter::new(SampleConfig {
                    threads,
                    ..cfg(prob, 21)
                })
                .count(&g, delta);
                assert_eq!(par, seq, "threads={threads} prob={prob}");
            }
        }
    }

    /// Thread requests beyond the machine's cores are clamped, so an
    /// absurd count is bit-identical to one thread. A handful of
    /// windows: no run can use more threads than that.
    #[test]
    fn oversized_thread_request_matches_one_thread() {
        let g = erdos_renyi_temporal(25, 600, 900, 3);
        let delta = 40;
        for prob in [0.5, 1.0] {
            let one = SampledCounter::new(SampleConfig {
                threads: 1,
                ..cfg(prob, 5)
            })
            .count(&g, delta);
            assert!(one.windows_total <= 8 && one.windows_sampled >= 2);
            let max = SampledCounter::new(SampleConfig {
                threads: usize::MAX,
                ..cfg(prob, 5)
            })
            .count(&g, delta);
            assert_eq!(max, one, "prob={prob}");
        }
    }

    #[test]
    fn estimator_is_unbiased_over_seeds() {
        let g = GenConfig {
            nodes: 60,
            edges: 4_000,
            time_span: 80_000,
            mean_burst_len: 2.5,
            seed: 2,
            ..GenConfig::default()
        }
        .generate();
        let delta = 800;
        let exact = crate::count_motifs(&g, delta);
        let runs = 60;
        let mean: f64 = (0..runs)
            .map(|seed| {
                SampledCounter::new(cfg(0.4, seed))
                    .count(&g, delta)
                    .total_estimate()
            })
            .sum::<f64>()
            / runs as f64;
        let exact_total = exact.total() as f64;
        let rel = (mean - exact_total).abs() / exact_total;
        assert!(
            rel < 0.1,
            "mean of estimates {mean:.1} drifts from exact {exact_total:.1} (rel {rel:.3})"
        );
    }

    #[test]
    fn coin_matches_probability_and_is_deterministic() {
        let kept = (0..10_000).filter(|&k| window_kept(99, k, 0.3)).count();
        assert!((2_700..=3_300).contains(&kept), "kept {kept} of 10000");
        for k in 0..100 {
            assert_eq!(window_kept(5, k, 0.5), window_kept(5, k, 0.5));
        }
        assert!(window_kept(5, 3, 1.0));
    }

    #[test]
    fn sparse_span_uses_bounded_memory_and_matches_dense_semantics() {
        // Two event clusters separated by ~10^14 time units: the window
        // grid has ~10^10 windows at this δ, so anything O(windows)
        // would OOM — `tally_windows`, whose state is O(kept runs), must
        // finish instantly and still count the clusters exactly at p = 1.
        let mut edges = Vec::new();
        for i in 0..40u32 {
            edges.push(temporal_graph::TemporalEdge::new(
                i % 5,
                (i + 1) % 5,
                i64::from(i),
            ));
            edges.push(temporal_graph::TemporalEdge::new(
                i % 5,
                (i + 2) % 5,
                100_000_000_000_000 + i64::from(i),
            ));
        }
        let g = TemporalGraph::from_edges(edges);
        let delta = 10;
        let exact = crate::count_motifs(&g, delta);
        let est = SampledCounter::new(SampleConfig {
            prob: 1.0,
            window_factor: 2,
            ..SampleConfig::default()
        })
        .count(&g, delta);
        assert!(est.windows_total > 1_000_000_000);
        assert!(est.windows_sampled <= 80, "bounded by active windows");
        assert_eq!(est.as_exact(), Some(exact.matrix));

        // And one worker (one task) agrees bit-for-bit with three
        // workers (window-aligned time-range tasks) at p < 1.
        let cfg = SampleConfig {
            prob: 0.6,
            window_factor: 2,
            seed: 9,
            ..SampleConfig::default()
        };
        let seq = SampledCounter::new(SampleConfig {
            threads: 1,
            ..cfg.clone()
        })
        .count(&g, delta);
        let par = SampledCounter::new(SampleConfig { threads: 3, ..cfg }).count(&g, delta);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_graph_yields_empty_estimate() {
        let g = TemporalGraph::from_edges(vec![]);
        let est = SampledCounter::new(cfg(0.5, 1)).count(&g, 100);
        assert_eq!(est.windows_total, 0);
        assert_eq!(est.total_estimate(), 0.0);
        let exact = SampledCounter::new(cfg(1.0, 1)).count(&g, 100);
        assert_eq!(exact.as_exact(), Some(MotifMatrix::default()));
    }

    /// Every `(window, node, positions)` run of `g` on `grid`, walked
    /// task by task as [`tally_windows`] walks it.
    fn all_runs(g: &TemporalGraph, grid: Grid, parts: usize) -> Vec<(i128, NodeId, Range<usize>)> {
        let mut runs = Vec::new();
        for task in grid.tasks(g, parts) {
            task_runs(g, grid, task, |k, u, run| {
                assert!(
                    task.0 <= k && k < task.1,
                    "run of window {k} outside task {task:?}"
                );
                runs.push((k, u, run));
            });
        }
        runs
    }

    /// Bursty edges over negative and positive times, with ties.
    fn signed_graph() -> TemporalGraph {
        TemporalGraph::from_edges(
            (0..400u32)
                .map(|i| {
                    let t = -7_000 + i64::from(i * 37 % 9_001) + i64::from(i % 3);
                    TemporalEdge::new(i % 9, (i * 4 + 1) % 9, t)
                })
                .collect(),
        )
    }

    #[test]
    fn runs_partition_every_event_position() {
        for (g, len) in [
            (paper_fig1_toy(), 5),
            (paper_fig1_toy(), 100),
            (erdos_renyi_temporal(20, 400, 2_000, 7), 137),
            (signed_graph(), 90),
            (signed_graph(), 1),
        ] {
            for origin in [g.min_time().unwrap(), 0] {
                let grid = Grid { origin, len };
                for parts in [1, 3, 8] {
                    // Reassemble each node's position set from the runs.
                    let mut covered: Vec<Vec<bool>> =
                        g.node_ids().map(|u| vec![false; g.degree(u)]).collect();
                    for (k, u, run) in all_runs(&g, grid, parts) {
                        assert!(run.start < run.end, "empty run");
                        let ts = g.node_events(u).ts_lane();
                        for i in run {
                            let t = i128::from(ts.get(i));
                            assert!(
                                grid.start_of(k) <= t && t < grid.start_of(k + 1),
                                "event at t={t} outside window {k} (origin {origin}, len {len})"
                            );
                            let seen = &mut covered[u as usize][i];
                            assert!(!*seen, "position covered twice");
                            *seen = true;
                        }
                    }
                    for node_cov in covered {
                        assert!(node_cov.into_iter().all(|c| c), "position never covered");
                    }
                }
            }
        }
    }

    #[test]
    fn single_window_covers_whole_sequences() {
        let g = paper_fig1_toy();
        let grid = Grid {
            origin: g.min_time().unwrap(),
            len: g.time_span() + 1,
        };
        let runs = all_runs(&g, grid, 4);
        assert_eq!(
            runs.len(),
            g.node_ids().filter(|&u| g.degree(u) > 0).count()
        );
        for (k, u, run) in runs {
            assert_eq!(k, 0);
            assert_eq!(run, 0..g.degree(u));
        }
    }

    #[test]
    fn window_count_and_bounds_tile_the_span() {
        let g = paper_fig1_toy(); // span [1, 21]
        let grid = Grid { origin: 1, len: 10 }; // [1,11), [11,21), [21,31)
        let ks = [1, 10, 11, 21].map(|t| grid.window_of(t));
        assert_eq!(ks, [0, 0, 1, 2]);
        assert_eq!((grid.start_of(0), grid.start_of(2)), (1, 21));
        // Anchored at 0, times before the anchor fall in negative windows.
        let zero = Grid { origin: 0, len: 10 };
        assert_eq!(
            [-11, -10, -1, 0, 9].map(|t| zero.window_of(t)),
            [-2, -1, -1, 0, 0]
        );
        let est = SampledCounter::new(SampleConfig {
            prob: 1.0,
            window_factor: 1,
            ..SampleConfig::default()
        })
        .count(&g, 10);
        assert_eq!((est.window_len, est.windows_total), (10, 3));
    }

    #[test]
    fn task_split_walk_agrees_with_one_task() {
        let g = erdos_renyi_temporal(15, 300, 1_500, 4);
        let key = |r: &(i128, NodeId, Range<usize>)| (r.1, r.2.start, r.0);
        for origin in [g.min_time().unwrap(), 0] {
            let grid = Grid { origin, len: 90 };
            let mut one = all_runs(&g, grid, 1);
            one.sort_by_key(key);
            assert!(grid.tasks(&g, 5).len() > 1, "the plan must split");
            for parts in [2, 5, 16] {
                let mut split = all_runs(&g, grid, parts);
                split.sort_by_key(key);
                assert_eq!(split, one, "parts={parts}");
            }
        }
    }

    #[test]
    fn keep_filter_selects_only_kept_windows() {
        let g = signed_graph();
        for origin in [g.min_time().unwrap(), 0] {
            let all = tally_windows(&g, 40, 1, origin, 90, |_| true);
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "ascending ids");
            let odd = tally_windows(&g, 40, 1, origin, 90, |k| k.rem_euclid(2) == 1);
            let want: Vec<_> = all
                .iter()
                .filter(|(k, _)| k.rem_euclid(2) == 1)
                .cloned()
                .collect();
            assert!(!want.is_empty() && want.len() < all.len());
            assert_eq!(odd, want);
            // Kept windows partition the exact count.
            let mut total = CenterTally::default();
            for (_, t) in &all {
                total.merge(t);
            }
            assert_eq!(
                total.into_counts().matrix,
                crate::count_motifs(&g, 40).matrix
            );
        }
    }

    #[test]
    fn huge_sparse_span_costs_only_the_runs() {
        // Two clusters ~10^14 apart: the window count is astronomical,
        // but the tallies stay bounded by the runs on either anchor.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, -3),
            TemporalEdge::new(1, 2, 2),
            TemporalEdge::new(0, 2, 100_000_000_000_000),
            TemporalEdge::new(2, 1, 100_000_000_000_007),
        ]);
        for origin in [g.min_time().unwrap(), 0] {
            let runs = all_runs(&g, Grid { origin, len: 60 }, 4);
            assert!(runs.len() <= 8);
            let tallies = tally_windows(&g, 10, 2, origin, 60, |_| true);
            assert!((2..=3).contains(&tallies.len()), "{}", tallies.len());
            assert!(tallies.len() <= runs.len());
        }
    }

    #[test]
    fn empty_graph_has_no_windows() {
        let g = TemporalGraph::from_edges(vec![]);
        for origin in [0, 17] {
            assert!(Grid { origin, len: 60 }.tasks(&g, 4).is_empty());
            assert!(tally_windows(&g, 10, 2, origin, 60, |_| true).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_window_panics() {
        let _ = tally_windows(&paper_fig1_toy(), 10, 1, 0, 0, |_| true);
    }

    #[test]
    fn extreme_timestamps_do_not_overflow() {
        // Events at both ends of the i64 range: window ids and bounds
        // must not wrap on either anchor, at any window length.
        let g = TemporalGraph::from_edges(vec![
            TemporalEdge::new(0, 1, i64::MIN),
            TemporalEdge::new(1, 2, i64::MIN + 1),
            TemporalEdge::new(2, 0, i64::MIN + 2),
            TemporalEdge::new(0, 1, -1),
            TemporalEdge::new(1, 0, 0),
            TemporalEdge::new(1, 2, i64::MAX - 1),
            TemporalEdge::new(2, 0, i64::MAX),
        ]);
        let exact = crate::count_motifs(&g, 2).matrix;
        for origin in [i64::MIN, -1, 0, i64::MAX] {
            for len in [1, 3, 1 << 40, i64::MAX] {
                let grid = Grid { origin, len };
                let mut covered = 0;
                for (k, u, run) in all_runs(&g, grid, 3) {
                    for i in run {
                        let t = i128::from(g.node_events(u).ts_lane().get(i));
                        assert!(grid.start_of(k) <= t && t < grid.start_of(k + 1));
                        covered += 1;
                    }
                }
                assert_eq!(covered, 2 * g.num_edges());
                let mut total = CenterTally::default();
                for (_, t) in tally_windows(&g, 2, 2, origin, len, |_| true) {
                    total.merge(&t);
                }
                assert_eq!(
                    total.into_counts().matrix,
                    exact,
                    "origin={origin} len={len}"
                );
            }
        }
        // The sampler's own grid: a span wider than i64::MAX.
        let est = SampledCounter::new(SampleConfig {
            prob: 1.0,
            window_factor: 1,
            ..SampleConfig::default()
        })
        .count(&g, 0);
        assert_eq!(est.windows_total, usize::MAX, "2^64 windows saturate");
        assert_eq!(est.as_exact(), Some(crate::count_motifs(&g, 0).matrix));
    }

    #[test]
    fn every_thread_count_is_bit_identical() {
        let bursty = GenConfig {
            nodes: 80,
            edges: 3_000,
            zipf_exponent: 1.1,
            seed: 12,
            ..GenConfig::default()
        }
        .generate();
        for (g, delta) in [
            (bursty, 2_000),
            (signed_graph(), 60),
            (hub_burst(30, 1_500, 8_000, 9), 100),
        ] {
            for prob in [0.3, 1.0] {
                let run = |threads| {
                    SampledCounter::new(SampleConfig {
                        threads,
                        ..cfg(prob, 21)
                    })
                    .count(&g, delta)
                };
                let one = run(1);
                assert!(one.windows_sampled > 1);
                for threads in 2..=4 {
                    assert_eq!(run(threads), one, "threads={threads} prob={prob}");
                }
            }
        }
    }

    #[test]
    fn normal_quantile_hits_known_values() {
        for (p, z) in [(0.975, 1.959_964), (0.995, 2.575_829), (0.9, 1.281_552)] {
            assert!((normal_quantile(p) - z).abs() < 1e-5, "p={p}");
            assert!((normal_quantile(1.0 - p) + z).abs() < 1e-5, "p={p} tail");
        }
        assert!(normal_quantile(0.5).abs() < 1e-9);
        // The extreme-tail branch.
        assert!((normal_quantile(0.001) + 3.090_232).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_probability_is_rejected() {
        let _ = SampledCounter::new(cfg(0.0, 1));
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn bad_confidence_is_rejected() {
        let _ = SampledCounter::new(SampleConfig {
            confidence: 1.0,
            ..cfg(0.5, 1)
        });
    }
}
