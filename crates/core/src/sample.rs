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
//! 1. partition the time axis into windows of length `c·δ`
//!    ([`temporal_graph::WindowSlices`]);
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
use crate::scratch::{with_thread_scratch, NeighborScratch};
use hare_obs::{NoopProbe, Phase, Probe};
use temporal_graph::{Dir, TemporalGraph, Timestamp, WindowSlices};

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
    /// Worker threads for the window-parallel driver: `1` counts
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
/// The parallel driver schedules *sampled windows* as the unit of work
/// on [`crate::exec::map`] — each window task borrows its worker's
/// [`crate::NeighborScratch`] (the same executor HARE's node tasks use)
/// and allocates nothing; partial results are reduced in window order,
/// so counts and intervals are bit-identical across thread counts.
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
    /// Runs sequentially or window-parallel per
    /// [`SampleConfig::threads`]; both paths produce bit-identical
    /// results.
    #[must_use]
    pub fn count(&self, g: &TemporalGraph, delta: Timestamp) -> SampledCounts {
        self.count_probed(g, delta, &NoopProbe)
    }

    /// [`SampledCounter::count`] with a [`Probe`] observing the phase
    /// boundaries: [`Phase::Scan`] wraps the per-window tally drivers,
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
        let windows_total =
            temporal_graph::slices::scan_header(g, window_len).map_or(0, |(_, n)| n);
        let (seed, prob) = (self.cfg.seed, self.cfg.prob);

        // Per-window tallies, reduced in ascending window order on every
        // driver. Nothing here may scale with `windows_total`: a sparse
        // graph over a wide or fine-grained timestamp span has
        // astronomically more (dead) windows than events, so per-window
        // state is bounded by the run count instead. A dense slot table
        // is kept only when the window count is within a small multiple
        // of |E| — the common case, where it beats hashing.
        let dense = windows_total <= g.num_edges().saturating_mul(2).max(4096);
        let tallies: Vec<WindowTally> = probe.span(Phase::Scan, || {
            let workers = exec::workers(self.cfg.threads);
            if workers == 1 {
                if dense {
                    self.tally_sequential_dense(g, delta, window_len, windows_total)
                } else {
                    self.tally_sequential_sparse(g, delta, window_len)
                }
            } else {
                // Parallel: materialise the window-major index once (it is
                // sparse — O(runs)), then schedule one task per active kept
                // window; the executor keeps task (window) order.
                let slices = WindowSlices::build_filtered(g, window_len, |k| {
                    window_kept(seed, k as u64, prob)
                });
                // hare-lint: allow(alloc, reason = "per-estimate setup: one Vec of active window ids")
                let active: Vec<usize> = slices.active_windows().collect();
                exec::map(workers, g.num_nodes(), active, |k, scratch| {
                    tally_window(g, &slices, k, delta, scratch)
                })
            }
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
        tallies: &[WindowTally],
    ) -> SampledCounts {
        let windows_sampled = tallies.iter().filter(|t| t.touched).count();

        // Deterministic reduction in window order: u64 flat totals for
        // the point estimates (and the p = 1 exact path), f64 sums of
        // squares for the variance.
        let tables = FoldTables::new();
        let mut total = WindowTally::default();
        let mut sum_sq = [0.0f64; 36];
        for t in tallies {
            if !t.touched {
                continue; // dead window: every cell is zero
            }
            total.tally.merge(&t.tally);
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
        let exact = (p >= 1.0).then(|| total.tally.into_counts().matrix);

        SampledCounts {
            cells,
            exact,
            prob: p,
            confidence: self.cfg.confidence,
            delta,
            window_len,
            windows_total,
            windows_sampled,
        }
    }

    /// Sequential driver, dense slot table: `slot_of[k]` maps every kept
    /// window to its rank among kept windows (ascending), so the tally
    /// vector comes out in window order with no sort. `O(windows_total)`
    /// memory — used only when that is bounded by a multiple of `|E|`.
    fn tally_sequential_dense(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        window_len: Timestamp,
        windows_total: usize,
    ) -> Vec<WindowTally> {
        // hare-lint: allow(alloc, reason = "per-estimate setup: dense slot table, O(windows_total) once")
        let mut slot_of = vec![u32::MAX; windows_total];
        let mut kept = 0u32;
        for (k, slot) in slot_of.iter_mut().enumerate() {
            if window_kept(self.cfg.seed, k as u64, self.cfg.prob) {
                *slot = kept;
                kept += 1;
            }
        }
        // hare-lint: allow(alloc, reason = "per-estimate setup: one tally per kept window")
        let mut tallies: Vec<WindowTally> = (0..kept).map(|_| WindowTally::default()).collect();
        with_thread_scratch(g.num_nodes(), |scratch| {
            temporal_graph::slices::scan(g, window_len, |k, node, range| {
                let slot = slot_of[k];
                if slot != u32::MAX {
                    let t = &mut tallies[slot as usize];
                    t.touched = true;
                    count_node::<true, true, false>(
                        g,
                        node,
                        range,
                        delta,
                        &[],
                        scratch,
                        &mut t.tally,
                    );
                }
            });
        });
        tallies
    }

    /// Sequential driver, sparse slots: the coin is flipped lazily for
    /// the windows the lane walk actually encounters and tally slots are
    /// assigned in discovery order, then re-sorted into ascending window
    /// order for the deterministic fold. `O(runs)` memory regardless of
    /// how many (dead) windows tile the span.
    fn tally_sequential_sparse(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        window_len: Timestamp,
    ) -> Vec<WindowTally> {
        let mut slot_of: temporal_graph::util::FxHashMap<u64, u32> = Default::default();
        // hare-lint: allow(alloc, reason = "per-estimate setup: sparse tally list grows O(runs)")
        let mut tallies: Vec<(u64, WindowTally)> = Vec::new();
        with_thread_scratch(g.num_nodes(), |scratch| {
            temporal_graph::slices::scan(g, window_len, |k, node, range| {
                // The coin is a pure hash of (seed, k), so re-flipping it
                // per run is cheap and needs no memoisation.
                if !window_kept(self.cfg.seed, k as u64, self.cfg.prob) {
                    return;
                }
                let slot = *slot_of.entry(k as u64).or_insert_with(|| {
                    tallies.push((k as u64, WindowTally::default()));
                    (tallies.len() - 1) as u32
                });
                let t = &mut tallies[slot as usize].1;
                t.touched = true;
                count_node::<true, true, false>(g, node, range, delta, &[], scratch, &mut t.tally);
            });
        });
        // Ascending window order, same as the other drivers.
        tallies.sort_unstable_by_key(|&(k, _)| k);
        // hare-lint: allow(alloc, reason = "per-estimate teardown: strips window keys from the tallies")
        tallies.into_iter().map(|(_, t)| t).collect()
    }
}

/// Raw fused-kernel output of one window. Shared with the
/// bounded-memory streaming estimator ([`crate::stream_sample`]), whose
/// per-tick fold is the same math.
#[derive(Default)]
pub(crate) struct WindowTally {
    pub(crate) tally: CenterTally,
    /// `false` means the window had no runs at all (bursty graphs leave
    /// most windows dead) — the fold skips it without reading the cells.
    pub(crate) touched: bool,
}

/// Run the exact fused kernel over window `k`'s node slices with the
/// calling worker's scratch.
fn tally_window(
    g: &TemporalGraph,
    slices: &WindowSlices,
    k: usize,
    delta: Timestamp,
    scratch: &mut NeighborScratch,
) -> WindowTally {
    let mut tally = WindowTally::default();
    for s in slices.slices_of(k) {
        tally.touched = true;
        count_node::<true, true, false>(
            g,
            s.node,
            s.range(),
            delta,
            &[],
            scratch,
            &mut tally.tally,
        );
    }
    tally
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
pub(crate) fn fold_fractional(t: &WindowTally, tables: &FoldTables) -> [f64; 36] {
    let (star, pair, tri) = (&t.tally.star.cells, &t.tally.pair.cells, &t.tally.tri.cells);
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
        // would OOM — the sparse driver must finish instantly and still
        // count the clusters exactly at p = 1.
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

        // And the sparse sequential driver agrees bit-for-bit with the
        // (also sparse) parallel one at p < 1.
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
