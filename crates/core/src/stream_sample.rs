//! Bounded-memory approximate motif counting on unbounded streams.
//!
//! [`crate::windowed::WindowedCounter`] is exact but holds every live
//! edge, so its memory scales with the window content; [`crate::sample`]
//! is sublinear but batch-only. This module composes the two stories
//! into the estimator ROADMAP item 2 asks for: a [`StreamingEstimator`]
//! that ingests an unbounded edge stream under a **hard byte budget**
//! `B` and answers, at every tick, the windowed query *approximately*
//! with per-motif error bounds:
//!
//! 1. the time axis is cut into intervals of length `c·δ`. An interval
//!    is **complete** once the watermark has passed its right boundary
//!    by `δ` (its own edges and its boundary-correction tail are all
//!    final); incomplete intervals are retained provisionally at weight
//!    1, so the estimator observes every interval's true content before
//!    deciding its fate;
//! 2. on completion an interval joins the **coin tier**: kept with
//!    probability `p` by the same deterministic SplitMix64 coin as
//!    [`crate::sample::window_kept`] — a pure function of `(seed, k)`,
//!    so retention is order-free and replay-stable and no coin state is
//!    ever stored. A coin-tier edge is retained only if it can
//!    contribute to a kept interval: its own interval is kept, or it
//!    falls within `δ` after a kept interval's right boundary (the tail
//!    the exact kernel reads past each interval), or within `δ` before
//!    a kept interval's left boundary (the backward context the
//!    per-centre triangle attribution reads — a centre is booked under
//!    the interval of its *own* first edge, up to `δ` after the
//!    instance's earliest edge);
//! 3. a profitable interval (raw edges heavier than [`SUMMARY_BYTES`])
//!    **converts to a summary** the moment it completes, *before* it
//!    ever faces the coin: its exact 36-motif tally is computed by the
//!    fused kernel while its edges are still present at weight 1, then
//!    the edges are discarded — count it, don't store it. Observation
//!    is unbounded; only storage is budgeted, so a 500-edge burst
//!    shrinks from 8 000 bytes of raw edges to one 160-byte exact
//!    vector at zero statistical cost. Summaries are kept with the
//!    weight-proportional probability `π = min(1, m/τ, p_conv)` (motif
//!    mass `m = Σᵢxᵢ`, summary threshold `τ`, and the probability
//!    `p_conv` that the edges were still present at conversion — 1 for
//!    an eager conversion, the coin-tier `p` for a backlog interval
//!    converted from the coin tier) — probability-proportional-to-size
//!    over the value the estimator sums, so the heavy head that
//!    dominates a bursty stream's motif mass — and the honesty of any
//!    sampled variance estimate — survives at high probability,
//!    VarOpt-style. Only the light tail (intervals cheaper to store
//!    than to summarize) stays in the coin tier: many small
//!    exchangeable units, exactly the regime where Horvitz–Thompson
//!    variance estimates are honest and normal intervals attain
//!    nominal coverage;
//! 4. when the accounted bytes would exceed `B` the estimator
//!    escalates, in order: convert the heaviest convertible interval;
//!    **fold the oldest epoch of summaries into a bucket** — a frozen
//!    pair of fold accumulators (estimate and variance, at each
//!    summary's fold-time `1/π` weight) covering `W/8` of the time
//!    axis in [`BUCKET_BYTES`] accounted bytes, so deep-window summary
//!    mass stops paying per-interval rent; halve `p` or double `τ`
//!    (whichever tier holds more bytes), each a monotone re-filter
//!    (`kept(p/2) ⊆ kept(p)`, so eviction never needs edges back) that
//!    loops until at least one eviction lands; and only then trim
//!    oldest-first deterministically (reachable only when one interval
//!    alone exceeds `B`);
//! 5. a tick runs the **exact fused kernel** over the retained live
//!    edges. Incomplete intervals contribute at weight 1, coin-kept
//!    intervals at `1/p`, each kept summary adds its exact vector at
//!    `1/π`, and each bucket adds its frozen accumulators verbatim.
//!    The per-motif variance sums the Horvitz–Thompson tier terms
//!    `(1−p)/p²·Σx²`, `Σ(1−π)/π²·x²`, and the buckets' frozen variance
//!    into the normal-CI math of [`crate::sample`], plus a
//!    deterministic widening for the `f32` storage rounding of
//!    summaries and buckets (docs/ESTIMATORS.md derives all terms).
//!
//! The degenerate case is load-bearing: while the budget never binds
//! (`p = 1`, no conversion or trim ever ran), the reservoir *is* the
//! live window and every tick is bit-identical (after integer
//! round-trip) to [`crate::windowed::WindowedCounter`] — pinned by the
//! differential battery in `tests/stream_estimates.rs`.
//!
//! One approximation beyond sampling: a summary expires **wholesale**
//! when the window's trailing edge enters its interval (its frozen
//! vector cannot shed individual expired motifs), so the partial
//! suffix of that one interval is undercounted until it fully expires.
//! A bucket coarsens the same caveat to epoch granularity: it pops
//! only once its whole `W/8` epoch has left the window, and while the
//! trailing edge is *inside* the epoch the tick widens that bucket's
//! interval by its entire estimate (the straddle bound) rather than
//! pretending to know which part expired. This only occurs in the
//! budget-bound regime; exact engines and the `p = 1` path are
//! unaffected.
//!
//! Converted intervals can never rejoin the coin tier (their edges are
//! gone), so their indices are remembered until they expire with the
//! window — `O(W / (c·δ))` interval indices of control-plane metadata,
//! scaling with the window's interval count, not with stream content,
//! and hence excluded from the accounted data-plane bytes.
//!
//! Arrival semantics (reorder slack, acceptance floor, watermark and
//! expiry rules) mirror [`crate::windowed::WindowedCounter`] exactly, so
//! the two engines accept and drop the same edges on the same stream.
//!
//! ```
//! use hare::stream_sample::{StreamSampleConfig, StreamingEstimator};
//! let cfg = StreamSampleConfig::new(10, 50, 1 << 20); // δ=10, W=50, B=1 MiB
//! let mut est = StreamingEstimator::new(cfg);
//! est.push(0, 1, 100).unwrap();
//! est.push(1, 2, 105).unwrap();
//! est.push(2, 0, 108).unwrap(); // closes the cyclic triangle M26
//! let tick = est.estimates();
//! assert_eq!(tick.get(hare::motif::m(2, 6)).estimate, 1.0);
//! ```
//!
//! hare-lint: no-alloc

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::counters::{CenterTally, MotifMatrix};
use crate::motif::Motif;
use crate::sample::{
    fold_fractional, normal_quantile, tally_windows, window_kept, FoldTables, MotifEstimate,
};
use crate::windowed::StreamError;
use hare_obs::{NoopProbe, Phase, Probe};
use temporal_graph::{GraphBuilder, NodeId, TemporalGraph, Timestamp};

/// Accounted bytes per retained edge: the stored `(src, dst, t)` record
/// (4 + 4 + 8). The byte budget is enforced against
/// `retained_edges · EDGE_BYTES + summaries · SUMMARY_BYTES`.
pub const EDGE_BYTES: u64 = 16;

/// Accounted bytes per interval summary: 36 motif counts stored as
/// `f32` (exactly representable far past any single interval's count;
/// only the fused kernel's fractional folds round, at ~1e-7 relative),
/// the interval key, the interval's motif mass and its
/// conversion-time keep probability (144 + 8 + 4 + 4). Summaries only
/// exist in the sampled regime, so narrowing them never perturbs the
/// bit-exact `p = 1` path — and at half the footprint the budget holds
/// twice as many exact vectors before `τ` has to ration them.
/// Converting an interval is profitable once its raw edges outweigh
/// this, i.e. from 11 edges up.
pub const SUMMARY_BYTES: u64 = 160;

/// Accounted bytes per epoch bucket: a frozen per-epoch accumulator of
/// folded summary contributions — 36 motif estimate components and 36
/// variance components as `f32`, the epoch key and the fold counter
/// (144 + 144 + 8 + 4, rounded up for container overhead). Folding a
/// summary into its epoch bucket frees [`SUMMARY_BYTES`] at zero added
/// statistical cost (its Horvitz–Thompson weight and variance term are
/// frozen, not re-randomised), trading only expiry granularity: a
/// bucket expires wholesale once its whole epoch leaves the window.
pub const BUCKET_BYTES: u64 = 320;

/// Epochs per window for the bucket tier: folded mass is kept at
/// `window / 8` expiry granularity, so at most 9 buckets are ever live
/// and the bucket tier's accounted bytes are bounded by
/// `9 · BUCKET_BYTES` regardless of stream content.
const EPOCHS_PER_WINDOW: i64 = 8;

/// Beyond this many halvings `p < 2⁻⁶⁴` is below the coin's resolution:
/// further halving cannot evict anything, so the budget loop stops
/// re-filtering the edge tier.
const LEVELS_MAX: u32 = 64;

/// Cap on summary-threshold doublings: at `τ = 2⁹⁶` even a `u32::MAX`
/// motif mass gives `π ≤ 2⁻⁶⁴`, below the coin's resolution.
const TAU_LOG2_MAX: u32 = 96;

/// Configuration of the bounded-memory streaming estimator.
#[derive(Debug, Clone)]
pub struct StreamSampleConfig {
    /// The motif window δ (max span of an instance's 3 edges).
    pub delta: Timestamp,
    /// The sliding window width `W >= δ`: an edge at `t` is live while
    /// `watermark - t <= W` (identical to
    /// [`crate::windowed::WindowedCounter`]).
    pub window: Timestamp,
    /// Reorder bound: an arrival is accepted iff its timestamp is
    /// `>= max_seen - slack` (and not behind an explicit watermark).
    pub slack: Timestamp,
    /// The hard memory budget `B` in bytes. The reservoir's accounted
    /// bytes ([`StreamingEstimator::retained_bytes`]) never exceed it:
    /// `p` adapts downward as the stream fills the budget.
    pub budget_bytes: u64,
    /// Interval length factor `c ≥ 1`: the time axis is cut into
    /// intervals of length `c·δ` (same role as
    /// [`crate::sample::SampleConfig::window_factor`]).
    pub window_factor: i64,
    /// Confidence level of the per-tick intervals, in `(0, 1)`.
    pub confidence: f64,
    /// Seed of the per-interval retention coins. Same seed + same
    /// stream ⇒ bit-identical ticks, in any arrival order the slack
    /// admits.
    pub seed: u64,
    /// Worker threads for the per-tick interval tally: `1` counts
    /// sequentially, `0` uses all cores, `n` uses `n` clamped to the
    /// machine's cores ([`crate::exec::workers`]). Ticks are
    /// bit-identical across thread counts.
    pub threads: usize,
}

impl StreamSampleConfig {
    /// A configuration with the given δ, window width and byte budget,
    /// and the default sampling knobs (`window_factor = 10`,
    /// `confidence = 0.95`, `seed = 0x5EED`, `slack = 0`, sequential).
    #[must_use]
    pub fn new(delta: Timestamp, window: Timestamp, budget_bytes: u64) -> StreamSampleConfig {
        StreamSampleConfig {
            delta,
            window,
            slack: 0,
            budget_bytes,
            window_factor: 10,
            confidence: 0.95,
            seed: 0x5EED,
            threads: 1,
        }
    }
}

/// One retained edge of the reservoir, stored in processed `(t, seq)`
/// order (non-decreasing `t`, ties in arrival order — the same total
/// order the exact windowed engine uses).
#[derive(Debug, Clone, Copy)]
struct Retained {
    src: NodeId,
    dst: NodeId,
    t: Timestamp,
}

/// A converted interval: its exact 36-motif tally (first-edge
/// attribution, δ-tail included), frozen at conversion time, plus the
/// data its keep probability `π = min(1, mass/τ, p_conv)` needs.
#[derive(Debug, Clone)]
struct Summary {
    /// Exact folded motif counts of the interval, row-major. Stored
    /// narrow — the [`SUMMARY_BYTES`] accounting is honest — and
    /// widened back to `f64` at every read.
    x: [f32; 36],
    /// The interval's total motif mass `Σᵢ xᵢ` (the weight driving
    /// `π`; always `> 0` — zero-mass vectors are discarded for free).
    mass: f32,
    /// The coin-tier `p` in force when the interval converted: the
    /// tightest edge-tier threshold its coin has already survived, so
    /// the summary's inclusion probability can never exceed it.
    p_conv: f32,
}

/// A frozen per-epoch accumulator of folded summaries: each fold adds
/// the summary's Horvitz–Thompson contribution `x/π` and its variance
/// term `(1−π)/π²·x²` at the `π` in force at fold time, after which
/// neither is ever re-randomised — later `τ` doublings cannot touch
/// folded mass. Components are non-negative, so the accumulated `f32`
/// rounding error is bounded by `folds · ε₃₂ · est` per component.
#[derive(Debug, Clone)]
struct Bucket {
    /// Accumulated weighted estimate components, row-major.
    est: [f32; 36],
    /// Accumulated Horvitz–Thompson variance components, row-major.
    var: [f32; 36],
    /// Number of summaries folded in (drives the rounding bound).
    folds: u32,
}

/// Per-tick output of the estimator: 36 per-motif estimates with error
/// bounds, plus the tick's sampling and reservoir metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEstimates {
    cells: [[MotifEstimate; 6]; 6],
    exact: Option<MotifMatrix>,
    /// The coin-tier interval keep probability in force at this tick.
    pub prob: f64,
    /// The confidence level of the per-motif intervals.
    pub confidence: f64,
    /// The motif window δ.
    pub delta: Timestamp,
    /// The sliding window width `W`.
    pub window: Timestamp,
    /// The retention interval length `c·δ` (clamped to at least 1).
    pub interval_len: Timestamp,
    /// The watermark the tick was computed at (`None` before any edge
    /// is processed or watermark advanced).
    pub watermark: Option<Timestamp>,
    /// Number of live edges in the reservoir at this tick.
    pub retained_edges: usize,
    /// Accounted reservoir bytes at this tick (`retained_edges ·
    /// EDGE_BYTES + summaries · SUMMARY_BYTES`), never above the
    /// budget.
    pub retained_bytes: u64,
    /// The configured hard budget `B` in bytes.
    pub budget_bytes: u64,
    /// Number of complete coin-kept intervals whose raw edges
    /// contributed at least one first-edge run to this tick's kernel
    /// pass (weight `1/p`).
    pub intervals_sampled: usize,
    /// Number of incomplete intervals (the provisional head of the
    /// stream) that contributed at least one first-edge run at
    /// weight 1.
    pub intervals_exact: usize,
    /// Number of kept interval summaries folded into this tick, each
    /// at weight `1/π`.
    pub intervals_summarized: usize,
}

impl StreamEstimates {
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

    /// The exact live-window counts, available only while the budget
    /// has never bound (`p = 1`, no conversion or trim: the degenerate
    /// configuration is bit-identical to
    /// [`crate::windowed::WindowedCounter::counts`]).
    #[must_use]
    pub fn as_exact(&self) -> Option<MotifMatrix> {
        self.exact
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

/// Bounded-memory per-tick motif estimation over an unbounded edge
/// stream (see the module docs for the design).
///
/// Ingestion mirrors [`crate::windowed::WindowedCounter`] verb for verb
/// — [`StreamingEstimator::push`], [`StreamingEstimator::advance_to`],
/// [`StreamingEstimator::flush`] accept, buffer, reject and expire the
/// same edges on the same stream — but instead of exact live-window
/// counters it maintains a seeded interval reservoir plus exact
/// interval summaries and recomputes unbiased estimates on demand with
/// [`StreamingEstimator::estimates`].
#[derive(Debug, Clone)]
pub struct StreamingEstimator {
    cfg: StreamSampleConfig,
    interval_len: Timestamp,
    /// Number of coin-tier halvings applied so far: `p = 2^-levels`.
    levels: u32,
    /// Number of summary-threshold doublings so far: `τ = 2^tau_log2`.
    tau_log2: u32,
    buffer: BTreeMap<(Timestamp, u64), (NodeId, NodeId)>,
    retained: VecDeque<Retained>,
    /// Kept summaries: `interval index → exact summary`, every entry
    /// kept under its own coin at `π = min(1, mass/τ, p_conv)`.
    summaries: BTreeMap<i64, Summary>,
    /// Epoch buckets: `epoch index → frozen fold accumulator`. An
    /// epoch spans `max(window / 8, interval_len)` of stream time.
    buckets: BTreeMap<i64, Bucket>,
    /// Epoch length of the bucket tier (absolute stream time).
    epoch_len: Timestamp,
    /// Every interval ever converted (⊇ `summaries`): once an
    /// interval's edges were traded for a summary they are gone, so it
    /// must never rejoin the coin tier or convert again — even after
    /// its summary is evicted by a rising `τ`. Expires with the window;
    /// O(W / (c·δ)) interval indices of metadata, excluded from the
    /// accounted data-plane bytes (see [`Self::retained_bytes`]).
    converted: BTreeSet<i64>,
    /// First incomplete interval: everything strictly below is
    /// complete (own edges and δ-tail final) and subject to the coin.
    complete_floor: Option<i64>,
    /// Largest interval index ever hit by a last-resort oldest-first
    /// trim: such intervals have lost edges deterministically and must
    /// never convert to a (wrong) "exact" summary.
    trim_ceiling: Option<i64>,
    /// Set once any conversion or last-resort trim ran: the retained
    /// edges alone no longer reproduce the live window, so the `p = 1`
    /// bit-exact path is off even if `levels == 0`.
    dirty: bool,
    watermark: Option<Timestamp>,
    max_seen: Option<Timestamp>,
    hard_floor: Option<Timestamp>,
    next_seq: u64,
    accepted: u64,
}

impl StreamingEstimator {
    /// New estimator with the given configuration.
    ///
    /// # Panics
    /// Panics unless `0 <= delta <= window`, `slack >= 0`,
    /// `window_factor >= 1` and `confidence` is in `(0, 1)`.
    #[must_use]
    pub fn new(cfg: StreamSampleConfig) -> StreamingEstimator {
        assert!(cfg.delta >= 0, "delta must be non-negative");
        assert!(cfg.window >= cfg.delta, "window must be at least delta");
        assert!(cfg.slack >= 0, "slack must be non-negative");
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
        let interval_len = cfg.delta.max(0).saturating_mul(cfg.window_factor).max(1);
        let epoch_len = cfg
            .window
            .div_euclid(EPOCHS_PER_WINDOW)
            .max(interval_len)
            .max(1);
        StreamingEstimator {
            cfg,
            interval_len,
            epoch_len,
            levels: 0,
            tau_log2: 0,
            buffer: BTreeMap::new(),
            retained: VecDeque::new(),
            summaries: BTreeMap::new(),
            buckets: BTreeMap::new(),
            converted: BTreeSet::new(),
            complete_floor: None,
            trim_ceiling: None,
            dirty: false,
            watermark: None,
            max_seen: None,
            hard_floor: None,
            next_seq: 0,
            accepted: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &StreamSampleConfig {
        &self.cfg
    }

    /// The retention interval length `c·δ` (clamped to at least 1).
    #[must_use]
    pub fn interval_len(&self) -> Timestamp {
        self.interval_len
    }

    /// The coin-tier interval keep probability currently in force
    /// (`2^-levels`; starts at 1 and halves as the stream fills the
    /// budget — it never recovers, so past coins stay valid).
    #[must_use]
    pub fn prob(&self) -> f64 {
        0.5f64.powi(self.levels as i32)
    }

    /// Current watermark: the largest processed timestamp or explicit
    /// [`StreamingEstimator::advance_to`] target, whichever is later.
    #[must_use]
    pub fn watermark(&self) -> Option<Timestamp> {
        self.watermark
    }

    /// Number of live edges currently held by the reservoir.
    #[must_use]
    pub fn retained_edges(&self) -> usize {
        self.retained.len()
    }

    /// Number of live interval summaries (converted intervals whose
    /// exact motif vectors replaced their raw edges).
    #[must_use]
    pub fn summarized_intervals(&self) -> usize {
        self.summaries.len()
    }

    /// Accounted bytes of the summary tier
    /// (`summaries · SUMMARY_BYTES`).
    #[must_use]
    pub fn summary_tier_bytes(&self) -> u64 {
        self.summaries.len() as u64 * SUMMARY_BYTES
    }

    /// The summary keep threshold `τ`: a summary holding motif mass
    /// `m` is kept with probability `min(1, m/τ)` (capped by the
    /// coin-tier `p` at its conversion). Starts at 1 and doubles under
    /// budget pressure, never recovering.
    #[must_use]
    pub fn summary_threshold(&self) -> f64 {
        self.tau()
    }

    /// How many epoch buckets currently hold folded summary mass.
    ///
    /// Non-zero means budget pressure has frozen at least one epoch's
    /// worth of summaries into deterministic fold accumulators — the
    /// estimator is genuinely sampling even if the live coin tiers
    /// look untightened (`prob == 1`, `summary_threshold == 1`).
    #[must_use]
    pub fn folded_epochs(&self) -> usize {
        self.buckets.len()
    }

    /// Accounted reservoir bytes: `retained_edges · EDGE_BYTES +
    /// summaries · SUMMARY_BYTES`. The budget invariant
    /// `retained_bytes() <= budget_bytes` holds after every operation.
    #[must_use]
    pub fn retained_bytes(&self) -> u64 {
        self.retained.len() as u64 * EDGE_BYTES
            + self.summary_tier_bytes()
            + self.buckets.len() as u64 * BUCKET_BYTES
    }

    /// The configured hard budget `B` in bytes.
    #[must_use]
    pub fn budget_bytes(&self) -> u64 {
        self.cfg.budget_bytes
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
    /// `None` while everything is acceptable (identical to
    /// [`crate::windowed::WindowedCounter::accept_floor`]).
    #[must_use]
    pub fn accept_floor(&self) -> Option<Timestamp> {
        let slack_floor = self.max_seen.map(|m| m.saturating_sub(self.cfg.slack));
        match (self.hard_floor, slack_floor) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Ingest one edge, with the exact acceptance semantics of
    /// [`crate::windowed::WindowedCounter::push`].
    ///
    /// # Errors
    /// [`StreamError::OutOfOrder`] if `t` is below
    /// [`Self::accept_floor`]; [`StreamError::SelfLoop`] if
    /// `src == dst`.
    pub fn push(&mut self, src: NodeId, dst: NodeId, t: Timestamp) -> Result<(), StreamError> {
        self.push_probed(src, dst, t, &NoopProbe)
    }

    /// [`StreamingEstimator::push`] with a [`Probe`] observing the
    /// ingest path: [`Phase::Evict`] wraps budget-pressure eviction
    /// work triggered by this arrival. Retained state and estimates are
    /// bit-identical across probe implementations.
    ///
    /// # Errors
    /// Exactly as [`StreamingEstimator::push`].
    pub fn push_probed<P: Probe>(
        &mut self,
        src: NodeId,
        dst: NodeId,
        t: Timestamp,
        probe: &P,
    ) -> Result<(), StreamError> {
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
        let release_to = self
            .max_seen
            .expect("just set")
            .saturating_sub(self.cfg.slack);
        self.release_until(release_to, probe);
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
        self.release_until(t, &NoopProbe);
        self.hard_floor = Some(self.hard_floor.map_or(t, |f| f.max(t)));
        self.watermark = Some(self.watermark.map_or(t, |w| w.max(t)));
        self.settle_completed();
        self.expire();
    }

    /// Drain the reorder buffer, processing every accepted arrival.
    /// After a flush, arrivals older than the largest timestamp seen are
    /// rejected.
    pub fn flush(&mut self) {
        self.flush_probed(&NoopProbe);
    }

    /// [`StreamingEstimator::flush`] with a [`Probe`] observing the
    /// drain ([`Phase::Evict`] around budget-pressure eviction work).
    /// Bit-identical to [`StreamingEstimator::flush`] for every probe.
    pub fn flush_probed<P: Probe>(&mut self, probe: &P) {
        if let Some(max) = self.max_seen {
            self.release_until(max, probe);
            self.hard_floor = Some(self.hard_floor.map_or(max, |f| f.max(max)));
        }
    }

    /// Process buffered arrivals with `t <= cutoff`, in `(t, seq)`
    /// order.
    fn release_until<P: Probe>(&mut self, cutoff: Timestamp, probe: &P) {
        while let Some((&(t, _), _)) = self.buffer.first_key_value() {
            if t > cutoff {
                break;
            }
            let ((t, _), (src, dst)) = self.buffer.pop_first().expect("non-empty");
            self.process(src, dst, t, probe);
        }
    }

    /// Admit one released edge: advance the watermark, expire, retain
    /// the edge provisionally (its interval is incomplete by
    /// construction), settle any intervals the watermark completed, and
    /// enforce the byte budget.
    fn process<P: Probe>(&mut self, src: NodeId, dst: NodeId, t: Timestamp, probe: &P) {
        debug_assert!(self.watermark.is_none_or(|w| t >= w));
        self.watermark = Some(self.watermark.map_or(t, |w| w.max(t)));
        self.expire();
        self.retained.push_back(Retained { src, dst, t });
        self.settle_completed();
        probe.span(Phase::Evict, || self.enforce_budget());
    }

    /// First incomplete interval: `(watermark − δ) / len`. Intervals
    /// strictly below are final (no acceptable arrival can land in
    /// them or their δ-tail any more).
    fn floor(&self) -> i64 {
        self.complete_floor.unwrap_or(i64::MIN)
    }

    /// Advance the completion floor to match the watermark and
    /// coin-filter the edges of every newly completed interval. The
    /// affected edges form a suffix of the reservoir (everything at or
    /// after the old floor's left boundary), so a pop-back walk
    /// touches only the provisional head.
    fn settle_completed(&mut self) {
        let Some(wm) = self.watermark else { return };
        let new_floor = wm
            .saturating_sub(self.cfg.delta)
            .div_euclid(self.interval_len);
        let Some(old) = self.complete_floor else {
            self.complete_floor = Some(new_floor);
            return;
        };
        if new_floor <= old {
            return;
        }
        self.complete_floor = Some(new_floor);
        // Once the budget has ever bound, profitable intervals convert
        // EAGERLY at completion — before the coin walk below ever sees
        // them. A just-completed interval was weight-1 provisional head
        // a moment ago, so its inclusion probability is still 1 and the
        // summary coin starts at the uncapped `π = min(1, mass/τ)`
        // (`p_conv = 1`): heavy mass reaches the summary tier
        // deterministically instead of facing the edge-tier `p` coin,
        // which would erase both the mass and its variance signal on a
        // loss. Before the budget binds nothing converts, preserving
        // the degenerate exact path.
        if self.dirty {
            self.eager_convert_completed(old, new_floor);
        }
        // Walk back past the old floor's backward-context zone too, so
        // context edges retained for a now-completed (and possibly
        // coin-dropped) interval are re-filtered rather than lingering.
        let lo = old
            .saturating_mul(self.interval_len)
            .saturating_sub(self.cfg.delta);
        // hare-lint: allow(alloc, reason = "settle scratch: only the provisional head of the reservoir")
        let mut tail: Vec<Retained> = Vec::new();
        while self.retained.back().is_some_and(|e| e.t >= lo) {
            tail.push(self.retained.pop_back().expect("non-empty"));
        }
        let (il, delta, seed, p) = (
            self.interval_len,
            self.cfg.delta,
            self.cfg.seed,
            self.prob(),
        );
        let converted = &self.converted;
        for e in tail.into_iter().rev() {
            if keeps_at(e.t, il, delta, seed, p, new_floor, converted) {
                self.retained.push_back(e);
            }
        }
    }

    /// Convert every profitable interval in `[old, new_floor)` the
    /// moment it completes, at conversion probability 1 (the interval
    /// has never faced a coin). Shares the eligibility guards of
    /// [`Self::best_convertible`] minus the coin test: clear of the
    /// trimmed zone, fully inside the window, not already converted,
    /// and heavier than [`SUMMARY_BYTES`].
    fn eager_convert_completed(&mut self, old: i64, new_floor: i64) {
        let il = self.interval_len;
        let zone_lo = old.saturating_mul(il);
        // hare-lint: allow(alloc, reason = "settle scratch: per-interval edge counts of the newly completed zone")
        let mut counts: Vec<(i64, u32)> = Vec::new();
        for e in self.retained.iter().rev() {
            if e.t < zone_lo {
                break;
            }
            let k = e.t.div_euclid(il);
            if k >= new_floor {
                continue;
            }
            match counts.last_mut() {
                Some((ck, c)) if *ck == k => *c += 1,
                _ => counts.push((k, 1)),
            }
        }
        for &(k, c) in counts.iter().rev() {
            if u64::from(c) * EDGE_BYTES <= SUMMARY_BYTES
                || self.converted.contains(&k)
                || self.trim_ceiling.is_some_and(|t| k <= t.saturating_add(1))
                || self.watermark.is_some_and(|wm| {
                    k.saturating_mul(il).saturating_sub(self.cfg.delta)
                        < wm.saturating_sub(self.cfg.window)
                })
            {
                continue;
            }
            self.convert_with(k, 1.0);
        }
    }

    /// Drop reservoir state that has fallen out of the live window
    /// (`watermark - t > W`). The reservoir is in non-decreasing `t`
    /// order, so edge expiry is a front pop; a summary expires
    /// wholesale once the window's trailing edge reaches its interval
    /// start (see the module docs for the boundary caveat).
    fn expire(&mut self) {
        let Some(wm) = self.watermark else { return };
        while let Some(&front) = self.retained.front() {
            if wm.saturating_sub(front.t) <= self.cfg.window {
                break;
            }
            self.retained.pop_front();
        }
        while let Some((&k, _)) = self.summaries.first_key_value() {
            if wm.saturating_sub(k.saturating_mul(self.interval_len)) <= self.cfg.window {
                break;
            }
            self.summaries.pop_first();
        }
        while let Some(&k) = self.converted.first() {
            if wm.saturating_sub(k.saturating_mul(self.interval_len)) <= self.cfg.window {
                break;
            }
            self.converted.pop_first();
        }
        // A bucket holds an epoch's folded mass wholesale, so it pops
        // only once the entire epoch has left the window; while the
        // window's trailing edge is inside the epoch the full vector
        // still counts and the tick widens its interval by the
        // bucket's estimate instead (the straddle bound).
        while let Some((&b, _)) = self.buckets.first_key_value() {
            let epoch_end = b.saturating_add(1).saturating_mul(self.epoch_len);
            if wm.saturating_sub(epoch_end) <= self.cfg.window {
                break;
            }
            self.buckets.pop_first();
        }
    }

    /// Restore `retained_bytes() <= budget_bytes`, in escalation order:
    ///
    /// 1. conversion — the heaviest convertible interval becomes an
    ///    exact [`SUMMARY_BYTES`] summary (frees bytes at zero
    ///    statistical cost while its coin survives `π`). With eager
    ///    conversion in [`Self::settle_completed`] this is mostly the
    ///    backlog path for intervals completed before the budget first
    ///    bound;
    /// 2. fold — the oldest epoch's summaries collapse into one
    ///    [`BUCKET_BYTES`] bucket whenever that is net-byte-positive,
    ///    freezing their `1/π`-weighted estimate and variance;
    /// 3. halve `p` / double `τ` — whichever tier holds more bytes is
    ///    re-filtered under progressively tighter thresholds (a
    ///    monotone shrink) until at least one eviction lands. A tier
    ///    only engages while its own bytes could plausibly cover the
    ///    deficit, and if its cap is reached with zero evictions the
    ///    threshold is reverted wholesale (bytes are monotone under
    ///    re-filtering, so nothing ever faced a losing coin and the
    ///    old state is restored exactly) — both guards keep a
    ///    transient local squeeze (e.g. one burst filling the
    ///    provisional head) from irreversibly destroying the global
    ///    sampling probability;
    /// 4. last resort — drop the oldest summary, then trim the oldest
    ///    retained edges deterministically (reachable when the weight-1
    ///    provisional head alone exceeds the budget; trims that data's
    ///    contribution downward and poisons the trimmed intervals
    ///    against conversion).
    fn enforce_budget(&mut self) {
        while self.retained_bytes() > self.cfg.budget_bytes {
            if let Some(k) = self.best_convertible() {
                self.convert(k);
                continue;
            }
            if self.fold_oldest_epoch() {
                continue;
            }
            let before = self.retained_bytes();
            let deficit = before - self.cfg.budget_bytes;
            let edge_bytes = self.sampled_edge_bytes();
            let summary_bytes = self.summary_tier_bytes();
            let can_halve = self.levels < LEVELS_MAX && edge_bytes >= deficit;
            let can_raise = self.tau_log2 < TAU_LOG2_MAX && summary_bytes >= deficit;
            if can_halve && (!can_raise || edge_bytes >= summary_bytes) {
                let saved = self.levels;
                while self.levels < LEVELS_MAX && self.retained_bytes() == before {
                    self.levels += 1;
                    self.refilter_edges();
                }
                if self.retained_bytes() < before {
                    continue;
                }
                // Cap reached with zero evictions: bytes are monotone
                // under re-filtering, so nothing ever faced a losing
                // coin — reverting wholesale restores the exact state.
                self.levels = saved;
            }
            if can_raise {
                let saved = self.tau_log2;
                while self.tau_log2 < TAU_LOG2_MAX && self.retained_bytes() == before {
                    self.tau_log2 += 1;
                    self.refilter_summaries();
                }
                if self.retained_bytes() < before {
                    continue;
                }
                self.tau_log2 = saved;
            }
            if !self.summaries.is_empty() {
                self.dirty = true;
                self.summaries.pop_first();
            } else {
                let e = self.retained.pop_front().expect("over budget ⇒ non-empty");
                self.dirty = true;
                let k = e.t.div_euclid(self.interval_len);
                self.trim_ceiling = Some(self.trim_ceiling.map_or(k, |c| c.max(k)));
            }
        }
    }

    /// Accounted bytes of coin-tier edges (complete intervals only):
    /// the bytes a `p` halving can actually evict.
    fn sampled_edge_bytes(&self) -> u64 {
        let (il, floor) = (self.interval_len, self.floor());
        self.retained
            .iter()
            .filter(|e| e.t.div_euclid(il) < floor)
            .count() as u64
            * EDGE_BYTES
    }

    /// Re-filter the reservoir under the current thresholds.
    fn refilter_edges(&mut self) {
        let (il, delta, seed, p, floor) = (
            self.interval_len,
            self.cfg.delta,
            self.cfg.seed,
            self.prob(),
            self.floor(),
        );
        let converted = &self.converted;
        self.retained
            .retain(|e| keeps_at(e.t, il, delta, seed, p, floor, converted));
    }

    /// Re-filter the summary tier under the current `τ`.
    fn refilter_summaries(&mut self) {
        let (seed, tau) = (self.cfg.seed, self.tau());
        self.summaries.retain(|&k, s| {
            window_kept(
                seed,
                k as u64,
                summary_pi(f64::from(s.mass), f64::from(s.p_conv), tau),
            )
        });
    }

    /// The summary threshold `τ = 2^tau_log2`.
    fn tau(&self) -> f64 {
        2f64.powi(self.tau_log2 as i32)
    }

    /// The bucket epoch holding interval `k`.
    fn epoch_of(&self, k: i64) -> i64 {
        k.saturating_mul(self.interval_len)
            .div_euclid(self.epoch_len)
    }

    /// Fold every kept summary of the oldest summary-bearing epoch
    /// into that epoch's bucket, freeing `SUMMARY_BYTES` each at zero
    /// added statistical cost: the contribution `x/π` and the variance
    /// term `(1−π)/π²·x²` are frozen at the `π` in force now — the
    /// inclusion probability each summary's coin has survived so far —
    /// so the fold re-randomises nothing. Refuses folds that would not
    /// free bytes net of a newly created bucket. Returns whether any
    /// fold ran.
    fn fold_oldest_epoch(&mut self) -> bool {
        let Some((&first, _)) = self.summaries.first_key_value() else {
            return false;
        };
        let epoch = self.epoch_of(first);
        let in_epoch = self
            .summaries
            .keys()
            .take_while(|&&k| self.epoch_of(k) == epoch)
            .count() as u64;
        let fresh_cost = if self.buckets.contains_key(&epoch) {
            0
        } else {
            BUCKET_BYTES
        };
        if in_epoch * SUMMARY_BYTES <= fresh_cost {
            return false;
        }
        let tau = self.tau();
        // hare-lint: allow(alloc, reason = "bucket tier: at most 9 live BUCKET_BYTES accumulators, accounted against the budget")
        let bucket = self.buckets.entry(epoch).or_insert(Bucket {
            est: [0.0; 36],
            var: [0.0; 36],
            folds: 0,
        });
        while let Some(entry) = self.summaries.first_entry() {
            let k = *entry.key();
            if k.saturating_mul(self.interval_len)
                .div_euclid(self.epoch_len)
                != epoch
            {
                break;
            }
            let s = entry.remove();
            let pi = summary_pi(f64::from(s.mass), f64::from(s.p_conv), tau);
            let factor = (1.0 - pi).max(0.0) / (pi * pi);
            for i in 0..36 {
                let x = f64::from(s.x[i]);
                bucket.est[i] = (f64::from(bucket.est[i]) + x / pi) as f32;
                bucket.var[i] = (f64::from(bucket.var[i]) + factor * x * x) as f32;
            }
            bucket.folds += 1;
        }
        true
    }

    /// The heaviest convertible interval: complete, coin-kept, never
    /// converted, clear of any trimmed zone (its backward context must
    /// be intact too, hence the `+ 1`), fully inside the live window,
    /// and heavy enough that a summary is smaller than its raw edges.
    /// Ties break toward the older interval. The reservoir is
    /// `t`-sorted, so one pass over consecutive runs counts every
    /// interval.
    fn best_convertible(&self) -> Option<i64> {
        let (il, seed, p, floor) = (self.interval_len, self.cfg.seed, self.prob(), self.floor());
        let mut best: Option<(u32, i64)> = None;
        let mut consider = |k: i64, c: u32| {
            if k >= floor
                || self.trim_ceiling.is_some_and(|t| k <= t.saturating_add(1))
                || self.converted.contains(&k)
                || u64::from(c) * EDGE_BYTES <= SUMMARY_BYTES
                || !window_kept(seed, k as u64, p)
                || self.watermark.is_some_and(|wm| {
                    k.saturating_mul(il).saturating_sub(self.cfg.delta)
                        < wm.saturating_sub(self.cfg.window)
                })
            {
                return;
            }
            if best.is_none_or(|(bc, bk)| c > bc || (c == bc && k < bk)) {
                best = Some((c, k));
            }
        };
        let mut cur: Option<(i64, u32)> = None;
        for e in &self.retained {
            let k = e.t.div_euclid(il);
            match cur {
                Some((ck, c)) if ck == k => cur = Some((ck, c + 1)),
                Some((ck, c)) => {
                    consider(ck, c);
                    cur = Some((k, 1));
                }
                None => cur = Some((k, 1)),
            }
        }
        if let Some((ck, c)) = cur {
            consider(ck, c);
        }
        best.map(|(_, k)| k)
    }

    /// Convert interval `k` into an exact summary: run the fused
    /// kernel over its retained edges plus δ of backward context and
    /// the δ-tail (all present — a kept interval retains its full
    /// content and both flanks), freeze the folded 36-motif vector,
    /// then drop every edge the summary makes redundant. The summary's
    /// coin is evaluated at `π = min(1, mass/τ, p)`; if it fails, the
    /// interval is evicted outright under that tighter threshold (only
    /// flank edges a contributing neighbour still reads survive).
    fn convert(&mut self, k: i64) {
        self.convert_with(k, self.prob());
    }

    /// [`Self::convert`] at an explicit conversion probability: the
    /// probability the interval's edges had of still being present at
    /// the moment of conversion (`p` from the coin tier, or 1 for an
    /// eager conversion of a just-completed, never-sampled interval).
    fn convert_with(&mut self, k: i64, p_conv: f64) {
        self.dirty = true;
        let (il, delta, seed) = (self.interval_len, self.cfg.delta, self.cfg.seed);
        let lo = k.saturating_mul(il);
        let mid = lo.saturating_add(il);
        let hi = mid.saturating_add(delta);
        let ctx = lo.saturating_sub(delta);
        // hare-lint: allow(alloc, reason = "conversion scratch: one interval's edges plus its δ flanks become a throwaway graph")
        let mut b = GraphBuilder::new();
        for e in &self.retained {
            if e.t >= ctx && e.t < hi {
                b.add_edge(e.src, e.dst, e.t);
            }
        }
        let g = b.build();
        let tally = tally_windows(&g, delta, 1, 0, il, |kk| kk == i128::from(k))
            .pop()
            .map_or_else(CenterTally::default, |(_, t)| t);
        let full = fold_fractional(&tally, &FoldTables::new());
        let x = full.map(|v| v as f32);
        let mass: f64 = full.iter().sum();
        let pi = summary_pi(mass, p_conv, self.tau());
        // Converted either way: the summary coin decides whether the
        // frozen vector is kept, not whether the edges come back. A
        // zero-mass interval stores nothing — its vector contributes
        // nothing, so discarding it is free, not sampling.
        self.converted.insert(k);
        if mass > 0.0 && window_kept(seed, k as u64, pi) {
            // hare-lint: allow(alloc, reason = "summary tier: one SUMMARY_BYTES entry per converted interval, accounted against the budget")
            // p is always a power of two, so the narrowing is exact.
            self.summaries.insert(
                k,
                Summary {
                    x,
                    mass: mass as f32,
                    p_conv: p_conv as f32,
                },
            );
        }
        // Re-filter the interval and both flanks: `keeps_at` now sees
        // `k` as converted, so only edges a contributing neighbour
        // still reads survive.
        let (p, floor) = (self.prob(), self.floor());
        let converted = &self.converted;
        self.retained.retain(|e| {
            e.t < ctx || e.t >= hi || keeps_at(e.t, il, delta, seed, p, floor, converted)
        });
    }

    /// Compute the tick estimates: rebuild a [`TemporalGraph`] from the
    /// retained live edges, run the exact fused kernel restricted to
    /// first-edge positions in contributing intervals, fold incomplete
    /// intervals at weight 1 and coin-kept intervals at `1/p`, and add
    /// every kept summary's exact vector at `1/π`, with the per-motif
    /// variance summing both tiers' Horvitz–Thompson terms into the
    /// normal-CI math of [`crate::sample`].
    ///
    /// While the budget has never bound this is the exact live-window
    /// count (integer-valued estimates, zero stderr, degenerate
    /// intervals), bit-identical to
    /// [`crate::windowed::WindowedCounter::counts`] on the same stream.
    #[must_use]
    pub fn estimates(&self) -> StreamEstimates {
        self.estimates_probed(&NoopProbe)
    }

    /// [`StreamingEstimator::estimates`] with a [`Probe`] observing the
    /// tick: the whole rebuild-count-reduce pass is attributed to
    /// [`Phase::Summarise`]. Bit-identical to
    /// [`StreamingEstimator::estimates`] for every probe.
    #[must_use]
    pub fn estimates_probed<P: Probe>(&self, probe: &P) -> StreamEstimates {
        probe.span(Phase::Summarise, || self.estimates_inner())
    }

    fn estimates_inner(&self) -> StreamEstimates {
        // hare-lint: allow(alloc, reason = "per-tick setup: the retained live edges become one graph")
        let mut b = GraphBuilder::new();
        for e in &self.retained {
            b.add_edge(e.src, e.dst, e.t);
        }
        let g = b.build();
        let p = self.prob();
        let z = normal_quantile(0.5 + self.cfg.confidence / 2.0);
        let mut cells = [[MotifEstimate::default(); 6]; 6];
        let mut exact = None;
        let intervals_sampled;
        let intervals_exact;
        let intervals_summarized = self.summaries.len();

        if self.levels == 0 && !self.dirty {
            // Degenerate exact path: the budget never bound, so the
            // batch count over the retained (= live) edges *is* the
            // windowed count — integer round-trip, zero-width intervals.
            let counts = crate::count_motifs(&g, self.cfg.delta).matrix;
            for (m, n) in counts.iter() {
                let estimate = n as f64;
                cells[m.row() as usize - 1][m.col() as usize - 1] = MotifEstimate {
                    estimate,
                    stderr: 0.0,
                    ci_lo: estimate,
                    ci_hi: estimate,
                };
            }
            let (exact_n, coin_n) = self.count_nonempty_intervals(&g);
            intervals_exact = exact_n;
            intervals_sampled = coin_n;
            exact = Some(counts);
        } else {
            let tallies = self.tally_tiers(&g);
            let split = tallies.partition_point(|&(k, _)| k < i128::from(self.floor()));
            let (coin_tallies, exact_tallies) = tallies.split_at(split);
            intervals_exact = exact_tallies.len();
            intervals_sampled = coin_tallies.len();
            let tables = FoldTables::new();
            let mut exact_total = CenterTally::default();
            for (_, t) in exact_tallies {
                exact_total.merge(t);
            }
            let exact_base = fold_fractional(&exact_total, &tables);
            let mut total = CenterTally::default();
            let mut var = [0.0f64; 36];
            let coin_factor = (1.0 - p).max(0.0) / (p * p);
            for (_, t) in coin_tallies {
                total.merge(t);
                let x = fold_fractional(t, &tables);
                for (s, v) in var.iter_mut().zip(x) {
                    *s += coin_factor * v * v;
                }
            }
            let base = fold_fractional(&total, &tables);
            let tau = self.tau();
            let mut summary_est = [0.0f64; 36];
            // Deterministic bound on the f32 storage rounding of the
            // summary vectors: each component is off by at most one
            // half-ulp, |x₃₂ − x| ≤ |x₃₂|·ε₃₂. Widens the interval
            // additively so that summary-dominated cells with zero
            // sampling variance still cover the exact value.
            let mut quant = [0.0f64; 36];
            for s in self.summaries.values() {
                let pi = summary_pi(f64::from(s.mass), f64::from(s.p_conv), tau);
                let factor = (1.0 - pi).max(0.0) / (pi * pi);
                for i in 0..36 {
                    let x = f64::from(s.x[i]);
                    summary_est[i] += x / pi;
                    var[i] += factor * x * x;
                    quant[i] += x.abs() * f64::from(f32::EPSILON) / pi;
                }
            }
            let wstart = self.watermark.map(|wm| wm.saturating_sub(self.cfg.window));
            for (&b, bucket) in &self.buckets {
                // If the window's trailing edge is inside this epoch,
                // part of the folded mass has expired but cannot be
                // shed — the deterministic straddle bound widens the
                // interval by the whole bucket estimate instead.
                let straddles = wstart.is_some_and(|ws| b.saturating_mul(self.epoch_len) < ws);
                let rounding = f64::from(bucket.folds) * f64::from(f32::EPSILON);
                for i in 0..36 {
                    let e = f64::from(bucket.est[i]);
                    summary_est[i] += e;
                    var[i] += f64::from(bucket.var[i]);
                    quant[i] += e * rounding + if straddles { e } else { 0.0 };
                }
            }
            for (i, cell) in cells.iter_mut().flatten().enumerate() {
                let estimate = exact_base[i] + base[i] / p + summary_est[i];
                let stderr = var[i].sqrt();
                *cell = MotifEstimate {
                    estimate,
                    stderr,
                    ci_lo: (estimate - z * stderr - quant[i]).max(0.0),
                    ci_hi: estimate + z * stderr + quant[i],
                };
            }
        }

        StreamEstimates {
            cells,
            exact,
            prob: p,
            confidence: self.cfg.confidence,
            delta: self.cfg.delta,
            window: self.cfg.window,
            interval_len: self.interval_len,
            watermark: self.watermark,
            retained_edges: self.retained.len(),
            retained_bytes: self.retained_bytes(),
            budget_bytes: self.cfg.budget_bytes,
            intervals_sampled,
            intervals_exact,
            intervals_summarized,
        }
    }

    /// Number of distinct intervals holding at least one retained event
    /// (the `p = 1` analogue of the tier tally counts), split into
    /// `(incomplete, complete)`: one pass over the chronological edge
    /// list, whose interval ids never decrease.
    fn count_nonempty_intervals(&self, g: &TemporalGraph) -> (usize, usize) {
        let floor = self.floor();
        let (mut exact_n, mut coin_n) = (0, 0);
        let mut last = None;
        for e in g.edges() {
            let k = e.t.div_euclid(self.interval_len);
            if last != Some(k) {
                last = Some(k);
                if k >= floor {
                    exact_n += 1;
                } else {
                    coin_n += 1;
                }
            }
        }
        (exact_n, coin_n)
    }

    /// Per-interval fused tallies over the retained graph, in ascending
    /// interval order, for every contributing interval: the coin tier
    /// (complete kept intervals, `k < floor`, weight `1/p`; converted
    /// intervals are skipped — their contribution is the frozen vector)
    /// and after it the exact tier (incomplete intervals, weight 1).
    /// One [`tally_windows`] pass on the grid anchored at absolute time
    /// 0 (`k = ⌊t / len⌋`), so interval ids stay put as the window
    /// slides; bit-identical across [`StreamSampleConfig::threads`].
    fn tally_tiers(&self, g: &TemporalGraph) -> Vec<(i128, CenterTally)> {
        let (seed, p, floor) = (self.cfg.seed, self.prob(), self.floor());
        let converted = &self.converted;
        tally_windows(
            g,
            self.cfg.delta,
            self.cfg.threads,
            0,
            self.interval_len,
            |k| {
                // Origin 0: every interval id is an `i64`.
                let k = k as i64;
                k >= floor || (!converted.contains(&k) && window_kept(seed, k as u64, p))
            },
        )
    }
}

/// Keep probability of a summary: proportional to its *motif mass*
/// `min(1, m/τ)` — probability-proportional-to-size over the value the
/// estimator actually sums, so a dropped summary's Horvitz–Thompson
/// variance `(1−π)/π·m²` grows only linearly in `m·τ` and the
/// mass-heavy head survives deterministically (edge count is the wrong
/// proxy: a 30-edge interval dense on few nodes can hold hundreds of
/// instances). Capped by the coin-tier `p` its interval had already
/// survived at conversion time (its coin has only been tested below
/// that).
fn summary_pi(mass: f64, p_conv: f64, tau: f64) -> f64 {
    (mass / tau).min(1.0).min(p_conv)
}

/// Whether an edge at `t` must be retained. An interval *contributes*
/// through its raw edges while it is incomplete (`k >= floor`, the
/// provisional head) or a kept, never-converted coin-tier interval.
/// An edge is retained when its own interval contributes, or it falls
/// in the δ-**tail** a contributing predecessor reads past its right
/// boundary (δ-spanning instances whose first edge is in the
/// predecessor), or in the δ of **backward context** a contributing
/// successor reads before its left boundary (the per-centre triangle
/// attribution of [`fold_fractional`] books a centre under the
/// interval of the centre's *own* first edge, up to δ after the
/// instance's earliest edge). A pure function of copied state so the
/// reservoir can be re-filtered in place without aliasing the
/// estimator.
fn keeps_at(
    t: Timestamp,
    interval_len: Timestamp,
    delta: Timestamp,
    seed: u64,
    p: f64,
    floor: i64,
    converted: &BTreeSet<i64>,
) -> bool {
    let contributes =
        |k: i64| k >= floor || (!converted.contains(&k) && window_kept(seed, k as u64, p));
    let k = t.div_euclid(interval_len);
    if contributes(k) {
        return true;
    }
    if delta == 0 {
        return false;
    }
    let rem = t.rem_euclid(interval_len);
    (rem < delta && contributes(k.wrapping_sub(1)))
        || (rem >= interval_len - delta && contributes(k.wrapping_add(1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowed::WindowedCounter;
    use temporal_graph::gen::{erdos_renyi_temporal, GenConfig};

    fn cfg(delta: Timestamp, window: Timestamp, budget: u64) -> StreamSampleConfig {
        StreamSampleConfig::new(delta, window, budget)
    }

    /// Drive the same in-order stream through the estimator and the
    /// exact windowed counter, asserting tick identity under a
    /// retain-everything budget.
    #[test]
    fn big_budget_ticks_match_windowed_counter() {
        let g = erdos_renyi_temporal(12, 300, 250, 5);
        let (delta, window) = (60, 140);
        let mut est = StreamingEstimator::new(cfg(delta, window, u64::MAX));
        let mut wc = WindowedCounter::new(delta, window);
        for e in g.edges() {
            est.push(e.src, e.dst, e.t).unwrap();
            wc.push(e.src, e.dst, e.t).unwrap();
            let tick = est.estimates();
            assert_eq!(tick.prob, 1.0);
            assert_eq!(tick.as_exact(), Some(wc.counts()));
            for (m, cell) in tick.iter() {
                assert_eq!(cell.estimate, wc.counts().get(m) as f64, "{m}");
                assert_eq!(cell.stderr, 0.0, "{m}");
            }
        }
    }

    #[test]
    fn budget_is_never_exceeded_and_prob_halves() {
        let g = GenConfig {
            nodes: 30,
            edges: 2_000,
            time_span: 20_000,
            seed: 3,
            ..GenConfig::default()
        }
        .generate();
        let delta = 200;
        let budget = 64 * EDGE_BYTES; // room for 64 edges
        let mut est = StreamingEstimator::new(cfg(delta, 5_000, budget));
        for e in g.edges() {
            est.push(e.src, e.dst, e.t).unwrap();
            assert!(
                est.retained_bytes() <= budget,
                "budget exceeded at t={}: {} > {budget}",
                e.t,
                est.retained_bytes()
            );
        }
        assert!(
            est.prob() < 1.0,
            "a 2000-edge stream must overflow 64 slots"
        );
        let tick = est.estimates();
        assert_eq!(tick.as_exact(), None);
        assert!(tick.retained_bytes <= budget);
        assert_eq!(tick.budget_bytes, budget);
    }

    /// A budget that binds but is relieved by conversions alone leaves
    /// `p = 1` and `τ = 1`: every interval is still included with
    /// probability 1 (raw or summarized), so the tick estimates equal
    /// the exact windowed counts with zero stderr even though the
    /// bit-exact path is off.
    #[test]
    fn conversions_preserve_exact_estimates_while_prob_is_one() {
        // Twelve mid-interval 60-edge bursts: heavy enough that each
        // conversion frees well over SUMMARY_BYTES even while both
        // neighbours retain their delta flanks, so conversions alone
        // always relieve the budget and neither p nor tau ever
        // escalates -- every inclusion probability stays 1 and the
        // estimate must reproduce the exact windowed count.
        let (delta, window) = (50i64, 100_000i64);
        let budget = 5_000u64;
        let mut c = cfg(delta, window, budget);
        c.window_factor = 4; // interval length 200
        let mut est = StreamingEstimator::new(c);
        let mut wc = WindowedCounter::new(delta, window);
        for k in 0..12i64 {
            for i in 0..60i64 {
                let src = (i % 6) as u32;
                let dst = ((i + k) % 6) as u32;
                let dst = if dst == src { (dst + 1) % 6 } else { dst };
                let t = k * 200 + 25 + 2 * i;
                est.push(src, dst, t).unwrap();
                wc.push(src, dst, t).unwrap();
                assert!(est.retained_bytes() <= budget);
            }
        }
        est.flush();
        let tick = est.estimates();
        assert_eq!(tick.prob, 1.0, "conversions alone must relieve this budget");
        assert_eq!(est.summary_threshold(), 1.0, "τ must never double here");
        assert!(
            est.summarized_intervals() > 0,
            "the budget must have forced conversions"
        );
        assert_eq!(
            tick.as_exact(),
            None,
            "summaries disable the bit-exact path"
        );
        for (m, n) in wc.counts().iter() {
            let cell = tick.get(m);
            assert!(
                (cell.estimate - n as f64).abs() < 1e-6,
                "{m}: {} vs exact {n}",
                cell.estimate
            );
            assert_eq!(cell.stderr, 0.0, "{m}: π = 1 summaries carry no variance");
        }
    }

    #[test]
    fn same_seed_same_stream_is_bit_identical() {
        let g = GenConfig {
            nodes: 25,
            edges: 1_200,
            time_span: 9_000,
            seed: 8,
            ..GenConfig::default()
        }
        .generate();
        let run = |threads: usize| {
            let mut c = cfg(150, 2_000, 96 * EDGE_BYTES);
            c.threads = threads;
            let mut est = StreamingEstimator::new(c);
            for e in g.edges() {
                est.push(e.src, e.dst, e.t).unwrap();
            }
            est.flush();
            est.estimates()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b);
        let par = run(3);
        assert_eq!(a, par, "thread-count must not change the tick");
    }

    /// Every thread count gives the same tick at every checkpoint of a
    /// stream whose budget forces conversions and halves `p`.
    #[test]
    fn every_thread_count_is_bit_identical_past_conversions() {
        let g = GenConfig {
            nodes: 40,
            edges: 2_000,
            time_span: 40_000,
            mean_burst_len: 2.5,
            seed: 8,
            ..GenConfig::default()
        }
        .generate();
        let run = |threads: usize| {
            let mut c = cfg(200, 40_000, 160 * EDGE_BYTES);
            c.window_factor = 4;
            c.threads = threads;
            let mut est = StreamingEstimator::new(c);
            let (mut ticks, mut converted, mut prob) = (Vec::new(), false, 1.0f64);
            for (i, e) in g.edges().iter().enumerate() {
                est.push(e.src, e.dst, e.t).unwrap();
                converted |= !est.converted.is_empty();
                prob = prob.min(est.prob());
                if i % 100 == 99 {
                    ticks.push(est.estimates());
                }
            }
            est.flush();
            ticks.push(est.estimates());
            (prob, converted, ticks)
        };
        let (prob, converted, ticks) = run(1);
        assert!(prob < 1.0, "the budget must halve p");
        assert!(converted, "the budget must force a conversion");
        assert!(ticks.iter().any(|t| t.intervals_sampled > 0));
        for threads in 2..=4 {
            assert_eq!(run(threads).2, ticks, "threads={threads}");
        }
    }

    #[test]
    fn mirror_of_windowed_acceptance_semantics() {
        let mut est = StreamingEstimator::new(StreamSampleConfig {
            slack: 5,
            ..cfg(10, 100, u64::MAX)
        });
        est.push(0, 1, 50).unwrap();
        assert_eq!(
            est.push(1, 2, 44),
            Err(StreamError::OutOfOrder { got: 44, last: 45 })
        );
        est.push(1, 2, 45).unwrap();
        assert_eq!(est.push(2, 2, 50), Err(StreamError::SelfLoop));
        assert_eq!(est.num_accepted(), 2);
        est.advance_to(90);
        assert_eq!(
            est.push(1, 2, 80),
            Err(StreamError::OutOfOrder { got: 80, last: 90 })
        );
    }

    #[test]
    fn expiry_drains_the_reservoir() {
        let mut est = StreamingEstimator::new(cfg(10, 50, u64::MAX));
        est.push(0, 1, 100).unwrap();
        est.push(1, 2, 105).unwrap();
        est.push(2, 0, 108).unwrap();
        assert_eq!(est.retained_edges(), 3);
        assert_eq!(est.estimates().get(crate::motif::m(2, 6)).estimate, 1.0);
        est.advance_to(151); // the t=100 edge is now W+1 old
        assert_eq!(est.retained_edges(), 2);
        est.advance_to(200);
        assert_eq!(est.retained_edges(), 0);
        assert_eq!(est.estimates().total_estimate(), 0.0);
    }

    #[test]
    fn retention_tail_covers_delta_past_kept_intervals() {
        // With p < 1, an edge within delta after (tail) or before
        // (backward context) a kept interval must be retained even when
        // its own (complete) interval is dropped.
        let (il, delta, seed) = (40i64, 10i64, 7u64);
        let none: BTreeSet<i64> = BTreeSet::new();
        for p in [0.5, 0.25, 0.125] {
            for t in -200i64..200 {
                let k = t.div_euclid(il);
                let expected = window_kept(seed, k as u64, p)
                    || (t.rem_euclid(il) < delta && window_kept(seed, (k - 1) as u64, p))
                    || (t.rem_euclid(il) >= il - delta && window_kept(seed, (k + 1) as u64, p));
                assert_eq!(
                    keeps_at(t, il, delta, seed, p, i64::MAX, &none),
                    expected,
                    "t={t} p={p}"
                );
            }
        }
    }

    #[test]
    fn estimator_tracks_exact_within_ci_on_average() {
        let g = GenConfig {
            nodes: 60,
            edges: 4_000,
            time_span: 80_000,
            mean_burst_len: 2.5,
            seed: 11,
            ..GenConfig::default()
        }
        .generate();
        let (delta, window) = (300, 80_000);
        let mut covered = 0usize;
        let mut cells = 0usize;
        for seed in 0..20u64 {
            let mut c = cfg(delta, window, 600 * EDGE_BYTES);
            c.seed = seed;
            c.window_factor = 4;
            let mut est = StreamingEstimator::new(c);
            let mut wc = WindowedCounter::new(delta, window);
            for e in g.edges() {
                est.push(e.src, e.dst, e.t).unwrap();
                wc.push(e.src, e.dst, e.t).unwrap();
            }
            est.flush();
            let exact = wc.counts();
            let tick = est.estimates();
            assert_eq!(tick.as_exact(), None, "budget must bind for this test");
            assert!(
                tick.prob < 1.0 || est.summary_threshold() > 1.0 || est.folded_epochs() > 0,
                "this budget must force genuine sampling"
            );
            for (m, n) in exact.iter() {
                if n > 0 {
                    cells += 1;
                    covered += usize::from(tick.get(m).covers(n));
                }
            }
        }
        let frac = covered as f64 / cells as f64;
        assert!(frac >= 0.85, "aggregate CI coverage {frac:.3} too low");
    }

    /// Every stored summary must equal the same interval's restricted
    /// tally on the full (uncompressed) graph: the conversion graph's
    /// δ flanks must reproduce cross-boundary attribution exactly,
    /// even at `window_factor = 1` where every instance can straddle
    /// interval boundaries and the per-centre triangle attribution
    /// reaches a full interval backwards.
    #[test]
    fn summary_vectors_match_full_graph_interval_tallies() {
        let (delta, window) = (50i64, 10_000i64);
        let budget = 5_000u64;
        let mut c = cfg(delta, window, budget);
        c.window_factor = 1;
        let mut est = StreamingEstimator::new(c);
        let mut b = temporal_graph::GraphBuilder::new();
        for k in 0..12i64 {
            for i in 0..30i64 {
                let src = (i % 5) as u32;
                let dst = ((i + k) % 5) as u32;
                let dst = if dst == src { (dst + 1) % 5 } else { dst };
                let t = k * 50 + i;
                est.push(src, dst, t).unwrap();
                b.add_edge(src, dst, t);
            }
        }
        est.flush();
        assert!(
            est.summarized_intervals() >= 4,
            "this workload must force several conversions"
        );
        let g = b.build();
        let il = est.interval_len();
        let tallies = tally_windows(&g, delta, 1, 0, il, |_| true);
        let tables = FoldTables::new();
        for (&k, s) in &est.summaries {
            let tally = tallies
                .iter()
                .find(|&&(kk, _)| kk == i128::from(k))
                .map_or_else(CenterTally::default, |(_, t)| t.clone());
            let full = fold_fractional(&tally, &tables).map(|v| v as f32);
            assert_eq!(
                s.x, full,
                "summary of interval {k} diverges from the full graph"
            );
        }
    }

    #[test]
    #[should_panic(expected = "window must be at least delta")]
    fn window_smaller_than_delta_panics() {
        let _ = StreamingEstimator::new(cfg(10, 5, 0));
    }
}
