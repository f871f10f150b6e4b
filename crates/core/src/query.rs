//! The query layer every front-end parses into and executes.
//!
//! `hare-count` and `hare-serve` answer the same questions: exact counts
//! (optionally one motif category), out-of-core exact counts,
//! interval-sampling estimates, per-node profiles and rankings, and
//! windowed ingest. Each front-end only maps its own syntax (flags,
//! query strings, JSON bodies) onto the two types here and renders the
//! result; the rules and the dispatch live once:
//!
//! * [`Plan`] — one batch query. [`Plan::validate`] holds every
//!   parameter rule (δ ≥ 0 included), [`Plan::engine_key`] is the
//!   server's cache-key string, and [`Plan::execute`] runs the kernel
//!   and returns an [`Answer`] that renders through [`crate::report`].
//! * [`Session`] — one ingest stream over [`WindowedCounter`] or, with a
//!   byte budget, [`StreamingEstimator`]. It owns the drop counters,
//!   the largest accepted timestamp and the tick/push bodies, so a
//!   flushed server session and the CLI's final tick are the same bytes.
//!
//! Nothing here panics on outside input: every rule answers with a
//! typed [`PlanError`] that names the offending [`Param`].

use serde_json::Value;
use temporal_graph::{LaneLayout, NodeId, TemporalGraph, Timestamp};

use crate::fingerprint::{
    profile_of, rank_by_zscore, top_k_nodes, NodeProfile, NodeProfiles, ProfileDistribution,
};
use crate::hare::{Hare, HareConfig};
use crate::ooc::{count_motifs_ooc_on, EdgeSource, InMemorySource, OocConfig};
use crate::report;
use crate::sample::{SampleConfig, SampledCounter, SampledCounts};
use crate::scratch::with_thread_scratch;
use crate::stream_sample::{StreamSampleConfig, StreamingEstimator};
use crate::windowed::{StreamError, WindowedCounter};
use crate::{Motif, MotifCategory, MotifMatrix, Probe};

/// A query parameter, named so each front-end can report a rule
/// violation in its own vocabulary (`--window-factor` vs
/// `'window_factor'`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// The motif time window δ.
    Delta,
    /// The sliding window width `W`.
    Window,
    /// The reorder slack.
    Slack,
    /// A session's estimator byte budget.
    MemoryBudget,
    /// The out-of-core resident lane-byte budget.
    ChunkBudget,
    /// The interval-sampling keep probability.
    Prob,
    /// The confidence level of the error bounds.
    Ci,
    /// The sampling interval length factor.
    WindowFactor,
    /// The number of ranked nodes.
    K,
}

impl Param {
    /// The parameter's wire name (HTTP query and body key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Param::Delta => "delta",
            Param::Window => "window",
            Param::Slack => "slack",
            Param::MemoryBudget => "memory_budget",
            Param::ChunkBudget => "chunk_budget",
            Param::Prob => "prob",
            Param::Ci => "ci",
            Param::WindowFactor => "window_factor",
            Param::K => "k",
        }
    }
}

/// Why a plan or session could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A parameter is outside its domain.
    Invalid {
        /// The offending parameter.
        param: Param,
        /// What is wrong with it, e.g. `must be non-negative, got -5`.
        reason: String,
    },
    /// A node query names a node the graph does not have.
    UnknownNode {
        /// The requested node.
        node: NodeId,
        /// The graph's node count.
        num_nodes: usize,
    },
    /// The out-of-core edge source failed.
    Source(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Invalid { param, reason } => write!(f, "'{}' {reason}", param.name()),
            PlanError::UnknownNode { node, num_nodes } => {
                write!(f, "no such node: {node} (dataset has {num_nodes} nodes)")
            }
            PlanError::Source(e) => write!(f, "out-of-core counting: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

fn ensure(ok: bool, param: Param, reason: impl FnOnce() -> String) -> Result<(), PlanError> {
    if ok {
        Ok(())
    } else {
        Err(PlanError::Invalid {
            param,
            reason: reason(),
        })
    }
}

fn check_delta(delta: Timestamp) -> Result<(), PlanError> {
    ensure(delta >= 0, Param::Delta, || {
        format!("must be non-negative, got {delta}")
    })
}

fn check_estimator(ci: f64, window_factor: i64) -> Result<(), PlanError> {
    ensure(ci > 0.0 && ci < 1.0, Param::Ci, || {
        format!("must be in (0, 1), got {ci}")
    })?;
    ensure(window_factor >= 1, Param::WindowFactor, || {
        format!("must be at least 1, got {window_factor}")
    })
}

/// The wire name of an `only` selector — the inverse of
/// [`report::parse_only`].
#[must_use]
pub fn only_name(only: Option<MotifCategory>) -> &'static str {
    match only {
        None => "all",
        Some(MotifCategory::Pair) => "pairs",
        Some(MotifCategory::Star) => "stars",
        Some(MotifCategory::Triangle) => "triangles",
    }
}

/// One batch query over a whole graph at a given δ.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Exact counts of all 36 motifs, or of one category.
    Exact {
        /// `None` = all motifs.
        only: Option<MotifCategory>,
    },
    /// Exact all-motif counts out of core: δ-haloed time chunks under a
    /// resident lane-byte budget, bit-identical to [`Plan::Exact`].
    Chunked {
        /// Resident lane bytes per chunk.
        budget_bytes: usize,
        /// Lane layout of the chunk graphs.
        lane_layout: LaneLayout,
    },
    /// Interval-sampling estimates with confidence intervals.
    Approx {
        /// Window keep probability in `(0, 1]`.
        prob: f64,
        /// Confidence level in `(0, 1)`.
        ci: f64,
        /// Window length factor `c >= 1`.
        window_factor: i64,
        /// Sampling seed.
        seed: u64,
    },
    /// Every participating node's motif profile.
    Profiles,
    /// One node's motif profile.
    Node {
        /// The node.
        node: NodeId,
    },
    /// The top-k nodes by participation in one motif.
    TopByMotif {
        /// The ranking motif.
        motif: Motif,
        /// Rows to return (at least 1).
        k: usize,
    },
    /// The top-k nodes by z-score anomaly.
    TopByZscore {
        /// Rows to return (at least 1).
        k: usize,
    },
}

impl Plan {
    /// Check the plan's parameters and δ. [`Plan::execute`] runs this
    /// first; front-ends call it early to reject before loading data.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] naming the first parameter out of domain.
    pub fn validate(&self, delta: Timestamp) -> Result<(), PlanError> {
        check_delta(delta)?;
        match *self {
            Plan::Chunked { budget_bytes, .. } => {
                ensure(budget_bytes >= 1, Param::ChunkBudget, || {
                    "must be at least 1 byte".into()
                })
            }
            Plan::Approx {
                prob,
                ci,
                window_factor,
                ..
            } => {
                ensure(prob > 0.0 && prob <= 1.0, Param::Prob, || {
                    format!("must be in (0, 1], got {prob}")
                })?;
                check_estimator(ci, window_factor)
            }
            Plan::TopByMotif { k, .. } | Plan::TopByZscore { k } => {
                ensure(k >= 1, Param::K, || format!("must be at least 1, got {k}"))
            }
            Plan::Exact { .. } | Plan::Profiles | Plan::Node { .. } => Ok(()),
        }
    }

    /// The canonical string of every result-relevant parameter except
    /// δ: the engine half of `hare-serve`'s cache key. Thread counts are
    /// excluded because answers are bit-identical across them, and
    /// [`Plan::Chunked`] shares [`Plan::Exact`]'s key for the same
    /// reason.
    #[must_use]
    pub fn engine_key(&self) -> String {
        match self {
            Plan::Exact { only } => format!("exact/only={}", only_name(*only)),
            Plan::Chunked { .. } => Plan::Exact { only: None }.engine_key(),
            Plan::Approx {
                prob,
                ci,
                window_factor,
                seed,
            } => format!("approx/prob={prob}/ci={ci}/wf={window_factor}/seed={seed}"),
            Plan::Profiles => "nodes/all".into(),
            Plan::Node { node } => format!("nodes/node={node}"),
            Plan::TopByMotif { motif, k } => format!("nodes/top/motif={motif}/k={k}"),
            Plan::TopByZscore { k } => format!("nodes/top/rank=zscore/k={k}"),
        }
    }

    /// Validate, then run the plan on `g` with `threads` workers (0 =
    /// all cores). The probe only observes phase boundaries, so the
    /// answer is bit-identical for every probe and thread count.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] from [`Plan::validate`],
    /// [`PlanError::UnknownNode`] for a node outside the graph, and
    /// [`PlanError::Source`] if the out-of-core source fails.
    pub fn execute<P: Probe>(
        &self,
        g: &TemporalGraph,
        delta: Timestamp,
        threads: usize,
        probe: &P,
    ) -> Result<Answer, PlanError> {
        self.validate(delta)?;
        let outcome = match *self {
            Plan::Exact { only } => {
                let hare = Hare::new(HareConfig {
                    num_threads: threads,
                    ..HareConfig::default()
                });
                Outcome::Counts(hare.count_matrix_probed(g, delta, only, probe))
            }
            Plan::Chunked { .. } => {
                return self.execute_chunked(&InMemorySource::from_graph(g), delta, threads, probe);
            }
            Plan::Approx {
                prob,
                ci,
                window_factor,
                seed,
            } => {
                let counter = SampledCounter::new(SampleConfig {
                    prob,
                    window_factor,
                    confidence: ci,
                    seed,
                    threads,
                });
                Outcome::Estimates {
                    counts: Box::new(counter.count_probed(g, delta, probe)),
                    window_factor,
                    seed,
                }
            }
            Plan::Profiles => Outcome::Profiles(NodeProfiles::compute(g, delta, threads)),
            Plan::Node { node } => {
                if node as usize >= g.num_nodes() {
                    return Err(PlanError::UnknownNode {
                        node,
                        num_nodes: g.num_nodes(),
                    });
                }
                // One node's scan: the row `NodeProfiles::compute` would
                // hold for it, or the empty profile.
                let profile = with_thread_scratch(g.num_nodes(), |scratch| {
                    profile_of(g, node, delta, scratch)
                });
                Outcome::Node { node, profile }
            }
            Plan::TopByMotif { motif, k } => {
                let profiles = NodeProfiles::compute(g, delta, threads);
                Outcome::TopByMotif {
                    motif,
                    k,
                    ranked: top_k_nodes(&profiles, motif, k),
                    participating: profiles.len(),
                }
            }
            Plan::TopByZscore { k } => {
                let profiles = NodeProfiles::compute(g, delta, threads);
                let dist = ProfileDistribution::compute(&profiles);
                Outcome::TopByZscore {
                    k,
                    ranked: rank_by_zscore(&profiles, &dist, k),
                    participating: profiles.len(),
                }
            }
        };
        Ok(Answer {
            delta,
            num_nodes: g.num_nodes(),
            num_edges: g.num_edges(),
            outcome,
        })
    }

    /// Validate, then run a [`Plan::Chunked`] plan straight off an edge
    /// source, its chunks spread over `threads` workers (0 = all cores).
    /// No whole graph is built; [`Plan::execute`] takes this route too,
    /// through a source that borrows its graph. The answer is
    /// bit-identical to [`Plan::Exact`] on the graph built from the same
    /// edges, for every probe, thread count, budget and lane layout.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] from [`Plan::validate`], or naming
    /// [`Param::ChunkBudget`] for a plan that is not [`Plan::Chunked`];
    /// [`PlanError::Source`] if the source fails.
    pub fn execute_chunked<P: Probe>(
        &self,
        src: &impl EdgeSource,
        delta: Timestamp,
        threads: usize,
        probe: &P,
    ) -> Result<Answer, PlanError> {
        self.validate(delta)?;
        let Plan::Chunked {
            budget_bytes,
            lane_layout,
        } = *self
        else {
            return Err(PlanError::Invalid {
                param: Param::ChunkBudget,
                reason: "is required to count straight from an edge source".into(),
            });
        };
        let cfg = OocConfig {
            delta,
            budget_bytes,
            lane_layout,
        };
        let (counts, _) = count_motifs_ooc_on(src, cfg, threads, probe)
            .map_err(|e| PlanError::Source(e.to_string()))?;
        Ok(Answer {
            delta,
            num_nodes: src.num_nodes(),
            num_edges: src.num_edges() as usize,
            outcome: Outcome::Counts(counts.matrix),
        })
    }
}

/// The result of [`Plan::execute`], with the graph shape and δ its
/// bodies report.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The δ the plan ran at.
    pub delta: Timestamp,
    /// Nodes of the queried graph.
    pub num_nodes: usize,
    /// Edges of the queried graph.
    pub num_edges: usize,
    /// The plan-specific result.
    pub outcome: Outcome,
}

/// The plan-specific half of an [`Answer`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Exact counts ([`Plan::Exact`], [`Plan::Chunked`]).
    Counts(MotifMatrix),
    /// Sampled estimates ([`Plan::Approx`]).
    Estimates {
        /// The estimates (boxed: 36 estimates with error bounds).
        counts: Box<SampledCounts>,
        /// The window length factor they were sampled with.
        window_factor: i64,
        /// The seed they were sampled with.
        seed: u64,
    },
    /// Every participating node's profile ([`Plan::Profiles`]).
    Profiles(NodeProfiles),
    /// One node's profile ([`Plan::Node`]).
    Node {
        /// The node.
        node: NodeId,
        /// Its profile (all zero if it completes no motif).
        profile: NodeProfile,
    },
    /// A ranking by one motif ([`Plan::TopByMotif`]).
    TopByMotif {
        /// The ranking motif.
        motif: Motif,
        /// The requested row count.
        k: usize,
        /// `(node, count)`, count descending, node ascending on ties.
        ranked: Vec<(NodeId, u64)>,
        /// Nodes with a nonzero profile.
        participating: usize,
    },
    /// A ranking by z-score anomaly ([`Plan::TopByZscore`]).
    TopByZscore {
        /// The requested row count.
        k: usize,
        /// `(node, score)`, most anomalous first.
        ranked: Vec<(NodeId, f64)>,
        /// Nodes with a nonzero profile.
        participating: usize,
    },
}

impl Answer {
    /// The wire bytes of the answer: one rendered [`crate::report`] body
    /// per line (one line per node for [`Outcome::Profiles`]).
    /// `seconds` is reported by the counting bodies only; node bodies
    /// are timing-free by construction.
    #[must_use]
    pub fn render(&self, seconds: Option<f64>) -> String {
        let delta = self.delta;
        let body = match &self.outcome {
            Outcome::Counts(matrix) => {
                report::exact_body(self.num_nodes, self.num_edges, delta, matrix, seconds)
            }
            Outcome::Estimates {
                counts,
                window_factor,
                seed,
            } => report::approx_body(
                self.num_nodes,
                self.num_edges,
                delta,
                *window_factor,
                *seed,
                counts,
                seconds,
            ),
            Outcome::Profiles(profiles) => {
                return profiles
                    .iter()
                    .map(|(u, p)| report::render(&report::node_profile_body(u, delta, p)))
                    .collect();
            }
            Outcome::Node { node, profile } => report::node_profile_body(*node, delta, profile),
            Outcome::TopByMotif {
                motif, k, ranked, ..
            } => report::top_nodes_body(delta, *motif, *k, ranked),
            Outcome::TopByZscore { k, ranked, .. } => report::zscore_nodes_body(delta, *k, ranked),
        };
        report::render(&body)
    }
}

/// What an ingest [`Session`] counts.
#[derive(Debug, Clone)]
pub enum SessionSpec {
    /// Exact live-window counts.
    Exact {
        /// Motif window δ.
        delta: Timestamp,
        /// Sliding window width `W >= δ`.
        window: Timestamp,
        /// Reorder slack.
        slack: Timestamp,
    },
    /// Bounded-memory estimates under a byte budget.
    Budget(StreamSampleConfig),
}

impl SessionSpec {
    /// Exact counting, or — with `memory_budget` — the estimator with
    /// its default sampling knobs.
    #[must_use]
    pub fn new(
        delta: Timestamp,
        window: Timestamp,
        slack: Timestamp,
        memory_budget: Option<u64>,
    ) -> SessionSpec {
        match memory_budget {
            None => SessionSpec::Exact {
                delta,
                window,
                slack,
            },
            Some(budget) => SessionSpec::Budget(StreamSampleConfig {
                slack,
                ..StreamSampleConfig::new(delta, window, budget)
            }),
        }
    }

    /// Check every parameter the engine constructors would otherwise
    /// assert on.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] naming the first parameter out of domain.
    pub fn validate(&self) -> Result<(), PlanError> {
        let (delta, window, slack) = match self {
            SessionSpec::Exact {
                delta,
                window,
                slack,
            } => (*delta, *window, *slack),
            SessionSpec::Budget(cfg) => (cfg.delta, cfg.window, cfg.slack),
        };
        check_delta(delta)?;
        ensure(window >= delta, Param::Window, || {
            format!("must be at least delta ({window} < {delta})")
        })?;
        ensure(slack >= 0, Param::Slack, || {
            format!("must be non-negative, got {slack}")
        })?;
        if let SessionSpec::Budget(cfg) = self {
            ensure(cfg.budget_bytes >= 1, Param::MemoryBudget, || {
                "must be at least 1 byte".into()
            })?;
            check_estimator(cfg.confidence, cfg.window_factor)?;
        }
        Ok(())
    }
}

/// The counting engine behind a [`Session`].
#[derive(Debug)]
pub enum SessionEngine {
    /// Exact live-window counting.
    Exact(Box<WindowedCounter>),
    /// Bounded-memory estimation.
    Budget(Box<StreamingEstimator>),
}

/// Per-batch result of [`Session::push_edges`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// Edges accepted from this batch.
    pub accepted: u64,
    /// Edges of this batch dropped as late.
    pub late_dropped: u64,
    /// Edges of this batch dropped as self-loops.
    pub self_loops_dropped: u64,
}

/// One ingest stream. Late and self-loop arrivals are dropped and
/// counted, never fatal.
#[derive(Debug)]
pub struct Session {
    engine: SessionEngine,
    late_dropped: u64,
    self_loops_dropped: u64,
    max_accepted: Option<Timestamp>,
}

impl Session {
    /// Validate `spec` and build its engine.
    ///
    /// # Errors
    /// [`PlanError::Invalid`] from [`SessionSpec::validate`].
    pub fn new(spec: SessionSpec) -> Result<Session, PlanError> {
        spec.validate()?;
        let engine = match spec {
            SessionSpec::Exact {
                delta,
                window,
                slack,
            } => SessionEngine::Exact(Box::new(WindowedCounter::with_slack(delta, window, slack))),
            SessionSpec::Budget(cfg) => {
                SessionEngine::Budget(Box::new(StreamingEstimator::new(cfg)))
            }
        };
        Ok(Session {
            engine,
            late_dropped: 0,
            self_loops_dropped: 0,
            max_accepted: None,
        })
    }

    /// Push one arrival, counting it if it is dropped.
    ///
    /// # Errors
    /// The engine's [`StreamError`] for a dropped arrival.
    pub fn push(&mut self, src: NodeId, dst: NodeId, t: Timestamp) -> Result<(), StreamError> {
        let pushed = match &mut self.engine {
            SessionEngine::Exact(wc) => wc.push(src, dst, t),
            SessionEngine::Budget(est) => est.push(src, dst, t),
        };
        match pushed {
            Ok(()) => self.max_accepted = Some(self.max_accepted.map_or(t, |m| m.max(t))),
            Err(StreamError::OutOfOrder { .. }) => self.late_dropped += 1,
            Err(StreamError::SelfLoop) => self.self_loops_dropped += 1,
        }
        pushed
    }

    /// Push a batch in arrival order.
    pub fn push_edges(&mut self, edges: &[(NodeId, NodeId, Timestamp)]) -> PushOutcome {
        let mut out = PushOutcome::default();
        for &(src, dst, t) in edges {
            match self.push(src, dst, t) {
                Ok(()) => out.accepted += 1,
                Err(StreamError::OutOfOrder { .. }) => out.late_dropped += 1,
                Err(StreamError::SelfLoop) => out.self_loops_dropped += 1,
            }
        }
        out
    }

    /// Process every buffered arrival at or before `t` and expire the
    /// window to `t`.
    pub fn advance_to(&mut self, t: Timestamp) {
        match &mut self.engine {
            SessionEngine::Exact(wc) => wc.advance_to(t),
            SessionEngine::Budget(est) => est.advance_to(t),
        }
    }

    /// Drain the reorder buffer.
    pub fn flush(&mut self) {
        match &mut self.engine {
            SessionEngine::Exact(wc) => wc.flush(),
            SessionEngine::Budget(est) => est.flush(),
        }
    }

    /// The engine, for front-ends that render their own text.
    #[must_use]
    pub fn engine(&self) -> &SessionEngine {
        &self.engine
    }

    /// Arrivals dropped as too late for the slack.
    #[must_use]
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// The largest accepted timestamp, if any arrival was accepted.
    #[must_use]
    pub fn max_accepted(&self) -> Option<Timestamp> {
        self.max_accepted
    }

    /// The estimator's byte budget (`None` for exact sessions).
    #[must_use]
    pub fn memory_budget(&self) -> Option<u64> {
        match &self.engine {
            SessionEngine::Exact(_) => None,
            SessionEngine::Budget(est) => Some(est.budget_bytes()),
        }
    }

    /// The tick body as of event time `tick`: the exact tick shape or
    /// the estimator tick shape, with the cumulative drop counters.
    #[must_use]
    pub fn tick_body_at(&self, tick: Timestamp) -> Value {
        match &self.engine {
            SessionEngine::Exact(wc) => {
                report::windowed_tick_body(tick, wc, self.late_dropped, self.self_loops_dropped)
            }
            SessionEngine::Budget(est) => report::stream_tick_body(
                tick,
                est.config().slack,
                &est.estimates(),
                self.late_dropped,
                self.self_loops_dropped,
            ),
        }
    }

    /// The tick body labelled with the largest accepted timestamp (0
    /// before any acceptance).
    #[must_use]
    pub fn tick_body(&self) -> Value {
        self.tick_body_at(self.max_accepted.unwrap_or(0))
    }

    /// The body answering one pushed batch. Exact sessions report
    /// `live_edges`; budgeted ones their reservoir state instead
    /// (tracking the exact live count would itself need unbounded
    /// memory).
    #[must_use]
    pub fn push_body(&self, out: PushOutcome) -> Value {
        let mut body = serde_json::json!({
            "accepted": out.accepted,
            "late_dropped": out.late_dropped,
            "self_loops_dropped": out.self_loops_dropped,
        });
        if let Some(map) = body.as_object_mut() {
            match &self.engine {
                SessionEngine::Exact(wc) => {
                    map.insert("live_edges".into(), wc.live_edges().into());
                    map.insert("buffered_edges".into(), wc.buffered_edges().into());
                }
                SessionEngine::Budget(est) => {
                    map.insert("retained_edges".into(), est.retained_edges().into());
                    map.insert("retained_bytes".into(), est.retained_bytes().into());
                    map.insert("memory_budget".into(), est.budget_bytes().into());
                    map.insert("buffered_edges".into(), est.buffered_edges().into());
                }
            }
        }
        body
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopProbe;
    use temporal_graph::gen::paper_fig1_toy;

    fn invalid_param(e: PlanError) -> Param {
        match e {
            PlanError::Invalid { param, .. } => param,
            other => panic!("expected an invalid parameter, got {other:?}"),
        }
    }

    #[test]
    fn negative_delta_is_rejected_by_every_plan_and_session() {
        for plan in [
            Plan::Exact { only: None },
            Plan::Approx {
                prob: 0.5,
                ci: 0.95,
                window_factor: 10,
                seed: 1,
            },
            Plan::Profiles,
            Plan::TopByZscore { k: 3 },
        ] {
            let e = plan.validate(-5).unwrap_err();
            assert_eq!(e.to_string(), "'delta' must be non-negative, got -5");
            assert!(plan.execute(&paper_fig1_toy(), -5, 1, &NoopProbe).is_err());
        }
        for budget in [None, Some(4096)] {
            let e = Session::new(SessionSpec::new(-5, 10, 0, budget)).unwrap_err();
            assert_eq!(invalid_param(e), Param::Delta);
        }
    }

    #[test]
    fn parameter_rules_name_their_parameter() {
        let cases = [
            (
                Plan::Approx {
                    prob: 1.5,
                    ci: 0.95,
                    window_factor: 10,
                    seed: 1,
                },
                Param::Prob,
            ),
            (
                Plan::Approx {
                    prob: 0.5,
                    ci: 1.0,
                    window_factor: 10,
                    seed: 1,
                },
                Param::Ci,
            ),
            (
                Plan::Approx {
                    prob: 0.5,
                    ci: 0.95,
                    window_factor: 0,
                    seed: 1,
                },
                Param::WindowFactor,
            ),
            (Plan::TopByZscore { k: 0 }, Param::K),
            (
                Plan::Chunked {
                    budget_bytes: 0,
                    lane_layout: LaneLayout::Raw,
                },
                Param::ChunkBudget,
            ),
        ];
        for (plan, param) in cases {
            assert_eq!(invalid_param(plan.validate(10).unwrap_err()), param);
        }
        for (spec, param) in [
            (SessionSpec::new(10, 5, 0, None), Param::Window),
            (SessionSpec::new(10, 50, -1, None), Param::Slack),
            (SessionSpec::new(10, 50, 0, Some(0)), Param::MemoryBudget),
        ] {
            assert_eq!(invalid_param(spec.validate().unwrap_err()), param);
        }
    }

    #[test]
    fn engine_keys_are_the_cache_key_strings() {
        let motif: Motif = "M65".parse().unwrap();
        let cases = [
            (Plan::Exact { only: None }, "exact/only=all"),
            (
                Plan::Exact {
                    only: Some(MotifCategory::Triangle),
                },
                "exact/only=triangles",
            ),
            (
                Plan::Approx {
                    prob: 0.25,
                    ci: 0.9,
                    window_factor: 4,
                    seed: 7,
                },
                "approx/prob=0.25/ci=0.9/wf=4/seed=7",
            ),
            (Plan::Node { node: 3 }, "nodes/node=3"),
            (Plan::TopByMotif { motif, k: 5 }, "nodes/top/motif=M65/k=5"),
            (Plan::TopByZscore { k: 5 }, "nodes/top/rank=zscore/k=5"),
        ];
        for (plan, key) in cases {
            assert_eq!(plan.engine_key(), key);
        }
        for only in ["all", "pairs", "stars", "triangles"] {
            assert_eq!(only_name(report::parse_only(only).unwrap()), only);
        }
    }

    #[test]
    fn chunked_and_exact_answers_render_the_same_bytes() {
        let g = paper_fig1_toy();
        let exact = Plan::Exact { only: None }
            .execute(&g, 10, 1, &NoopProbe)
            .unwrap();
        let chunked = Plan::Chunked {
            budget_bytes: 64,
            lane_layout: LaneLayout::Compressed,
        }
        .execute(&g, 10, 1, &NoopProbe)
        .unwrap();
        assert_eq!(exact.render(None), chunked.render(None));
        assert_eq!(
            exact.outcome,
            Outcome::Counts(crate::count_motifs(&g, 10).matrix)
        );
        // Straight from a packed edge stream, on one and two workers.
        let src = temporal_graph::ooc::PackedEdges::from_edges(g.num_nodes(), g.edges());
        let plan = Plan::Chunked {
            budget_bytes: 64,
            lane_layout: LaneLayout::Raw,
        };
        for threads in [1, 2] {
            let answer = plan.execute_chunked(&src, 10, threads, &NoopProbe).unwrap();
            assert_eq!(answer, exact, "threads={threads}");
        }
        // Only a chunked plan runs off an edge source.
        let e = Plan::Exact { only: None }
            .execute_chunked(&src, 10, 1, &NoopProbe)
            .unwrap_err();
        assert_eq!(invalid_param(e), Param::ChunkBudget);
    }

    #[test]
    fn node_answers_match_the_profile_lines() {
        let g = paper_fig1_toy();
        let all = Plan::Profiles
            .execute(&g, 10, 1, &NoopProbe)
            .unwrap()
            .render(None);
        let line = |node| {
            Plan::Node { node }
                .execute(&g, 10, 1, &NoopProbe)
                .unwrap()
                .render(None)
        };
        assert!(all.lines().any(|l| format!("{l}\n") == line(3)), "{all}");
        // A node that completes no motif has an empty profile, not an error.
        assert_eq!(
            line(1),
            "{\"node\":1,\"delta\":10,\"total\":0,\"counts\":[]}\n"
        );
        assert_eq!(
            Plan::Node { node: 99 }.execute(&g, 10, 1, &NoopProbe),
            Err(PlanError::UnknownNode {
                node: 99,
                num_nodes: 5
            })
        );
    }

    /// The one-node scan gives every node the row the whole-graph pass
    /// holds for it, or the empty profile.
    #[test]
    fn node_plan_equals_the_whole_graph_row() {
        let g = temporal_graph::gen::hub_burst(30, 1_500, 8_000, 9);
        let (mut full, mut empty) = (0, 0);
        for delta in [0, 800] {
            let all = NodeProfiles::compute(&g, delta, 1);
            for node in g.node_ids() {
                let want = all.get(node).copied().unwrap_or_default();
                full += usize::from(!want.is_empty());
                empty += usize::from(want.is_empty());
                let got = Plan::Node { node }
                    .execute(&g, delta, 2, &NoopProbe)
                    .unwrap();
                let ctx = format!("node {node} delta {delta}");
                assert_eq!(
                    got.outcome,
                    Outcome::Node {
                        node,
                        profile: want
                    },
                    "{ctx}"
                );
            }
        }
        assert!(full > 0 && empty > 0, "{full} full and {empty} empty rows");
    }

    #[test]
    fn session_counts_drops_and_labels_ticks() {
        let mut s = Session::new(SessionSpec::new(20, 100, 0, None)).unwrap();
        assert_eq!(s.tick_body()["tick"].as_i64(), Some(0));
        let out = s.push_edges(&[(0, 1, 10), (1, 2, 12), (3, 3, 13), (2, 0, 14), (4, 5, 1)]);
        assert_eq!(
            out,
            PushOutcome {
                accepted: 3,
                late_dropped: 1,
                self_loops_dropped: 1
            }
        );
        assert_eq!(s.max_accepted(), Some(14));
        assert_eq!(s.late_dropped(), 1);
        assert_eq!(s.tick_body()["self_loops_dropped"].as_u64(), Some(1));
        assert_eq!(s.tick_body_at(99)["tick"].as_i64(), Some(99));
        assert_eq!(s.memory_budget(), None);
    }
}
