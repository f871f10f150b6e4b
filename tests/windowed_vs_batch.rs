//! Differential suite for the sliding-window engine: at **every tick**
//! (after every processed arrival and every explicit watermark advance),
//! `WindowedCounter` counts must be bit-identical to a from-scratch
//! batch FAST run restricted to the live window.
//!
//! The oracle exploits one engine guarantee: the set of *processed*
//! edges is always exactly the accepted arrivals with `t <= watermark`
//! (the reorder buffer releases an edge only once no earlier timestamp
//! can still arrive). So the live window at watermark `T` is simply the
//! accepted arrivals with `T - W <= t <= T`, rebuilt in arrival order —
//! the builder's stable sort then reproduces the engine's tie order.

use proptest::prelude::*;

use hare::counters::MotifMatrix;
use hare::windowed::WindowedCounter;
use hare::StreamError;
use temporal_graph::gen::arb;
use temporal_graph::{GraphBuilder, NodeId, Timestamp};

/// Batch FAST over the accepted arrivals (in arrival order) restricted
/// to `[wm - window, wm]`.
fn batch_live_window(
    accepted: &[(NodeId, NodeId, Timestamp)],
    delta: Timestamp,
    window: Timestamp,
    wm: Timestamp,
) -> MotifMatrix {
    let mut b = GraphBuilder::new();
    for &(s, d, t) in accepted {
        if t <= wm && wm.saturating_sub(t) <= window {
            b.add_edge(s, d, t);
        }
    }
    hare::count_motifs(&b.build(), delta).matrix
}

/// Push an arrival sequence through a windowed counter, asserting the
/// differential invariant after every push and once more after a final
/// flush. Self-loops are expected to be rejected; everything else must
/// be accepted. Returns the number of accepted edges.
fn check_stream(
    arrivals: &[(NodeId, NodeId, Timestamp)],
    delta: Timestamp,
    window: Timestamp,
    slack: Timestamp,
) -> Result<usize, TestCaseError> {
    let mut wc = WindowedCounter::with_slack(delta, window, slack);
    let mut accepted: Vec<(NodeId, NodeId, Timestamp)> = Vec::new();
    for &(s, d, t) in arrivals {
        match wc.push(s, d, t) {
            Ok(()) => accepted.push((s, d, t)),
            Err(StreamError::SelfLoop) => {
                prop_assert_eq!(s, d);
                continue;
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected rejection: {e}"))),
        }
        if let Some(wm) = wc.watermark() {
            prop_assert_eq!(wc.counts(), batch_live_window(&accepted, delta, window, wm));
        }
    }
    wc.flush();
    if let Some(wm) = wc.watermark() {
        prop_assert_eq!(wc.counts(), batch_live_window(&accepted, delta, window, wm));
    }
    Ok(accepted.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property: in-order random streams (self-loops and
    /// duplicate edges included, heavy timestamp ties) match batch FAST
    /// over the live window at every tick, for arbitrary `W >= delta`.
    #[test]
    fn windowed_equals_batch_at_every_tick(
        triples in arb::raw_triples(8, 40, 60),
        (delta, window) in arb::delta_window(40, 50),
    ) {
        let mut arrivals = triples;
        arrivals.sort_by_key(|&(_, _, t)| t);
        check_stream(&arrivals, delta, window, 0)?;
    }

    /// Degenerate window `W == delta`: instances die the instant their
    /// span budget is exhausted.
    #[test]
    fn degenerate_window_equals_delta(
        triples in arb::raw_triples(6, 35, 40),
        delta in 0i64..30,
    ) {
        let mut arrivals = triples;
        arrivals.sort_by_key(|&(_, _, t)| t);
        check_stream(&arrivals, delta, delta, 0)?;
    }

    /// Burst timestamps: everything lands on a handful of instants, so
    /// ties dominate and whole cohorts expire together.
    #[test]
    fn burst_timestamps_match(
        triples in arb::raw_triples(6, 40, 4),
        (delta, window) in arb::delta_window(3, 4),
    ) {
        let mut arrivals = triples;
        arrivals.sort_by_key(|&(_, _, t)| t);
        check_stream(&arrivals, delta, window, 0)?;
    }

    /// Out-of-order arrival within the reorder slack: jitter each edge's
    /// arrival position by up to slack/2 in either direction. Every push
    /// must be accepted, and every tick must still match the batch run.
    #[test]
    fn reorder_slack_arrivals_match(
        rows in prop::collection::vec((0u32..8, 0u32..8, 0i64..60, 0i64..21), 1..40),
        (delta, window) in arb::delta_window(40, 50),
    ) {
        let slack = 20i64;
        // Arrival order = sorted by (t + jitter - slack/2); any two edges
        // then satisfy t_later >= t_earlier - slack, so acceptance is
        // guaranteed and the scenario never degenerates into rejections.
        let mut arrivals: Vec<(i64, (u32, u32, i64))> = rows
            .into_iter()
            .map(|(s, d, t, jitter)| (t + jitter - slack / 2, (s, d, t)))
            .collect();
        arrivals.sort_by_key(|&(key, _)| key);
        let stream: Vec<(u32, u32, i64)> = arrivals.into_iter().map(|(_, e)| e).collect();
        check_stream(&stream, delta, window, slack)?;
    }

    /// Explicit watermark advances interleaved with pushes: ticks driven
    /// by `advance_to` (including ones that empty the window entirely)
    /// match the batch run at the advanced watermark.
    #[test]
    fn advance_ticks_match(
        triples in arb::raw_triples(8, 30, 50),
        (delta, window) in arb::delta_window(30, 40),
        tick in 1i64..25,
    ) {
        let mut arrivals = triples;
        arrivals.retain(|&(s, d, _)| s != d);
        arrivals.sort_by_key(|&(_, _, t)| t);
        let mut wc = WindowedCounter::new(delta, window);
        let mut accepted: Vec<(u32, u32, i64)> = Vec::new();
        let mut boundary = tick;
        for &(s, d, t) in &arrivals {
            while boundary < t {
                wc.advance_to(boundary);
                prop_assert_eq!(
                    wc.counts(),
                    batch_live_window(&accepted, delta, window, boundary)
                );
                boundary += tick;
            }
            wc.push(s, d, t).unwrap();
            accepted.push((s, d, t));
        }
        // A final advance far past the stream must drain the window.
        let horizon = arrivals.last().map_or(window, |&(_, _, t)| t) + window + 1;
        wc.advance_to(horizon);
        prop_assert_eq!(wc.counts(), MotifMatrix::default());
        prop_assert_eq!(wc.live_edges(), 0);
    }
}

/// Fixed regression scenarios outside the proptest loop, pinning the
/// corner cases named in the issue.
mod fixed {
    use super::*;

    #[test]
    fn empty_stream_and_empty_window() {
        let mut wc = WindowedCounter::new(10, 10);
        assert_eq!(wc.counts(), MotifMatrix::default());
        assert_eq!(wc.watermark(), None);
        wc.advance_to(1_000);
        assert_eq!(wc.counts(), MotifMatrix::default());
        assert_eq!(wc.live_edges(), 0);
        // Pushing after a far advance still works.
        wc.push(0, 1, 1_000).unwrap();
        assert_eq!(wc.live_edges(), 1);
    }

    #[test]
    fn duplicate_edges_expire_as_a_cohort() {
        // Five copies of the same edge at the same instant, plus the two
        // edges that make them pair motifs; all expire together.
        let mut wc = WindowedCounter::new(10, 10);
        let mut accepted = Vec::new();
        for _ in 0..5 {
            wc.push(0, 1, 100).unwrap();
            accepted.push((0, 1, 100));
        }
        wc.push(1, 0, 105).unwrap();
        accepted.push((1, 0, 105));
        wc.push(0, 1, 108).unwrap();
        accepted.push((0, 1, 108));
        let wm = wc.watermark().unwrap();
        assert_eq!(wc.counts(), batch_live_window(&accepted, 10, 10, wm));
        assert!(wc.counts().total() > 0);
        wc.advance_to(111);
        assert_eq!(wc.counts(), batch_live_window(&accepted, 10, 10, 111));
        wc.advance_to(119);
        assert_eq!(wc.counts().total(), 0, "all first edges out of window");
    }

    #[test]
    fn paper_toy_graph_sliding_ticks() {
        let g = temporal_graph::gen::paper_fig1_toy();
        for (delta, window) in [(10, 10), (10, 15), (5, 20)] {
            let mut wc = WindowedCounter::new(delta, window);
            let mut accepted = Vec::new();
            for e in g.edges() {
                wc.push(e.src, e.dst, e.t).unwrap();
                accepted.push((e.src, e.dst, e.t));
                let wm = wc.watermark().unwrap();
                assert_eq!(
                    wc.counts(),
                    batch_live_window(&accepted, delta, window, wm),
                    "delta {delta} window {window} at t={wm}"
                );
            }
        }
    }

    /// A window longer than the whole stream never expires an edge, so
    /// the final counts are batch FAST over everything: on CollegeMsg at
    /// scale 8 and at full size, δ = 600.
    #[test]
    fn collegemsg_full_span_window_equals_batch() {
        let spec = hare_datasets::by_name("CollegeMsg").unwrap();
        let delta = 600;
        for scale in [8, 1] {
            let g = spec.generate(scale);
            let mut wc = WindowedCounter::new(delta, g.time_span() + 1);
            for e in g.edges() {
                wc.push(e.src, e.dst, e.t).unwrap();
            }
            wc.flush();
            assert_eq!(
                wc.counts(),
                hare::count_motifs(&g, delta).matrix,
                "CollegeMsg/{scale}"
            );
        }
    }

    /// A window of `i64::MAX` never expires an edge, however far back:
    /// here the newest arrivals lie more than any `i64` distance after
    /// the oldest. Each arrival's walk must stop at δ without overflowing,
    /// and nothing lies within δ of another edge, so every tick counts 0.
    #[test]
    fn widest_window_spans_the_whole_timestamp_range() {
        let arrivals = [
            (0, 1, Timestamp::MIN + 1),
            (1, 0, Timestamp::MIN + 2),
            (1, 2, Timestamp::MAX),
            (0, 1, Timestamp::MAX),
        ];
        assert_eq!(check_stream(&arrivals, 10, Timestamp::MAX, 0).unwrap(), 4);
        let mut wc = WindowedCounter::new(10, Timestamp::MAX);
        for (s, d, t) in arrivals {
            wc.push(s, d, t).unwrap();
        }
        assert_eq!(wc.live_edges(), 4);
        assert_eq!(wc.counts().total(), 0);
    }

    #[test]
    fn late_arrival_beyond_slack_is_rejected_and_ignored() {
        let mut wc = WindowedCounter::with_slack(10, 100, 5);
        wc.push(0, 1, 50).unwrap();
        wc.push(1, 2, 60).unwrap();
        let err = wc.push(2, 0, 40).unwrap_err();
        assert!(matches!(err, StreamError::OutOfOrder { got: 40, last: 55 }));
        // The rejected edge left no trace: counts equal the batch run
        // over the two accepted edges.
        wc.flush();
        let accepted = [(0, 1, 50), (1, 2, 60)];
        assert_eq!(wc.counts(), batch_live_window(&accepted, 10, 100, 60));
        assert_eq!(wc.num_accepted(), 2);
    }
}
