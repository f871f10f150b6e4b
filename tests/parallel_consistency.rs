//! HARE determinism and equivalence guarantees: every thread count,
//! degree threshold and scheduling discipline must produce counts
//! bit-identical to the sequential algorithms — the property that makes
//! the framework "natively parallel" (§IV.C: no data dependency between
//! threads).
//!
//! Every graph here holds at least `SEQ_FALLBACK_EVENTS` events, so
//! multi-threaded engines run the pool path (inter-node chunks plus
//! intra-node splitting) rather than the small-graph sequential fallback.

use hare::hare::SEQ_FALLBACK_EVENTS;
use hare::{DegreeThreshold, Hare, HareConfig, MotifCategory, MotifMatrix, Scheduling};
use temporal_graph::gen::{hub_burst, scaling_workload, GenConfig};
use temporal_graph::TemporalGraph;

fn at_pool_scale(g: TemporalGraph) -> TemporalGraph {
    assert!(
        2 * g.num_edges() >= SEQ_FALLBACK_EVENTS,
        "below the pool threshold"
    );
    g
}

fn skewed_graph(seed: u64) -> TemporalGraph {
    at_pool_scale(
        GenConfig {
            nodes: 120,
            edges: 18_000,
            time_span: 240_000,
            zipf_exponent: 1.05,
            seed,
            ..GenConfig::default()
        }
        .generate(),
    )
}

/// One hub carrying most of the events, split into many small
/// first-edge ranges by the engines below.
fn hub_graph(seed: u64) -> TemporalGraph {
    at_pool_scale(hub_burst(60, 18_000, 250_000, seed))
}

/// Engines that send every node of degree > 50 through intra-node
/// splitting in ranges of at least 8 first edges.
fn splitting_engine(threads: usize) -> Hare {
    Hare::new(HareConfig {
        num_threads: threads,
        degree_threshold: DegreeThreshold::Fixed(50),
        min_task_events: 8,
        min_task_nodes: 4,
        ..HareConfig::default()
    })
}

#[test]
fn thread_count_never_changes_results() {
    let delta = 2_000;
    for g in [
        skewed_graph(1),
        at_pool_scale(scaling_workload(40_000)),
        at_pool_scale(scaling_workload(200_000)),
    ] {
        let reference = hare::count_motifs(&g, delta);
        let edges = g.num_edges();
        for threads in [1, 2, 3, 4, 8] {
            let counts = Hare::with_threads(threads).count_all(&g, delta);
            let at = format!("{edges} edges, {threads} threads");
            assert_eq!(counts.matrix, reference.matrix, "{at}");
            // Raw counters match too — merging is exact, not just the fold.
            assert_eq!(counts.star, reference.star, "{at}");
            assert_eq!(counts.pair, reference.pair, "{at}");
            assert_eq!(counts.tri, reference.tri, "{at}");
        }
    }
}

#[test]
fn threshold_policy_never_changes_results() {
    let g = hub_graph(3);
    let delta = 1_500;
    let reference = hare::count_motifs(&g, delta);
    for thrd in [
        DegreeThreshold::TopK(1),
        DegreeThreshold::TopK(20),
        DegreeThreshold::Fixed(0), // every node goes intra-node
        DegreeThreshold::Fixed(10),
        DegreeThreshold::Fixed(usize::MAX),
        DegreeThreshold::Disabled,
    ] {
        let engine = Hare::new(HareConfig {
            num_threads: 4,
            degree_threshold: thrd,
            min_task_events: 8,
            min_task_nodes: 4,
            ..HareConfig::default()
        });
        assert_eq!(
            engine.count_all(&g, delta).matrix,
            reference.matrix,
            "{thrd:?}"
        );
    }
}

#[test]
fn scheduling_discipline_never_changes_results() {
    let g = skewed_graph(2);
    let delta = 1_000;
    let reference = hare::count_motifs(&g, delta);
    for sched in [Scheduling::Dynamic, Scheduling::Static] {
        let engine = Hare::new(HareConfig {
            num_threads: 3,
            scheduling: sched,
            ..HareConfig::default()
        });
        assert_eq!(
            engine.count_all(&g, delta).matrix,
            reference.matrix,
            "{sched:?}"
        );
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let g = skewed_graph(3);
    let engine = Hare::with_threads(4);
    let first = engine.count_all(&g, 1_500);
    for _ in 0..3 {
        assert_eq!(engine.count_all(&g, 1_500).matrix, first.matrix);
    }
}

#[test]
fn parallel_pair_and_tri_match_sequential() {
    let g = skewed_graph(4);
    let delta = 1_000;
    let pairs = hare::fast_pair::fast_pair(&g, delta);
    let tris = hare::count_triangle_motifs(&g, delta);
    for threads in [1, 2, 4] {
        let engine = splitting_engine(threads);
        assert_eq!(engine.count_pair(&g, delta), pairs, "{threads} threads");
        assert_eq!(
            engine.count_matrix(&g, delta, Some(MotifCategory::Triangle)),
            tris,
            "{threads} threads"
        );
    }
}

/// Every `only` category on the pool path with split hubs — the
/// `STARS`-masked and `TRIS`-masked runs and FAST-Pair — against EX.
#[test]
fn every_only_category_on_the_pool_matches_ex() {
    let g = hub_graph(4);
    let delta = 2_000;
    assert!(g.degree(0) > 50, "hub must exceed the threshold");
    let (ex_star, ex_pair) = hare_baselines::ex::count_stars(&g, delta);
    let mut stars = MotifMatrix::default();
    ex_star.add_to_matrix(&mut stars);
    let mut pairs = MotifMatrix::default();
    ex_pair.add_to_matrix_center_based(&mut pairs);
    assert_eq!(pairs, hare_baselines::ex::count_pairs(&g, delta));
    let tris = hare_baselines::ex::count_triangles(&g, delta);
    for threads in [1, 2, 4] {
        let engine = splitting_engine(threads);
        let count = |only| engine.count_matrix(&g, delta, Some(only));
        assert_eq!(count(MotifCategory::Star), stars, "{threads} threads");
        assert_eq!(count(MotifCategory::Triangle), tris, "{threads} threads");
        assert_eq!(count(MotifCategory::Pair), pairs, "{threads} threads");
    }
}

#[test]
fn parallel_ex_and_sampling_baselines_are_thread_stable() {
    // EX and EWS split work per thread at any size (no sequential
    // fallback), so a small graph exercises them fully.
    let g = GenConfig {
        nodes: 120,
        edges: 3_000,
        time_span: 40_000,
        zipf_exponent: 1.05,
        seed: 5,
        ..GenConfig::default()
    }
    .generate();
    let delta = 1_000;
    let ex1 = hare_baselines::ex::count_all_parallel(&g, delta, 1);
    for threads in [2, 3, 4] {
        assert_eq!(
            hare_baselines::ex::count_all_parallel(&g, delta, threads),
            ex1,
            "EX at {threads} threads"
        );
    }
    let cfg = hare_baselines::EwsConfig {
        edge_prob: 0.5,
        seed: 7,
    };
    // Chunk estimates fold in chunk order: bit-identical, not just close.
    let bits = |threads| -> Vec<u64> {
        hare_baselines::ews_estimate_parallel(&g, delta, &cfg, threads)
            .iter()
            .map(|(_, x)| x.to_bits())
            .collect()
    };
    let e1 = bits(1);
    for threads in [2, 3, 4] {
        assert_eq!(bits(threads), e1, "EWS at {threads} threads");
    }
}
