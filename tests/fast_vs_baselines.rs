//! Cross-validation of every exact algorithm in the workspace: FAST,
//! HARE, EX, BT, raw enumeration and 2SCENT must agree on the counts of
//! every motif class over a grid of workloads, seeds and δ values.
//!
//! This is the repository's central correctness argument: five
//! independently implemented algorithms (different data structures,
//! different traversal orders, different counting disciplines) producing
//! the same 36 numbers on every workload.

use hare::motif::{m, Motif, MotifCategory};
use temporal_graph::gen::{erdos_renyi_temporal, hub_burst, GenConfig};
use temporal_graph::TemporalGraph;

fn workloads() -> Vec<(String, TemporalGraph)> {
    let mut out = Vec::new();
    for seed in 0..3 {
        out.push((
            format!("er-{seed}"),
            erdos_renyi_temporal(20, 300, 500, seed),
        ));
    }
    out.push((
        "conversations".into(),
        GenConfig {
            nodes: 40,
            edges: 700,
            time_span: 20_000,
            seed: 5,
            ..GenConfig::default()
        }
        .generate(),
    ));
    out.push(("hub".into(), hub_burst(30, 500, 4_000, 7)));
    out.push((
        "dense-ties".into(),
        // Many simultaneous timestamps stress the tie-breaking rules.
        erdos_renyi_temporal(10, 200, 20, 11),
    ));
    out
}

#[test]
fn all_exact_algorithms_agree() {
    for (name, g) in workloads() {
        for delta in [0, 10, 120, 5_000] {
            let oracle = hare_baselines::enumerate_all(&g, delta);
            let fast = hare::count_motifs(&g, delta);
            assert_eq!(
                oracle, fast.matrix,
                "oracle vs FAST on {name} (delta {delta})"
            );
            let ex = hare_baselines::ex::count_all(&g, delta);
            assert_eq!(oracle, ex, "oracle vs EX on {name} (delta {delta})");
            let bt = hare_baselines::bt_count_all(&g, delta);
            assert_eq!(oracle, bt, "oracle vs BT on {name} (delta {delta})");
        }
    }
}

/// The oriented whole-graph drivers against the enumeration oracle and
/// EX on hub-skewed graphs with dense timestamp ties: hubs rank highest,
/// so nearly every triangle is counted from a spoke, and ties exercise
/// the edge-id classification at the vertex that owns the instance.
#[test]
fn oriented_grids_match_oracles_on_hub_skewed_ties() {
    let graphs = [
        ("hub-ties", hub_burst(20, 400, 60, 3)),
        ("hub-ties-2", hub_burst(12, 300, 25, 8)),
        (
            "zipf-ties",
            GenConfig {
                nodes: 30,
                edges: 500,
                time_span: 80,
                zipf_exponent: 1.3,
                seed: 4,
                ..GenConfig::default()
            }
            .generate(),
        ),
    ];
    for (name, g) in graphs {
        let hub = g.node_ids().max_by_key(|&u| g.degree(u)).unwrap();
        assert_eq!(g.node_rank()[hub as usize] as usize, g.num_nodes() - 1);
        for delta in [0, 3, 15, 100] {
            let oracle = hare_baselines::enumerate_all(&g, delta);
            let fast = hare::count_motifs(&g, delta);
            assert_eq!(
                oracle, fast.matrix,
                "oracle vs FAST on {name} (delta {delta})"
            );
            let ex = hare_baselines::ex::count_all(&g, delta);
            assert_eq!(ex, fast.matrix, "EX vs FAST on {name} (delta {delta})");
            let tris = hare::count_triangle_motifs(&g, delta);
            let hare2 = hare::Hare::with_threads(2);
            let only_tris = hare2.count_matrix(&g, delta, Some(MotifCategory::Triangle));
            assert_eq!(
                hare2.count_all(&g, delta),
                fast,
                "HARE/2 on {name} (delta {delta})"
            );
            for mo in Motif::all().filter(|mo| mo.category() == MotifCategory::Triangle) {
                assert_eq!(
                    tris.get(mo),
                    oracle.get(mo),
                    "{mo} on {name} (delta {delta})"
                );
                assert_eq!(
                    only_tris.get(mo),
                    oracle.get(mo),
                    "{mo} on {name} (delta {delta})"
                );
            }
        }
    }
}

#[test]
fn specialised_variants_agree_with_full_count() {
    for (name, g) in workloads() {
        let delta = 300;
        let full = hare::count_motifs(&g, delta);
        let pair_only = hare::count_pair_motifs(&g, delta);
        let tri_only = hare::count_triangle_motifs(&g, delta);
        let bt_pairs = hare_baselines::bt_count_pairs(&g, delta);
        let ex_pairs = hare_baselines::ex::count_pairs(&g, delta);
        let ex_tris = hare_baselines::ex::count_triangles(&g, delta);
        for mo in Motif::all() {
            match mo.category() {
                MotifCategory::Pair => {
                    assert_eq!(full.get(mo), pair_only.get(mo), "{name} {mo} fast-pair");
                    assert_eq!(full.get(mo), bt_pairs.get(mo), "{name} {mo} bt-pair");
                    assert_eq!(full.get(mo), ex_pairs.get(mo), "{name} {mo} ex-pair");
                }
                MotifCategory::Triangle => {
                    assert_eq!(full.get(mo), tri_only.get(mo), "{name} {mo} fast-tri");
                    assert_eq!(full.get(mo), ex_tris.get(mo), "{name} {mo} ex-tri");
                }
                MotifCategory::Star => {}
            }
        }
    }
}

#[test]
fn two_scent_matches_m26_everywhere() {
    for (name, g) in workloads() {
        for delta in [10, 300, 5_000] {
            let fast = hare::count_motifs(&g, delta);
            assert_eq!(
                hare_baselines::two_scent_tri(&g, delta),
                fast.get(m(2, 6)),
                "{name} delta={delta}"
            );
        }
    }
}

#[test]
fn calibrated_datasets_validate_end_to_end() {
    // One representative of each family through the full pipeline at a
    // small scale (keeps CI fast while touching the realistic shapes).
    for name in ["CollegeMsg", "Bitcoinalpha", "WikiTalk"] {
        let spec = hare_datasets::by_name(name).unwrap();
        let scale = spec.scale_for(8_000);
        let g = spec.generate(scale);
        let delta = 600;
        let fast = hare::count_motifs(&g, delta);
        let ex = hare_baselines::ex::count_all(&g, delta);
        assert_eq!(fast.matrix, ex, "{name}");
        assert!(fast.total() > 0, "{name} produced an empty workload");
    }
}

#[test]
fn counts_monotone_in_delta() {
    let (_, g) = &workloads()[0];
    let mut prev = 0u64;
    for delta in [0, 5, 25, 100, 1_000, 100_000] {
        let total = hare::count_motifs(g, delta).total();
        assert!(total >= prev, "total decreased at delta={delta}");
        prev = total;
    }
}
