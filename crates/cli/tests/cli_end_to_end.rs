//! End-to-end tests of the `hare-count` binary: spawn the real
//! executable (via `CARGO_BIN_EXE_hare-count`) and check exit codes,
//! human output, and the `--json` output shape.

use std::process::{Command, Output};

fn hare_count(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hare-count"))
        .args(args)
        .output()
        .expect("failed to spawn hare-count")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is utf-8")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = hare_count(&["--help"]);
    assert!(out.status.success());
    let text = stdout_of(&out);
    assert!(text.contains("USAGE"), "{text}");
    assert!(text.contains("--delta"), "{text}");
}

#[test]
fn missing_arguments_fail_with_usage_on_stderr() {
    let out = hare_count(&["--delta", "600"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--input or --dataset"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn unknown_dataset_lists_known_names() {
    let out = hare_count(&["--dataset", "NoSuchNet", "--delta", "600"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown dataset"), "{err}");
    assert!(err.contains("CollegeMsg"), "{err}");
}

#[test]
fn dataset_run_prints_motif_matrix_and_totals() {
    let out = hare_count(&["--dataset", "CollegeMsg", "--scale", "8", "--delta", "600"]);
    assert!(out.status.success());
    let text = stdout_of(&out);
    // The 6×6 canonical grid plus the per-category totals.
    for row in ["row1", "row2", "row3", "row4", "row5", "row6"] {
        assert!(text.contains(row), "missing {row} in output:\n{text}");
    }
    assert!(text.contains("pair total:"), "{text}");
    assert!(text.contains("star total:"), "{text}");
    assert!(text.contains("triangle total:"), "{text}");
}

#[test]
fn json_output_has_the_documented_shape() {
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--json",
    ]);
    assert!(out.status.success());
    let v = serde_json::from_str(stdout_of(&out).trim()).expect("stdout is one JSON object");
    assert_eq!(v["delta"].as_i64(), Some(600));
    assert!(v["nodes"].as_u64().unwrap() > 0);
    assert!(v["edges"].as_u64().unwrap() > 0);
    assert!(v["seconds"].as_f64().unwrap() >= 0.0);
    let cells = v["counts"].as_array().expect("counts is an array");
    assert_eq!(cells.len(), 36, "one cell per canonical motif");
    let sum: u64 = cells.iter().map(|c| c["count"].as_u64().unwrap()).sum();
    assert_eq!(v["total"].as_u64(), Some(sum), "total equals cell sum");
    // Every cell names a motif like "M23".
    for cell in cells {
        let name = cell["motif"].as_str().unwrap();
        assert!(
            name.len() == 3 && name.starts_with('M'),
            "unexpected motif name {name:?}"
        );
    }
}

#[test]
fn only_pairs_populates_exactly_the_pair_cells() {
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--only",
        "pairs",
        "--json",
    ]);
    assert!(out.status.success());
    let v = serde_json::from_str(stdout_of(&out).trim()).unwrap();
    let cells = v["counts"].as_array().unwrap();
    assert_eq!(cells.len(), 36);
    // The four pair motifs occupy the (5,5)..(6,6) block of the grid:
    // M55, M56, M65, M66. Everything else must be zero in pair-only mode.
    let pair_names = ["M55", "M56", "M65", "M66"];
    let mut pair_total = 0u64;
    for cell in cells {
        let name = cell["motif"].as_str().unwrap();
        let count = cell["count"].as_u64().unwrap();
        if pair_names.contains(&name) {
            pair_total += count;
        } else {
            assert_eq!(count, 0, "non-pair motif {name} counted in pair-only mode");
        }
    }
    assert!(pair_total > 0, "pair-rich messaging workload counted none");
    assert_eq!(v["total"].as_u64(), Some(pair_total));
}

#[test]
fn only_pairs_agrees_with_full_count_on_pair_cells() {
    let common = [
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--json",
    ];
    let full = hare_count(&common);
    let pairs: Vec<&str> = common.iter().copied().chain(["--only", "pairs"]).collect();
    let pairs = hare_count(&pairs);
    let vf = serde_json::from_str(stdout_of(&full).trim()).unwrap();
    let vp = serde_json::from_str(stdout_of(&pairs).trim()).unwrap();
    let count_of = |v: &serde_json::Value, name: &str| -> u64 {
        v["counts"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["motif"].as_str() == Some(name))
            .and_then(|c| c["count"].as_u64())
            .unwrap()
    };
    for name in ["M55", "M56", "M65", "M66"] {
        assert_eq!(
            count_of(&vf, name),
            count_of(&vp, name),
            "pair cell {name} differs between full and pair-only runs"
        );
    }
}

#[test]
fn stats_mode_reports_graph_shape_without_delta() {
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--stats",
        "--json",
    ]);
    assert!(out.status.success());
    let v = serde_json::from_str(stdout_of(&out).trim()).unwrap();
    assert!(v["nodes"].as_u64().unwrap() > 0);
    assert!(v["edges"].as_u64().unwrap() > 0);
    assert!(v["max_degree"].as_u64().unwrap() > 0);
}

/// A per-test unique temp dir (concurrent test runs must not race).
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hare_cli_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn golden_fig1_json_is_byte_identical() {
    // `--json --no-timing` output is deterministic; the checked-in golden
    // file pins it byte-for-byte (field order, number formatting, all 36
    // cells — including the paper's "exactly one M65 at delta=10").
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig1_delta10.json"
    );
    let out = hare_count(&["--input", data, "--delta", "10", "--json", "--no-timing"]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout,
        expected,
        "fig1 golden mismatch:\n got: {}\nwant: {}",
        stdout_of(&out),
        String::from_utf8_lossy(&expected)
    );
}

#[test]
fn golden_collegemsg_json_is_byte_identical() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/collegemsg_scale8_delta600.json"
    );
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--json",
        "--no-timing",
    ]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout,
        expected,
        "CollegeMsg golden mismatch:\n got: {}\nwant: {}",
        stdout_of(&out),
        String::from_utf8_lossy(&expected)
    );
}

/// CollegeMsg/64 at δ = its time span + 1: every window runs to the end
/// of its lane, the star/pair kernel's most expensive case (the shape of
/// the service's cold `/count` requests). The goldens were written by the
/// rescanning kernel before the sliding window replaced it; every thread
/// count, lane layout and chunk budget must reproduce them byte for byte.
#[test]
fn golden_collegemsg_whole_span_is_byte_identical() {
    let base = [
        "--dataset",
        "CollegeMsg",
        "--scale",
        "64",
        "--delta",
        "15403239",
    ];
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/collegemsg_scale64_whole_span.json"
    );
    let expected = std::fs::read(golden).expect("golden file present");
    for variant in [
        ["--threads", "1"].as_slice(),
        &["--threads", "2"],
        &["--chunk-budget", "4096"],
        &["--lanes", "compressed", "--chunk-budget", "4096"],
    ] {
        let args: Vec<&str> = base
            .iter()
            .copied()
            .chain(["--json", "--no-timing"])
            .chain(variant.iter().copied())
            .collect();
        let out = hare_count(&args);
        assert!(out.status.success(), "{variant:?}");
        assert_eq!(
            out.stdout,
            expected,
            "whole-span golden drifted under {variant:?}:\n got: {}",
            stdout_of(&out)
        );
    }
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/collegemsg_scale64_whole_span_top_m66.jsonl"
    );
    let expected = std::fs::read(golden).expect("golden file present");
    for threads in ["1", "2"] {
        let args: Vec<&str> = base
            .iter()
            .copied()
            .chain(["--json", "--no-timing", "--threads", threads])
            .chain(["--nodes", "--rank-motif", "M66", "--top-k", "10"])
            .collect();
        let out = hare_count(&args);
        assert!(out.status.success());
        assert_eq!(
            out.stdout,
            expected,
            "whole-span top-M66 golden drifted at --threads {threads}:\n got: {}",
            stdout_of(&out)
        );
    }
}

#[test]
fn lanes_and_chunk_budget_bodies_are_byte_identical() {
    // The lane layout and the out-of-core chunk budget are execution
    // strategies, not semantics: every combination must render the exact
    // same `--json --no-timing` bytes — pinned against the checked-in
    // golden files so a drift in either path is caught, not just a
    // mutual drift.
    let fig1 = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let cases: [(&[&str], &str); 2] = [
        (
            &["--input", fig1, "--delta", "10"],
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/fig1_delta10.json"
            ),
        ),
        (
            &["--dataset", "CollegeMsg", "--scale", "8", "--delta", "600"],
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/collegemsg_scale8_delta600.json"
            ),
        ),
    ];
    for (base, golden) in cases {
        let expected = std::fs::read(golden).expect("golden file present");
        // Budgets from "everything fits in one chunk" down to "a few
        // hundred edges per chunk" (forcing many delta-haloed chunks).
        for variant in [
            ["--lanes", "raw"].as_slice(),
            &["--lanes", "compressed"],
            &["--lanes", "raw", "--chunk-budget", "1000000000"],
            &["--lanes", "raw", "--chunk-budget", "16384"],
            &["--lanes", "compressed", "--chunk-budget", "16384"],
        ] {
            let full: Vec<&str> = base
                .iter()
                .copied()
                .chain(["--json", "--no-timing"])
                .chain(variant.iter().copied())
                .collect();
            let out = hare_count(&full);
            assert!(
                out.status.success(),
                "{variant:?}: {}",
                String::from_utf8(out.stderr.clone()).unwrap()
            );
            assert_eq!(
                out.stdout,
                expected,
                "{golden}: body drifted under {variant:?}:\n got: {}",
                stdout_of(&out)
            );
        }
    }
}

/// `--chunk-budget` on an `--input` file counts straight from the
/// parsed, remapped and time-sorted edge list, never building the whole
/// graph. On a file with comments, self-loops, sparse 64-bit ids,
/// timestamp ties, negative times and out-of-order lines, its output
/// must be the in-RAM count's bytes for every thread count, lane layout
/// and budget — from one chunk down to forced cuts.
#[test]
fn chunked_input_route_matches_in_ram_on_a_messy_snap_file() {
    let dir = temp_dir("chunked_input");
    let path = dir.join("messy.txt");
    let ids: [u64; 9] = [
        7,
        u64::MAX,
        1 << 40,
        9_000_000_000_000_000_000,
        42,
        3,
        u64::MAX - 1,
        1 << 63,
        123_456_789_012,
    ];
    let mut text = String::from("# src dst t\n% sparse ids, ties, self-loops\n");
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..600u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let src = ids[(x % 9) as usize];
        // Every 23rd line is a self-loop; the rest pick a second id.
        let dst = if i % 23 == 0 {
            src
        } else {
            ids[((x >> 8) % 9) as usize]
        };
        // Times drawn from 120 values straddling zero: out of order,
        // with many ties.
        let t = 60 * ((x >> 20) % 120) as i64 - 3_600;
        text.push_str(&format!("{src} {dst} {t}\n"));
    }
    std::fs::write(&path, text).unwrap();
    let file = path.to_str().unwrap();
    let run = |extra: &[&str]| {
        let mut args = vec!["--input", file, "--delta", "600", "--no-timing"];
        args.extend(extra);
        let out = hare_count(&args);
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    for json in [&["--json"][..], &[]] {
        let want = run(&[json, &["--threads", "1"]].concat());
        if !json.is_empty() {
            let v: serde_json::Value =
                serde_json::from_str(std::str::from_utf8(&want).unwrap()).unwrap();
            assert_eq!(v["nodes"].as_u64(), Some(9), "self-loops take no id");
            assert!(v["total"].as_u64().unwrap() > 0, "nothing counted");
        }
        for threads in ["1", "2"] {
            assert_eq!(run(&[json, &["--threads", threads]].concat()), want);
            for lanes in ["raw", "compressed"] {
                // One chunk, a handful of chunks, and forced cuts.
                for budget in ["1000000000", "4096", "1"] {
                    let flags = [
                        json,
                        &[
                            "--threads",
                            threads,
                            "--lanes",
                            lanes,
                            "--chunk-budget",
                            budget,
                        ],
                    ]
                    .concat();
                    assert_eq!(run(&flags), want, "{flags:?} drifted from the in-RAM count");
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The dynetworkx tie fixture: three edges into node 2 tie at t = 30,
/// then node 2 sends two at t = 32 and 33 (docs/ARCHITECTURE.md, "Ties",
/// says where its counts differ from dynetworkx's). The goldens pin the
/// in-RAM count at δ = 3 and 5; the chunked route must print the same
/// bytes, with budgets that cut at t = 30 (160 bytes at δ = 3 on one
/// worker, forced cuts either side of it at δ = 5), cut at t = 28–30
/// (480), and force a cut at every timestamp (1).
#[test]
fn golden_dnx_tie_fixture_is_byte_identical_in_ram_and_chunked() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/dnx_ties.txt");
    for (delta, golden) in [
        (
            "3",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/dnx_ties_delta3.json"
            ),
        ),
        (
            "5",
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/golden/dnx_ties_delta5.json"
            ),
        ),
    ] {
        let expected = std::fs::read(golden).expect("golden file present");
        let base = ["--input", data, "--delta", delta, "--json", "--no-timing"];
        let mut variants = vec![vec![]];
        for threads in ["1", "2"] {
            for lanes in ["raw", "compressed"] {
                for budget in ["160", "480", "1"] {
                    variants.push(vec![
                        "--threads",
                        threads,
                        "--lanes",
                        lanes,
                        "--chunk-budget",
                        budget,
                    ]);
                }
            }
        }
        for variant in variants {
            let out = hare_count(&[&base[..], &variant].concat());
            assert!(
                out.status.success(),
                "{variant:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                out.stdout,
                expected,
                "delta={delta} {variant:?}:\n got: {}",
                stdout_of(&out)
            );
        }
    }
}

#[test]
fn golden_fig1_nodes_jsonl_is_byte_identical() {
    // Per-node mode: one JSON line per participating node, in ascending
    // node-id order. Node ids here are *interned* by first appearance in
    // the file (fig1.txt starts "4 3 1", so paper node e=4 becomes 0),
    // and the golden pins the paper's single M65 pair on interned nodes
    // 0 and 1.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig1_delta10_nodes.jsonl"
    );
    let out = hare_count(&[
        "--input",
        data,
        "--delta",
        "10",
        "--nodes",
        "--json",
        "--no-timing",
    ]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout,
        expected,
        "fig1 per-node golden mismatch:\n got: {}\nwant: {}",
        stdout_of(&out),
        String::from_utf8_lossy(&expected)
    );
}

#[test]
fn golden_collegemsg_nodes_jsonl_is_byte_identical() {
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/collegemsg_scale8_delta600_nodes.jsonl"
    );
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--nodes",
        "--json",
        "--no-timing",
    ]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout,
        expected,
        "CollegeMsg per-node golden mismatch (first differing line: {:?})",
        stdout_of(&out)
            .lines()
            .zip(String::from_utf8_lossy(&expected).lines())
            .find(|(a, b)| a != b)
    );
}

#[test]
fn nodes_rankings_are_consistent_with_profiles() {
    // `--rank-motif` top-k must agree with what the per-node records say:
    // the reported counts are exactly the highest counts for that motif,
    // ties broken by ascending node id.
    let common = [
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--nodes",
        "--json",
        "--no-timing",
    ];
    let profiles = hare_count(&common);
    assert!(profiles.status.success());
    let m66_of = |line: &str| -> (u64, u64) {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        let count = v["counts"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["motif"].as_str() == Some("M66"))
            .and_then(|c| c["count"].as_u64())
            .unwrap_or(0);
        (v["node"].as_u64().unwrap(), count)
    };
    let mut by_m66: Vec<(u64, u64)> = stdout_of(&profiles)
        .lines()
        .map(m66_of)
        .filter(|&(_, c)| c > 0)
        .collect();
    by_m66.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    by_m66.truncate(3);

    let ranked: Vec<&str> = common
        .iter()
        .copied()
        .chain(["--rank-motif", "M66", "--top-k", "3"])
        .collect();
    let ranked = hare_count(&ranked);
    assert!(ranked.status.success());
    let v: serde_json::Value = serde_json::from_str(stdout_of(&ranked).trim()).unwrap();
    assert_eq!(v["rank"].as_str(), Some("motif"));
    assert_eq!(v["motif"].as_str(), Some("M66"));
    let got: Vec<(u64, u64)> = v["nodes"]
        .as_array()
        .unwrap()
        .iter()
        .map(|n| (n["node"].as_u64().unwrap(), n["count"].as_u64().unwrap()))
        .collect();
    assert_eq!(got, by_m66, "top-k disagrees with per-node records");
}

#[test]
fn nodes_mode_rejects_incompatible_flags() {
    for args in [
        ["--nodes", "--approx"].as_slice(),
        &["--nodes", "--window", "1200"],
        &["--nodes", "--stats"],
        &["--nodes", "--only", "pairs"],
        &["--top-k", "5"],
        &["--rank-motif", "M66"],
        &["--nodes", "--rank-motif", "M99"],
        &["--nodes", "--top-k", "0"],
    ] {
        let full: Vec<&str> = ["--dataset", "CollegeMsg", "--delta", "600"]
            .iter()
            .copied()
            .chain(args.iter().copied())
            .collect();
        let out = hare_count(&full);
        assert!(!out.status.success(), "expected failure for {args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--nodes") || err.contains("--top-k") || err.contains("motif"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn malformed_input_reports_line_number_and_fails() {
    let dir = temp_dir("malformed");
    let path = dir.join("bad.txt");
    std::fs::write(&path, "0 1 10\n1 2 twelve\n2 0 14\n").unwrap();
    let out = hare_count(&["--input", path.to_str().unwrap(), "--delta", "600"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("twelve"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_line_is_a_parse_error() {
    let dir = temp_dir("truncated");
    let path = dir.join("short.txt");
    std::fs::write(&path, "0 1\n").unwrap();
    let out = hare_count(&["--input", path.to_str().unwrap(), "--delta", "600"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 1"), "{err}");
    assert!(err.contains("fields"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_timestamp_column_fails_with_a_message_not_a_panic() {
    let dir = temp_dir("tscol");
    let path = dir.join("edges.txt");
    std::fs::write(&path, "0 1 10\n1 2 12\n").unwrap();
    for (col, want) in [
        (
            "18446744073709551615",
            "line 1: expected at least 18446744073709551616 fields, found 3",
        ),
        (
            "9223372036854775807",
            "line 1: expected at least 9223372036854775808 fields, found 3",
        ),
        ("-1", "--timestamp-col"),
        ("2.5", "--timestamp-col"),
    ] {
        let out = hare_count(&[
            "--input",
            path.to_str().unwrap(),
            "--delta",
            "10",
            "--timestamp-col",
            col,
        ]);
        assert_eq!(out.status.code(), Some(1), "--timestamp-col {col}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(want), "--timestamp-col {col}: {err}");
        assert!(!err.contains("panicked"), "--timestamp-col {col}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn only_pairs_with_max_delta_on_negative_timestamps() {
    // `t − δ` at t = −100 and δ = i64::MAX lies below i64::MIN: the
    // pair window must saturate there, not wrap and run off the list.
    let dir = temp_dir("neg_delta");
    let path = dir.join("neg.txt");
    std::fs::write(&path, "0 1 -100\n1 0 -50\n0 1 -10\n").unwrap();
    let input = path.to_str().unwrap();
    let delta = i64::MAX.to_string();
    for only in ["pairs", "all"] {
        let out = hare_count(&[
            "--input", input, "--delta", &delta, "--only", only, "--json",
        ]);
        assert!(
            out.status.success(),
            "--only {only}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let v = serde_json::from_str(stdout_of(&out).trim()).unwrap();
        assert_eq!(v["total"].as_u64(), Some(1), "--only {only}");
        let m65 = v["counts"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["motif"].as_str() == Some("M65"))
            .unwrap();
        assert_eq!(m65["count"].as_u64(), Some(1), "--only {only}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_input_file_counts_nothing() {
    let dir = temp_dir("empty");
    let path = dir.join("empty.txt");
    std::fs::write(&path, "").unwrap();
    let out = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "600",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8(out.stderr.clone()).unwrap()
    );
    let v = serde_json::from_str(stdout_of(&out).trim()).unwrap();
    assert_eq!(v["nodes"].as_u64(), Some(0));
    assert_eq!(v["edges"].as_u64(), Some(0));
    assert_eq!(v["total"].as_u64(), Some(0));
    std::fs::remove_file(&path).ok();
}

#[test]
fn non_monotone_input_is_sorted_for_batch_counting() {
    // The same edges in shuffled vs chronological file order must count
    // identically in batch mode (the builder's stable sort normalises).
    let dir = temp_dir("nonmono");
    let shuffled = dir.join("shuffled.txt");
    let sorted = dir.join("sorted.txt");
    std::fs::write(&shuffled, "2 0 14\n0 1 10\n1 2 12\n").unwrap();
    std::fs::write(&sorted, "0 1 10\n1 2 12\n2 0 14\n").unwrap();
    let run = |p: &std::path::Path| {
        let out = hare_count(&[
            "--input",
            p.to_str().unwrap(),
            "--delta",
            "600",
            "--json",
            "--no-timing",
        ]);
        assert!(out.status.success());
        stdout_of(&out)
    };
    assert_eq!(run(&shuffled), run(&sorted));
    std::fs::remove_file(&shuffled).ok();
    std::fs::remove_file(&sorted).ok();
}

#[test]
fn windowed_mode_emits_one_json_object_per_tick() {
    // Two triangle bursts 500s apart with a 100s window: the first burst
    // must be present at the first tick and expired by the later ones.
    let dir = temp_dir("windowed");
    let path = dir.join("stream.txt");
    std::fs::write(&path, "0 1 10\n1 2 12\n2 0 14\n0 1 500\n1 2 505\n2 0 509\n").unwrap();
    let out = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "20",
        "--window",
        "100",
        "--tick",
        "100",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8(out.stderr.clone()).unwrap()
    );
    let text = stdout_of(&out);
    let ticks: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("each tick is one JSON object"))
        .collect();
    assert!(ticks.len() >= 2, "expected multiple ticks:\n{text}");
    for v in &ticks {
        assert_eq!(v["delta"].as_i64(), Some(20));
        assert_eq!(v["window"].as_i64(), Some(100));
        assert_eq!(v["counts"].as_array().unwrap().len(), 36);
        assert_eq!(v["late_dropped"].as_u64(), Some(0));
    }
    let m26_of = |v: &serde_json::Value| -> u64 {
        v["counts"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["motif"].as_str() == Some("M26"))
            .and_then(|c| c["count"].as_u64())
            .unwrap()
    };
    // First tick sees the first cycle; the final tick sees only the
    // second one (the first expired with its edges).
    assert_eq!(m26_of(&ticks[0]), 1, "{text}");
    assert_eq!(ticks[0]["live_edges"].as_u64(), Some(3));
    let last = ticks.last().unwrap();
    assert_eq!(m26_of(last), 1);
    assert_eq!(last["total"].as_u64(), Some(1));
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_mode_slack_reorders_and_drops_late_edges() {
    // t=95 arrives after t=100 (inside slack 10: reordered and kept);
    // t=10 arrives at the end (far beyond slack: dropped, not fatal).
    let dir = temp_dir("slack");
    let path = dir.join("ooo.txt");
    std::fs::write(&path, "0 1 100\n1 2 95\n2 0 103\n3 4 10\n").unwrap();
    let out = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "20",
        "--window",
        "50",
        "--slack",
        "10",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8(out.stderr.clone()).unwrap()
    );
    let text = stdout_of(&out);
    let last: serde_json::Value = serde_json::from_str(text.lines().last().unwrap()).unwrap();
    assert_eq!(last["late_dropped"].as_u64(), Some(1), "{text}");
    assert_eq!(last["live_edges"].as_u64(), Some(3), "{text}");
    // The reordered triple (1->2 @95, 0->1 @100, 2->0 @103) is a
    // triangle instance — in this chronological order, class M25. Had
    // the late edge been dropped instead of reordered, no 3-edge motif
    // would exist at all, so total == 1 pins the reordering.
    let m25 = last["counts"]
        .as_array()
        .unwrap()
        .iter()
        .find(|c| c["motif"].as_str() == Some("M25"))
        .and_then(|c| c["count"].as_u64())
        .unwrap();
    assert_eq!(m25, 1, "{text}");
    assert_eq!(last["total"].as_u64(), Some(1), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_mode_self_loop_timestamp_does_not_advance_ticks() {
    // Regression: a dropped self-loop at a far-future timestamp must not
    // emit spurious ticks or raise the acceptance floor — the in-slack
    // edges after it stay accepted and form the triangle.
    let dir = temp_dir("loop_ts");
    let path = dir.join("loopy.txt");
    std::fs::write(&path, "0 1 100\n5 5 200\n1 2 95\n2 0 103\n").unwrap();
    let out = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "20",
        "--window",
        "50",
        "--slack",
        "10",
        "--tick",
        "5",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8(out.stderr.clone()).unwrap()
    );
    let text = stdout_of(&out);
    let ticks: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let last = ticks.last().unwrap();
    assert_eq!(last["self_loops_dropped"].as_u64(), Some(1), "{text}");
    assert_eq!(last["late_dropped"].as_u64(), Some(0), "{text}");
    assert_eq!(last["tick"].as_i64(), Some(103), "{text}");
    assert_eq!(last["live_edges"].as_u64(), Some(3), "{text}");
    assert_eq!(last["total"].as_u64(), Some(1), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_mode_trailing_ticks_respect_their_boundary() {
    // Regression: trailing boundaries must be drained before the final
    // flush — each tick reports the window as of its own boundary, not
    // end-of-stream counts. At tick 80 the in-slack edges at t=95/t=100
    // are still in the future, so the window holds only the edge at t=50.
    let dir = temp_dir("trailing");
    let path = dir.join("tail.txt");
    std::fs::write(&path, "0 1 0\n4 5 50\n1 2 100\n2 3 95\n").unwrap();
    let out = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "20",
        "--window",
        "50",
        "--slack",
        "20",
        "--tick",
        "80",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8(out.stderr.clone()).unwrap()
    );
    let text = stdout_of(&out);
    let ticks: Vec<serde_json::Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    let at_80 = ticks
        .iter()
        .find(|v| v["tick"].as_i64() == Some(80))
        .unwrap_or_else(|| panic!("no tick at 80:\n{text}"));
    assert_eq!(at_80["live_edges"].as_u64(), Some(1), "{text}");
    let last = ticks.last().unwrap();
    assert_eq!(last["tick"].as_i64(), Some(100), "{text}");
    assert_eq!(last["live_edges"].as_u64(), Some(3), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_mode_requires_window_at_least_delta() {
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--delta",
        "600",
        "--window",
        "10",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--window"), "{err}");
}

#[test]
fn input_file_path_end_to_end() {
    // A triangle within δ plus one far-away edge, through a temp file.
    // Per-process unique path so concurrent test runs don't race.
    let dir = std::env::temp_dir().join(format!("hare_cli_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edges.txt");
    std::fs::write(&path, "0 1 10\n1 2 12\n2 0 14\n3 4 99999\n").unwrap();
    let out = hare_count(&[
        "--input",
        path.to_str().unwrap(),
        "--delta",
        "600",
        "--json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8(out.stderr.clone()).unwrap()
    );
    let v = serde_json::from_str(stdout_of(&out).trim()).unwrap();
    assert_eq!(v["nodes"].as_u64(), Some(5));
    assert_eq!(v["edges"].as_u64(), Some(4));
    assert!(
        v["total"].as_u64().unwrap() > 0,
        "triangle instance expected"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn approx_json_output_has_the_documented_shape() {
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--approx",
        "--prob",
        "0.5",
        "--ci",
        "0.95",
        "--seed",
        "7",
        "--json",
    ]);
    assert!(out.status.success());
    let v = serde_json::from_str(stdout_of(&out).trim()).expect("stdout is one JSON object");
    assert_eq!(v["delta"].as_i64(), Some(600));
    assert!(v["nodes"].as_u64().unwrap() > 0);
    assert!(v["seconds"].as_f64().unwrap() >= 0.0);
    let approx = &v["approx"];
    assert_eq!(approx["prob"].as_f64(), Some(0.5));
    assert_eq!(approx["confidence"].as_f64(), Some(0.95));
    assert_eq!(approx["seed"].as_u64(), Some(7));
    assert_eq!(approx["window_factor"].as_i64(), Some(10));
    assert_eq!(approx["window_len"].as_i64(), Some(6000));
    let total_w = approx["windows_total"].as_u64().unwrap();
    let sampled_w = approx["windows_sampled"].as_u64().unwrap();
    assert!(total_w > 0 && sampled_w <= total_w);

    let cells = v["counts"].as_array().expect("counts is an array");
    assert_eq!(cells.len(), 36, "one cell per canonical motif");
    let mut sum = 0.0;
    for cell in cells {
        let name = cell["motif"].as_str().unwrap();
        assert!(name.len() == 3 && name.starts_with('M'), "{name:?}");
        let est = cell["estimate"].as_f64().unwrap();
        let stderr = cell["stderr"].as_f64().unwrap();
        let (lo, hi) = (
            cell["ci_lo"].as_f64().unwrap(),
            cell["ci_hi"].as_f64().unwrap(),
        );
        assert!(est >= 0.0 && stderr >= 0.0, "{name}");
        assert!(lo <= est && est <= hi, "{name}: CI must bracket estimate");
        sum += est;
    }
    let total = v["total_estimate"].as_f64().unwrap();
    assert!(
        (total - sum).abs() < 1e-6 * total.max(1.0),
        "total_estimate {total} != cell sum {sum}"
    );
}

#[test]
fn approx_prob_one_reproduces_exact_counts_bit_identically() {
    let common = [
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--no-timing",
        "--json",
    ];
    let exact = hare_count(&common);
    let approx: Vec<&str> = common
        .iter()
        .copied()
        .chain(["--approx", "--prob", "1.0"])
        .collect();
    let approx = hare_count(&approx);
    assert!(exact.status.success() && approx.status.success());
    let ve = serde_json::from_str(stdout_of(&exact).trim()).unwrap();
    let va = serde_json::from_str(stdout_of(&approx).trim()).unwrap();
    let exact_of = |v: &serde_json::Value, name: &str| -> u64 {
        v["counts"]
            .as_array()
            .unwrap()
            .iter()
            .find(|c| c["motif"].as_str() == Some(name))
            .and_then(|c| c["count"].as_u64())
            .unwrap()
    };
    for cell in va["counts"].as_array().unwrap() {
        let name = cell["motif"].as_str().unwrap();
        let est = cell["estimate"].as_f64().unwrap();
        let exact_count = exact_of(&ve, name) as f64;
        assert_eq!(est, exact_count, "{name}: p=1.0 must be exact, bit for bit");
        assert_eq!(cell["stderr"].as_f64(), Some(0.0), "{name}");
        assert_eq!(cell["ci_lo"].as_f64(), Some(est), "{name}");
        assert_eq!(cell["ci_hi"].as_f64(), Some(est), "{name}");
    }
}

#[test]
fn golden_window_collegemsg_jsonl_is_byte_identical() {
    // The exact sliding-window counter over CollegeMsg:8, one tick per
    // day of a one-day window with ten minutes of reorder slack. The
    // golden pins every tick's bytes: live edges, drops and all 36
    // cells as edges arrive and expire.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/collegemsg_scale8_window.jsonl"
    );
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--window",
        "86400",
        "--slack",
        "600",
        "--tick",
        "86400",
        "--json",
    ]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout, expected,
        "CollegeMsg --window golden mismatch (run the command in this \
         test and diff against the golden to inspect)"
    );
}

#[test]
fn golden_memory_budget_fig1_jsonl_is_byte_identical() {
    // Bounded-memory streaming over the Fig. 1 toy with a roomy budget:
    // everything is retained (prob stays 1.0), so the single tick is the
    // exact counts in estimator clothing. Deterministic, so the output
    // is pinned byte for byte.
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fig1_delta10_budget.jsonl"
    );
    let out = hare_count(&[
        "--input",
        data,
        "--delta",
        "10",
        "--window",
        "40",
        "--memory-budget",
        "1048576",
        "--json",
    ]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout,
        expected,
        "fig1 --memory-budget golden mismatch:\n got: {}\nwant: {}",
        stdout_of(&out),
        String::from_utf8_lossy(&expected)
    );
}

#[test]
fn golden_memory_budget_collegemsg_jsonl_is_byte_identical() {
    // A window spanning the whole CollegeMsg:8 stream against a 1 KiB
    // budget (64 retained edges): the estimator must halve its sampling
    // probability to stay under budget. The golden pins the whole
    // adaptive trajectory — probs, retained bytes, and every estimate —
    // byte for byte, seeded so reruns are identical.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/collegemsg_scale8_budget.jsonl"
    );
    let out = hare_count(&[
        "--dataset",
        "CollegeMsg",
        "--scale",
        "8",
        "--delta",
        "600",
        "--window",
        "16000000",
        "--tick",
        "4000000",
        "--memory-budget",
        "1024",
        "--seed",
        "42",
        "--json",
    ]);
    assert!(out.status.success());
    let expected = std::fs::read(golden).expect("golden file present");
    assert_eq!(
        out.stdout, expected,
        "CollegeMsg --memory-budget golden mismatch (run the command in \
         this test and diff against the golden to inspect)"
    );
    // Beyond byte identity, re-check the budget contract on the golden
    // itself: every tick's retained bytes fit, and halving engaged.
    let text = stdout_of(&out);
    let mut min_prob = 1.0f64;
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).unwrap();
        let retained = v["budget"]["retained_bytes"].as_u64().unwrap();
        assert!(retained <= 1024, "tick exceeds budget: {line}");
        min_prob = min_prob.min(v["budget"]["prob"].as_f64().unwrap());
    }
    assert!(
        min_prob < 1.0,
        "tight budget never engaged sampling:\n{text}"
    );
}

/// A span wider than `i64::MAX` (timestamps at both ends of the range)
/// must not wrap: `--stats` reports a non-negative span, and sampling
/// at p = 1 counts every window exactly, with an exact window total.
#[test]
fn time_span_wider_than_i64_max_does_not_wrap() {
    let dir = temp_dir("wide_span");
    let path = dir.join("wide.txt");
    std::fs::write(
        &path,
        "0 1 -9000000000000000000\n1 2 -8999999999999999999\n2 0 9000000000000000000\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    let json = |args: &[&str]| -> serde_json::Value {
        let out = hare_count(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        serde_json::from_str(stdout_of(&out).trim()).unwrap()
    };
    let stats = json(&["--input", file, "--stats", "--json"]);
    assert!(stats["time_span"].as_i64().unwrap() >= 0, "{stats}");

    let exact = json(&["--input", file, "--delta", "10", "--json", "--no-timing"]);
    let approx = json(&[
        "--input",
        file,
        "--delta",
        "10",
        "--approx",
        "--prob",
        "1",
        "--json",
        "--no-timing",
    ]);
    assert_eq!(
        approx["approx"]["windows_total"].as_u64(),
        Some(180_000_000_000_000_001)
    );
    let exact_counts = exact["counts"].as_array().unwrap();
    let approx_counts = approx["counts"].as_array().unwrap();
    assert_eq!(exact_counts.len(), 36);
    for (e, a) in exact_counts.iter().zip(approx_counts) {
        assert_eq!(e["motif"], a["motif"]);
        assert_eq!(
            e["count"].as_f64(),
            a["estimate"].as_f64(),
            "{}",
            e["motif"]
        );
    }
}

#[test]
fn profile_mode_stdout_is_byte_identical_and_table_on_stderr() {
    // `--profile` is pure observability: the per-phase table goes to
    // stderr and stdout must not move by a byte — across the in-RAM
    // exact kernel, the out-of-core path, and the sampling estimator,
    // on both the Fig. 1 toy and CollegeMsg:8.
    let fig1 = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let cases: &[(&[&str], &str)] = &[
        (&["--input", fig1, "--delta", "10"], "scan"),
        (
            &["--dataset", "CollegeMsg", "--scale", "8", "--delta", "600"],
            "scan",
        ),
        (
            &[
                "--dataset",
                "CollegeMsg",
                "--scale",
                "8",
                "--delta",
                "600",
                "--chunk-budget",
                "16384",
            ],
            "chunk_load",
        ),
        (
            &[
                "--dataset",
                "CollegeMsg",
                "--scale",
                "8",
                "--delta",
                "600",
                "--approx",
                "--prob",
                "0.5",
                "--seed",
                "7",
            ],
            "scan",
        ),
    ];
    for (base, phase) in cases {
        let plain: Vec<&str> = base
            .iter()
            .copied()
            .chain(["--json", "--no-timing"])
            .collect();
        let profiled: Vec<&str> = plain.iter().copied().chain(["--profile"]).collect();
        let plain = hare_count(&plain);
        let profiled = hare_count(&profiled);
        assert!(
            plain.status.success() && profiled.status.success(),
            "{base:?}: {}",
            String::from_utf8_lossy(&profiled.stderr)
        );
        assert_eq!(
            plain.stdout,
            profiled.stdout,
            "{base:?}: --profile moved stdout:\n got: {}\nwant: {}",
            stdout_of(&profiled),
            stdout_of(&plain)
        );
        let err = String::from_utf8(profiled.stderr).unwrap();
        assert!(err.contains("phase"), "{base:?}: no table header:\n{err}");
        assert!(err.contains(phase), "{base:?}: no {phase} row:\n{err}");
    }
}

#[test]
fn memory_budget_flag_combinations_are_rejected() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let cases: &[(&[&str], &str)] = &[
        // Streaming-only: the budget needs a window.
        (
            &["--input", data, "--delta", "10", "--memory-budget", "4096"],
            "--window",
        ),
        // Zero budget can hold nothing.
        (
            &[
                "--input",
                data,
                "--delta",
                "10",
                "--window",
                "40",
                "--memory-budget",
                "0",
            ],
            "--memory-budget",
        ),
        // --prob belongs to --approx; budget mode adapts p itself.
        (
            &[
                "--input",
                data,
                "--delta",
                "10",
                "--window",
                "40",
                "--memory-budget",
                "4096",
                "--prob",
                "0.5",
            ],
            "--approx",
        ),
        // --approx is batch, --memory-budget is streaming: exclusive.
        (
            &[
                "--input",
                data,
                "--delta",
                "10",
                "--approx",
                "--memory-budget",
                "4096",
            ],
            "--window",
        ),
    ];
    for (args, fragment) in cases {
        let out = hare_count(args);
        assert!(!out.status.success(), "{args:?} should be rejected");
        let err = String::from_utf8(out.stderr.clone()).unwrap();
        assert!(err.contains(fragment), "{args:?}: {err}");
    }
}

#[test]
fn negative_delta_is_an_error_in_every_mode() {
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    for extra in [
        [].as_slice(),
        &["--window", "10"],
        &["--window", "10", "--memory-budget", "4096"],
        &["--approx"],
        &["--nodes"],
        &["--nodes", "--top-k", "3"],
        &["--chunk-budget", "4096"],
    ] {
        let mut args = vec!["--input", data, "--delta", "-5"];
        args.extend(extra);
        let out = hare_count(&args);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: want exit 1");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains("--delta must be non-negative, got -5"),
            "{extra:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{extra:?}: no output on error");
    }
}

/// Run `hare-count`, failing the test if it has not exited within 10 s.
fn hare_count_within_10s(args: &[&str]) -> Output {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let mut child = Command::new(env!("CARGO_BIN_EXE_hare-count"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn hare-count");
    // Drain stdout on a thread so a runaway tick stream cannot fill the
    // pipe and stall the child before the deadline.
    let mut stdout = child.stdout.take().unwrap();
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut stdout, &mut buf).ok();
        buf
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} did not terminate within 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut out = child.wait_with_output().unwrap();
    out.stdout = reader.join().unwrap();
    out
}

#[test]
fn windowed_cadence_saturates_at_the_largest_timestamp() {
    // Windows, ticks and slacks of i64::MAX used to overflow `t + tick`
    // and `boundary + slack`: ticks wrapped to negative labels and the
    // slack case never terminated. Each must terminate, and no tick may
    // be labelled before the first accepted timestamp (t=1).
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/fig1.txt");
    let max = i64::MAX.to_string();
    for extra in [
        ["--window", max.as_str()].as_slice(),
        &["--window", "20", "--tick", max.as_str()],
        &["--window", "20", "--slack", max.as_str()],
        &[
            "--window",
            max.as_str(),
            "--tick",
            max.as_str(),
            "--slack",
            max.as_str(),
        ],
    ] {
        let mut args = vec!["--input", data, "--delta", "10", "--json"];
        args.extend(extra);
        let out = hare_count_within_10s(&args);
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = stdout_of(&out);
        let ticks: Vec<i64> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap()["tick"].as_i64().unwrap())
            .collect();
        assert!(!ticks.is_empty(), "{extra:?}: no ticks");
        assert!(ticks.iter().all(|&t| t >= 1), "{extra:?}: {ticks:?}");
        assert_eq!(ticks.last(), Some(&21), "{extra:?}: final watermark");
        assert!(
            ticks.windows(2).all(|w| w[0] <= w[1]),
            "{extra:?}: {ticks:?}"
        );
    }
}
