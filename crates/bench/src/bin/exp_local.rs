//! Per-node local-profile harness: time the fused single-scan
//! attribution driver (`hare::NodeProfiles` over `fingerprint::
//! profile_of`, one δ-window pass per center) against the two-pass
//! path (`profile_of_separate`: a `STARS` pass and a `TRIS` pass of the
//! masked kernel per node), and the parallel HARE driver across thread
//! counts.
//!
//! The output schema (`hare-bench/local/v1`) mirrors the other exp_*
//! snapshots. The binary also asserts the refactor's contracts — the
//! fused path is bit-identical to the two-pass path on every node,
//! and the parallel driver is bit-identical across thread counts — so
//! a CI run fails on correctness regressions, not just slowdowns.
//!
//! ```text
//! cargo run --release -p hare-bench --bin exp_local -- \
//!     [--out BENCH_LOCAL.json] [--delta N] [--scale N] \
//!     [--samples N] [--threads 1,2,4] [--quick]
//! ```
//!
//! `--quick` drops to 3 timing samples and the CollegeMsg/8 workload —
//! the CI smoke configuration.

use hare::NeighborScratch;
use hare_bench::time;
use serde_json::{json, Value};

fn mean_time(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (untimed)
    (0..samples)
        .map(|_| {
            let ((), s) = time(&mut f);
            s
        })
        .sum::<f64>()
        / samples as f64
}

fn main() {
    let args = hare_bench::Args::parse();
    let quick = args.flag("quick");
    let samples: usize = args.get_num("samples", if quick { 3 } else { 10 });
    let out = args.get("out").unwrap_or("BENCH_LOCAL.json").to_string();
    let delta: i64 = args.get_num("delta", 600);
    let scale: usize = args.get_num("scale", if quick { 8 } else { 1 });
    let threads: Vec<usize> = args
        .get_list("threads", &[1.0, 2.0, 4.0])
        .into_iter()
        .map(|t| t as usize)
        .collect();

    let spec = hare_datasets::by_name("CollegeMsg").expect("registry");
    let g = spec.generate(scale);

    // Contract first: the fused single-scan attribution must equal the
    // two-pass (STARS, then TRIS) attribution on every node, bit for bit.
    let mut scratch = NeighborScratch::new(g.num_nodes());
    for u in g.node_ids() {
        assert_eq!(
            hare::fingerprint::profile_of(&g, u, delta, &mut scratch),
            hare::fingerprint::profile_of_separate(&g, u, delta, &mut scratch),
            "fused vs two-pass profile diverged on node {u}"
        );
    }

    // Sequential timing: fused single scan vs two masked passes.
    let fused_s = mean_time(samples, || {
        let mut scratch = NeighborScratch::new(g.num_nodes());
        for u in g.node_ids() {
            std::hint::black_box(hare::fingerprint::profile_of(&g, u, delta, &mut scratch));
        }
    });
    let separate_s = mean_time(samples, || {
        let mut scratch = NeighborScratch::new(g.num_nodes());
        for u in g.node_ids() {
            std::hint::black_box(hare::fingerprint::profile_of_separate(
                &g,
                u,
                delta,
                &mut scratch,
            ));
        }
    });

    // Parallel HARE driver across thread counts — bit-identical results
    // are asserted against the single-thread run.
    let reference = hare::NodeProfiles::compute(&g, delta, 1);
    let mut rows: Vec<(usize, f64)> = Vec::new();
    for &t in &threads {
        assert_eq!(
            hare::NodeProfiles::compute(&g, delta, t),
            reference,
            "parallel driver diverged at {t} threads"
        );
        let s = mean_time(samples, || {
            std::hint::black_box(hare::NodeProfiles::compute(&g, delta, t));
        });
        rows.push((t, s));
    }

    println!(
        "CollegeMsg/{scale}  delta={delta}  nodes={}  participating={}  ({samples} samples)",
        g.num_nodes(),
        reference.len()
    );
    println!(
        "sequential: fused {}  two-pass {}  ({:.2}x)",
        hare_bench::human_secs(fused_s),
        hare_bench::human_secs(separate_s),
        separate_s / fused_s
    );
    println!("{:>8} {:>10} {:>9}", "threads", "mean", "speedup");
    for &(t, s) in &rows {
        println!(
            "{t:>8} {:>10} {:>8.2}x",
            hare_bench::human_secs(s),
            fused_s / s
        );
    }

    let doc = json!({
        "schema": "hare-bench/local/v1",
        "dataset": "CollegeMsg",
        "scale": scale,
        "delta": delta,
        "samples": samples,
        "quick": quick,
        "nodes": g.num_nodes(),
        "participating": reference.len(),
        "fused_mean_s": fused_s,
        "separate_mean_s": separate_s,
        "fused_speedup": separate_s / fused_s,
        "parallel": rows
            .iter()
            .map(|&(t, s)| {
                json!({
                    "threads": t,
                    "mean_s": s,
                    "speedup_vs_sequential_fused": fused_s / s,
                })
            })
            .collect::<Vec<Value>>(),
    });
    std::fs::write(&out, format!("{doc}\n")).expect("write local-profile snapshot");
    println!("\nwrote {out}");
}
