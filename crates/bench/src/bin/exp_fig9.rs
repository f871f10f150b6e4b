//! Fig. 9: data statistics on WikiTalk — (a) node degree distribution,
//! (b) average per-node motif-counting time by degree.
//!
//! Reproduces both panels as tables over log-spaced degree bins, showing
//! the long-tailed distribution and the hub nodes' domination of total
//! counting time — the observation motivating HARE's intra-node
//! parallelism.
//!
//! ```text
//! cargo run --release -p hare-bench --bin exp_fig9 -- \
//!     [--max-edges N] [--delta N] [--json]
//! ```

use hare::{CenterTally, NeighborScratch};
use hare_bench::{emit_json, human_secs, Args, Workloads};
use temporal_graph::stats::degree_histogram;

fn main() {
    let args = Args::parse();
    let w = Workloads::from_args(&args, 300_000, 600);
    let spec = hare_datasets::by_name("WikiTalk").unwrap();
    let (g, scale) = w.generate(&spec);

    println!(
        "Fig. 9: WikiTalk stand-in (scale 1/{scale}: {} nodes, {} edges), delta = {}s",
        g.num_nodes(),
        g.num_edges(),
        w.delta
    );

    // Panel (a): degree distribution.
    println!("\n(a) degree distribution (log2 bins)");
    println!("{:<18} {:>12}", "degree range", "#nodes");
    let bins = degree_histogram(&g);
    for b in &bins {
        if b.count > 0 {
            println!("[{:>6}, {:>6})   {:>12}", b.lo, b.hi, b.count);
        }
    }

    // Panel (b): average per-node counting time per degree bin.
    println!("\n(b) average motif-counting time per node, by degree bin");
    println!(
        "{:<18} {:>8} {:>14} {:>16}",
        "degree range", "#timed", "avg time/node", "bin total time"
    );
    let mut scratch = NeighborScratch::new(g.num_nodes());
    let mut rows = Vec::new();
    for b in &bins {
        if b.count == 0 || b.hi <= 1 {
            continue;
        }
        // Time up to 200 nodes per bin, extrapolating the bin total.
        let nodes: Vec<u32> = g
            .node_ids()
            .filter(|&u| {
                let d = g.degree(u);
                d >= b.lo && d < b.hi
            })
            .take(200)
            .collect();
        if nodes.is_empty() {
            continue;
        }
        let start = std::time::Instant::now();
        // One masked kernel call per category: stars+pairs, then
        // triangles.
        let mut tally = CenterTally::default();
        for &u in &nodes {
            let all = 0..g.node_events(u).len();
            hare::fused::count_node::<true, false, false>(
                &g,
                u,
                all.clone(),
                w.delta,
                &[],
                &mut scratch,
                &mut tally,
            );
            hare::fused::count_node::<false, true, false>(
                &g,
                u,
                all,
                w.delta,
                &[],
                &mut scratch,
                &mut tally,
            );
        }
        std::hint::black_box(&tally);
        let avg = start.elapsed().as_secs_f64() / nodes.len() as f64;
        let bin_total = avg * b.count as f64;
        println!(
            "[{:>6}, {:>6})   {:>8} {:>14} {:>16}",
            b.lo,
            b.hi,
            nodes.len(),
            human_secs(avg),
            human_secs(bin_total)
        );
        rows.push((b.lo, b.hi, b.count, avg, bin_total));
        if w.json {
            emit_json(&[
                ("experiment", "fig9".into()),
                ("degree_lo", b.lo.into()),
                ("degree_hi", b.hi.into()),
                ("nodes_in_bin", b.count.into()),
                ("avg_node_seconds", avg.into()),
                ("bin_total_seconds", bin_total.into()),
            ]);
        }
    }

    // The paper's observation: the top-degree bins dominate total time.
    let total: f64 = rows.iter().map(|r| r.4).sum();
    if let Some(top) = rows.last() {
        println!(
            "\ntop bin holds {:.4}% of nodes but {:.1}% of total counting time",
            100.0 * top.2 as f64 / g.num_nodes() as f64,
            100.0 * top.4 / total
        );
    }
}
