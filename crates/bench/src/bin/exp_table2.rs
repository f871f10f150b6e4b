//! Table II: basic statistics of the sixteen temporal networks.
//!
//! Prints the paper's reported statistics next to the generated
//! stand-in's statistics and the scale factor applied.
//!
//! ```text
//! cargo run --release -p hare-bench --bin exp_table2 -- [--max-edges N] [--json]
//! ```

use hare_bench::{emit_json, Args, Workloads};
use temporal_graph::stats::GraphStats;

fn main() {
    let args = Args::parse();
    let w = Workloads::from_args(&args, 200_000, 600);

    println!("Table II: dataset statistics (paper vs generated stand-in)");
    println!("{:-<110}", "");
    println!(
        "{:<16} {:>12} {:>13} {:>10} | {:>6} {:>10} {:>12} {:>10} {:>9}",
        "Dataset",
        "paper |V|",
        "paper |E|",
        "span(d)",
        "scale",
        "gen |V|",
        "gen |E|",
        "span(d)",
        "max deg"
    );
    println!("{:-<110}", "");

    for spec in hare_datasets::all() {
        let (g, scale) = w.generate(&spec);
        let s = GraphStats::compute(&g);
        println!(
            "{:<16} {:>12} {:>13} {:>10.0} | {:>6} {:>10} {:>12} {:>10.0} {:>9}",
            spec.name,
            spec.paper_nodes,
            spec.paper_edges,
            spec.paper_span_days,
            scale,
            s.num_nodes,
            s.num_edges,
            s.time_span_days(),
            s.max_degree
        );
        if w.json {
            emit_json(&[
                ("experiment", "table2".into()),
                ("dataset", spec.name.into()),
                ("paper_nodes", spec.paper_nodes.into()),
                ("paper_edges", spec.paper_edges.into()),
                ("paper_span_days", spec.paper_span_days.into()),
                ("scale", scale.into()),
                ("gen_nodes", s.num_nodes.into()),
                ("gen_edges", s.num_edges.into()),
                ("gen_span_days", s.time_span_days().into()),
                ("gen_max_degree", s.max_degree.into()),
            ]);
        }
    }
    println!("{:-<110}", "");
    println!(
        "note: stand-ins are generated at 1/scale of the paper's size with the time span preserved,\n\
         so per-δ event densities match the full datasets."
    );
}
