//! The repository benchmark: drives the built `hare-count` and
//! `hare-serve` binaries on seeded inputs and prints one JSON result.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --bin-dir DIR --work-dir DIR [--commit ID] [--source DIGEST]
//! ```
//!
//! `--trace 0` times the programs from outside and prints the
//! end-to-end metrics. `--trace 1` calls each layer's public functions
//! in-process, in the order the programs call them, records spans and
//! work counts, and prints the per-layer metrics. See README.md.

mod batch;
mod calib;
mod gen;
mod measure;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use measure::{json_str, num, Metrics, Tally};

pub const WORKLOADS: [&str; 3] = ["batch_hubs", "batch_chunked", "serve_mix"];

/// What every part of a run shares.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub hare_count: PathBuf,
    pub hare_serve: PathBuf,
    /// Per-run scratch directory for generated inputs.
    pub work: PathBuf,
    /// Where results and spans are written.
    pub out: PathBuf,
    pub nproc: usize,
    pub commit: String,
    /// Digest of the sources built; keys the stored work counts.
    pub source: String,
}

/// The metadata record written into every result: ordered JSON fields.
#[derive(Default)]
pub struct Meta(Vec<(String, String)>);

impl Meta {
    pub fn num(&mut self, k: &str, v: f64) {
        self.0.push((k.into(), num(v)));
    }
    pub fn int(&mut self, k: &str, v: u64) {
        self.0.push((k.into(), v.to_string()));
    }
    pub fn text(&mut self, k: &str, v: &str) {
        self.0.push((k.into(), json_str(v)));
    }
    pub fn flag(&mut self, k: &str, v: bool) {
        self.0.push((k.into(), v.to_string()));
    }
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed: u64 = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let bin = PathBuf::from(need("--bin-dir")?);
    let out = PathBuf::from(need("--work-dir")?);
    let work = out.join(format!("{workload}-seed{seed}-trace{}", u8::from(trace)));
    Ok(Ctx {
        hare_count: bin.join("hare-count"),
        hare_serve: bin.join("hare-serve"),
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        commit: get("--commit").unwrap_or_else(|| "none".into()),
        source: get("--source").unwrap_or_else(|| "unknown".into()),
        workload,
        seed,
        seconds,
        trace,
        work,
        out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(measure::PEAK_RSS_FLAG) {
        return if measure::peak_rss_helper(&argv[1..]) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for bin in [&ctx.hare_count, &ctx.hare_serve] {
        if !bin.is_file() {
            eprintln!("perfbench: {} is not built", bin.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: creating {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }

    let mut meta = Meta::default();
    meta.text("workload", &ctx.workload);
    meta.int("seed", ctx.seed);
    meta.num("seconds", ctx.seconds);
    meta.flag("trace", ctx.trace);
    meta.int("nproc", ctx.nproc as u64);
    meta.int("threads", ctx.nproc as u64);
    meta.int("workers", ctx.nproc as u64);
    meta.text("git_commit", &ctx.commit);
    meta.text("source_digest", &ctx.source);

    let (metrics, tally) = run(&ctx, &mut meta);
    meta.num("failed_frac", tally.failed_frac());

    let correct = tally.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    let record = format!("{{\"meta\": {}, \"result\": {result}}}\n", meta.to_json());
    let path = ctx.out.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = measure::write_file(&path, &record) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    let _ = std::fs::remove_dir_all(&ctx.work);

    let mut summary = String::new();
    let _ = writeln!(
        summary,
        "{} seed {} ({}):",
        ctx.workload,
        ctx.seed,
        if ctx.trace { "traced" } else { "untraced" }
    );
    summary.push_str(&metrics.table());
    let _ = writeln!(
        summary,
        "  {:<36} {:>16} fraction ({} of {} operations)",
        "failed_frac",
        num(tally.failed_frac()),
        tally.failed,
        tally.attempted
    );
    eprint!("{summary}");
    println!("{{\"meta\": {}}}", meta.to_json());
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checked operations failed",
            tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}

fn run(ctx: &Ctx, meta: &mut Meta) -> (Metrics, Tally) {
    if ctx.workload == "serve_mix" {
        let plan = serve::Plan::new(ctx.seed, ctx.seconds);
        meta.int("input_edges", plan.hot.num_edges() as u64);
        meta.int("input_nodes", plan.hot.num_nodes() as u64);
        meta.int("input_file_bytes", plan.hot_text.len() as u64);
        let small = |f: fn(&serve::Cold) -> usize| plan.cold.iter().map(f).sum::<usize>() as u64;
        meta.int("small_input_edges", small(|c| c.graph.num_edges()));
        meta.int("small_input_file_bytes", small(|c| c.text.len()));
        meta.int("delta", plan.targets.hot_delta(0) as u64);
        meta.text("chunk_budget", "none");
        if ctx.trace {
            trace::run_serve(ctx, &plan, meta)
        } else {
            serve::run(ctx, &plan, meta)
        }
    } else {
        let shape = if ctx.workload == "batch_hubs" {
            batch::Shape::Hubs
        } else {
            batch::Shape::Chunked
        };
        let input = batch::prepare(ctx, shape);
        meta.int("input_edges", input.edges as u64);
        meta.int("input_nodes", input.nodes as u64);
        meta.int("input_file_bytes", input.file_bytes);
        meta.int("delta", input.delta as u64);
        match input.chunk_budget {
            Some(b) => meta.int("chunk_budget", b as u64),
            None => meta.text("chunk_budget", "none"),
        }
        if ctx.trace {
            trace::run_batch(ctx, &input, meta)
        } else {
            batch::run(ctx, &input, meta)
        }
    }
}
