//! The batch workloads: `hare-count` jobs on one generated SNAP file.
//!
//! A job is a read (count all 36 motifs) or a write (ingest only:
//! `--stats`, which parses and builds the graph and counts nothing).
//! The pass alternates the two, one process at a time, each using every
//! core through `--threads`.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use hare::MotifMatrix;
use temporal_graph::io::{load_graph, save_graph, LoadOptions};
use temporal_graph::stats::GraphStats;
use temporal_graph::LaneLayout;

use crate::calib::Speed;
use crate::gen;
use crate::measure::{median, peak_rss_job, run_job, Latency, Metrics, Tally, MIN_P90_SAMPLES};
use crate::Ctx;

/// The two batch workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// WikiTalk-shaped hubs, raw lanes, in-RAM HARE.
    Hubs,
    /// Email-Eu-shaped dense graph, compressed lanes, out-of-core chunks.
    Chunked,
}

/// Everything a batch run needs, made in set-up.
pub struct Input {
    pub shape: Shape,
    pub path: PathBuf,
    pub file_bytes: u64,
    pub delta: i64,
    pub edges: usize,
    pub nodes: usize,
    /// Raw lane bytes of the in-RAM graph.
    pub raw_lane_bytes: usize,
    /// `--chunk-budget` (chunked only).
    pub chunk_budget: Option<usize>,
    /// Reference matrix from sequential `hare::count_motifs`.
    pub matrix: MotifMatrix,
    /// Reference `--stats --json` body.
    pub stats_body: String,
}

/// Chunk budget as a share of the raw lane bytes: several chunks.
const CHUNK_BUDGET_DIVISOR: usize = 8;

/// Generate the workload's input file and its in-process references.
pub fn prepare(ctx: &Ctx, shape: Shape) -> Input {
    // WikiTalk/64 is about 122k edges, Email-Eu/2 about 166k; each δ puts
    // the kernel scan at over half of a count job. At these sizes the
    // count job's cost varies by about ±5 % across seeds.
    let (generated, delta) = match shape {
        Shape::Hubs => (gen::dataset("WikiTalk", 64, ctx.seed), 86_400),
        Shape::Chunked => (gen::dataset("Email-Eu", 2, ctx.seed), 3_600),
    };
    let path = ctx.work.join("input.txt");
    save_graph(&generated, &path).expect("writing the input file");
    let graph = load_graph(&path, &LoadOptions::default()).expect("loading the generated input");
    let stats = GraphStats::compute(&graph);
    let matrix = hare::count_motifs(&graph, delta).matrix;
    let raw_lane_bytes = graph.resident_lane_bytes();
    Input {
        shape,
        file_bytes: std::fs::metadata(&path).map_or(0, |m| m.len()),
        delta,
        edges: graph.num_edges(),
        nodes: graph.num_nodes(),
        raw_lane_bytes,
        chunk_budget: (shape == Shape::Chunked).then_some(raw_lane_bytes / CHUNK_BUDGET_DIVISOR),
        matrix,
        stats_body: hare::report::render(&hare::report::graph_stats_body(&stats)),
        path,
    }
}

impl Input {
    /// The lane layout the read job asks for.
    pub fn layout(&self) -> LaneLayout {
        match self.shape {
            Shape::Hubs => LaneLayout::Raw,
            Shape::Chunked => LaneLayout::Compressed,
        }
    }

    /// The read job: count every motif.
    pub fn count_cmd(&self, ctx: &Ctx) -> Command {
        let mut cmd = Command::new(&ctx.hare_count);
        cmd.arg("--input").arg(&self.path);
        cmd.args([
            "--delta",
            &self.delta.to_string(),
            "--threads",
            &ctx.nproc.to_string(),
        ]);
        if let Some(budget) = self.chunk_budget {
            cmd.args([
                "--lanes",
                "compressed",
                "--chunk-budget",
                &budget.to_string(),
            ]);
        }
        cmd.arg("--json");
        cmd
    }

    /// The write job: parse and build only.
    pub fn stats_cmd(&self, ctx: &Ctx) -> Command {
        let mut cmd = Command::new(&ctx.hare_count);
        cmd.arg("--input")
            .arg(&self.path)
            .args(["--stats", "--json"]);
        cmd
    }

    /// Does a count job's `--json` stdout carry the reference counts?
    /// The timing field is the one nondeterministic part and is skipped.
    pub fn count_ok(&self, stdout: &str) -> bool {
        let Ok(v) = serde_json::from_str(stdout.trim_end()) else {
            return false;
        };
        let want = hare::report::exact_body(self.nodes, self.edges, self.delta, &self.matrix, None);
        ["delta", "nodes", "edges", "total", "counts"]
            .iter()
            .all(|k| v.get(k).map(ToString::to_string) == want.get(k).map(ToString::to_string))
    }

    pub fn stats_ok(&self, stdout: &str) -> bool {
        stdout == self.stats_body
    }
}

/// Ingest-only jobs timed for `setup_s` before the pass.
const SETUP_SAMPLES: usize = 21;

/// Count jobs whose peak RSS is measured after the pass; the median is
/// reported.
const PEAK_RSS_JOBS: usize = 5;

/// Wall time of a process that does no work (`--help`), to show how
/// much of a job is spawn and exit.
pub fn spawn_seconds(ctx: &Ctx) -> f64 {
    let walls: Vec<f64> = (0..7)
        .map(|_| run_job(Command::new(&ctx.hare_count).arg("--help")).wall)
        .collect();
    median(&walls)
}

/// Untraced end-to-end run. A calibration unit follows every job of
/// set-up and of the pass, and each job's wall time is reported in
/// reference seconds, scaled by the unit that followed it (see `calib`).
/// Pairing each job with its own unit tracked short slow spells best:
/// over a 4-minute loop that turned slow halfway, the quartile spread of
/// 20-s window p90s of the count job was 58 % unscaled, 45 % scaled by
/// the median of the 9 nearest units, and 28 % scaled by its own unit.
pub fn run(ctx: &Ctx, input: &Input, meta: &mut crate::Meta) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let spawn_s = spawn_seconds(ctx);
    let mut speed = Speed::compute(Instant::now());
    // A timed job and the unit after it: (wall seconds, unit seconds).
    let mut timed = |cmd: &mut Command, ok: &dyn Fn(&str) -> bool, speed: &mut Speed| {
        let job = run_job(cmd);
        tally.record(job.ok_exit && ok(&job.stdout));
        (job.wall, speed.sample())
    };
    let stats_ok = |out: &str| input.stats_ok(out);
    let count_ok = |out: &str| input.count_ok(out);

    // Set-up time: the ingest-only job, several times, median.
    let mut setup = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        setup.push(timed(&mut input.stats_cmd(ctx), &stats_ok, &mut speed));
    }
    for _ in 0..2 {
        timed(&mut input.count_cmd(ctx), &count_ok, &mut speed);
    }

    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds
        || reads.len().min(writes.len()) < MIN_P90_SAMPLES
    {
        reads.push(timed(&mut input.count_cmd(ctx), &count_ok, &mut speed));
        writes.push(timed(&mut input.stats_cmd(ctx), &stats_ok, &mut speed));
        if start.elapsed().as_secs_f64() > ctx.seconds * 4.0 {
            break;
        }
    }
    let pass_s = start.elapsed().as_secs_f64();

    // Peak RSS of the count job, measured apart from the timed pass.
    let peaks: Vec<f64> = (0..PEAK_RSS_JOBS)
        .map(|_| {
            let (stdout, peak) = peak_rss_job(&input.count_cmd(ctx)).unwrap_or_default();
            tally.record(input.count_ok(&stdout) && peak > 0);
            peak as f64
        })
        .collect();

    // The pass's write jobs are the same command as set-up, so they
    // join its samples: the median then spans the whole run instead of
    // the moment before the pass.
    setup.extend(&writes);
    let in_ref = |jobs: &[(f64, f64)]| -> Vec<f64> {
        jobs.iter()
            .map(|&(wall, unit)| speed.scale(wall, unit))
            .collect()
    };
    let walls = |jobs: &[(f64, f64)]| -> Vec<f64> { jobs.iter().map(|j| j.0).collect() };
    let (read_ref, write_ref) = (in_ref(&reads), in_ref(&writes));
    let read = Latency::of(&read_ref);
    let write = Latency::of(&write_ref);
    let setup_s = median(&in_ref(&setup));
    let read_total: f64 = read_ref.iter().sum();
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set(
        "edges_per_s",
        (input.edges * reads.len()) as f64 / read_total,
        "edges/s",
    );
    m.set(
        "req_per_s",
        (reads.len() + writes.len()) as f64 / (read_total + write_ref.iter().sum::<f64>()),
        "req/s",
    );
    m.set("read_p50_ms", read.p50 * 1e3, "ms");
    m.set("read_p90_ms", read.p90 * 1e3, "ms");
    m.set("write_p50_ms", write.p50 * 1e3, "ms");
    m.set("write_p90_ms", write.p90 * 1e3, "ms");
    m.set("peak_rss_mb", median(&peaks) / 1e6, "MB");

    // The same figures in measured seconds, for comparison.
    let raw_read = Latency::of(&walls(&reads));
    let raw_setup_s = median(&walls(&setup));
    meta.num("raw_setup_s", raw_setup_s);
    meta.num(
        "raw_edges_per_s",
        (input.edges * reads.len()) as f64 / walls(&reads).iter().sum::<f64>(),
    );
    meta.num("raw_read_p50_ms", raw_read.p50 * 1e3);
    meta.num("raw_read_p90_ms", raw_read.p90 * 1e3);
    meta.num("raw_write_p50_ms", Latency::of(&walls(&writes)).p50 * 1e3);
    speed.write_meta(meta);
    meta.num(
        "peak_rss_max_mb",
        peaks.iter().copied().fold(0.0, f64::max) / 1e6,
    );
    meta.num("spawn_s", spawn_s);
    meta.num("spawn_share_of_setup", spawn_s / raw_setup_s);
    meta.num("spawn_share_of_read", spawn_s / raw_read.p50);
    meta.num("pass_s", pass_s);
    meta.int("read_samples", read.n as u64);
    meta.int("write_samples", write.n as u64);
    meta.int("setup_samples", setup.len() as u64);
    meta.flag(
        "p90_reportable",
        read.p90_reportable() && write.p90_reportable(),
    );
    (m, tally)
}
