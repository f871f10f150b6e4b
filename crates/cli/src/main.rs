//! `hare-count` — command-line temporal motif counter.
//!
//! The shape of the original paper's artifact (a counting executable),
//! rebuilt on this workspace's library:
//!
//! ```text
//! hare-count --input edges.txt --delta 600 [--threads N] [--json]
//! hare-count --dataset CollegeMsg --delta 600           # registry stand-in
//! hare-count --input edges.txt --delta 600 --only pairs # FAST-Pair
//! hare-count --input edges.txt --delta 600 --window 3600 --slack 60
//!                                                       # sliding window
//! ```

use std::process::ExitCode;

use hare::query::{Answer, Outcome, Param, Plan, PlanError, Session, SessionEngine, SessionSpec};
use hare::stream_sample::StreamSampleConfig;
use hare::{MotifCategory, NoopProbe, Probe, WallClockProbe};
use temporal_graph::io::{load_edges, load_graph, open, read_packed_edges, Interner, LoadOptions};
use temporal_graph::ooc::PackedEdges;
use temporal_graph::stats::GraphStats;
use temporal_graph::{NodeId, TemporalGraph, Timestamp};

const USAGE: &str = "\
hare-count: exact δ-temporal motif counting (FAST/HARE, ICDE 2022)

USAGE:
    hare-count (--input FILE | --dataset NAME [--scale K]) --delta SECONDS [options]

OPTIONS:
    --input FILE        SNAP-style edge list: 'src dst timestamp' per line
    --dataset NAME      generate a Table II stand-in from the registry
    --scale K           stand-in scale divisor (default 1)
    --delta SECONDS     the motif time window δ >= 0 (required)
    --threads N         worker threads (default: all cores; 1 = sequential FAST)
    --only CATEGORY     pairs | stars | triangles | all (default all)
    --timestamp-col N   zero-based timestamp column (default 2)
    --json              machine-readable output
    --stats             print graph statistics only
    --no-timing         omit wall-clock timing for byte-stable output
    --lanes LAYOUT      timestamp-lane layout: raw | compressed (default
                        raw). compressed bit-packs per-node timestamp
                        deltas; counts are bit-identical either way
    --chunk-budget B    out-of-core exact counting: stream delta-haloed
                        time chunks through the fused kernel, one chunk
                        per --threads worker at a time, keeping their
                        resident raw lane arenas under B bytes together
                        (compressed chunks also hold per-node run
                        metadata for the whole graph, which B does not
                        count).
                        With --input, the file is held as a bit-packed
                        edge stream (about 5 bytes per edge) and no
                        whole graph or edge list is built; B bounds the
                        chunk lanes, not the stream or the chunk
                        graphs' edge lists and pair indexes.
                        Bit-identical to in-RAM counting. Exact
                        all-motif mode only (no --only/--window/
                        --approx/--stats/--nodes)
    --profile           print a per-phase kernel timing table (scan /
                        fold / chunk_load / summarise) to stderr after
                        counting. stdout stays byte-identical to the
                        unprofiled run — the probe only observes phase
                        boundaries. Exact, --approx and --chunk-budget
                        modes (no --window/--stats/--nodes)
    --help              this text

APPROXIMATE (interval-sampling) MODE:
    --approx            estimate counts instead of counting exactly:
                        windows of length (window-factor * delta) are
                        kept with probability --prob, counted exactly,
                        and rescaled into unbiased per-motif estimates
                        with confidence intervals
    --prob P            window keep probability in (0, 1] (default 0.1);
                        1.0 reproduces the exact counts bit-identically
    --ci LEVEL          confidence level in (0, 1) (default 0.95)
    --window-factor C   sampling window length factor c >= 1 (default 10)
    --seed S            sampling seed (default 42; same seed, same windows)

PER-NODE (local motif profile) MODE:
    --nodes             per-node motif participation profiles instead of
                        the global matrix: stars attribute to their
                        center, pairs to both endpoints, triangles to
                        all three vertices. Alone, emits one sparse
                        profile per participating node; with a ranking
                        flag, emits a single ranking
    --rank-motif M      rank nodes by participation in motif M (M11..M66),
                        ties broken by node id; emits the top --top-k
                        rows (default 10)
    --top-k K           with --rank-motif: rows to emit; alone: rank the
                        K most anomalous nodes by the L2 norm of their
                        per-motif z-scores against the graph-wide
                        profile distribution

STREAMING (sliding-window) MODE:
    --window SECONDS    enable streaming: exact counts over the trailing
                        window W >= delta; emits one motif matrix per tick
    --slack SECONDS     reorder slack: accept arrivals up to this far
                        behind the newest timestamp (default 0); later
                        arrivals are dropped and reported, not fatal
    --tick SECONDS      tick interval in event time (default: the window)
    --memory-budget B   bounded-memory estimation: keep a deterministic
                        seeded interval reservoir of at most B bytes and
                        emit per-tick unbiased estimates with stderr and
                        confidence intervals instead of exact counts
                        (the keep probability p halves as the stream
                        fills the budget). Requires --window; accepts
                        --ci/--window-factor/--seed; a budget large
                        enough to retain the whole window reproduces the
                        exact ticks bit-identically

SERVICE PARITY:
    The long-running `hare-serve` daemon answers the same queries over
    HTTP with bodies byte-identical to this tool's --json --no-timing
    output (both render via the shared `hare::report` wire schema).
    See docs/SERVICE.md.
";

#[derive(Debug)]
struct Opts {
    input: Option<String>,
    dataset: Option<String>,
    scale: usize,
    delta: Option<i64>,
    threads: usize,
    only: String,
    timestamp_col: usize,
    json: bool,
    stats: bool,
    no_timing: bool,
    window: Option<i64>,
    slack: i64,
    tick: Option<i64>,
    approx: bool,
    prob: f64,
    ci: f64,
    window_factor: i64,
    seed: u64,
    nodes: bool,
    top_k: Option<usize>,
    rank_motif: Option<String>,
    lanes: String,
    chunk_budget: Option<usize>,
    memory_budget: Option<u64>,
    profile: bool,
}

fn parse_lanes(name: &str) -> Result<temporal_graph::LaneLayout, String> {
    match name {
        "raw" => Ok(temporal_graph::LaneLayout::Raw),
        "compressed" => Ok(temporal_graph::LaneLayout::Compressed),
        other => Err(format!("expected 'raw' or 'compressed', got {other:?}")),
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        input: None,
        dataset: None,
        scale: 1,
        delta: None,
        threads: 0,
        only: "all".into(),
        timestamp_col: 2,
        json: false,
        stats: false,
        no_timing: false,
        window: None,
        slack: 0,
        tick: None,
        approx: false,
        prob: 0.1,
        ci: 0.95,
        window_factor: 10,
        seed: 42,
        nodes: false,
        top_k: None,
        rank_motif: None,
        lanes: "raw".into(),
        chunk_budget: None,
        memory_budget: None,
        profile: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--input" => o.input = Some(value("--input")?),
            "--dataset" => o.dataset = Some(value("--dataset")?),
            "--scale" => {
                o.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--delta" => {
                o.delta = Some(
                    value("--delta")?
                        .parse()
                        .map_err(|e| format!("--delta: {e}"))?,
                )
            }
            "--threads" => {
                o.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--only" => o.only = value("--only")?,
            "--timestamp-col" => {
                o.timestamp_col = value("--timestamp-col")?
                    .parse()
                    .map_err(|e| format!("--timestamp-col: {e}"))?;
            }
            "--json" => o.json = true,
            "--stats" => o.stats = true,
            "--no-timing" => o.no_timing = true,
            "--window" => {
                o.window = Some(
                    value("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            "--slack" => {
                o.slack = value("--slack")?
                    .parse()
                    .map_err(|e| format!("--slack: {e}"))?
            }
            "--tick" => {
                o.tick = Some(
                    value("--tick")?
                        .parse()
                        .map_err(|e| format!("--tick: {e}"))?,
                )
            }
            "--approx" => o.approx = true,
            "--prob" => {
                o.prob = value("--prob")?
                    .parse()
                    .map_err(|e| format!("--prob: {e}"))?
            }
            "--ci" => o.ci = value("--ci")?.parse().map_err(|e| format!("--ci: {e}"))?,
            "--window-factor" => {
                o.window_factor = value("--window-factor")?
                    .parse()
                    .map_err(|e| format!("--window-factor: {e}"))?
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--nodes" => o.nodes = true,
            "--top-k" => {
                o.top_k = Some(
                    value("--top-k")?
                        .parse()
                        .map_err(|e| format!("--top-k: {e}"))?,
                )
            }
            "--rank-motif" => o.rank_motif = Some(value("--rank-motif")?),
            "--lanes" => o.lanes = value("--lanes")?,
            "--chunk-budget" => {
                o.chunk_budget = Some(
                    value("--chunk-budget")?
                        .parse()
                        .map_err(|e| format!("--chunk-budget: {e}"))?,
                )
            }
            "--memory-budget" => {
                o.memory_budget = Some(
                    value("--memory-budget")?
                        .parse()
                        .map_err(|e| format!("--memory-budget: {e}"))?,
                )
            }
            "--profile" => o.profile = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if o.input.is_none() && o.dataset.is_none() {
        return Err("one of --input or --dataset is required".into());
    }
    if o.input.is_some() && o.dataset.is_some() {
        return Err("--input and --dataset are mutually exclusive".into());
    }
    if o.delta.is_none() && !o.stats {
        return Err("--delta is required (seconds)".into());
    }
    if o.scale == 0 {
        return Err("--scale must be at least 1".into());
    }
    if let Err(e) = hare::report::parse_only(&o.only) {
        return Err(format!("--only {e}"));
    }
    if o.window.is_some() {
        o.delta.ok_or("--window requires --delta")?;
        if o.stats {
            return Err("--stats is not supported with --window".into());
        }
        if o.only != "all" {
            return Err("--only is not supported with --window".into());
        }
    }
    if o.window.is_none() && (o.slack != 0 || o.tick.is_some()) {
        return Err("--slack/--tick require --window".into());
    }
    if o.tick.is_some_and(|t| t < 1) {
        return Err("--tick must be at least 1".into());
    }
    if o.approx {
        if o.delta.is_none() {
            return Err("--approx requires --delta".into());
        }
        if o.window.is_some() {
            return Err("--approx and --window are mutually exclusive".into());
        }
        if o.stats {
            return Err("--stats is not supported with --approx".into());
        }
        if o.only != "all" {
            return Err("--only is not supported with --approx".into());
        }
    } else {
        if args.iter().any(|a| a == "--prob") {
            return Err("--prob requires --approx".into());
        }
        // --ci/--window-factor/--seed tune either estimator.
        if o.memory_budget.is_none()
            && ["--ci", "--window-factor", "--seed"]
                .iter()
                .any(|f| args.iter().any(|a| a == f))
        {
            return Err("--ci/--window-factor/--seed require --approx or --memory-budget".into());
        }
    }
    if o.memory_budget.is_some() && o.window.is_none() {
        return Err("--memory-budget requires --window (streaming mode)".into());
    }
    if o.nodes {
        if o.delta.is_none() {
            return Err("--nodes requires --delta".into());
        }
        if o.window.is_some() || o.approx || o.stats {
            return Err("--nodes is exclusive with --window/--approx/--stats".into());
        }
        if o.only != "all" {
            return Err("--only is not supported with --nodes".into());
        }
    } else if o.top_k.is_some() || o.rank_motif.is_some() {
        return Err("--top-k/--rank-motif require --nodes".into());
    }
    if let Err(e) = parse_lanes(&o.lanes) {
        return Err(format!("--lanes: {e}"));
    }
    if o.lanes != "raw" && o.window.is_some() {
        return Err("--lanes is not supported with --window".into());
    }
    if o.chunk_budget.is_some()
        && (o.window.is_some() || o.approx || o.stats || o.nodes || o.only != "all")
    {
        return Err(
            "--chunk-budget is exclusive with --only/--window/--approx/--stats/--nodes".into(),
        );
    }
    if o.profile && (o.window.is_some() || o.stats || o.nodes) {
        return Err("--profile is not supported with --window/--stats/--nodes".into());
    }
    // Every parameter rule (delta >= 0 included) lives in the query
    // layer; reject here so a bad value fails before any loading.
    if let Some(delta) = o.delta.filter(|_| !o.stats) {
        match o.window {
            Some(_) => session_spec(&o).validate(),
            None => batch_plan(&o)?.validate(delta),
        }
        .map_err(|e| plan_error(&e))?;
    }
    Ok(o)
}

/// The arrival stream for `--window` mode: `(src, dst, t)` in delivery
/// order (file order / generation order), ids compacted, self-loops kept
/// so the engine's rejection policy is what drops them.
fn load_stream(o: &Opts) -> Result<Vec<(NodeId, NodeId, Timestamp)>, String> {
    match (&o.input, &o.dataset) {
        (Some(path), None) => {
            let raw =
                load_edges(path, &load_options(o)).map_err(|e| format!("loading {path}: {e}"))?;
            let mut ids = Interner::new();
            let mut intern = |x: u64| {
                ids.intern(x).ok_or_else(|| {
                    format!("loading {path}: more distinct node ids than a graph can hold")
                })
            };
            raw.into_iter()
                .map(|(s, d, t)| Ok((intern(s)?, intern(d)?, t)))
                .collect()
        }
        (None, Some(name)) => {
            let g = hare_datasets::by_name(name)
                .ok_or_else(|| {
                    let names: Vec<&str> = hare_datasets::all().iter().map(|d| d.name).collect();
                    format!("unknown dataset {name:?}; known: {}", names.join(", "))
                })?
                .generate(o.scale);
            Ok(g.edges().iter().map(|e| (e.src, e.dst, e.t)).collect())
        }
        _ => unreachable!("validated in parse_args"),
    }
}

/// The CLI flag that sets a query-layer parameter.
fn flag(param: Param) -> &'static str {
    match param {
        Param::Delta => "--delta",
        Param::Window => "--window",
        Param::Slack => "--slack",
        Param::MemoryBudget => "--memory-budget",
        Param::ChunkBudget => "--chunk-budget",
        Param::Prob => "--prob",
        Param::Ci => "--ci",
        Param::WindowFactor => "--window-factor",
        Param::K => "--top-k",
    }
}

/// A query-layer error in this tool's vocabulary.
fn plan_error(e: &PlanError) -> String {
    match e {
        PlanError::Invalid { param, reason } => format!("{} {reason}", flag(*param)),
        other => other.to_string(),
    }
}

/// The batch query the flags ask for (every mode but `--stats` and
/// `--window`).
fn batch_plan(o: &Opts) -> Result<Plan, String> {
    Ok(if o.nodes {
        match (&o.rank_motif, o.top_k) {
            (Some(name), k) => Plan::TopByMotif {
                motif: name.parse().map_err(|e| format!("--rank-motif: {e}"))?,
                k: k.unwrap_or(10),
            },
            (None, Some(k)) => Plan::TopByZscore { k },
            (None, None) => Plan::Profiles,
        }
    } else if o.approx {
        Plan::Approx {
            prob: o.prob,
            ci: o.ci,
            window_factor: o.window_factor,
            seed: o.seed,
        }
    } else if let Some(budget_bytes) = o.chunk_budget {
        Plan::Chunked {
            budget_bytes,
            lane_layout: parse_lanes(&o.lanes)?,
        }
    } else {
        Plan::Exact {
            only: hare::report::parse_only(&o.only).map_err(|e| format!("--only {e}"))?,
        }
    })
}

/// The ingest session `--window` mode feeds: exact live-window counts,
/// or under `--memory-budget` the bounded-memory estimator.
fn session_spec(o: &Opts) -> SessionSpec {
    let delta = o.delta.unwrap_or_default();
    let window = o.window.unwrap_or_default();
    match o.memory_budget {
        None => SessionSpec::Exact {
            delta,
            window,
            slack: o.slack,
        },
        Some(budget) => SessionSpec::Budget(StreamSampleConfig {
            slack: o.slack,
            window_factor: o.window_factor,
            confidence: o.ci,
            seed: o.seed,
            threads: o.threads,
            ..StreamSampleConfig::new(delta, window, budget)
        }),
    }
}

fn emit_tick(o: &Opts, session: &Session, tick_t: Timestamp) {
    if o.json {
        print!("{}", hare::report::render(&session.tick_body_at(tick_t)));
        return;
    }
    match session.engine() {
        SessionEngine::Exact(wc) => {
            let matrix = wc.counts();
            println!(
                "tick t={tick_t} | live edges {} | total motifs {} | late dropped {}",
                wc.live_edges(),
                matrix.total(),
                session.late_dropped()
            );
            println!("{matrix}");
        }
        SessionEngine::Budget(est) => {
            let tick = est.estimates();
            println!(
                "tick t={tick_t} | retained {} edges ({}/{} B) | p={} | total estimate {:.1} \
                 | late dropped {}",
                tick.retained_edges,
                tick.retained_bytes,
                tick.budget_bytes,
                tick.prob,
                tick.total_estimate(),
                session.late_dropped()
            );
        }
    }
}

/// Sliding-window streaming mode: feed the arrival stream through an
/// ingest session, emitting its tick at every event-time boundary and
/// once more at the final watermark. Boundary arithmetic saturates, so
/// windows, ticks and slacks up to `i64::MAX` still terminate.
fn run_stream(o: &Opts) -> Result<(), String> {
    let window = o.window.unwrap_or_default();
    let tick = o.tick.unwrap_or_else(|| window.max(1));
    let mut session = Session::new(session_spec(o)).map_err(|e| plan_error(&e))?;
    let arrivals = load_stream(o)?;

    let mut next_boundary: Option<Timestamp> = None;
    for &(src, dst, t) in &arrivals {
        // Emit every boundary the stream has safely passed: a boundary B
        // is final once an arrival exceeds B + slack (nothing at or
        // before B can arrive any more). Self-loops skip this: they are
        // dropped, and a rejected arrival far in the future must not
        // emit spurious ticks or raise the acceptance floor. Late
        // arrivals cannot pass a pending boundary's slack (they are
        // below the acceptance floor, which trails the last accepted
        // timestamp).
        if src != dst {
            while let Some(boundary) = next_boundary {
                if t <= boundary.saturating_add(o.slack) {
                    break;
                }
                session.advance_to(boundary);
                emit_tick(o, &session, boundary);
                next_boundary = Some(boundary.saturating_add(tick));
            }
        }
        if session.push(src, dst, t).is_ok() && next_boundary.is_none() {
            next_boundary = Some(t.saturating_add(tick));
        }
    }
    if let Some(final_t) = session.max_accepted() {
        // Drain the trailing boundaries *before* the final flush:
        // advance_to(B) processes exactly the buffered arrivals with
        // t <= B, so each tick still reports the window as of B (a
        // flush first would fast-forward the watermark past them).
        while let Some(boundary) = next_boundary {
            if boundary >= final_t {
                break;
            }
            session.advance_to(boundary);
            emit_tick(o, &session, boundary);
            next_boundary = Some(boundary.saturating_add(tick));
        }
        session.flush();
        // Final tick at the end-of-stream watermark.
        emit_tick(o, &session, final_t);
    } else if !o.json {
        println!("empty stream: nothing to count");
    }
    Ok(())
}

/// Human-readable rendering of a batch answer.
fn print_text(o: &Opts, answer: &Answer, secs: f64) {
    let delta = answer.delta;
    let (nodes, edges) = (answer.num_nodes, answer.num_edges);
    let timing = |verb: &str| {
        if o.no_timing {
            String::new()
        } else {
            format!(" | {verb} in {secs:.3}s")
        }
    };
    match &answer.outcome {
        Outcome::Counts(matrix) => {
            println!(
                "graph: {nodes} nodes, {edges} edges | delta = {delta}s{}",
                timing("counted")
            );
            println!("{matrix}");
            for (label, cat) in [
                ("pair", MotifCategory::Pair),
                ("star", MotifCategory::Star),
                ("triangle", MotifCategory::Triangle),
            ] {
                println!("{label:>9} total: {}", matrix.category_total(cat));
            }
            // Grid layout (rows/cols to motif identities) is documented in
            // `hare::motif`.
            println!("    total: {}", matrix.total());
        }
        Outcome::Estimates {
            counts: est,
            window_factor,
            seed,
        } => {
            println!(
                "graph: {nodes} nodes, {edges} edges | delta = {delta}s | approx p={:.3} c={window_factor} \
                 ci={:.0}% seed={seed} | windows {}/{}{}",
                est.prob,
                est.confidence * 100.0,
                est.windows_sampled,
                est.windows_total,
                timing("counted"),
            );
            println!(
                "{:>6} {:>14} {:>12} {:>14} {:>14}",
                "motif", "estimate", "stderr", "ci_lo", "ci_hi"
            );
            for (m, e) in est.iter() {
                println!(
                    "{:>6} {:>14.1} {:>12.1} {:>14.1} {:>14.1}",
                    m.to_string(),
                    e.estimate,
                    e.stderr,
                    e.ci_lo,
                    e.ci_hi
                );
            }
            println!("total estimate: {:.1}", est.total_estimate());
        }
        Outcome::Profiles(profiles) => {
            println!(
                "graph: {nodes} nodes, {edges} edges | delta = {delta}s | {} participating nodes{}",
                profiles.len(),
                timing("computed")
            );
            for (u, p) in profiles.iter() {
                print_profile(u, p);
            }
        }
        Outcome::Node { node, profile } => print_profile(*node, profile),
        Outcome::TopByMotif {
            motif,
            k,
            ranked,
            participating,
        } => {
            println!(
                "top {k} nodes by {motif} participation | delta = {delta}s | {participating} participating nodes"
            );
            println!("{:>10} {:>12}", "node", "count");
            for (u, n) in ranked {
                println!("{u:>10} {n:>12}");
            }
        }
        Outcome::TopByZscore {
            k,
            ranked,
            participating,
        } => {
            println!(
                "top {k} anomalous nodes by z-score norm | delta = {delta}s | {participating} participating nodes"
            );
            println!("{:>10} {:>12}", "node", "score");
            for (u, s) in ranked {
                println!("{u:>10} {s:>12.3}");
            }
        }
    }
}

fn print_profile(u: NodeId, p: &hare::NodeProfile) {
    let cells: Vec<String> = p
        .iter()
        .filter(|&(_, n)| n > 0)
        .map(|(m, n)| format!("{m}:{n}"))
        .collect();
    println!("node {u:>8} | total {:>8} | {}", p.total(), cells.join(" "));
}

/// The graph `--input` or `--dataset` names, in the `--lanes` layout.
fn load_input_graph(o: &Opts) -> Result<TemporalGraph, String> {
    let graph = match (&o.input, &o.dataset) {
        (Some(path), None) => {
            load_graph(path, &load_options(o)).map_err(|e| format!("loading {path}: {e}"))?
        }
        (None, Some(name)) => hare_datasets::by_name(name)
            .ok_or_else(|| {
                let names: Vec<&str> = hare_datasets::all().iter().map(|d| d.name).collect();
                format!("unknown dataset {name:?}; known: {}", names.join(", "))
            })?
            .generate(o.scale),
        _ => return Err("one of --input or --dataset is required".into()),
    };
    Ok(graph.into_lane_layout(parse_lanes(&o.lanes)?))
}

fn load_options(o: &Opts) -> LoadOptions {
    LoadOptions {
        timestamp_column: o.timestamp_col,
    }
}

/// What a batch query runs on: a whole graph, or — for an out-of-core
/// count of an `--input` file — the file's edges as a bit-packed
/// chronological stream, from which no whole graph and no edge list is
/// ever built.
enum Input {
    Graph(Box<TemporalGraph>),
    Edges(Box<PackedEdges>),
}

impl Input {
    fn load(o: &Opts, plan: &Plan) -> Result<Input, String> {
        match (&o.input, plan) {
            (Some(path), Plan::Chunked { .. }) => open(path)
                .and_then(|r| read_packed_edges(r, &load_options(o)))
                .map(|stream| Input::Edges(Box::new(stream)))
                .map_err(|e| format!("loading {path}: {e}")),
            _ => load_input_graph(o).map(|g| Input::Graph(Box::new(g))),
        }
    }

    fn execute<P: Probe>(
        &self,
        plan: &Plan,
        delta: Timestamp,
        threads: usize,
        probe: &P,
    ) -> Result<Answer, PlanError> {
        match self {
            Input::Graph(g) => plan.execute(g, delta, threads, probe),
            Input::Edges(src) => plan.execute_chunked(&**src, delta, threads, probe),
        }
    }
}

fn run(o: &Opts) -> Result<(), String> {
    if o.window.is_some() {
        return run_stream(o);
    }
    if o.stats {
        let stats = GraphStats::compute(&load_input_graph(o)?);
        if o.json {
            print!(
                "{}",
                hare::report::render(&hare::report::graph_stats_body(&stats))
            );
        } else {
            println!(
                "nodes {}  edges {}  span {}  max-degree {}  mean-degree {:.2}",
                stats.num_nodes,
                stats.num_edges,
                stats.time_span,
                stats.max_degree,
                stats.mean_degree
            );
        }
        return Ok(());
    }

    let plan = batch_plan(o)?;
    let input = Input::load(o, &plan)?;
    let delta = o.delta.ok_or("--delta is required (seconds)")?;
    let start = std::time::Instant::now();
    // `--profile` threads a wall-clock probe through the kernel's phase
    // seams; the probe only observes boundaries, so the answer — and
    // therefore stdout — is bit-identical to the unprofiled run.
    let probe = o.profile.then(WallClockProbe::new);
    let answer = match &probe {
        Some(p) => input.execute(&plan, delta, o.threads, p),
        None => input.execute(&plan, delta, o.threads, &NoopProbe),
    }
    .map_err(|e| plan_error(&e))?;
    let secs = start.elapsed().as_secs_f64();
    if let Some(p) = &probe {
        eprint!("{}", p.render_table());
    }

    if o.json {
        // Timing is the one nondeterministic field; --no-timing omits
        // it so output is byte-stable (golden-file tests rely on it).
        print!("{}", answer.render((!o.no_timing).then_some(secs)));
    } else {
        print_text(o, &answer, secs);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n\n{USAGE}");
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_invocation() {
        let o = parse_args(&args(&["--input", "x.txt", "--delta", "600"])).unwrap();
        assert_eq!(o.input.as_deref(), Some("x.txt"));
        assert_eq!(o.delta, Some(600));
        assert_eq!(o.only, "all");
    }

    #[test]
    fn rejects_missing_source_and_conflicts() {
        assert!(parse_args(&args(&["--delta", "600"])).is_err());
        assert!(parse_args(&args(&["--input", "a", "--dataset", "b", "--delta", "1"])).is_err());
    }

    #[test]
    fn rejects_zero_scale() {
        let e = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--delta",
            "1",
            "--scale",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--scale"), "{e}");
    }

    #[test]
    fn rejects_bad_only() {
        let e =
            parse_args(&args(&["--input", "x", "--delta", "1", "--only", "wedges"])).unwrap_err();
        assert!(e.contains("--only"));
    }

    #[test]
    fn stats_mode_needs_no_delta() {
        let o = parse_args(&args(&["--dataset", "CollegeMsg", "--stats"])).unwrap();
        assert!(o.stats);
        assert!(o.delta.is_none());
    }

    #[test]
    fn help_flag_yields_empty_error() {
        assert_eq!(parse_args(&args(&["--help"])).unwrap_err(), "");
    }

    #[test]
    fn parses_streaming_flags() {
        let o = parse_args(&args(&[
            "--input", "x.txt", "--delta", "600", "--window", "3600", "--slack", "60", "--tick",
            "300",
        ]))
        .unwrap();
        assert_eq!(o.window, Some(3600));
        assert_eq!(o.slack, 60);
        assert_eq!(o.tick, Some(300));
    }

    #[test]
    fn rejects_bad_streaming_combinations() {
        // window below delta
        let e =
            parse_args(&args(&["--input", "x", "--delta", "600", "--window", "10"])).unwrap_err();
        assert!(e.contains("--window"), "{e}");
        // window without delta
        assert!(parse_args(&args(&["--input", "x", "--window", "10", "--stats"])).is_err());
        // slack/tick without window
        assert!(parse_args(&args(&["--input", "x", "--delta", "1", "--slack", "5"])).is_err());
        assert!(parse_args(&args(&["--input", "x", "--delta", "1", "--tick", "5"])).is_err());
        // streaming is exclusive with --stats and --only
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--stats"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--only", "pairs"
        ]))
        .is_err());
        // negative slack, zero tick
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--slack", "-1"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--window", "5", "--tick", "0"
        ]))
        .is_err());
    }

    #[test]
    fn parses_lane_and_chunk_budget_flags() {
        let o = parse_args(&args(&["--input", "x", "--delta", "1"])).unwrap();
        assert_eq!(o.lanes, "raw");
        assert_eq!(o.chunk_budget, None);
        let o = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--lanes",
            "compressed",
            "--chunk-budget",
            "65536",
        ]))
        .unwrap();
        assert_eq!(o.lanes, "compressed");
        assert_eq!(o.chunk_budget, Some(65536));
    }

    #[test]
    fn rejects_bad_lane_and_chunk_budget_combinations() {
        // unknown layout name
        let e =
            parse_args(&args(&["--input", "x", "--delta", "1", "--lanes", "simd"])).unwrap_err();
        assert!(e.contains("--lanes"), "{e}");
        // lanes other than raw with the streaming window
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--window",
            "5",
            "--lanes",
            "compressed"
        ]))
        .is_err());
        // zero budget
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--chunk-budget",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--chunk-budget"), "{e}");
        // budget is exclusive with every non-default mode
        for extra in [
            ["--only", "pairs"].as_slice(),
            ["--window", "5"].as_slice(),
            ["--approx"].as_slice(),
            ["--stats"].as_slice(),
            ["--nodes"].as_slice(),
        ] {
            let mut v = args(&["--input", "x", "--delta", "1", "--chunk-budget", "4096"]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            assert!(parse_args(&v).is_err(), "expected rejection for {extra:?}");
        }
    }

    #[test]
    fn parses_memory_budget_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.txt",
            "--delta",
            "600",
            "--window",
            "3600",
            "--memory-budget",
            "1048576",
            "--seed",
            "7",
            "--ci",
            "0.99",
            "--window-factor",
            "2",
        ]))
        .unwrap();
        assert_eq!(o.memory_budget, Some(1_048_576));
        assert_eq!(o.seed, 7);
        assert_eq!(o.ci, 0.99);
        assert_eq!(o.window_factor, 2);
    }

    #[test]
    fn rejects_bad_memory_budget_combinations() {
        // budget without --window
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--memory-budget",
            "4096",
        ]))
        .unwrap_err();
        assert!(e.contains("--memory-budget requires --window"), "{e}");
        // zero budget
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--window",
            "5",
            "--memory-budget",
            "0",
        ]))
        .unwrap_err();
        assert!(e.contains("--memory-budget"), "{e}");
        // exclusive with the other engines (transitively via --window)
        for extra in [
            ["--approx"].as_slice(),
            ["--nodes"].as_slice(),
            ["--stats"].as_slice(),
            ["--chunk-budget", "4096"].as_slice(),
        ] {
            let mut v = args(&[
                "--input",
                "x",
                "--delta",
                "1",
                "--window",
                "5",
                "--memory-budget",
                "4096",
            ]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            assert!(parse_args(&v).is_err(), "expected rejection for {extra:?}");
        }
        // --prob stays approx-only; bad ci / window-factor rejected here too
        for extra in [["--prob", "0.5"], ["--ci", "1"], ["--window-factor", "0"]] {
            let mut v = args(&[
                "--input",
                "x",
                "--delta",
                "1",
                "--window",
                "5",
                "--memory-budget",
                "4096",
            ]);
            v.extend(args(extra.as_slice()));
            assert!(parse_args(&v).is_err(), "expected rejection for {extra:?}");
        }
        // sampling knobs still rejected without either estimator
        let e = parse_args(&args(&["--input", "x", "--delta", "1", "--seed", "9"])).unwrap_err();
        assert!(e.contains("--memory-budget"), "{e}");
    }

    #[test]
    fn memory_budget_mode_runs_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--window",
            "86400",
            "--memory-budget",
            "65536",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn parses_approx_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.txt",
            "--delta",
            "600",
            "--approx",
            "--prob",
            "0.3",
            "--ci",
            "0.99",
            "--window-factor",
            "5",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(o.approx);
        assert_eq!(o.prob, 0.3);
        assert_eq!(o.ci, 0.99);
        assert_eq!(o.window_factor, 5);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn rejects_bad_approx_combinations() {
        // approx without delta
        assert!(parse_args(&args(&["--input", "x", "--approx", "--stats"])).is_err());
        // approx is exclusive with streaming, --stats and --only
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--approx", "--window", "5"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--approx", "--stats"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--approx", "--only", "pairs"
        ]))
        .is_err());
        // out-of-range parameters
        for (flag, bad) in [
            ("--prob", "0"),
            ("--prob", "1.5"),
            ("--ci", "1"),
            ("--ci", "0"),
        ] {
            assert!(
                parse_args(&args(&[
                    "--input", "x", "--delta", "1", "--approx", flag, bad
                ]))
                .is_err(),
                "{flag} {bad} should be rejected"
            );
        }
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--approx",
            "--window-factor",
            "0"
        ]))
        .is_err());
        // sampling flags without --approx
        let e = parse_args(&args(&["--input", "x", "--delta", "1", "--prob", "0.5"])).unwrap_err();
        assert!(e.contains("--approx"), "{e}");
    }

    #[test]
    fn approx_mode_runs_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--approx",
            "--prob",
            "0.5",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn no_timing_flag_parses() {
        let o = parse_args(&args(&["--input", "x", "--delta", "1", "--no-timing"])).unwrap();
        assert!(o.no_timing);
    }

    #[test]
    fn profile_flag_parses_and_composes() {
        let o = parse_args(&args(&["--input", "x", "--delta", "1", "--profile"])).unwrap();
        assert!(o.profile);
        // Composes with the approx and out-of-core engines.
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--approx",
            "--profile"
        ]))
        .is_ok());
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--chunk-budget",
            "4096",
            "--profile",
        ]))
        .is_ok());
        // Rejected where no probed seam is wired.
        for extra in [
            ["--window", "5"].as_slice(),
            ["--stats"].as_slice(),
            ["--nodes"].as_slice(),
        ] {
            let mut v = args(&["--input", "x", "--delta", "1", "--profile"]);
            v.extend(extra.iter().map(|s| (*s).to_string()));
            let e = parse_args(&v).unwrap_err();
            assert!(e.contains("--profile"), "{extra:?}: {e}");
        }
    }

    #[test]
    fn profiled_run_executes_on_registry_dataset() {
        for extra in [
            vec![],
            vec!["--approx", "--prob", "0.5"],
            vec!["--chunk-budget", "65536"],
        ] {
            let mut a = vec![
                "--dataset",
                "CollegeMsg",
                "--scale",
                "8",
                "--delta",
                "600",
                "--profile",
                "--json",
            ];
            a.extend(extra);
            let o = parse_args(&args(&a)).unwrap();
            run(&o).unwrap();
        }
    }

    #[test]
    fn streaming_mode_runs_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "8",
            "--delta",
            "600",
            "--window",
            "86400",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn end_to_end_on_registry_dataset() {
        let o = parse_args(&args(&[
            "--dataset",
            "CollegeMsg",
            "--scale",
            "4",
            "--delta",
            "600",
            "--threads",
            "2",
            "--json",
        ]))
        .unwrap();
        run(&o).unwrap();
    }

    #[test]
    fn parses_nodes_flags() {
        let o = parse_args(&args(&[
            "--input",
            "x.txt",
            "--delta",
            "600",
            "--nodes",
            "--rank-motif",
            "M65",
            "--top-k",
            "5",
        ]))
        .unwrap();
        assert!(o.nodes);
        assert_eq!(o.top_k, Some(5));
        assert_eq!(o.rank_motif.as_deref(), Some("M65"));
    }

    #[test]
    fn rejects_bad_nodes_combinations() {
        // --nodes requires --delta
        assert!(parse_args(&args(&["--input", "x", "--nodes", "--stats"])).is_err());
        // exclusive with the other engines and with --only/--stats
        for extra in [
            ["--window", "5"],
            ["--approx", "--nodes"],
            ["--only", "pairs"],
        ] {
            let mut a = args(&["--input", "x", "--delta", "1", "--nodes"]);
            a.extend(args(extra.as_slice()));
            assert!(parse_args(&a).is_err(), "{extra:?}");
        }
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--nodes", "--stats"
        ]))
        .is_err());
        // ranking flags require --nodes
        let e = parse_args(&args(&["--input", "x", "--delta", "1", "--top-k", "3"])).unwrap_err();
        assert!(e.contains("--nodes"), "{e}");
        assert!(parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--rank-motif",
            "M65"
        ]))
        .is_err());
        // zero k, invalid motif name
        assert!(parse_args(&args(&[
            "--input", "x", "--delta", "1", "--nodes", "--top-k", "0"
        ]))
        .is_err());
        let e = parse_args(&args(&[
            "--input",
            "x",
            "--delta",
            "1",
            "--nodes",
            "--rank-motif",
            "M70",
        ]))
        .unwrap_err();
        assert!(e.contains("--rank-motif"), "{e}");
    }

    #[test]
    fn nodes_mode_runs_on_registry_dataset() {
        for extra in [vec![], vec!["--top-k", "5"], vec!["--rank-motif", "M66"]] {
            let mut a = vec![
                "--dataset",
                "CollegeMsg",
                "--scale",
                "8",
                "--delta",
                "600",
                "--nodes",
                "--json",
            ];
            a.extend(extra);
            let o = parse_args(&args(&a)).unwrap();
            run(&o).unwrap();
        }
    }

    /// The plan `hare-serve` parses from a `GET` target.
    fn http_plan(target: &str) -> Plan {
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        let req = hare_serve::http::Request {
            method: "GET".into(),
            path: path.into(),
            query: hare_serve::http::parse_query(query),
            body: Vec::new(),
        };
        match hare_serve::api::plan(&req) {
            Ok(plan) => plan,
            Err(resp) => panic!("{target}: {}", resp.body),
        }
    }

    #[test]
    fn cli_flags_and_http_queries_yield_equal_plans() {
        let cases: &[(&[&str], &str)] = &[
            (&[], "/count"),
            (&["--only", "all"], "/count?only=all"),
            (&["--only", "pairs"], "/count?only=pairs"),
            (&["--only", "stars"], "/count?only=stars"),
            (&["--only", "triangles"], "/count?only=triangles"),
            (&["--approx"], "/count?engine=approx"),
            (
                &[
                    "--approx",
                    "--prob",
                    "0.3",
                    "--ci",
                    "0.9",
                    "--window-factor",
                    "4",
                    "--seed",
                    "7",
                ],
                "/count?engine=approx&prob=0.3&ci=0.9&window_factor=4&seed=7",
            ),
            (&["--nodes", "--rank-motif", "M65"], "/nodes/top?motif=M65"),
            (
                &["--nodes", "--rank-motif", "M65", "--top-k", "5"],
                "/nodes/top?motif=M65&k=5",
            ),
            (&["--nodes", "--top-k", "5"], "/nodes/top?k=5"),
        ];
        for (flags, target) in cases {
            let mut a = args(&["--input", "x", "--delta", "600"]);
            a.extend(args(flags));
            let cli = batch_plan(&parse_args(&a).unwrap()).unwrap();
            let http = http_plan(target);
            assert_eq!(cli, http, "{flags:?} vs {target}");
            assert_eq!(cli.engine_key(), http.engine_key(), "{flags:?} vs {target}");
        }
        // The CLI has no single-node query: `--nodes` prints every
        // profile, one line per node, and each line is the body of
        // that node's `/nodes/{id}/motifs` plan.
        let o = parse_args(&args(&["--input", "x", "--delta", "600", "--nodes"])).unwrap();
        assert_eq!(batch_plan(&o).unwrap(), Plan::Profiles);
        let node = http_plan("/nodes/3/motifs");
        assert_eq!(node, Plan::Node { node: 3 });
        assert_eq!(node.engine_key(), "nodes/node=3");
    }

    #[test]
    fn only_variants_run() {
        for only in ["pairs", "stars", "triangles"] {
            let o = parse_args(&args(&[
                "--dataset",
                "Bitcoinalpha",
                "--scale",
                "4",
                "--delta",
                "600",
                "--only",
                only,
                "--json",
            ]))
            .unwrap();
            run(&o).unwrap();
        }
    }
}
