//! The traced run: each layer's public functions called in-process, in
//! the order `hare-count` and `hare-serve` call them, with a span around
//! every call and the layer's work counts beside it.
//!
//! Every workload runs the same suite on its own inputs, so each
//! per-layer metric exists on each workload; a layer that the
//! workload's programs do not use is measured on a side path and should
//! read flat across changes that do not touch it (README.md has the
//! layer → metric → workload table).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use hare::windowed::WindowedCounter;
use hare::{
    Hare, HareConfig, InMemorySource, NodeProfiles, OocConfig, Phase, Probe, SampledCounter,
    StreamingEstimator,
};
use hare_serve::http::{read_request, write_response, Request};
use hare_serve::{Server, ServerConfig};
use temporal_graph::io::{graph_from_raw, load_edges, LoadOptions};
use temporal_graph::stats::GraphStats;
use temporal_graph::{LaneLayout, TemporalGraph};

use crate::batch::Input;
use crate::calib::Speed;
use crate::gen::PUSH_BATCH;
use crate::measure::{json_str, median, num, run_job, write_file, Metrics, Tally};
use crate::serve::{self, Class, Daemon, Item, Plan, Targets};
use crate::Ctx;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
pub struct Span {
    pub op: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// In-memory span recorder for the calling thread. When disabled, a
/// span is a plain call: that is the untraced side of the overhead
/// comparison.
pub struct Tracer {
    enabled: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    next_op: Cell<u64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            enabled: Cell::new(true),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            next_op: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as a new operation: a root span with a fresh op id.
    /// Returns the op id, or `None` when tracing is off.
    fn op<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (Option<u64>, R) {
        if !self.enabled.get() {
            return (None, f());
        }
        let op = self.next_op.get();
        self.next_op.set(op + 1);
        (Some(op), self.span(name, f))
    }

    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let op = self.next_op.get().saturating_sub(1);
        let parent = self.stack.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                op,
                id,
                parent,
                name,
                start: self.now(),
                end: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[id].end = end;
        out
    }

    /// Total duration of spans named `name` within `op`, in seconds.
    fn total(&self, op: u64, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
            .sum()
    }

    /// Median over `ops` of [`Tracer::total`].
    fn median_total(&self, ops: &[u64], name: &str) -> f64 {
        let v: Vec<f64> = ops.iter().map(|&op| self.total(op, name)).collect();
        median(&v)
    }

    /// Summed duration of the top-level spans of `op` (the direct
    /// children of its root), in seconds.
    fn top_level(&self, op: u64) -> f64 {
        let spans = self.spans.borrow();
        let Some(root) = spans.iter().find(|s| s.op == op && s.parent.is_none()) else {
            return 0.0;
        };
        let top: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.end - s.start)
            .sum();
        top as f64 / 1e9
    }

    /// Per-name count, total and self time (duration minus the time
    /// its direct children cover), in seconds.
    fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(child_ns[s.id]) as f64 / 1e9;
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.name, s.start, s.end
            );
        }
        write_file(path, &out)
    }
}

/// The kernel probe seam, named by the layer whose phases it observes.
struct LayerProbe<'a> {
    t: &'a Tracer,
    names: &'static [&'static str; 5],
}

const FUSED: [&str; 5] = [
    "fused.scan",
    "fused.fold",
    "fused.chunk_load",
    "fused.evict",
    "fused.summarise",
];
const OOC: [&str; 5] = [
    "ooc.scan",
    "ooc.fold",
    "ooc.chunk_load",
    "ooc.evict",
    "ooc.summarise",
];
const SAMPLE: [&str; 5] = [
    "sample.scan",
    "sample.fold",
    "sample.chunk_load",
    "sample.evict",
    "sample.summarise",
];
const STREAM: [&str; 5] = [
    "stream_sample.scan",
    "stream_sample.fold",
    "stream_sample.chunk_load",
    "stream_sample.evict",
    "stream_sample.summarise",
];

impl Probe for LayerProbe<'_> {
    fn span<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        self.t.span(self.names[phase.index()], f)
    }
}

fn probe<'a>(t: &'a Tracer, names: &'static [&'static str; 5]) -> LayerProbe<'a> {
    LayerProbe { t, names }
}

/// Deterministic work counts of one operation.
type Work = BTreeMap<&'static str, u64>;

/// Collects work counts per operation kind and checks that every
/// repetition of a kind reports exactly the same counts.
#[derive(Default)]
struct WorkLog {
    kinds: BTreeMap<&'static str, Work>,
    mismatches: u64,
}

impl WorkLog {
    fn record(&mut self, kind: &'static str, work: Work) {
        match self.kinds.get(kind) {
            Some(prev) if *prev != work => self.mismatches += 1,
            Some(_) => {}
            None => {
                self.kinds.insert(kind, work);
            }
        }
    }

    fn get(&self, kind: &str, key: &str) -> u64 {
        self.kinds
            .get(kind)
            .and_then(|w| w.get(key))
            .copied()
            .unwrap_or(0)
    }

    fn to_json(&self) -> String {
        let kinds: Vec<String> = self
            .kinds
            .iter()
            .map(|(kind, work)| {
                let fields: Vec<String> =
                    work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                format!("\"{kind}\": {{{}}}", fields.join(", "))
            })
            .collect();
        format!("{{{}}}\n", kinds.join(", "))
    }
}

/// How a `hare-count` job counts: in RAM with HARE, or out of core.
#[derive(Clone, Copy)]
struct Flavor {
    layout: LaneLayout,
    budget: Option<usize>,
    threads: usize,
}

/// One `hare-count --input ... --json` job, layer by layer, as the CLI's
/// `run` calls them. Returns the rendered body and the job's work.
fn cli_job(t: &Tracer, path: &Path, delta: i64, f: Flavor) -> (String, Work) {
    let opts = LoadOptions::default();
    let mut work = Work::new();
    let raw = t.span("io.parse", || {
        load_edges(path, &opts).expect("generated input parses")
    });
    work.insert("edges_parsed", raw.len() as u64);
    work.insert(
        "bytes_parsed",
        std::fs::metadata(path).map_or(0, |m| m.len()),
    );
    let g = t.span("graph.build", || graph_from_raw(raw, &opts));
    work.insert("pairs", g.pairs().num_pairs() as u64);
    work.insert("raw_lane_bytes", g.resident_lane_bytes() as u64);
    let g = t.span("lanes.compress", || g.into_lane_layout(f.layout));
    work.insert("lane_bytes", g.resident_lane_bytes() as u64);
    let stats = t.span("graph.stats", || GraphStats::compute(&g));
    let start = Instant::now();
    let matrix = match f.budget {
        Some(budget) => t.span("ooc.count", || {
            let src = InMemorySource::from_graph(&g);
            let cfg = OocConfig {
                delta,
                budget_bytes: budget,
                lane_layout: f.layout,
            };
            let (counts, s) = hare::count_motifs_ooc_probed(&src, cfg, &probe(t, &OOC))
                .expect("in-memory source");
            work.insert("ooc_chunks", s.chunks as u64);
            work.insert("ooc_forced_cuts", s.forced_cuts as u64);
            work.insert("ooc_peak_lane_bytes", s.peak_resident_lane_bytes as u64);
            counts.matrix
        }),
        None => t.span("hare.count", || {
            let engine = Hare::new(HareConfig {
                num_threads: f.threads,
                ..HareConfig::default()
            });
            work.insert("effective_threads", engine.effective_threads() as u64);
            engine.count_matrix_probed(&g, delta, None, &probe(t, &FUSED))
        }),
    };
    let secs = start.elapsed().as_secs_f64();
    work.insert("motif_instances", matrix.total());
    let body = t.span("report.render", || {
        hare::report::render(&hare::report::exact_body(
            stats.num_nodes,
            stats.num_edges,
            delta,
            &matrix,
            Some(secs),
        ))
    });
    (body, work)
}

fn class_span(c: Class) -> &'static str {
    match c {
        Class::CountHit => "api.handle.count_hit",
        Class::CountMiss => "api.handle.count_miss",
        Class::Approx => "api.handle.approx",
        Class::NodesTop => "api.handle.nodes_top",
        Class::Poll => "api.handle.poll",
        Class::Push => "api.handle.push",
    }
}

/// An in-process `POST` request, as `read_request` would parse it.
fn post(path: &str, body: &str) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// One request through the daemon's own layers over loopback: read,
/// route and handle, write. Returns status and body as the client saw
/// them.
fn loopback(
    t: &Tracer,
    state: &hare_serve::AppState,
    class: Class,
    raw: &[u8],
) -> (Option<u64>, u16, Vec<u8>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr: SocketAddr = listener.local_addr().expect("bound");
    std::thread::scope(|scope| {
        let client = scope.spawn(|| serve::exchange(addr, raw));
        let mut op = None;
        if let Ok((mut conn, _)) = listener.accept() {
            op = t
                .op("serve.request", || {
                    let req = t.span("http.read", || read_request(&mut conn, 64 << 20));
                    if let Ok(req) = req {
                        let resp =
                            t.span(class_span(class), || hare_serve::api::handle(state, &req));
                        let _ = t.span("http.write", || {
                            write_response(
                                &mut conn,
                                resp.status,
                                resp.content_type,
                                resp.body.as_bytes(),
                            )
                        });
                    }
                })
                .0;
        }
        let (status, body) = client.join().expect("loopback client does not panic");
        (op, status, body)
    })
}

/// Everything the suite measured, turned into metrics at the end.
struct Suite {
    t: Tracer,
    work: WorkLog,
    tally: Tally,
    main_ops: Vec<u64>,
    hare_ops: Vec<u64>,
    hare1_ops: Vec<u64>,
    ooc_ops: Vec<u64>,
    approx_ops: Vec<u64>,
    top_ops: Vec<u64>,
    session_ops: Vec<u64>,
    register_ops: Vec<u64>,
    request_ops: Vec<u64>,
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    cli_walls: Vec<f64>,
    session_edges: u64,
    m: Metrics,
}

/// Repetitions of the workload's own job (traced and untraced each),
/// and of every side path.
const MAIN_REPS: usize = 15;
const SIDE_REPS: usize = 3;
/// Edges streamed into each session engine per repetition.
const SESSION_EDGES: usize = 8_192;
/// Result-cache entries of the in-process server. The request path
/// reads one hot key and 27 fresh ones; with 8 entries the hot key stays
/// resident under LRU and the fresh ones evict each other, so hits,
/// misses and evictions are all fixed by the sequence.
const TRACE_CACHE_ENTRIES: usize = 8;

impl Suite {
    fn new() -> Suite {
        Suite {
            t: Tracer::new(),
            work: WorkLog::default(),
            tally: Tally::default(),
            main_ops: Vec::new(),
            hare_ops: Vec::new(),
            hare1_ops: Vec::new(),
            ooc_ops: Vec::new(),
            approx_ops: Vec::new(),
            top_ops: Vec::new(),
            session_ops: Vec::new(),
            register_ops: Vec::new(),
            request_ops: Vec::new(),
            untraced_walls: Vec::new(),
            traced_walls: Vec::new(),
            cli_walls: Vec::new(),
            session_edges: 0,
            m: Metrics::default(),
        }
    }

    /// The CLI path: the workload's own flavor traced and untraced in
    /// alternation, the real binary on the same arguments, HARE at one
    /// thread (and at nproc threads when the own flavor is out of core)
    /// beside them, and the out-of-core flavor as a side path.
    #[allow(clippy::too_many_arguments)]
    fn cli_paths(
        &mut self,
        ctx: &Ctx,
        path: &Path,
        delta: i64,
        main: Flavor,
        cli: &mut Command,
        check: &dyn Fn(&str) -> bool,
        budget: usize,
    ) {
        let hare_n = Flavor {
            layout: LaneLayout::Raw,
            budget: None,
            threads: ctx.nproc,
        };
        let hare_1 = Flavor {
            threads: 1,
            ..hare_n
        };
        let ooc = Flavor {
            layout: LaneLayout::Compressed,
            budget: Some(budget),
            threads: ctx.nproc,
        };
        let main_is_ooc = main.budget.is_some();
        for rep in 0..MAIN_REPS {
            // Traced and untraced take turns going first, so neither
            // side of the overhead comparison always runs in the other's
            // wake.
            for traced in [rep % 2 == 0, rep % 2 == 1] {
                self.t.enabled.set(traced);
                let t0 = Instant::now();
                let (op, (body, work)) =
                    self.t.op("cli.job", || cli_job(&self.t, path, delta, main));
                let wall = t0.elapsed().as_secs_f64();
                self.tally.record(check(&body));
                if traced {
                    self.traced_walls.push(wall);
                    self.work.record("cli.job", work);
                    self.main_ops.extend(op);
                } else {
                    self.untraced_walls.push(wall);
                }
            }
            self.t.enabled.set(true);
            let job = run_job(cli);
            self.tally.record(job.ok_exit && check(&job.stdout));
            self.cli_walls.push(job.wall);
            // HARE at one thread next to HARE at nproc threads in every
            // repetition, so the speed-up pairs runs made moments apart.
            self.side_job(path, delta, hare_1, "cli.job.hare1", check);
            if main_is_ooc {
                self.side_job(path, delta, hare_n, "cli.job.hare", check);
            }
        }
        if main_is_ooc {
            self.ooc_ops.extend(self.main_ops.iter().copied());
        } else {
            self.hare_ops.extend(self.main_ops.iter().copied());
            for _ in 0..SIDE_REPS {
                self.side_job(path, delta, ooc, "cli.job.ooc", check);
            }
        }
    }

    /// One traced in-process job of a flavor other than the workload's own.
    fn side_job(
        &mut self,
        path: &Path,
        delta: i64,
        flavor: Flavor,
        kind: &'static str,
        check: &dyn Fn(&str) -> bool,
    ) {
        let (op, (body, work)) = self
            .t
            .op("cli.job", || cli_job(&self.t, path, delta, flavor));
        self.tally.record(check(&body));
        self.work.record(kind, work);
        match kind {
            "cli.job.hare" => self.hare_ops.extend(op),
            "cli.job.hare1" => self.hare1_ops.extend(op),
            _ => self.ooc_ops.extend(op),
        }
    }

    /// The approximate and per-node read paths, as the daemon's
    /// handlers call them.
    fn read_paths(&mut self, ctx: &Ctx, g: &TemporalGraph, approx_delta: i64, top_delta: i64) {
        for rep in 0..SIDE_REPS {
            let seed = 7_000 + rep as u64;
            let (op, body) = self.t.op("approx", || {
                let est = self.t.span("sample.count", || {
                    SampledCounter::new(serve::approx_cfg(seed, ctx.nproc)).count_probed(
                        g,
                        approx_delta,
                        &probe(&self.t, &SAMPLE),
                    )
                });
                self.t.span("report.render", || {
                    hare::report::render(&hare::report::approx_body(
                        g.num_nodes(),
                        g.num_edges(),
                        approx_delta,
                        serve::approx_cfg(seed, 1).window_factor,
                        seed,
                        &est,
                        None,
                    ))
                })
            });
            self.tally
                .record(body == serve::approx_ref(g, approx_delta, seed));
            self.approx_ops.extend(op);
            let (op, body) = self.t.op("nodes_top", || {
                let profiles = self.t.span("fingerprint.profiles", || {
                    NodeProfiles::compute(g, top_delta, ctx.nproc)
                });
                let ranked = self.t.span("fingerprint.rank", || {
                    hare::top_k_nodes(&profiles, serve::top_motif(), serve::TOP_K)
                });
                self.t.span("report.render", || {
                    hare::report::render(&hare::report::top_nodes_body(
                        top_delta,
                        serve::top_motif(),
                        serve::TOP_K,
                        &ranked,
                    ))
                })
            });
            self.tally.record(body == serve::top_ref(g, top_delta));
            self.top_ops.extend(op);
        }
    }

    /// Streaming ingest into both session engines, batch by batch.
    fn session_paths(&mut self, batches: &[Vec<(u32, u32, i64)>]) {
        let edges: u64 = batches.iter().map(|b| b.len() as u64).sum();
        self.session_edges = edges;
        for _ in 0..SIDE_REPS {
            let (op, work) = self.t.op("session", || {
                let mut work = Work::new();
                let mut wc =
                    WindowedCounter::with_slack(serve::SESSION_DELTA, serve::SESSION_WINDOW, 0);
                for b in batches {
                    self.t.span("windowed.push", || {
                        for &(s, d, t) in b {
                            let _ = wc.push(s, d, t);
                        }
                    });
                }
                let m = self.t.span("windowed.counts", || {
                    wc.flush();
                    wc.counts()
                });
                work.insert("windowed_live_edges", wc.live_edges() as u64);
                work.insert("windowed_total", m.total());
                let mut est = StreamingEstimator::new(serve::session_budget_cfg());
                let p = probe(&self.t, &STREAM);
                for b in batches {
                    self.t.span("stream_sample.push", || {
                        for &(s, d, t) in b {
                            let _ = est.push_probed(s, d, t, &p);
                        }
                    });
                }
                est.flush_probed(&p);
                let e = est.estimates_probed(&p);
                work.insert("stream_sample_retained_bytes", est.retained_bytes());
                work.insert("stream_sample_estimate_bits", e.total_estimate().to_bits());
                work
            });
            self.work.record("session", work);
            self.session_ops.extend(op);
        }
    }

    /// The daemon's request path in-process: register the datasets,
    /// open sessions, and push each request class through read_request,
    /// api::handle and write_response over loopback.
    fn request_paths(
        &mut self,
        ctx: &Ctx,
        uploads: &[(&str, &str)],
        tg: &Targets,
        refs: &dyn Fn(Item) -> String,
        batches: &[Vec<(u32, u32, i64)>],
    ) {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: ctx.nproc,
            cache_capacity: TRACE_CACHE_ENTRIES,
            query_threads: ctx.nproc,
            max_body_bytes: 64 << 20,
            ..ServerConfig::default()
        })
        .expect("binding an in-process server");
        let state = server.state();
        let bodies: Vec<String> = uploads
            .iter()
            .map(|(name, text)| format!("{{\"name\":\"{name}\",\"edges\":{}}}", json_str(text)))
            .collect();
        // One operation registers every dataset, as the daemon's set-up does.
        let (op, statuses) = self.t.op("catalog.register", || {
            bodies
                .iter()
                .map(|body| {
                    self.t
                        .span("api.handle.register", || {
                            hare_serve::api::handle(&state, &post("/datasets", body))
                        })
                        .status
                })
                .collect::<Vec<u16>>()
        });
        for status in statuses {
            self.tally.record(status == 201);
        }
        self.register_ops.extend(op);
        let mut sessions = [0u64; 2];
        for (slot, body) in sessions.iter_mut().zip(serve::session_bodies()) {
            let resp = hare_serve::api::handle(&state, &post("/sessions", &body));
            *slot = serde_json::from_str(&resp.body)
                .ok()
                .and_then(|v| v["session"].as_u64())
                .unwrap_or(0);
            self.tally.record(resp.status == 201);
        }
        // Prefill the hit key, as the end-to-end pass's warm-up does.
        let hit = Item {
            class: Class::CountHit,
            key: 0,
        };
        let (_, status, _) = loopback(
            &self.t,
            &state,
            Class::CountMiss,
            &serve::request_bytes("GET", &tg.target(hit, &sessions), ""),
        );
        self.tally.record(status == 200);
        let mut next_batch = [0usize; 2];
        let per_class = SIDE_REPS * 3;
        for i in 0..per_class as u32 {
            for class in Class::ALL {
                let key = match class {
                    Class::CountHit => 0,
                    Class::Poll | Class::Push => i % 2,
                    _ => i,
                };
                let item = Item { class, key };
                let target = tg.target(item, &sessions);
                let request = if class == Class::Push {
                    let s = key as usize;
                    let b = &batches[next_batch[s] % batches.len()];
                    next_batch[s] += 1;
                    serve::request_bytes("POST", &target, &serve::push_body(b))
                } else {
                    serve::request_bytes("GET", &target, "")
                };
                let (op, status, got) = loopback(&self.t, &state, class, &request);
                self.request_ops.extend(op);
                let ok = status == 200
                    && match class {
                        Class::Poll => serde_json::from_str(&String::from_utf8_lossy(&got)).is_ok(),
                        Class::Push => String::from_utf8_lossy(&got).contains("\"accepted\":"),
                        _ => got == refs(item).into_bytes(),
                    };
                self.tally.record(ok);
            }
        }
        let c = state.cache.stats();
        let mut work = Work::new();
        work.insert("cache_hits", c.hits);
        work.insert("cache_misses", c.misses);
        work.insert("cache_evictions", c.evictions);
        self.work.record("requests", work);
    }

    /// Turn spans and counts into the per-layer metrics.
    fn finish(mut self, ctx: &Ctx, meta: &mut crate::Meta, extra: Metrics) -> (Metrics, Tally) {
        let t = &self.t;
        let m = &mut self.m;
        let w = &self.work;
        let main_kind = "cli.job";
        let hare_kind = if w.kinds.contains_key("cli.job.hare") {
            "cli.job.hare"
        } else {
            main_kind
        };
        let ooc_kind = if w.kinds.contains_key("cli.job.ooc") {
            "cli.job.ooc"
        } else {
            main_kind
        };

        let parse = t.median_total(&self.main_ops, "io.parse");
        m.set("io.parse_s", parse, "s");
        m.set(
            "io.mb_per_s",
            w.get(main_kind, "bytes_parsed") as f64 / 1e6 / parse,
            "MB/s",
        );
        m.set(
            "graph.build_s",
            t.median_total(&self.main_ops, "graph.build"),
            "s",
        );
        m.set("graph.pairs", w.get(main_kind, "pairs") as f64, "count");
        m.set(
            "graph.lane_bytes",
            w.get(main_kind, "raw_lane_bytes") as f64,
            "bytes",
        );
        m.set(
            "lanes.compress_s",
            t.median_total(&self.ooc_ops, "lanes.compress"),
            "s",
        );
        m.set(
            "lanes.packed_bytes",
            w.get(ooc_kind, "lane_bytes") as f64,
            "bytes",
        );
        m.set(
            "hare.count_s",
            t.median_total(&self.hare_ops, "hare.count"),
            "s",
        );
        m.set(
            "hare.effective_threads",
            w.get(hare_kind, "effective_threads") as f64,
            "count",
        );
        let speedups: Vec<f64> = self
            .hare1_ops
            .iter()
            .zip(&self.hare_ops)
            .map(|(&one, &n)| t.total(one, "hare.count") / t.total(n, "hare.count"))
            .collect();
        m.set("hare.speedup", median(&speedups), "x");
        let scan = t.median_total(&self.hare_ops, "fused.scan");
        m.set("fused.scan_s", scan, "s");
        m.set(
            "fused.fold_s",
            t.median_total(&self.hare_ops, "fused.fold"),
            "s",
        );
        m.set(
            "fused.ns_per_edge",
            scan * 1e9 / w.get(hare_kind, "edges_parsed").max(1) as f64,
            "ns",
        );
        m.set(
            "ooc.chunk_load_s",
            t.median_total(&self.ooc_ops, "ooc.chunk_load"),
            "s",
        );
        m.set("ooc.scan_s", t.median_total(&self.ooc_ops, "ooc.scan"), "s");
        m.set("ooc.chunks", w.get(ooc_kind, "ooc_chunks") as f64, "count");
        m.set(
            "ooc.peak_lane_bytes",
            w.get(ooc_kind, "ooc_peak_lane_bytes") as f64,
            "bytes",
        );
        m.set(
            "report.render_s",
            t.median_total(&self.main_ops, "report.render"),
            "s",
        );
        m.set(
            "sample.scan_s",
            t.median_total(&self.approx_ops, "sample.scan"),
            "s",
        );
        m.set(
            "sample.summarise_s",
            t.median_total(&self.approx_ops, "sample.summarise"),
            "s",
        );
        m.set(
            "fingerprint.profiles_s",
            t.median_total(&self.top_ops, "fingerprint.profiles"),
            "s",
        );
        let push = t.median_total(&self.session_ops, "windowed.push");
        m.set(
            "windowed.push_us_per_edge",
            push * 1e6 / self.session_edges.max(1) as f64,
            "us",
        );
        m.set(
            "windowed.live_edges",
            w.get("session", "windowed_live_edges") as f64,
            "count",
        );
        m.set(
            "stream_sample.evict_s",
            t.median_total(&self.session_ops, "stream_sample.evict"),
            "s",
        );
        m.set(
            "stream_sample.summarise_s",
            t.median_total(&self.session_ops, "stream_sample.summarise"),
            "s",
        );
        m.set(
            "stream_sample.retained_bytes",
            w.get("session", "stream_sample_retained_bytes") as f64,
            "bytes",
        );
        m.set(
            "http.read_us",
            t.median_total(&self.request_ops, "http.read") * 1e6,
            "us",
        );
        m.set(
            "http.write_us",
            t.median_total(&self.request_ops, "http.write") * 1e6,
            "us",
        );
        for class in Class::ALL {
            let ops: Vec<u64> = self
                .request_ops
                .iter()
                .copied()
                .filter(|&op| t.total(op, class_span(class)) > 0.0)
                .collect();
            m.set(
                &format!("api.handle_us.{}", class.name()),
                t.median_total(&ops, class_span(class)) * 1e6,
                "us",
            );
        }
        let (hits, misses) = (
            w.get("requests", "cache_hits"),
            w.get("requests", "cache_misses"),
        );
        m.set(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "fraction",
        );
        m.set("cache.hits", hits as f64, "count");
        m.set("cache.misses", misses as f64, "count");
        m.set(
            "cache.evictions",
            w.get("requests", "cache_evictions") as f64,
            "count",
        );
        m.set(
            "catalog.register_s",
            t.median_total(&self.register_ops, "api.handle.register"),
            "s",
        );
        m.set(
            "work.edges_parsed",
            w.get(main_kind, "edges_parsed") as f64,
            "count",
        );
        m.set(
            "work.bytes_parsed",
            w.get(main_kind, "bytes_parsed") as f64,
            "bytes",
        );
        m.set(
            "work.motif_instances",
            w.get(main_kind, "motif_instances") as f64,
            "count",
        );

        // The CLI job's wall time, split into the traced top-level
        // spans and what they do not cover (spawn, exit, stdout).
        let top: Vec<f64> = self.main_ops.iter().map(|&op| t.top_level(op)).collect();
        let cli_wall = median(&self.cli_walls);
        let top_s = median(&top);
        // Paired within each repetition, like the overhead below.
        let gaps: Vec<f64> = self
            .cli_walls
            .iter()
            .zip(&top)
            .map(|(wall, spans)| wall - spans)
            .collect();
        let unattributed = median(&gaps);
        m.set("cli.unattributed_s", unattributed, "s");
        let untraced = median(&self.untraced_walls);
        let traced = median(&self.traced_walls);
        // Each repetition runs the two back to back, so the ratio within
        // a pair leaves out the machine's drift between repetitions.
        let ratios: Vec<f64> = self
            .traced_walls
            .iter()
            .zip(&self.untraced_walls)
            .map(|(t, u)| t / u)
            .collect();
        m.set("trace.overhead_frac", median(&ratios) - 1.0, "fraction");
        m.set("trace.spans", t.spans.borrow().len() as f64, "count");
        for (k, (v, u)) in extra.0 {
            m.set(&k, v, u);
        }
        // Zero by design on these inputs (the budget leaves room for
        // every δ-haloed window), so a work count rather than a metric.
        meta.int("ooc_forced_cuts", w.get(ooc_kind, "ooc_forced_cuts"));
        meta.num("cli_job_wall_s", cli_wall);
        meta.num("cli_job_traced_top_spans_s", top_s);
        meta.num("inprocess_untraced_job_s", untraced);
        meta.num("inprocess_traced_job_s", traced);

        // Work counts must repeat exactly: across the repetitions of
        // this run, and against an earlier traced run of this seed.
        self.tally.record(w.mismatches == 0);
        let counts = w.to_json();
        let source: String = ctx
            .source
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = ctx
            .out
            .join("workcounts")
            .join(format!("{}-seed{}-{source}.json", ctx.workload, ctx.seed));
        let same_as_before = match std::fs::read_to_string(&path) {
            Ok(prev) => prev == counts,
            Err(_) => write_file(&path, &counts).is_ok(),
        };
        self.tally.record(same_as_before);
        meta.flag("work_counts_repeat", w.mismatches == 0 && same_as_before);

        let spans_path = ctx
            .out
            .join("trace")
            .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
        if t.write_jsonl(&spans_path).is_err() {
            eprintln!("perfbench: could not write {}", spans_path.display());
        }
        let mut table = String::from("span self times (count, total s, self s):\n");
        for (name, (n, total, own)) in t.self_times() {
            let _ = writeln!(
                table,
                "  {name:<28} {n:>7} {:>12} {:>12}",
                num(total),
                num(own)
            );
        }
        let _ = writeln!(
            table,
            "cli job wall {cli_wall:.4} s, traced top-level spans {top_s:.4} s (medians); \
             unattributed {unattributed:.4} s (median of the per-repetition gaps)"
        );
        eprint!("{table}");
        (self.m, self.tally)
    }
}

/// Parse the daemon's handler latency histogram (all endpoints summed)
/// from a `/metrics` body and interpolate its median, in µs.
fn handler_p50_us(metrics: &str) -> f64 {
    let mut cum: BTreeMap<u64, u64> = BTreeMap::new();
    let mut total = 0u64;
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix("hare_http_request_duration_us_bucket{") else {
            continue;
        };
        let Some(le) = rest.split("le=\"").nth(1).and_then(|r| r.split('"').next()) else {
            continue;
        };
        let Some(v) = line.rsplit(' ').next().and_then(|v| v.parse::<u64>().ok()) else {
            continue;
        };
        match le.parse::<u64>() {
            Ok(bound) => *cum.entry(bound).or_default() += v,
            Err(_) => total += v,
        }
    }
    let half = total as f64 / 2.0;
    let (mut prev_bound, mut prev_cum) = (0u64, 0u64);
    for (&bound, &c) in &cum {
        if c as f64 >= half && c > prev_cum {
            let frac = (half - prev_cum as f64) / (c - prev_cum) as f64;
            return prev_bound as f64 + frac * (bound - prev_bound) as f64;
        }
        (prev_bound, prev_cum) = (bound, c);
    }
    f64::NAN
}

/// Daemon-level metrics from a `/metrics` scrape and `/stats`, against
/// the client's median latency.
fn daemon_metrics(
    daemon: &Daemon,
    client_p50_s: f64,
    own_us: f64,
    tally: &mut Tally,
    meta: &mut crate::Meta,
) -> Metrics {
    let mut m = Metrics::default();
    let (status, body) = daemon.get("/metrics");
    tally.record(status == 200);
    let handler = handler_p50_us(&String::from_utf8_lossy(&body));
    m.set("serve.handler_p50_us", handler, "us");
    m.set(
        "serve.outside_handler_us",
        client_p50_s * 1e6 - handler,
        "us",
    );
    let stats = serve::server_stats(daemon);
    tally.record(stats.is_some());
    // A 429 already fails its request, so this is zero in a passing
    // run: recorded, not reported as a metric.
    let rejected = stats.map_or(0, |s| s["queue"]["rejected"].as_u64().unwrap_or(0));
    meta.int("serve_rejected", rejected);
    m.set("client.own_us_per_req", own_us, "us");
    m
}

fn to_u32_batches(g: &TemporalGraph, edges: usize) -> Vec<Vec<(u32, u32, i64)>> {
    let list: Vec<(u32, u32, i64)> = g
        .edges()
        .iter()
        .take(edges)
        .map(|e| (e.src, e.dst, e.t))
        .collect();
    list.chunks(PUSH_BATCH).map(<[_]>::to_vec).collect()
}

/// Traced run of a batch workload.
pub fn run_batch(ctx: &Ctx, input: &Input, meta: &mut crate::Meta) -> (Metrics, Tally) {
    let mut suite = Suite::new();
    let main = Flavor {
        layout: input.layout(),
        budget: input.chunk_budget,
        threads: ctx.nproc,
    };
    let check = |body: &str| input.count_ok(body);
    let mut cli = input.count_cmd(ctx);
    let budget = input.raw_lane_bytes / 8;
    suite.cli_paths(
        ctx,
        &input.path,
        input.delta,
        main,
        &mut cli,
        &check,
        budget,
    );

    let text = std::fs::read_to_string(&input.path).expect("reading the input back");
    let g =
        temporal_graph::io::load_graph(&input.path, &LoadOptions::default()).expect("input loads");
    suite.read_paths(ctx, &g, serve::APPROX_DELTA, input.delta);
    let batches = to_u32_batches(&g, SESSION_EDGES);
    suite.session_paths(&batches);
    let tg = Targets {
        hot: "input",
        cold: &["input"],
        hot_delta0: input.delta,
        fresh_delta0: input.delta + 1,
    };
    let refs = |item: Item| match item.class {
        Class::CountHit => serve::exact_ref(&g, tg.hot_delta(item.key)),
        Class::Approx => serve::approx_ref(&g, serve::APPROX_DELTA, serve::approx_seed(item.key)),
        Class::NodesTop => serve::top_ref(&g, tg.fresh_delta(item.key)),
        _ => serve::exact_ref(&g, tg.fresh_delta(item.key)),
    };
    suite.request_paths(ctx, &[("input", &text)], &tg, &refs, &batches);

    // The daemon itself: upload, then one miss and many hits.
    let mut daemon_tally = Tally::default();
    let extra = match Daemon::spawn(ctx) {
        Ok(daemon) => {
            let upload = format!("{{\"name\":\"input\",\"edges\":{}}}", json_str(&text));
            let (status, _) = daemon.post("/datasets", &upload);
            daemon_tally.record(status == 201);
            let want = serve::exact_ref(&g, input.delta);
            let req = serve::request_bytes(
                "GET",
                &format!("/count?dataset=input&delta={}", input.delta),
                "",
            );
            let mut lat = Vec::new();
            let t0 = Instant::now();
            for _ in 0..200 {
                let t = Instant::now();
                let (status, body) = serve::exchange(daemon.addr, &req);
                lat.push(t.elapsed().as_secs_f64());
                daemon_tally.record(status == 200 && body == want.as_bytes());
            }
            let own =
                (t0.elapsed().as_secs_f64() - lat.iter().sum::<f64>()) / lat.len() as f64 * 1e6;
            let m = daemon_metrics(&daemon, median(&lat), own, &mut daemon_tally, meta);
            daemon_tally.record(daemon.stop());
            m
        }
        Err(e) => {
            eprintln!("perfbench: starting hare-serve: {e}");
            daemon_tally.record(false);
            Metrics::default()
        }
    };
    suite.tally.merge(daemon_tally);
    suite.finish(ctx, meta, extra)
}

/// Traced run of the serving workload.
pub fn run_serve(ctx: &Ctx, plan: &Plan, meta: &mut crate::Meta) -> (Metrics, Tally) {
    let mut suite = Suite::new();
    let hot_path = ctx.work.join("hot.txt");
    write_file(&hot_path, &plan.hot_text).expect("writing the hot dataset");
    let delta = plan.targets.hot_delta(0);
    let hot_matrix = hare::count_motifs(&plan.hot, delta).matrix;
    let check = |body: &str| {
        let Ok(v) = serde_json::from_str(body.trim_end()) else {
            return false;
        };
        let want = hare::report::exact_body(
            plan.hot.num_nodes(),
            plan.hot.num_edges(),
            delta,
            &hot_matrix,
            None,
        );
        ["total", "counts"]
            .iter()
            .all(|k| v.get(k).map(ToString::to_string) == want.get(k).map(ToString::to_string))
    };
    let mut cli = Command::new(&ctx.hare_count);
    cli.arg("--input").arg(&hot_path).args([
        "--delta",
        &delta.to_string(),
        "--threads",
        &ctx.nproc.to_string(),
        "--json",
    ]);
    let main = Flavor {
        layout: LaneLayout::Raw,
        budget: None,
        threads: ctx.nproc,
    };
    let budget = plan.hot.resident_lane_bytes() / 8;
    suite.cli_paths(ctx, &hot_path, delta, main, &mut cli, &check, budget);

    suite.read_paths(
        ctx,
        &plan.cold[0].graph,
        serve::APPROX_DELTA,
        plan.targets.fresh_delta(0),
    );
    let batches: Vec<Vec<(u32, u32, i64)>> = (0..SESSION_EDGES / PUSH_BATCH)
        .map(|b| plan.streams[0].batch(b))
        .collect();
    suite.session_paths(&batches);
    let refs = |item: Item| plan.reference(item);
    suite.request_paths(ctx, &plan.datasets(), &plan.targets, &refs, &batches);

    // The daemon itself under a short closed loop of the real mix.
    let mut tally = Tally::default();
    let extra = match serve::start(ctx, &plan.uploads(), &mut tally) {
        Ok((daemon, _, _)) => {
            let sessions = serve::open_sessions(&daemon, &mut tally);
            serve::warm_up(plan, &daemon, &sessions, &mut tally);
            let pass = serve::closed_loop(
                plan,
                daemon.addr,
                &sessions,
                ctx.seconds.min(3.0),
                &mut Speed::compute(Instant::now()),
            );
            tally.merge(serve::verify(plan, &pass, ctx.nproc));
            let lat: Vec<f64> = pass.done.iter().map(|d| d.secs).collect();
            let own = (pass.wall - pass.socket_secs) / pass.done.len().max(1) as f64 * 1e6;
            let m = daemon_metrics(&daemon, median(&lat), own, &mut tally, meta);
            tally.record(daemon.stop());
            m
        }
        Err(e) => {
            eprintln!("perfbench: starting hare-serve: {e}");
            tally.record(false);
            Metrics::default()
        }
    };
    suite.tally.merge(tally);
    suite.finish(ctx, meta, extra)
}
