//! The `serve_mix` workload: a `hare-serve` daemon driven in a closed
//! loop by one client connection replaying one seeded request sequence
//! of reads and session writes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hare::stream_sample::{StreamSampleConfig, StreamingEstimator};
use hare::windowed::WindowedCounter;
use hare::{Motif, MotifMatrix, NodeProfiles, SampleConfig, SampledCounter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use temporal_graph::io::{graph_from_raw, read_edges, LoadOptions};
use temporal_graph::TemporalGraph;

use crate::calib::Speed;
use crate::gen::{self, SessionStream, PUSH_BATCH};
use crate::measure::{
    json_str, median, peak_rss_bytes, pin_to_one_core, reap, Latency, Metrics, Tally,
    MIN_P90_SAMPLES,
};
use crate::Ctx;

/// Request classes of the mix. Everything but `Push` is a read.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// Zipf-hot exact `/count` on the large dataset; a cache hit.
    CountHit,
    /// Exact `/count` with a fresh δ on the small dataset; a miss.
    CountMiss,
    /// `engine=approx` with a fresh sampling seed; a miss.
    Approx,
    /// `/nodes/top` with a fresh δ on the small dataset; a miss.
    NodesTop,
    /// `GET /sessions/{id}`.
    Poll,
    /// `POST /sessions/{id}/edges`.
    Push,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::CountHit,
        Class::CountMiss,
        Class::Approx,
        Class::NodesTop,
        Class::Poll,
        Class::Push,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::CountHit => "count_hit",
            Class::CountMiss => "count_miss",
            Class::Approx => "approx",
            Class::NodesTop => "nodes_top",
            Class::Poll => "poll",
            Class::Push => "push",
        }
    }

    pub fn is_read(self) -> bool {
        self != Class::Push
    }

    /// Requests of this class in every block of 100.
    fn per_hundred(self) -> usize {
        match self {
            Class::CountHit => 55,
            Class::CountMiss => 8,
            Class::Approx => 4,
            Class::NodesTop => 3,
            Class::Poll => 10,
            Class::Push => 20,
        }
    }
}

/// One request of the sequence. `key` indexes the class's pool: the
/// hot key, the fresh δ or seed, or the session.
#[derive(Clone, Copy)]
pub struct Item {
    pub class: Class,
    pub key: u32,
}

/// Distinct hot `/count` keys (all fit in the cache, prefilled).
pub const HOT_KEYS: u32 = 16;
/// Zipf exponent of the hot keys.
const HOT_ZIPF: f64 = 1.0;
/// δ step between hot keys.
const HOT_DELTA_STEP: i64 = 60;
/// Approximate queries on the small dataset: δ, keep probability and
/// window factor; each uses a fresh sampling seed.
pub const APPROX_DELTA: i64 = 600;
const APPROX_PROB: f64 = 0.3;
const APPROX_WF: i64 = 2;
/// `/nodes/top` ranks by this motif.
const TOP_MOTIF: &str = "M66";
pub const TOP_K: usize = 10;
/// Session engines: δ, window and (budgeted) byte budget.
pub const SESSION_DELTA: i64 = 600;
pub const SESSION_WINDOW: i64 = 3_600;
const SESSION_BUDGET: u64 = 64 * 1024;
/// Result-cache entries. The 16 hot keys are read every few requests
/// and stay resident under LRU; the fresh miss keys cycle through the
/// rest. So the hit ratio is set by the mix alone, and the cache (and
/// the daemon's memory) stops growing early in the pass.
pub const CACHE_ENTRIES: usize = 1_024;
/// Requests pre-built per second of run time (the pass ends early if a
/// faster program drains them).
const REQUESTS_PER_SECOND: usize = 15_000;
/// The served datasets: WikiTalk/64 (about 122k edges) for the hot
/// counts, and four CollegeMsg/64 graphs (about 300 edges each) for
/// everything computed per request.
const HOT_SCALE: usize = 64;
const COLD_SCALE: usize = 64;
/// The small datasets; fresh key `k` reads `COLD_NAMES[k % 4]`. A miss on
/// one 29-node graph costs what its largest hub costs, and that varies
/// by seed (quartile spread 19 % of the median over 16 seeds, in
/// process); the misses of a run spread over four graphs vary half as
/// much.
pub const COLD_NAMES: [&str; 4] = ["cold0", "cold1", "cold2", "cold3"];

/// Where each request class of the mix goes. The end-to-end pass and
/// the traced request path both build their targets here.
pub struct Targets {
    /// Dataset of the hot (cached) counts.
    pub hot: &'static str,
    /// Datasets of the misses, approximate queries and rankings, taken
    /// in turn by fresh key.
    pub cold: &'static [&'static str],
    /// δ of hot key 0.
    pub hot_delta0: i64,
    /// δ of fresh key 0; fresh key `k` adds `k`.
    pub fresh_delta0: i64,
}

impl Targets {
    pub fn hot_delta(&self, key: u32) -> i64 {
        self.hot_delta0 + i64::from(key) * HOT_DELTA_STEP
    }

    pub fn fresh_delta(&self, key: u32) -> i64 {
        self.fresh_delta0 + i64::from(key)
    }

    /// The request target of `item`.
    pub fn target(&self, item: Item, sessions: &[u64; 2]) -> String {
        let hot = self.hot;
        let cold = self.cold[item.key as usize % self.cold.len()];
        match item.class {
            Class::CountHit => format!("/count?dataset={hot}&delta={}", self.hot_delta(item.key)),
            Class::CountMiss => format!("/count?dataset={cold}&delta={}", self.fresh_delta(item.key)),
            Class::Approx => format!(
                "/count?dataset={cold}&delta={APPROX_DELTA}&engine=approx&prob={APPROX_PROB}&window_factor={APPROX_WF}&seed={}",
                approx_seed(item.key)
            ),
            Class::NodesTop => format!(
                "/nodes/top?dataset={cold}&delta={}&motif={TOP_MOTIF}&k={TOP_K}",
                self.fresh_delta(item.key)
            ),
            Class::Poll => format!("/sessions/{}", sessions[item.key as usize]),
            Class::Push => format!("/sessions/{}/edges", sessions[item.key as usize]),
        }
    }
}

/// One small dataset and its references.
pub struct Cold {
    pub text: String,
    pub graph: TemporalGraph,
    /// Its counts and M66 ranking at any fresh δ.
    matrix: MotifMatrix,
    ranked: Vec<(u32, u64)>,
}

/// The generated inputs, references and request sequence.
pub struct Plan {
    pub hot_text: String,
    pub hot: TemporalGraph,
    /// The small datasets, in `COLD_NAMES` order.
    pub cold: Vec<Cold>,
    pub targets: Targets,
    pub hot_refs: Vec<String>,
    pub items: Vec<Item>,
    /// The edge stream of each session, and the most pushes the
    /// sequence can send to it.
    pub streams: [SessionStream; 2],
    max_pushes: [usize; 2],
}

/// The graph as the daemon builds it from an uploaded edge list (node
/// ids renumbered in order of appearance).
fn build(text: &str) -> TemporalGraph {
    let opts = LoadOptions::default();
    graph_from_raw(
        read_edges(text.as_bytes(), &opts).expect("generated text parses"),
        &opts,
    )
}

impl Plan {
    pub fn new(seed: u64, seconds: f64) -> Plan {
        let hot_text = gen::snap_text(&gen::dataset("WikiTalk", HOT_SCALE, seed));
        let hot = build(&hot_text);
        let cold_texts: Vec<String> = (0..COLD_NAMES.len() as u64)
            .map(|i| {
                let g = gen::dataset("CollegeMsg", COLD_SCALE, seed * COLD_NAMES.len() as u64 + i);
                gen::snap_text(&g)
            })
            .collect();
        let cold_graphs: Vec<TemporalGraph> = cold_texts.iter().map(|t| build(t)).collect();
        // Every fresh δ covers each small graph's whole span, so each miss
        // on one graph does the same work and all share one count matrix
        // (and one ranking).
        let targets = Targets {
            hot: "hot",
            cold: &COLD_NAMES,
            hot_delta0: 600,
            fresh_delta0: cold_graphs
                .iter()
                .map(TemporalGraph::time_span)
                .max()
                .unwrap_or(0)
                + 1,
        };
        let cold = cold_texts
            .into_iter()
            .zip(cold_graphs)
            .map(|(text, graph)| Cold {
                matrix: hare::count_motifs(&graph, targets.fresh_delta0).matrix,
                ranked: hare::top_k_nodes(
                    &NodeProfiles::compute(&graph, targets.fresh_delta0, 1),
                    top_motif(),
                    TOP_K,
                ),
                text,
                graph,
            })
            .collect();

        let len = (REQUESTS_PER_SECOND as f64 * seconds.max(1.0)).ceil() as usize / 100 * 100 + 100;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5345_5121);
        let hot_zipf = Zipf::new(u64::from(HOT_KEYS), HOT_ZIPF).expect("valid Zipf parameters");
        let mut next = [0u32; 6];
        let mut items = Vec::with_capacity(len);
        let mut block = Vec::with_capacity(100);
        while items.len() < len {
            block.clear();
            for class in Class::ALL {
                block.extend(std::iter::repeat_n(class, class.per_hundred()));
            }
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
            for &class in &block {
                let key = match class {
                    Class::CountHit => hot_zipf.sample(&mut rng) as u32 - 1,
                    Class::Poll | Class::Push => rng.gen_range(0..2u32),
                    _ => {
                        let slot = &mut next[class as usize];
                        *slot += 1;
                        *slot - 1
                    }
                };
                items.push(Item { class, key });
            }
        }
        let pushes = |s: u32| {
            items
                .iter()
                .filter(|i| i.class == Class::Push && i.key == s)
                .count()
        };
        let max_pushes = [pushes(0), pushes(1)];
        let streams = [
            SessionStream::new(seed ^ 0x5345_5330),
            SessionStream::new(seed ^ 0x5345_5331),
        ];
        let hot_refs = (0..HOT_KEYS)
            .map(|k| exact_ref(&hot, targets.hot_delta(k)))
            .collect();
        Plan {
            hot_text,
            hot,
            cold,
            targets,
            hot_refs,
            items,
            streams,
            max_pushes,
        }
    }

    /// Every dataset as (name, edge-list text), in registration order.
    pub fn datasets(&self) -> Vec<(&'static str, &str)> {
        let mut out = vec![("hot", self.hot_text.as_str())];
        out.extend(
            COLD_NAMES
                .iter()
                .zip(&self.cold)
                .map(|(n, c)| (*n, c.text.as_str())),
        );
        out
    }

    /// The upload bodies, in registration order.
    pub fn uploads(&self) -> Vec<String> {
        self.datasets()
            .into_iter()
            .map(|(name, text)| format!("{{\"name\":\"{name}\",\"edges\":{}}}", json_str(text)))
            .collect()
    }

    /// The small dataset that fresh key `key` reads.
    pub fn cold_of(&self, key: u32) -> &Cold {
        &self.cold[key as usize % self.cold.len()]
    }

    /// The reference body of a read: the hot keys' from set-up, the
    /// rest rendered now.
    pub fn reference(&self, item: Item) -> String {
        let delta = self.targets.fresh_delta(item.key);
        match item.class {
            Class::CountHit => self.hot_refs[item.key as usize].clone(),
            Class::CountMiss => {
                let c = self.cold_of(item.key);
                let body = hare::report::exact_body(
                    c.graph.num_nodes(),
                    c.graph.num_edges(),
                    delta,
                    &c.matrix,
                    None,
                );
                hare::report::render(&body)
            }
            Class::Approx => approx_ref(
                &self.cold_of(item.key).graph,
                APPROX_DELTA,
                approx_seed(item.key),
            ),
            Class::NodesTop => {
                let ranked = &self.cold_of(item.key).ranked;
                let body = hare::report::top_nodes_body(delta, top_motif(), TOP_K, ranked);
                hare::report::render(&body)
            }
            Class::Poll | Class::Push => unreachable!("checked during the pass"),
        }
    }

    /// The flushed tick a session reaches after its first `n` batches.
    pub fn session_ref(&self, session: usize, n: usize) -> String {
        let edges = (0..n).flat_map(|b| self.streams[session].batch(b));
        let max_t = if n == 0 {
            0
        } else {
            self.streams[session].batch(n - 1)[PUSH_BATCH - 1].2
        };
        let body = if session == 0 {
            let mut wc = WindowedCounter::with_slack(SESSION_DELTA, SESSION_WINDOW, 0);
            for (s, d, t) in edges {
                wc.push(s, d, t).expect("strictly increasing stream");
            }
            wc.flush();
            hare::report::windowed_tick_body(max_t, &wc, 0, 0)
        } else {
            let mut est = StreamingEstimator::new(session_budget_cfg());
            for (s, d, t) in edges {
                est.push(s, d, t).expect("strictly increasing stream");
            }
            est.flush();
            hare::report::stream_tick_body(max_t, 0, &est.estimates(), 0, 0)
        };
        hare::report::render(&body)
    }
}

pub fn approx_seed(key: u32) -> u64 {
    1_000 + u64::from(key)
}

pub fn approx_cfg(seed: u64, threads: usize) -> SampleConfig {
    SampleConfig {
        prob: APPROX_PROB,
        window_factor: APPROX_WF,
        confidence: 0.95,
        seed,
        threads,
    }
}

pub fn session_budget_cfg() -> StreamSampleConfig {
    StreamSampleConfig::new(SESSION_DELTA, SESSION_WINDOW, SESSION_BUDGET)
}

pub fn exact_ref(g: &TemporalGraph, delta: i64) -> String {
    let m = hare::count_motifs(g, delta).matrix;
    hare::report::render(&hare::report::exact_body(
        g.num_nodes(),
        g.num_edges(),
        delta,
        &m,
        None,
    ))
}

pub fn approx_ref(g: &TemporalGraph, delta: i64, seed: u64) -> String {
    let est = SampledCounter::new(approx_cfg(seed, 1)).count(g, delta);
    hare::report::render(&hare::report::approx_body(
        g.num_nodes(),
        g.num_edges(),
        delta,
        APPROX_WF,
        seed,
        &est,
        None,
    ))
}

pub fn top_motif() -> Motif {
    TOP_MOTIF.parse().expect("valid motif name")
}

pub fn top_ref(g: &TemporalGraph, delta: i64) -> String {
    let profiles = NodeProfiles::compute(g, delta, 1);
    let ranked = hare::top_k_nodes(&profiles, top_motif(), TOP_K);
    hare::report::render(&hare::report::top_nodes_body(
        delta,
        top_motif(),
        TOP_K,
        &ranked,
    ))
}

/// The session-creation bodies: one exact, one budgeted.
pub fn session_bodies() -> [String; 2] {
    [
        format!("{{\"delta\":{SESSION_DELTA},\"window\":{SESSION_WINDOW}}}"),
        format!(
            "{{\"delta\":{SESSION_DELTA},\"window\":{SESSION_WINDOW},\"memory_budget\":{SESSION_BUDGET}}}"
        ),
    ]
}

/// A push request body.
pub fn push_body(batch: &[(u32, u32, i64)]) -> String {
    let rows: Vec<String> = batch
        .iter()
        .map(|(s, d, t)| format!("[{s},{d},{t}]"))
        .collect();
    format!("{{\"edges\":[{}]}}", rows.join(","))
}

/// Raw HTTP/1.1 request bytes.
pub fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One HTTP exchange: status and body (status 0 on a transport error).
pub fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, Vec<u8>) {
    let attempt = || -> std::io::Result<(u16, Vec<u8>)> {
        let mut s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        // A stuck daemon fails the request instead of hanging the run.
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.write_all(request)?;
        let mut buf = Vec::with_capacity(4096);
        s.read_to_end(&mut buf)?;
        let head_end = buf
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| std::io::Error::other("no header terminator"))?;
        let status = std::str::from_utf8(&buf[..head_end])
            .ok()
            .and_then(|h| h.split(' ').nth(1))
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        Ok((status, buf[head_end + 4..].to_vec()))
    };
    attempt().unwrap_or((0, Vec::new()))
}

/// A running `hare-serve` process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    pub fn spawn(ctx: &Ctx) -> std::io::Result<Daemon> {
        let n = ctx.nproc.to_string();
        let mut child = Command::new(&ctx.hare_serve)
            .args([
                "--port",
                "0",
                "--workers",
                &n,
                "--threads",
                &n,
                "--queue",
                "64",
            ])
            .args(["--cache", &CACHE_ENTRIES.to_string()])
            .args(["--no-access-log", "--enable-shutdown"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        if let Some(out) = child.stdout.take() {
            BufReader::new(out).read_line(&mut line)?;
        }
        let addr = line
            .split("\"listening\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Daemon { child, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(std::io::Error::other(format!(
                    "no listening line: {line:?}"
                )))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn get(&self, target: &str) -> (u16, Vec<u8>) {
        exchange(self.addr, &request_bytes("GET", target, ""))
    }

    pub fn post(&self, target: &str, body: &str) -> (u16, Vec<u8>) {
        exchange(self.addr, &request_bytes("POST", target, body))
    }

    /// Graceful shutdown; kills the process if it does not exit.
    pub fn stop(mut self) -> bool {
        let (status, _) = self.post("/shutdown", "");
        reap(&mut self.child, Duration::from_secs(10)) && status == 200
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn, upload every dataset, and wait for the first `200`: the
/// daemon's set-up. Returns the daemon, its set-up seconds, and the
/// part of them spent before the daemon listened (process spawn).
pub fn start(
    ctx: &Ctx,
    uploads: &[String],
    tally: &mut Tally,
) -> std::io::Result<(Daemon, f64, f64)> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(ctx)?;
    let spawn = t0.elapsed().as_secs_f64();
    for body in uploads {
        let (status, _) = daemon.post("/datasets", body);
        tally.record(status == 201);
    }
    let (status, body) = daemon.get("/datasets");
    let secs = t0.elapsed().as_secs_f64();
    let listed = String::from_utf8_lossy(&body);
    let all = ["hot"]
        .iter()
        .chain(&COLD_NAMES)
        .all(|n| listed.contains(&format!("\"{n}\"")));
    tally.record(status == 200 && all);
    Ok((daemon, secs, spawn))
}

/// Open the two sessions; returns their ids.
pub fn open_sessions(daemon: &Daemon, tally: &mut Tally) -> [u64; 2] {
    let bodies = session_bodies();
    let mut ids = [0u64; 2];
    for (slot, body) in ids.iter_mut().zip(&bodies) {
        let (status, resp) = daemon.post("/sessions", body);
        let id = serde_json::from_str(&String::from_utf8_lossy(&resp))
            .ok()
            .and_then(|v| v["session"].as_u64());
        tally.record(status == 201 && id.is_some());
        *slot = id.unwrap_or(0);
    }
    ids
}

/// Fill the cache with every hot key, checking each body.
pub fn warm_up(plan: &Plan, daemon: &Daemon, sessions: &[u64; 2], tally: &mut Tally) {
    for key in 0..HOT_KEYS {
        let item = Item {
            class: Class::CountHit,
            key,
        };
        let (status, body) = daemon.get(&plan.targets.target(item, sessions));
        tally.record(status == 200 && body == plan.hot_refs[key as usize].as_bytes());
    }
}

/// One completed request of the pass.
pub struct Done {
    pub item: Item,
    /// Run time (the calibration clock) when the request's cycle began.
    pub at: f64,
    /// Seconds of the socket exchange.
    pub secs: f64,
    /// Seconds of the whole cycle: the exchange and the client's own
    /// work around it.
    pub cycle: f64,
    /// Length and FNV-1a hash of a miss-class body, compared after the
    /// pass with its reference (`None` when checked inline).
    pub digest: Option<(usize, u64)>,
    pub ok_inline: bool,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the closed loop measured.
pub struct Pass {
    pub done: Vec<Done>,
    /// Seconds spent on requests and on the client's own work between
    /// them; calibration pauses are left out.
    pub wall: f64,
    /// Seconds spent inside the socket exchanges.
    pub socket_secs: f64,
    pub pushes: [usize; 2],
}

/// Seconds of pass between two calibration units.
const CALIB_EVERY_S: f64 = 0.2;

/// Replay the sequence over one closed-loop connection until the run
/// time is up and both latency classes have enough samples, or the
/// sequence is used up. A calibration unit runs every `CALIB_EVERY_S`,
/// while the daemon is idle.
///
/// One client, not one per core: on the 2-core machine the benchmark
/// was sized on, a second client competed with the daemon's workers for
/// the cores, and the pass measured the scheduler more than the daemon.
pub fn closed_loop(
    plan: &Plan,
    addr: SocketAddr,
    sessions: &[u64; 2],
    seconds: f64,
    speed: &mut Speed,
) -> Pass {
    // Pre-built request bytes: hits and polls by key, the fresh reads by
    // item, pushes by batch.
    let get = |item: Item| request_bytes("GET", &plan.targets.target(item, sessions), "");
    let hits: Vec<Vec<u8>> = (0..HOT_KEYS)
        .map(|key| {
            get(Item {
                class: Class::CountHit,
                key,
            })
        })
        .collect();
    let polls: Vec<Vec<u8>> = (0..2)
        .map(|key| {
            get(Item {
                class: Class::Poll,
                key,
            })
        })
        .collect();
    let fresh: Vec<Vec<u8>> = plan
        .items
        .iter()
        .map(|&it| match it.class {
            Class::CountMiss | Class::Approx | Class::NodesTop => get(it),
            _ => Vec::new(),
        })
        .collect();
    let pushes: Vec<Vec<Vec<u8>>> = (0..2)
        .map(|s| {
            let target = format!("/sessions/{}/edges", sessions[s]);
            (0..plan.max_pushes[s])
                .map(|b| request_bytes("POST", &target, &push_body(&plan.streams[s].batch(b))))
                .collect()
        })
        .collect();

    let mut pass = Pass {
        done: Vec::new(),
        wall: 0.0,
        socket_secs: 0.0,
        pushes: [0, 0],
    };
    let (mut reads, mut writes) = (0, 0);
    let start = Instant::now();
    let mut next_calib = 0.0;
    for (i, &item) in plan.items.iter().enumerate() {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = reads >= MIN_P90_SAMPLES && writes >= MIN_P90_SAMPLES;
        if (elapsed >= seconds && enough) || elapsed > seconds * 4.0 {
            break;
        }
        if elapsed >= next_calib {
            speed.sample();
            next_calib = start.elapsed().as_secs_f64() + CALIB_EVERY_S;
        }
        let cycle = Instant::now();
        let at = speed.now();
        let request: &[u8] = match item.class {
            Class::CountHit => &hits[item.key as usize],
            Class::Poll => &polls[item.key as usize],
            Class::Push => {
                // The sequence holds exactly `max_pushes` pushes per session.
                let s = item.key as usize;
                pass.pushes[s] += 1;
                &pushes[s][pass.pushes[s] - 1]
            }
            _ => &fresh[i],
        };
        let t = Instant::now();
        let (status, body) = exchange(addr, request);
        let secs = t.elapsed().as_secs_f64();
        pass.socket_secs += secs;
        if item.class.is_read() {
            reads += 1;
        } else {
            writes += 1;
        }
        let ok = status == 200;
        let (digest, ok_inline) = match item.class {
            Class::CountHit => (
                None,
                ok && body == plan.hot_refs[item.key as usize].as_bytes(),
            ),
            Class::Poll => {
                let tick = body.windows(7).any(|w| w == b"\"tick\":");
                (
                    None,
                    ok && tick && body.starts_with(b"{") && body.ends_with(b"}\n"),
                )
            }
            Class::Push => {
                let text = String::from_utf8_lossy(&body);
                let all_in = text.contains(&format!("\"accepted\":{PUSH_BATCH},"))
                    && text.contains("\"late_dropped\":0,");
                (None, ok && all_in)
            }
            _ => (Some((body.len(), fnv1a(&body))), ok),
        };
        let cycle = cycle.elapsed().as_secs_f64();
        pass.wall += cycle;
        pass.done.push(Done {
            item,
            at,
            secs,
            cycle,
            digest,
            ok_inline,
        });
    }
    pass
}

/// Check every response of the pass: the inline verdicts, and the
/// miss-class digests against references rendered now on `threads`
/// threads. Returns the tally.
pub fn verify(plan: &Plan, pass: &Pass, threads: usize) -> Tally {
    let chunks: Vec<&[Done]> = pass
        .done
        .chunks(pass.done.len().div_ceil(threads.max(1)).max(1))
        .collect();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut t = Tally::default();
                    for d in *chunk {
                        let ok = d.ok_inline
                            && d.digest.is_none_or(|(len, hash)| {
                                let want = plan.reference(d.item);
                                want.len() == len && fnv1a(want.as_bytes()) == hash
                            });
                        t.record(ok);
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier does not panic"))
            .collect()
    });
    let mut total = Tally::default();
    for t in tallies {
        total.merge(t);
    }
    total
}

/// Flush both sessions and compare each final tick with a reference
/// engine fed the same batches.
pub fn check_sessions(
    plan: &Plan,
    daemon: &Daemon,
    sessions: &[u64; 2],
    pushes: [usize; 2],
    tally: &mut Tally,
) {
    for s in 0..2 {
        let (status, body) = daemon.post(&format!("/sessions/{}/flush", sessions[s]), "");
        tally.record(status == 200 && body == plan.session_ref(s, pushes[s]).into_bytes());
    }
}

/// Cache and queue counters from `GET /stats`.
pub fn server_stats(daemon: &Daemon) -> Option<serde_json::Value> {
    let (status, body) = daemon.get("/stats");
    if status != 200 {
        return None;
    }
    serde_json::from_str(&String::from_utf8_lossy(&body)).ok()
}

/// Daemon set-ups timed for `setup_s` before the pass and again after
/// it; the median of all is reported, so the samples span the run
/// rather than one moment of it.
const SETUP_ROUNDS_BEFORE: usize = 11;
const SETUP_ROUNDS_AFTER: usize = 10;

/// Start and stop `rounds` daemons in turn, recording each set-up's
/// start, seconds and spawn seconds, and following it with a
/// calibration unit.
fn setup_rounds(
    ctx: &Ctx,
    plan: &Plan,
    rounds: usize,
    setups: &mut Vec<(f64, f64, f64)>,
    speed: &mut Speed,
    tally: &mut Tally,
) {
    let uploads = plan.uploads();
    for _ in 0..rounds {
        let at = speed.now();
        let (d, secs, spawn) = start(ctx, &uploads, tally).expect("starting hare-serve");
        setups.push((at, secs, spawn));
        tally.record(d.stop());
        speed.sample();
    }
}

/// Untraced end-to-end run. Every timing is reported in reference
/// seconds (see `calib`), scaled by units timed beside it: compute
/// units after each set-up round, compute and loopback units through
/// the pass.
///
/// During the pass the harness and its daemon share one core. A request
/// is a few tens of µs of work handed between client and daemon; across
/// two cores each hand-off wakes an idle core, and on a shared virtual
/// machine that wake-up cost varied twofold from run to run (raw
/// throughput 2 700–5 100 req/s over five runs while the calibration
/// unit moved 9 %). On one core the hand-offs are context switches. The
/// set-up rounds run on every core: a 2 MB upload to a daemon on the
/// client's core took 66–101 ms across rounds, on two cores 89–104 ms.
pub fn run(ctx: &Ctx, plan: &Plan, meta: &mut crate::Meta) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    let mut setup_speed = Speed::compute(Instant::now());
    let mut setups = Vec::new();
    setup_rounds(
        ctx,
        plan,
        SETUP_ROUNDS_BEFORE,
        &mut setups,
        &mut setup_speed,
        &mut tally,
    );

    let pinned = pin_to_one_core();
    meta.text(
        "pinned_core",
        &pinned
            .as_ref()
            .map_or("none".into(), |p| p.core.to_string()),
    );
    let mut speed = Speed::with_loopback(Instant::now()).expect("binding the calibration listener");
    let (daemon, _, _) = start(ctx, &plan.uploads(), &mut tally).expect("starting hare-serve");
    let sessions = open_sessions(&daemon, &mut tally);
    warm_up(plan, &daemon, &sessions, &mut tally);
    let pass = closed_loop(plan, daemon.addr, &sessions, ctx.seconds, &mut speed);
    let peak = peak_rss_bytes(daemon.pid()).unwrap_or(0);
    drop(pinned);

    tally.merge(verify(plan, &pass, ctx.nproc));
    check_sessions(plan, &daemon, &sessions, pass.pushes, &mut tally);
    let stats = server_stats(&daemon);
    tally.record(stats.is_some());
    tally.record(daemon.stop());
    setup_rounds(
        ctx,
        plan,
        SETUP_ROUNDS_AFTER,
        &mut setups,
        &mut setup_speed,
        &mut tally,
    );

    let of = |read: bool, scaled: bool| -> Vec<f64> {
        pass.done
            .iter()
            .filter(|d| d.item.class.is_read() == read)
            .map(|d| {
                if scaled {
                    speed.to_ref(d.at, d.secs)
                } else {
                    d.secs
                }
            })
            .collect()
    };
    let read = Latency::of(&of(true, true));
    let write = Latency::of(&of(false, true));
    let n = pass.done.len();
    let pushed_edges = (pass.pushes[0] + pass.pushes[1]) * PUSH_BATCH;
    let pass_ref: f64 = pass.done.iter().map(|d| speed.to_ref(d.at, d.cycle)).sum();
    let setup_ref: Vec<f64> = setups
        .iter()
        .map(|s| setup_speed.to_ref(s.0, s.1))
        .collect();
    let raw_setup_s = median(&setups.iter().map(|s| s.1).collect::<Vec<_>>());
    let spawn_s = median(&setups.iter().map(|s| s.2).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_ref), "s");
    m.set("edges_per_s", pushed_edges as f64 / pass_ref, "edges/s");
    m.set("req_per_s", n as f64 / pass_ref, "req/s");
    m.set("read_p50_ms", read.p50 * 1e3, "ms");
    m.set("read_p90_ms", read.p90 * 1e3, "ms");
    m.set("write_p50_ms", write.p50 * 1e3, "ms");
    m.set("write_p90_ms", write.p90 * 1e3, "ms");
    m.set("peak_rss_mb", peak as f64 / 1e6, "MB");

    // The same figures in measured seconds, for comparison.
    let raw_read = Latency::of(&of(true, false));
    meta.num("raw_setup_s", raw_setup_s);
    meta.num("raw_req_per_s", n as f64 / pass.wall);
    meta.num("raw_read_p50_ms", raw_read.p50 * 1e3);
    meta.num("raw_read_p90_ms", raw_read.p90 * 1e3);
    meta.num("raw_write_p50_ms", Latency::of(&of(false, false)).p50 * 1e3);
    speed.write_meta(meta);
    meta.num("setup_calib_unit_s", setup_speed.unit_s());
    meta.num("pass_s", pass.wall);
    meta.int("requests", n as u64);
    meta.int("sequence_len", plan.items.len() as u64);
    meta.int("read_samples", read.n as u64);
    meta.int("write_samples", write.n as u64);
    meta.int("setup_samples", setups.len() as u64);
    meta.num("spawn_s", spawn_s);
    meta.num("spawn_share_of_setup", spawn_s / raw_setup_s);
    meta.flag(
        "p90_reportable",
        read.p90_reportable() && write.p90_reportable(),
    );
    meta.num(
        "client_own_us_per_req",
        (pass.wall - pass.socket_secs) / n.max(1) as f64 * 1e6,
    );
    meta.int("pushed_edges", pushed_edges as u64);
    for class in Class::ALL {
        let lat: Vec<f64> = pass
            .done
            .iter()
            .filter(|d| d.item.class == class)
            .map(|d| d.secs)
            .collect();
        let l = Latency::of(&lat);
        meta.num(&format!("{}_p50_ms", class.name()), l.p50 * 1e3);
        meta.int(&format!("{}_samples", class.name()), l.n as u64);
    }
    if let Some(s) = stats {
        for k in ["hits", "misses", "evictions"] {
            meta.int(&format!("cache_{k}"), s["cache"][k].as_u64().unwrap_or(0));
        }
        meta.int("rejected", s["queue"]["rejected"].as_u64().unwrap_or(0));
    }
    (m, tally)
}
