//! # hare-serve — the long-running motif-query service.
//!
//! The counting engines in [`hare`] are one-shot: load a graph, count,
//! exit. This crate keeps the investment resident and serves it
//! concurrently over HTTP/1.1 + JSON on `std::net` (no external
//! dependencies; query execution reuses the engines' executor,
//! `hare::exec`):
//!
//! * **Dataset catalog** ([`catalog`]) — graphs are loaded, indexed,
//!   fingerprinted and stat'd once (startup `--preload` or runtime
//!   `POST /datasets`) and shared immutably across requests via `Arc`.
//! * **Query dispatch with backpressure** — an acceptor thread feeds a
//!   bounded queue drained by a fixed worker pool; when the queue is
//!   full the acceptor answers `429` immediately instead of letting
//!   latency collapse.
//! * **Result cache** ([`cache`]) — an LRU over rendered response
//!   bodies keyed by `(dataset fingerprint, δ, engine, params)`, with
//!   hit/miss metrics on `GET /stats`. Repeated queries are O(1).
//! * **Streaming ingest sessions** ([`sessions`]) — per-client
//!   [`hare::windowed::WindowedCounter`]s: push edges, poll the live
//!   per-tick motif matrix. Sessions created with a `"memory_budget"`
//!   run the bounded-memory estimator
//!   ([`hare::stream_sample::StreamingEstimator`]) instead, with their
//!   budgets carved out of the daemon-wide `--session-memory-budget`
//!   pool.
//! * **Graceful shutdown** — SIGTERM/SIGINT (binary) or
//!   `POST /shutdown` (test mode): the acceptor stops, every queued and
//!   in-flight request still completes, then workers join.
//!
//! The differential contract: every `GET /count` body is **bit-identical**
//! to the stdout of the equivalent `hare-count --json --no-timing`
//! invocation, because both are rendered by [`hare::report`] — pinned by
//! the end-to-end suite, including under concurrent load.
//!
//! ## In-process quickstart
//!
//! ```
//! use hare_serve::{http::client, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     preload: vec![("CollegeMsg".into(), 8)],
//!     ..ServerConfig::default()
//! })
//! .unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.spawn();
//! let resp = client::get(addr, "/count?dataset=CollegeMsg&delta=600").unwrap();
//! assert_eq!(resp.status, 200);
//! assert_eq!(resp.json().unwrap()["delta"].as_i64(), Some(600));
//! handle.shutdown_and_wait().unwrap();
//! ```
//!
//! See `docs/SERVICE.md` for the full endpoint reference and `curl`
//! quickstart.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod cache;
pub mod catalog;
pub mod http;
pub mod nodes;
pub mod obs;
pub mod sessions;

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use cache::ResultCache;
use catalog::Catalog;
use sessions::SessionStore;

/// Server configuration. `Default` gives a localhost service with a
/// small worker pool suited to tests and single-machine serving.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker threads draining the connection queue (min 1).
    pub workers: usize,
    /// Bounded queue depth between acceptor and workers; an arriving
    /// request that finds it full is answered `429` (min 1).
    pub queue_capacity: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Default per-query counting threads (`0` = all cores); overridable
    /// per request with `?threads=N`. Results are bit-identical across
    /// thread counts either way.
    pub query_threads: usize,
    /// Largest accepted request body (dataset uploads), in bytes.
    pub max_body_bytes: usize,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Maximum simultaneously open streaming sessions; creation beyond
    /// the cap is answered `429` (each session holds a live
    /// `WindowedCounter`, so the cap bounds client-driven memory).
    pub max_sessions: usize,
    /// Daemon-wide byte pool for budgeted sessions (`None` = unmetered):
    /// each session created with a `"memory_budget"` reserves that many
    /// bytes at creation (answered `429` when the pool is exhausted) and
    /// returns them on close, so total estimator memory stays bounded
    /// regardless of how many budgeted sessions clients open.
    pub session_memory_budget: Option<u64>,
    /// Allow `POST /shutdown` (test mode; the binary's flag).
    pub enable_shutdown: bool,
    /// Emit a one-line JSON access log per handled request to stderr
    /// (method, path, status, latency, cache disposition). Off by
    /// default so embedded/test servers stay quiet; the daemon binary
    /// turns it on unless `--no-access-log` is passed.
    pub access_log: bool,
    /// Registry datasets to load at startup: `(name, scale)`.
    pub preload: Vec<(String, usize)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 256,
            query_threads: 0,
            max_body_bytes: 16 * 1024 * 1024,
            io_timeout: Duration::from_secs(30),
            max_sessions: 1024,
            session_memory_budget: None,
            enable_shutdown: false,
            access_log: false,
            preload: Vec::new(),
        }
    }
}

/// Queue/worker counters surfaced by `GET /stats` and `/metrics`.
///
/// All four live in one [`hare_obs::Group`] seqlock: every state
/// transition (enqueue, dequeue, complete, reject) moves its pair of
/// counters in a single atomic update, so a [`Metrics::snapshot`] is
/// always self-consistent — a request is never observed in two states
/// at once, or in none.
#[derive(Default)]
pub struct Metrics {
    group: hare_obs::Group<4>,
}

const M_QUEUED: usize = 0;
const M_IN_FLIGHT: usize = 1;
const M_COMPLETED: usize = 2;
const M_REJECTED: usize = 3;

impl Metrics {
    /// Connections accepted and waiting in the queue right now.
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.group.get(M_QUEUED)
    }

    /// Requests currently being handled by a worker.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.group.get(M_IN_FLIGHT)
    }

    /// Requests fully handled (response written).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.group.get(M_COMPLETED)
    }

    /// Connections rejected with `429` because the queue was full.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.group.get(M_REJECTED)
    }

    /// One coherent `[queued, in_flight, completed, rejected]` view.
    #[must_use]
    pub fn snapshot(&self) -> [u64; 4] {
        self.group.snapshot()
    }
}

/// Shared state behind every handler: catalog, cache, sessions,
/// metrics, configuration, and the shutdown latch.
pub struct AppState {
    /// Effective configuration.
    pub cfg: ServerConfig,
    /// The dataset catalog.
    pub catalog: Catalog,
    /// The LRU result cache.
    pub cache: ResultCache,
    /// Open streaming ingest sessions.
    pub sessions: SessionStore,
    /// Queue/worker counters.
    pub metrics: Metrics,
    /// Metric registry and trace ring (`GET /metrics`, `?trace=1`).
    pub obs: obs::ServeObs,
    shutdown_flag: AtomicBool,
    bound_addr: OnceLock<SocketAddr>,
}

impl AppState {
    /// Request graceful shutdown: the acceptor stops taking new
    /// connections, queued and in-flight requests complete, workers
    /// join. Idempotent; safe from any thread (including a worker
    /// answering `POST /shutdown` and the binary's signal watcher).
    pub fn request_shutdown(&self) {
        if !self.shutdown_flag.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking `accept` with a
            // probe connection; it re-checks the flag per connection.
            if let Some(addr) = self.bound_addr.get() {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
            }
        }
    }

    /// `true` once shutdown has been requested.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_flag.load(Ordering::SeqCst)
    }
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
}

impl Server {
    /// Bind the listener and build the shared state, loading every
    /// `preload` dataset into the catalog before any request can
    /// arrive.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let catalog = Catalog::new();
        for (name, scale) in &cfg.preload {
            catalog.register_registry(name, *scale, None).map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            })?;
        }
        let state = Arc::new(AppState {
            cache: ResultCache::new(cfg.cache_capacity),
            catalog,
            sessions: SessionStore::with_pool(cfg.session_memory_budget),
            metrics: Metrics::default(),
            obs: obs::ServeObs::new(),
            cfg,
            shutdown_flag: AtomicBool::new(false),
            bound_addr: OnceLock::new(),
        });
        let _ = state.bound_addr.set(listener.local_addr()?);
        spawn_rss_sampler(Arc::downgrade(&state));
        Ok(Server { listener, state })
    }

    /// The bound address (read the actual port after binding `:0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (catalog/cache/metrics access for embedders).
    #[must_use]
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Run until shutdown is requested, then drain and join. Blocks the
    /// calling thread; use [`Server::spawn`] for a background server.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let workers = state.cfg.workers.max(1);
        let queue_capacity = state.cfg.queue_capacity.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(queue_capacity);
        let rx = Arc::new(Mutex::new(rx));

        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&state);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("hare-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &state))?,
            );
        }

        for conn in self.listener.incoming() {
            let Ok(conn) = conn else { continue };
            if state.shutdown_requested() {
                // The connection that woke us (or raced the latch) is
                // dropped unanswered; everything already queued drains.
                break;
            }
            // Count the connection as queued *before* it becomes
            // visible to a worker (the worker's decrement must never
            // precede this increment), undoing on the reject paths.
            state.metrics.group.update(|v| v[M_QUEUED] += 1);
            match tx.try_send(conn) {
                Ok(()) => {}
                Err(TrySendError::Full(mut conn)) => {
                    // Backpressure: answer 429 from the acceptor rather
                    // than queueing unbounded work. One transition:
                    // queued -> rejected.
                    state.metrics.group.update(|v| {
                        v[M_QUEUED] -= 1;
                        v[M_REJECTED] += 1;
                    });
                    let resp =
                        api::error_response(429, "request queue is full, retry with backoff");
                    let _ = conn.set_write_timeout(Some(state.cfg.io_timeout));
                    let _ = http::write_response(
                        &mut conn,
                        resp.status,
                        resp.content_type,
                        resp.body.as_bytes(),
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    state.metrics.group.update(|v| v[M_QUEUED] -= 1);
                    break;
                }
            }
        }

        // Drain: close the queue, let workers finish every queued and
        // in-flight request, then join.
        drop(tx);
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Run on a background thread; the returned handle shuts the server
    /// down (and joins it) on drop.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.listener.local_addr().expect("bound listener");
        let state = Arc::clone(&self.state);
        let join = std::thread::Builder::new()
            .name("hare-serve-acceptor".into())
            .spawn(move || self.run())
            .expect("spawn acceptor thread");
        ServerHandle {
            addr,
            state,
            join: Some(join),
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, state: &Arc<AppState>) {
    loop {
        // Hold the lock only for the dequeue; handling runs unlocked so
        // workers process different connections concurrently.
        let conn = {
            let guard = rx.lock().expect("queue poisoned");
            guard.recv()
        };
        let Ok(mut conn) = conn else { break };
        // One transition: queued -> in_flight.
        state.metrics.group.update(|v| {
            v[M_QUEUED] -= 1;
            v[M_IN_FLIGHT] += 1;
        });
        // Panic isolation: a panicking handler must cost one request,
        // never a worker — an unwinding worker would permanently shrink
        // the pool until nothing drains the queue.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(state, &mut conn);
        }));
        if outcome.is_err() {
            let resp = api::error_response(500, "internal error while handling the request");
            let _ = http::write_response(
                &mut conn,
                resp.status,
                resp.content_type,
                resp.body.as_bytes(),
            );
        }
        // One transition: in_flight -> completed.
        state.metrics.group.update(|v| {
            v[M_IN_FLIGHT] -= 1;
            v[M_COMPLETED] += 1;
        });
    }
}

fn handle_connection(state: &Arc<AppState>, conn: &mut TcpStream) {
    let _ = conn.set_read_timeout(Some(state.cfg.io_timeout));
    let _ = conn.set_write_timeout(Some(state.cfg.io_timeout));
    let started = Instant::now();
    let (method, path, resp) = match http::read_request(conn, state.cfg.max_body_bytes) {
        Ok(req) => {
            let resp = api::handle(state, &req);
            (req.method, req.path, resp)
        }
        // Connection-level failure (peer went away, shutdown probe):
        // nothing to answer.
        Err(http::ReadError::Io(_)) => return,
        Err(http::ReadError::BadRequest(m)) => {
            ("-".into(), "-".into(), api::error_response(400, &m))
        }
        Err(http::ReadError::TooLarge(n)) => (
            "-".into(),
            "-".into(),
            api::error_response(
                413,
                &format!(
                    "request body of {n} bytes exceeds the {} byte limit",
                    state.cfg.max_body_bytes
                ),
            ),
        ),
    };
    // Record the observation (and the log line below) *before* the
    // response hits the wire: once a client holds the response, an
    // immediate /metrics scrape must already account for this request.
    // Localhost socket writes are the only latency left out.
    let latency_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    state.obs.observe_request(&path, resp.status, latency_us);
    if state.cfg.access_log {
        // One JSON object per line so the stream is machine-parseable;
        // serde_json handles the escaping of client-controlled paths.
        let line = serde_json::json!({
            "method": method,
            "path": path,
            "status": resp.status,
            "latency_us": latency_us,
            "cache": match resp.cache {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "-",
            },
        });
        eprintln!("{line}");
    }
    let _ = http::write_response(conn, resp.status, resp.content_type, resp.body.as_bytes());
    if resp.shutdown {
        // Trigger only after the response is on the wire so the caller
        // of POST /shutdown gets its 200.
        state.request_shutdown();
    }
}

/// Background VmRSS sampler: refreshes `hare_resident_memory_bytes`
/// about once a second for as long as the server state is alive. The
/// `Weak` handle is the thread's exit signal — once the last `Arc` to
/// the state drops, the next tick ends the loop.
fn spawn_rss_sampler(state: Weak<AppState>) {
    let _ = std::thread::Builder::new()
        .name("hare-serve-rss-sampler".into())
        .spawn(move || loop {
            let Some(state) = state.upgrade() else { return };
            if state.shutdown_requested() {
                return;
            }
            if let Some(bytes) = hare_obs::resident_set_bytes() {
                state.obs.set_resident_bytes(bytes);
            }
            // Drop the strong reference before sleeping so the sampler
            // never keeps a shut-down server's state alive.
            drop(state);
            std::thread::sleep(Duration::from_millis(1000));
        });
}

/// Handle to a background server. Dropping it requests shutdown and
/// joins, so tests cannot leak servers.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<AppState>,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    /// The server's bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (metrics/catalog inspection from tests).
    #[must_use]
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Request graceful shutdown and wait for the drain to finish.
    pub fn shutdown_and_wait(mut self) -> std::io::Result<()> {
        self.state.request_shutdown();
        match self.join.take() {
            Some(join) => join
                .join()
                .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.request_shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use http::client;

    fn test_server(cfg: ServerConfig) -> ServerHandle {
        Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..cfg
        })
        .expect("bind")
        .spawn()
    }

    #[test]
    fn serves_index_and_stats() {
        let server = test_server(ServerConfig::default());
        let resp = client::get(server.addr(), "/").unwrap();
        assert_eq!(resp.status, 200);
        let v = resp.json().unwrap();
        assert_eq!(v["service"].as_str(), Some("hare-serve"));
        let stats = client::get(server.addr(), "/stats")
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(stats["catalog"]["datasets"].as_u64(), Some(0));
        assert_eq!(stats["queue"]["workers"].as_u64(), Some(4));
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn count_query_hits_cache_on_repeat() {
        let server = test_server(ServerConfig {
            preload: vec![("CollegeMsg".into(), 16)],
            query_threads: 1,
            ..ServerConfig::default()
        });
        let target = "/count?dataset=CollegeMsg&delta=600";
        let first = client::get(server.addr(), target).unwrap();
        assert_eq!(first.status, 200);
        let second = client::get(server.addr(), target).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(first.body, second.body, "cached body is byte-identical");
        let stats = client::get(server.addr(), "/stats")
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(stats["cache"]["hits"].as_u64(), Some(1));
        assert_eq!(stats["cache"]["misses"].as_u64(), Some(1));
        assert_eq!(stats["cache"]["entries"].as_u64(), Some(1));
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn upload_register_query_and_conflict() {
        let server = test_server(ServerConfig::default());
        let body = r#"{"name":"tri","edges":"0 1 10\n1 2 12\n2 0 14\n"}"#;
        let resp = client::post(server.addr(), "/datasets", body).unwrap();
        assert_eq!(resp.status, 201, "{}", resp.text());
        let v = resp.json().unwrap();
        assert_eq!(v["nodes"].as_u64(), Some(3));
        assert_eq!(v["edges"].as_u64(), Some(3));
        assert!(v["fingerprint"].as_u64().is_some());

        let count = client::get(server.addr(), "/count?dataset=tri&delta=600")
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(count["total"].as_u64(), Some(1), "one triangle motif");

        let dup = client::post(server.addr(), "/datasets", body).unwrap();
        assert_eq!(dup.status, 409);
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn session_round_trip_over_http() {
        let server = test_server(ServerConfig::default());
        let addr = server.addr();
        let created = client::post(addr, "/sessions", r#"{"delta":20,"window":100}"#).unwrap();
        assert_eq!(created.status, 201, "{}", created.text());
        let id = created.json().unwrap()["session"].as_u64().unwrap();

        let push = client::post(
            addr,
            &format!("/sessions/{id}/edges"),
            r#"{"edges":[[0,1,10],[1,2,12],[2,0,14],[3,3,15]]}"#,
        )
        .unwrap();
        assert_eq!(push.status, 200);
        let pv = push.json().unwrap();
        assert_eq!(pv["accepted"].as_u64(), Some(3));
        assert_eq!(pv["self_loops_dropped"].as_u64(), Some(1));

        let tick = client::post(addr, &format!("/sessions/{id}/flush"), "")
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(tick["tick"].as_i64(), Some(14));
        assert_eq!(tick["total"].as_u64(), Some(1));
        assert_eq!(tick["counts"].as_array().unwrap().len(), 36);

        let closed = client::request(addr, "DELETE", &format!("/sessions/{id}"), None).unwrap();
        assert_eq!(closed.status, 200);
        let gone = client::get(addr, &format!("/sessions/{id}")).unwrap();
        assert_eq!(gone.status, 404);
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn session_cap_backpressures_creation() {
        let server = test_server(ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let create = || client::post(addr, "/sessions", r#"{"delta":10,"window":10}"#).unwrap();
        let a = create();
        let b = create();
        assert_eq!((a.status, b.status), (201, 201));
        let over = create();
        assert_eq!(over.status, 429, "{}", over.text());
        assert!(over.text().contains("session limit"), "{}", over.text());
        // Closing one frees a slot.
        let id = a.json().unwrap()["session"].as_u64().unwrap();
        let closed = client::request(addr, "DELETE", &format!("/sessions/{id}"), None).unwrap();
        assert_eq!(closed.status, 200);
        assert_eq!(create().status, 201);
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn budgeted_sessions_draw_from_the_memory_pool() {
        let server = test_server(ServerConfig {
            session_memory_budget: Some(100_000),
            ..ServerConfig::default()
        });
        let addr = server.addr();
        let created = client::post(
            addr,
            "/sessions",
            r#"{"delta":20,"window":100,"memory_budget":65536}"#,
        )
        .unwrap();
        assert_eq!(created.status, 201, "{}", created.text());
        let cv = created.json().unwrap();
        assert_eq!(cv["memory_budget"].as_u64(), Some(65536));
        let id = cv["session"].as_u64().unwrap();

        // The pool has 100_000 - 65_536 bytes left: too small for a peer.
        let over = client::post(
            addr,
            "/sessions",
            r#"{"delta":20,"window":100,"memory_budget":65536}"#,
        )
        .unwrap();
        assert_eq!(over.status, 429, "{}", over.text());
        assert!(over.text().contains("memory pool"), "{}", over.text());
        let stats = client::get(addr, "/stats").unwrap().json().unwrap();
        assert_eq!(stats["sessions"]["memory_pool"].as_u64(), Some(100_000));
        assert_eq!(stats["sessions"]["memory_reserved"].as_u64(), Some(65536));

        // Estimator sessions flush to the estimator tick shape.
        let push = client::post(
            addr,
            &format!("/sessions/{id}/edges"),
            r#"{"edges":[[0,1,10],[1,2,12],[2,0,14]]}"#,
        )
        .unwrap();
        assert_eq!(push.status, 200);
        let pv = push.json().unwrap();
        assert_eq!(pv["retained_edges"].as_u64(), Some(3));
        let tick = client::post(addr, &format!("/sessions/{id}/flush"), "")
            .unwrap()
            .json()
            .unwrap();
        assert_eq!(tick["budget"]["bytes"].as_u64(), Some(65536));
        assert_eq!(tick["total_estimate"].as_f64(), Some(1.0));

        // Closing the session returns its bytes, so a peer now fits.
        let closed = client::request(addr, "DELETE", &format!("/sessions/{id}"), None).unwrap();
        assert_eq!(closed.status, 200);
        let retry = client::post(
            addr,
            "/sessions",
            r#"{"delta":20,"window":100,"memory_budget":65536}"#,
        )
        .unwrap();
        assert_eq!(retry.status, 201, "{}", retry.text());

        // A malformed budget is a 400, not a reservation.
        let bad = client::post(
            addr,
            "/sessions",
            r#"{"delta":20,"window":100,"memory_budget":0}"#,
        )
        .unwrap();
        assert_eq!(bad.status, 400, "{}", bad.text());
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn oversized_thread_request_is_rejected() {
        let server = test_server(ServerConfig {
            preload: vec![("CollegeMsg".into(), 16)],
            ..ServerConfig::default()
        });
        let resp = client::get(
            server.addr(),
            "/count?dataset=CollegeMsg&delta=600&threads=500000",
        )
        .unwrap();
        assert_eq!(resp.status, 400, "{}", resp.text());
        assert!(resp.text().contains("threads"), "{}", resp.text());
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let server = test_server(ServerConfig::default());
        let addr = server.addr();
        for (target, want) in [
            ("/count", 400),                        // missing dataset
            ("/count?dataset=nope&delta=600", 404), // unknown dataset
            ("/nope", 404),                         // unknown endpoint
        ] {
            let resp = client::get(addr, target).unwrap();
            assert_eq!(resp.status, want, "{target}: {}", resp.text());
            let v = resp.json().unwrap();
            assert_eq!(v["error"]["code"].as_u64(), Some(u64::from(want)));
            assert!(v["error"]["message"].as_str().is_some());
        }
        // Wrong verb on a known path.
        let resp = client::post(addr, "/count?dataset=x&delta=1", "").unwrap();
        assert_eq!(resp.status, 405);
        // Shutdown is rejected while disabled.
        let resp = client::post(addr, "/shutdown", "").unwrap();
        assert_eq!(resp.status, 403);
        server.shutdown_and_wait().unwrap();
    }

    #[test]
    fn drop_shuts_the_server_down() {
        let server = test_server(ServerConfig::default());
        let addr = server.addr();
        drop(server);
        // The listener is gone: either the connection is refused or the
        // unanswered probe yields an IO error.
        assert!(client::get(addr, "/").is_err());
    }
}
