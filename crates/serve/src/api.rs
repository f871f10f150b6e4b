//! Request routing and handlers: HTTP in, canonical JSON bodies out.
//!
//! Every success body is built by [`hare::report`] — the same module
//! `hare-count --json` prints — which is what makes `GET /count`
//! responses byte-identical to the CLI (`--no-timing` form; server
//! bodies never carry timing so they stay deterministic and cacheable).
//! Errors are structured: `{"error":{"code":N,"message":"..."}}` with
//! the matching HTTP status.

use std::sync::{Arc, PoisonError};

use hare::query::{Plan, PlanError, SessionSpec};
use serde_json::Value;
use temporal_graph::io::{graph_from_raw, read_edges, LoadOptions};
use temporal_graph::{NodeId, Timestamp};

use crate::cache::CacheKey;
use crate::catalog::CatalogError;
use crate::http::Request;
use crate::sessions::CreateError;
use crate::AppState;

/// Prometheus text exposition format 0.0.4 (the `/metrics` body).
pub const CONTENT_TYPE_METRICS: &str = "text/plain; version=0.0.4";

/// A fully-formed response: status, rendered body bytes, and whether
/// the worker should trigger graceful shutdown *after* writing it.
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// Rendered body (shared so cached bodies are never copied).
    pub body: Arc<String>,
    /// `true` only for an accepted `POST /shutdown`.
    pub shutdown: bool,
    /// Result-cache disposition for the access log: `Some(true)` = hit,
    /// `Some(false)` = computed, `None` = the endpoint is uncached.
    pub cache: Option<bool>,
    /// `Content-Type` header value (`/metrics` is text, the rest JSON).
    pub content_type: &'static str,
}

impl Default for ApiResponse {
    fn default() -> ApiResponse {
        ApiResponse {
            status: 200,
            body: Arc::new(String::new()),
            shutdown: false,
            cache: None,
            content_type: "application/json",
        }
    }
}

fn ok(status: u16, value: &Value) -> ApiResponse {
    ApiResponse {
        status,
        body: Arc::new(hare::report::render(value)),
        ..ApiResponse::default()
    }
}

/// Build the structured error response for a status + message.
#[must_use]
pub fn error_response(status: u16, message: &str) -> ApiResponse {
    let value = serde_json::json!({
        "error": {"code": status, "message": message},
    });
    ApiResponse {
        status,
        body: Arc::new(hare::report::render(&value)),
        ..ApiResponse::default()
    }
}

/// Route one request to its handler.
#[must_use]
pub fn handle(state: &AppState, req: &Request) -> ApiResponse {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => index(),
        ("GET", ["stats"]) => stats(state),
        ("GET", ["metrics"]) => metrics(state),
        ("GET", ["datasets"]) => list_datasets(state),
        ("POST", ["datasets"]) => register_dataset(state, req),
        ("GET", ["count"] | ["nodes", "top"] | ["nodes", _, "motifs"]) => query(state, req),
        ("POST", ["cache", "clear"]) => {
            state.cache.clear();
            ok(200, &serde_json::json!({"cleared": true}))
        }
        ("GET", ["sessions"]) => list_sessions(state),
        ("POST", ["sessions"]) => create_session(state, req),
        ("GET", ["sessions", id]) => with_session(state, id, |s| ok(200, &s.tick_body())),
        ("POST", ["sessions", id, "flush"]) => with_session(state, id, |s| {
            s.flush();
            ok(200, &s.tick_body())
        }),
        ("POST", ["sessions", id, "edges"]) => session_push(state, id, req),
        ("DELETE", ["sessions", id]) => close_session(state, id),
        ("POST", ["shutdown"]) => shutdown(state),
        // Known resources reached with the wrong verb get a 405 so
        // clients can tell "wrong method" from "wrong path".
        (
            _,
            []
            | ["stats"]
            | ["metrics"]
            | ["datasets"]
            | ["count"]
            | ["cache", "clear"]
            | ["shutdown"],
        )
        | (_, ["sessions" | "nodes", ..]) => error_response(
            405,
            &format!("method {} is not supported on {}", req.method, req.path),
        ),
        _ => error_response(404, &format!("no such endpoint: {}", req.path)),
    }
}

fn index() -> ApiResponse {
    ok(
        200,
        &serde_json::json!({
            "service": "hare-serve",
            "endpoints": [
                "GET /count?dataset=NAME&delta=SECONDS[&only=pairs|stars|triangles][&engine=approx&prob=P&ci=L&window_factor=C&seed=S][&threads=N][&trace=1]",
                "GET /nodes/{id}/motifs?dataset=NAME&delta=SECONDS[&threads=N][&trace=1]",
                "GET /nodes/top?dataset=NAME&delta=SECONDS[&motif=M][&k=K][&threads=N][&trace=1]",
                "GET /datasets",
                "POST /datasets",
                "GET /sessions",
                "POST /sessions",
                "GET /sessions/{id}",
                "POST /sessions/{id}/edges",
                "POST /sessions/{id}/flush",
                "DELETE /sessions/{id}",
                "GET /stats",
                "GET /metrics",
                "POST /cache/clear",
                "POST /shutdown",
            ],
        }),
    )
}

fn stats(state: &AppState) -> ApiResponse {
    // Each section is one coherent snapshot of its source: the cache
    // counters are read under the cache lock, and the queue counters
    // come out of the metrics seqlock in a single consistent view (a
    // request mid-transition can never be seen in two states at once).
    let cache = state.cache.stats();
    let [queued, in_flight, completed, rejected] = state.metrics.snapshot();
    let catalog = serde_json::json!({
        "datasets": state.catalog.len(),
        "names": state.catalog.names(),
    });
    let cache = serde_json::json!({
        "capacity": cache.capacity,
        "entries": cache.entries,
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
    });
    let queue = serde_json::json!({
        "workers": state.cfg.workers,
        "capacity": state.cfg.queue_capacity,
        "queued": queued,
        "in_flight": in_flight,
        "completed": completed,
        "rejected": rejected,
    });
    let sessions = serde_json::json!({
        "open": state.sessions.open_count(),
        "created": state.sessions.created_count(),
        "max_open": state.cfg.max_sessions,
        "memory_pool": state.sessions.pool_bytes().map_or(Value::Null, Value::from),
        "memory_reserved": state.sessions.reserved_bytes(),
    });
    let shutdown_enabled = state.cfg.enable_shutdown;
    ok(
        200,
        &serde_json::json!({
            "catalog": catalog,
            "cache": cache,
            "queue": queue,
            "sessions": sessions,
            "shutdown_enabled": shutdown_enabled,
        }),
    )
}

fn metrics(state: &AppState) -> ApiResponse {
    state.obs.sync(&crate::obs::SyncSnapshot {
        cache: state.cache.stats(),
        queue: state.metrics.snapshot(),
        sessions_open: state.sessions.open_count() as u64,
        sessions_created: state.sessions.created_count(),
        session_pool_bytes: state.sessions.pool_bytes(),
        session_reserved_bytes: state.sessions.reserved_bytes(),
    });
    ApiResponse {
        body: Arc::new(state.obs.registry.render()),
        content_type: CONTENT_TYPE_METRICS,
        ..ApiResponse::default()
    }
}

fn dataset_entry_value(entry: &crate::catalog::DatasetEntry) -> Value {
    serde_json::json!({
        "name": entry.name.clone(),
        "nodes": entry.stats.num_nodes,
        "edges": entry.stats.num_edges,
        "time_span": entry.stats.time_span,
        "fingerprint": entry.fingerprint,
        "source": entry.source.clone(),
    })
}

fn list_datasets(state: &AppState) -> ApiResponse {
    let entries: Vec<Value> = state
        .catalog
        .entries()
        .iter()
        .map(|e| dataset_entry_value(e))
        .collect();
    ok(200, &serde_json::json!({"datasets": entries}))
}

fn register_dataset(state: &AppState, req: &Request) -> ApiResponse {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(400, "body must be utf-8 JSON");
    };
    let v = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return error_response(400, &format!("body is not valid JSON: {e}")),
    };
    let name = v["name"].as_str();
    let result = if let Some(registry) = v["dataset"].as_str() {
        let scale = v["scale"].as_u64().unwrap_or(1) as usize;
        if scale == 0 {
            return error_response(400, "'scale' must be at least 1");
        }
        state.catalog.register_registry(registry, scale, name)
    } else if let Some(edges_text) = v["edges"].as_str() {
        let Some(name) = name else {
            return error_response(400, "uploads require a 'name'");
        };
        let timestamp_column = match &v["timestamp_col"] {
            Value::Null => LoadOptions::default().timestamp_column,
            col => match col.as_u64().and_then(|c| usize::try_from(c).ok()) {
                Some(c) => c,
                None => {
                    return error_response(400, "'timestamp_col' must be a non-negative integer")
                }
            },
        };
        let opts = LoadOptions { timestamp_column };
        let raw = match read_edges(edges_text.as_bytes(), &opts) {
            Ok(raw) => raw,
            Err(e) => return error_response(400, &format!("parsing 'edges': {e}")),
        };
        state
            .catalog
            .register(name, graph_from_raw(raw, &opts), "upload".into())
    } else {
        return error_response(
            400,
            "provide either 'dataset' (+ optional 'scale') for a registry \
             stand-in or 'edges' (SNAP-style text) for an upload",
        );
    };
    match result {
        Ok(entry) => ok(201, &dataset_entry_value(&entry)),
        Err(e @ CatalogError::Duplicate(_)) => error_response(409, &e.to_string()),
        Err(e @ CatalogError::UnknownRegistry(_)) => error_response(404, &e.to_string()),
    }
}

/// Parse a required/optional typed query parameter; `Err` is a ready
/// 400 response.
pub(crate) fn param<T: std::str::FromStr>(
    req: &Request,
    name: &str,
    default: Option<T>,
) -> Result<T, Box<ApiResponse>> {
    match req.query_param(name) {
        Some(raw) => raw.parse().map_err(|_| {
            Box::new(error_response(
                400,
                &format!("parameter '{name}' has invalid value {raw:?}"),
            ))
        }),
        None => default.ok_or_else(|| {
            Box::new(error_response(
                400,
                &format!("missing required parameter '{name}'"),
            ))
        }),
    }
}

/// The query plan a `GET` request asks for. Each endpoint maps its own
/// parameters onto [`Plan`]; the parameter rules themselves are
/// [`Plan::validate`], applied by the handler once δ is known.
///
/// # Errors
/// A ready 400 response for a malformed parameter, 404 for a path that
/// is not a query endpoint.
pub fn plan(req: &Request) -> Result<Plan, Box<ApiResponse>> {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["count"] => count_plan(req),
        ["nodes", "top"] => crate::nodes::top_plan(req),
        ["nodes", id, "motifs"] => crate::nodes::node_plan(id),
        _ => Err(Box::new(error_response(
            404,
            &format!("no such endpoint: {}", req.path),
        ))),
    }
}

/// `/count`: `engine=exact` (optionally `only`) or `engine=approx`.
fn count_plan(req: &Request) -> Result<Plan, Box<ApiResponse>> {
    match req.query_param("engine").unwrap_or("exact") {
        "exact" => {
            for p in ["prob", "ci", "window_factor", "seed"] {
                if req.query_param(p).is_some() {
                    return Err(Box::new(error_response(
                        400,
                        &format!("'{p}' requires engine=approx"),
                    )));
                }
            }
            let only = hare::report::parse_only(req.query_param("only").unwrap_or("all"))
                .map_err(|e| Box::new(error_response(400, &format!("parameter 'only' {e}"))))?;
            Ok(Plan::Exact { only })
        }
        "approx" => {
            if req.query_param("only").is_some_and(|o| o != "all") {
                return Err(Box::new(error_response(
                    400,
                    "'only' is not supported with engine=approx",
                )));
            }
            Ok(Plan::Approx {
                prob: param(req, "prob", Some(0.1))?,
                ci: param(req, "ci", Some(0.95))?,
                window_factor: param(req, "window_factor", Some(10))?,
                seed: param(req, "seed", Some(42))?,
            })
        }
        other => Err(Box::new(error_response(
            400,
            &format!("parameter 'engine' must be exact or approx, got {other:?}"),
        ))),
    }
}

/// The response for a query-layer error: bad parameters are 400, an
/// unknown node 404, a failing source 500.
fn plan_error(e: &PlanError) -> ApiResponse {
    let status = match e {
        PlanError::Invalid { .. } => 400,
        PlanError::UnknownNode { .. } => 404,
        PlanError::Source(_) => 500,
    };
    error_response(status, &e.to_string())
}

/// Upper bound on `?threads=`: far above any real core count, low
/// enough that a hostile value cannot exhaust OS threads (the vendored
/// rayon pool spawns up to this many workers per query).
pub(crate) const MAX_QUERY_THREADS: usize = 1024;

/// Every query endpoint (`/count`, `/nodes/top`, `/nodes/{id}/motifs`):
/// parse the plan, resolve `dataset`/`delta`/`threads`, validate, then
/// answer from the LRU cache or execute and fill it. The cache key is
/// `(dataset fingerprint, delta, Plan::engine_key())`.
fn query(state: &AppState, req: &Request) -> ApiResponse {
    let plan = match plan(req) {
        Ok(plan) => plan,
        Err(resp) => return *resp,
    };
    let Some(dataset) = req.query_param("dataset") else {
        return error_response(400, "missing required parameter 'dataset'");
    };
    let Some(entry) = state.catalog.get(dataset) else {
        return error_response(
            404,
            &format!(
                "dataset {dataset:?} is not in the catalog; registered: [{}]",
                state.catalog.names().join(", ")
            ),
        );
    };
    let delta: Timestamp = match param(req, "delta", None) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    let threads: usize = match param(req, "threads", Some(state.cfg.query_threads)) {
        Ok(v) => v,
        Err(resp) => return *resp,
    };
    if threads > MAX_QUERY_THREADS {
        return error_response(
            400,
            &format!("parameter 'threads' must be at most {MAX_QUERY_THREADS}, got {threads}"),
        );
    }
    if let Err(e) = plan.validate(delta) {
        return plan_error(&e);
    }

    let key = CacheKey {
        fingerprint: entry.fingerprint,
        delta,
        engine: plan.engine_key(),
    };

    // `?trace=1` always computes (a cached body has no phases to time)
    // but still *fills* the cache: the rendered body is probe-invariant,
    // so the inserted bytes match what an untraced query would cache.
    if matches!(req.query_param("trace"), Some("1" | "true")) {
        let probe = hare::WallClockProbe::new();
        let rendered = match plan.execute(&entry.graph, delta, threads, &probe) {
            Ok(answer) => Arc::new(answer.render(None)),
            Err(e) => return plan_error(&e),
        };
        state.cache.insert(key, Arc::clone(&rendered));
        return traced_response(state, &probe, &rendered);
    }

    if let Some(body) = state.cache.get(&key) {
        return ApiResponse {
            body,
            cache: Some(true),
            ..ApiResponse::default()
        };
    }

    // Miss: run the query on this worker (kernels parallelise
    // internally over the rayon pool with `threads` workers).
    let rendered = match plan.execute(&entry.graph, delta, threads, &hare::NoopProbe) {
        Ok(answer) => Arc::new(answer.render(None)),
        Err(e) => return plan_error(&e),
    };
    state.cache.insert(key, Arc::clone(&rendered));
    ApiResponse {
        body: rendered,
        cache: Some(false),
        ..ApiResponse::default()
    }
}

/// Wrap a rendered query body in `{"result":…,"trace":…}` with the
/// probe's per-phase breakdown, recording the events into the server's
/// trace ring for later inspection.
fn traced_response(state: &AppState, probe: &hare::WallClockProbe, rendered: &str) -> ApiResponse {
    let trace_id = state.obs.traces.begin();
    let mut phases = Vec::new();
    for ev in probe.trace_events(trace_id) {
        phases.push(serde_json::json!({
            "phase": ev.phase,
            "duration_us": ev.duration_us,
            "spans": ev.spans,
        }));
        state.obs.traces.record(ev);
    }
    let result: Value = match serde_json::from_str(rendered) {
        Ok(v) => v,
        Err(e) => return error_response(500, &format!("re-parsing rendered body: {e}")),
    };
    let wrapped = serde_json::json!({
        "result": result,
        "trace": {"trace_id": trace_id, "phases": phases},
    });
    ApiResponse {
        cache: Some(false),
        ..ok(200, &wrapped)
    }
}

fn list_sessions(state: &AppState) -> ApiResponse {
    ok(
        200,
        &serde_json::json!({
            "sessions": state.sessions.ids(),
            "open": state.sessions.open_count(),
            "created": state.sessions.created_count(),
        }),
    )
}

fn create_session(state: &AppState, req: &Request) -> ApiResponse {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(400, "body must be utf-8 JSON");
    };
    let v = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return error_response(400, &format!("body is not valid JSON: {e}")),
    };
    let Some(delta) = v["delta"].as_i64() else {
        return error_response(400, "'delta' (seconds) is required");
    };
    let Some(window) = v["window"].as_i64() else {
        return error_response(400, "'window' (seconds) is required");
    };
    let slack = match (&v["slack"], v["slack"].as_i64()) {
        (Value::Null, _) => 0,
        (_, Some(s)) => s,
        (_, None) => return error_response(400, "'slack' must be an integer"),
    };
    let memory_budget = match (&v["memory_budget"], v["memory_budget"].as_u64()) {
        (Value::Null, _) => None,
        (_, Some(b)) => Some(b),
        (_, None) => {
            return error_response(400, "'memory_budget' must be a positive integer (bytes)")
        }
    };
    if let Err(e) = SessionSpec::new(delta, window, slack, memory_budget).validate() {
        return plan_error(&e);
    }
    // Bound client-driven memory twice over: every open session holds a
    // live engine, so creation beyond the count cap is backpressured,
    // and budgeted sessions additionally reserve their bytes from the
    // daemon-wide pool.
    if state.sessions.open_count() >= state.cfg.max_sessions {
        return error_response(
            429,
            &format!(
                "session limit reached ({} open); close one or retry later",
                state.cfg.max_sessions
            ),
        );
    }
    let id = match state.sessions.create(delta, window, slack, memory_budget) {
        Ok(id) => id,
        Err(CreateError::Invalid(e)) => return plan_error(&e),
        Err(CreateError::PoolExhausted(e)) => {
            return error_response(
                429,
                &format!(
                    "session memory pool exhausted ({} bytes requested, {} available); \
                     close a budgeted session or retry later",
                    e.requested, e.available
                ),
            )
        }
    };
    let mut body = serde_json::json!({
        "session": id,
        "delta": delta,
        "window": window,
        "slack": slack,
    });
    if let (Some(b), Some(map)) = (memory_budget, body.as_object_mut()) {
        map.insert("memory_budget".into(), b.into());
    }
    ok(201, &body)
}

/// Resolve a path segment to a session and run `f` under its lock.
fn with_session(
    state: &AppState,
    id: &str,
    f: impl FnOnce(&mut crate::sessions::Session) -> ApiResponse,
) -> ApiResponse {
    let Ok(id) = id.parse::<u64>() else {
        return error_response(400, &format!("session id must be an integer, got {id:?}"));
    };
    match state.sessions.get(id) {
        // A worker that panicked mid-push poisons the lock; the session
        // state itself is a plain counter struct that stays coherent, so
        // recover rather than cascade the panic across every client.
        Some(session) => f(&mut session.lock().unwrap_or_else(PoisonError::into_inner)),
        None => error_response(404, &format!("no such session: {id}")),
    }
}

fn session_push(state: &AppState, id: &str, req: &Request) -> ApiResponse {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(400, "body must be utf-8 JSON");
    };
    let v: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return error_response(400, &format!("body is not valid JSON: {e}")),
    };
    let Some(rows) = v["edges"].as_array() else {
        return error_response(400, "'edges' must be an array of [src, dst, t] rows");
    };
    let mut edges: Vec<(NodeId, NodeId, Timestamp)> = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let parsed = row.as_array().and_then(|r| {
            if r.len() != 3 {
                return None;
            }
            let src = r.first()?.as_u64()?;
            let dst = r.get(1)?.as_u64()?;
            let t = r.get(2)?.as_i64()?;
            let max_id = u64::from(u32::MAX >> 1);
            if src > max_id || dst > max_id {
                return None;
            }
            Some((src as NodeId, dst as NodeId, t))
        });
        match parsed {
            Some(edge) => edges.push(edge),
            None => {
                return error_response(
                    400,
                    &format!("edges[{i}] is not a valid [src, dst, t] row (ids < 2^31)"),
                )
            }
        }
    }
    with_session(state, id, |s| {
        let out = s.push_edges(&edges);
        ok(200, &s.push_body(out))
    })
}

fn close_session(state: &AppState, id: &str) -> ApiResponse {
    let Ok(id) = id.parse::<u64>() else {
        return error_response(400, &format!("session id must be an integer, got {id:?}"));
    };
    if state.sessions.remove(id) {
        ok(200, &serde_json::json!({"closed": id}))
    } else {
        error_response(404, &format!("no such session: {id}"))
    }
}

fn shutdown(state: &AppState) -> ApiResponse {
    if !state.cfg.enable_shutdown {
        return error_response(
            403,
            "shutdown endpoint is disabled; start with --enable-shutdown",
        );
    }
    let value = serde_json::json!({"status": "shutting-down"});
    ApiResponse {
        body: Arc::new(hare::report::render(&value)),
        shutdown: true,
        ..ApiResponse::default()
    }
}
