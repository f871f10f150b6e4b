//! The daemon's observability surface: the [`hare_obs`] metric
//! registry behind `GET /metrics`, and the trace ring behind
//! `?trace=1`.
//!
//! Every family is registered eagerly at server construction, so the
//! exposition layout (family order, label sets) is identical on every
//! scrape. Two kinds of series coexist:
//!
//! * **live** — per-endpoint request counters and latency histograms,
//!   written by the worker as each response goes out;
//! * **synced** — cache / queue / session families whose authoritative
//!   values live elsewhere ([`crate::cache::ResultCache`] under its
//!   lock, the queue [`crate::Metrics`] seqlock group, the session
//!   store). A scrape copies one coherent snapshot of each source into
//!   the registry under [`ServeObs::sync`]'s mutex — counters advance
//!   by the observed delta, so they stay monotonic even across
//!   concurrent scrapes.
//!
//! See `docs/OBSERVABILITY.md` for the full metric inventory.

use std::sync::{Arc, Mutex, PoisonError};

use hare_obs::{Counter, Gauge, Registry, TraceRing};

/// Endpoint groups used as `path` label values. Grouping keeps the
/// label space fixed (no per-session-id series explosion).
pub const ENDPOINTS: [&str; 10] = [
    "/",
    "/count",
    "/nodes",
    "/datasets",
    "/sessions",
    "/stats",
    "/metrics",
    "/cache/clear",
    "/shutdown",
    "other",
];

/// Map a request path to its endpoint group.
#[must_use]
pub fn endpoint_group(path: &str) -> &'static str {
    let mut segments = path.split('/').filter(|s| !s.is_empty());
    match (segments.next(), segments.next()) {
        (None, _) => "/",
        (Some("count"), _) => "/count",
        (Some("nodes"), _) => "/nodes",
        (Some("datasets"), _) => "/datasets",
        (Some("sessions"), _) => "/sessions",
        (Some("stats"), _) => "/stats",
        (Some("metrics"), _) => "/metrics",
        (Some("cache"), Some("clear")) => "/cache/clear",
        (Some("shutdown"), _) => "/shutdown",
        _ => "other",
    }
}

fn status_class(status: u16) -> &'static str {
    match status / 100 {
        1 => "1xx",
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        5 => "5xx",
        _ => "other",
    }
}

/// One coherent snapshot of the sync sources, passed into
/// [`ServeObs::sync`] by the `/metrics` handler.
pub struct SyncSnapshot {
    /// Cache counters (one snapshot under the cache lock).
    pub cache: crate::cache::CacheStats,
    /// Queue group `[queued, in_flight, completed, rejected]`.
    pub queue: [u64; 4],
    /// Open sessions right now.
    pub sessions_open: u64,
    /// Sessions ever created.
    pub sessions_created: u64,
    /// Configured session memory pool (`None` = unmetered).
    pub session_pool_bytes: Option<u64>,
    /// Bytes currently reserved from the pool.
    pub session_reserved_bytes: u64,
}

/// The server's registry, trace ring, and eagerly-registered handles.
pub struct ServeObs {
    /// The metric registry rendered by `GET /metrics`.
    pub registry: Registry,
    /// Ring of recent `?trace=1` phase events.
    pub traces: TraceRing,
    /// Serializes scrapes so counter add-by-delta sync is race-free.
    scrape: Mutex<()>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_capacity: Arc<Gauge>,
    queue_queued: Arc<Gauge>,
    queue_in_flight: Arc<Gauge>,
    requests_completed: Arc<Counter>,
    requests_rejected: Arc<Counter>,
    sessions_open: Arc<Gauge>,
    sessions_created: Arc<Counter>,
    session_pool: Arc<Gauge>,
    session_reserved: Arc<Gauge>,
    resident_bytes: Arc<Gauge>,
}

impl ServeObs {
    /// Build the registry with every family pre-registered (stable
    /// exposition layout from the first scrape on).
    #[must_use]
    pub fn new() -> ServeObs {
        let registry = Registry::new();
        let cache_hits = registry.counter(
            "hare_cache_hits_total",
            "Result-cache lookups answered from the cache.",
        );
        let cache_misses = registry.counter(
            "hare_cache_misses_total",
            "Result-cache lookups that computed the query.",
        );
        let cache_evictions = registry.counter(
            "hare_cache_evictions_total",
            "Result-cache entries displaced by LRU eviction.",
        );
        let cache_entries =
            registry.gauge("hare_cache_entries", "Rendered bodies currently cached.");
        let cache_capacity = registry.gauge(
            "hare_cache_capacity",
            "Maximum cached bodies (0 = caching disabled).",
        );
        let queue_queued = registry.gauge(
            "hare_queue_queued",
            "Accepted connections waiting in the request queue.",
        );
        let queue_in_flight = registry.gauge(
            "hare_queue_in_flight",
            "Requests currently being handled by a worker.",
        );
        let requests_completed = registry.counter(
            "hare_requests_completed_total",
            "Requests fully handled (response written).",
        );
        let requests_rejected = registry.counter(
            "hare_requests_rejected_total",
            "Connections answered 429 because the request queue was full.",
        );
        let sessions_open = registry.gauge(
            "hare_sessions_open",
            "Streaming ingest sessions currently open.",
        );
        let sessions_created = registry.counter(
            "hare_sessions_created_total",
            "Streaming ingest sessions ever created.",
        );
        let session_pool = registry.gauge(
            "hare_session_memory_pool_bytes",
            "Daemon-wide byte pool for budgeted sessions (0 = unmetered).",
        );
        let session_reserved = registry.gauge(
            "hare_session_memory_reserved_bytes",
            "Bytes currently reserved from the session memory pool.",
        );
        let resident_bytes = registry.gauge(
            "hare_resident_memory_bytes",
            "Process resident set size (VmRSS), sampled in the background.",
        );
        // Live per-endpoint families, eagerly registered over the fixed
        // endpoint x status-class grid.
        for path in ENDPOINTS {
            registry.histogram_with(
                "hare_http_request_duration_us",
                "Request handling latency in microseconds, by endpoint.",
                &[("path", path)],
            );
            for class in ["2xx", "4xx", "5xx"] {
                registry.counter_with(
                    "hare_http_requests_total",
                    "Handled requests by endpoint and status class.",
                    &[("path", path), ("status", class)],
                );
            }
        }
        ServeObs {
            registry,
            traces: TraceRing::new(1024),
            scrape: Mutex::new(()),
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            cache_capacity,
            queue_queued,
            queue_in_flight,
            requests_completed,
            requests_rejected,
            sessions_open,
            sessions_created,
            session_pool,
            session_reserved,
            resident_bytes,
        }
    }

    /// Record one handled request into the live families.
    pub fn observe_request(&self, path: &str, status: u16, latency_us: u64) {
        let group = endpoint_group(path);
        self.registry
            .counter_with(
                "hare_http_requests_total",
                "Handled requests by endpoint and status class.",
                &[("path", group), ("status", status_class(status))],
            )
            .inc();
        self.registry
            .histogram_with(
                "hare_http_request_duration_us",
                "Request handling latency in microseconds, by endpoint.",
                &[("path", group)],
            )
            .observe(latency_us);
    }

    /// Copy one coherent snapshot of the sync sources into the
    /// registry. Counters advance by delta (sources are monotonic), so
    /// exposition values never move backwards.
    pub fn sync(&self, snap: &SyncSnapshot) {
        let _guard = self.scrape.lock().unwrap_or_else(PoisonError::into_inner);
        let bump = |c: &Counter, v: u64| c.add(v.saturating_sub(c.get()));
        bump(&self.cache_hits, snap.cache.hits);
        bump(&self.cache_misses, snap.cache.misses);
        bump(&self.cache_evictions, snap.cache.evictions);
        self.cache_entries.set(snap.cache.entries as u64);
        self.cache_capacity.set(snap.cache.capacity as u64);
        self.queue_queued.set(snap.queue[0]);
        self.queue_in_flight.set(snap.queue[1]);
        bump(&self.requests_completed, snap.queue[2]);
        bump(&self.requests_rejected, snap.queue[3]);
        self.sessions_open.set(snap.sessions_open);
        bump(&self.sessions_created, snap.sessions_created);
        self.session_pool.set(snap.session_pool_bytes.unwrap_or(0));
        self.session_reserved.set(snap.session_reserved_bytes);
    }

    /// Record a resident-set sample (the background VmRSS sampler).
    pub fn set_resident_bytes(&self, bytes: u64) {
        self.resident_bytes.set(bytes);
    }
}

impl Default for ServeObs {
    fn default() -> ServeObs {
        ServeObs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_grouping_is_total() {
        assert_eq!(endpoint_group("/"), "/");
        assert_eq!(endpoint_group("/count"), "/count");
        assert_eq!(endpoint_group("/nodes/7/motifs"), "/nodes");
        assert_eq!(endpoint_group("/sessions/12/edges"), "/sessions");
        assert_eq!(endpoint_group("/cache/clear"), "/cache/clear");
        assert_eq!(endpoint_group("/metrics"), "/metrics");
        assert_eq!(endpoint_group("/nope"), "other");
        for g in ENDPOINTS {
            assert!(g == "other" || endpoint_group(g) == g, "{g}");
        }
    }

    #[test]
    fn sync_keeps_counters_monotonic() {
        let obs = ServeObs::new();
        let mut snap = SyncSnapshot {
            cache: crate::cache::CacheStats {
                capacity: 8,
                entries: 1,
                hits: 5,
                misses: 2,
                evictions: 0,
            },
            queue: [1, 2, 30, 4],
            sessions_open: 1,
            sessions_created: 3,
            session_pool_bytes: Some(1000),
            session_reserved_bytes: 400,
        };
        obs.sync(&snap);
        let first = obs.registry.render();
        assert!(first.contains("hare_cache_hits_total 5\n"), "{first}");
        assert!(first.contains("hare_requests_completed_total 30\n"));
        assert!(first.contains("hare_queue_queued 1\n"));
        // Re-syncing the same snapshot must not double-count.
        obs.sync(&snap);
        assert!(obs.registry.render().contains("hare_cache_hits_total 5\n"));
        snap.cache.hits = 9;
        obs.sync(&snap);
        assert!(obs.registry.render().contains("hare_cache_hits_total 9\n"));
    }

    #[test]
    fn observe_request_lands_in_preregistered_series() {
        let obs = ServeObs::new();
        obs.observe_request("/count?x=1".split('?').next().unwrap(), 200, 1500);
        obs.observe_request("/sessions/9/flush", 404, 3);
        let text = obs.registry.render();
        assert!(
            text.contains("hare_http_requests_total{path=\"/count\",status=\"2xx\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("hare_http_requests_total{path=\"/sessions\",status=\"4xx\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("hare_http_request_duration_us_count{path=\"/count\"} 1\n"));
    }
}
