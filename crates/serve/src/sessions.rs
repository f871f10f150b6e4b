//! Streaming ingest sessions: one [`Session`] per client stream.
//!
//! A session is the query layer's ingest type ([`hare::query::Session`])
//! behind three verbs — create (`POST /sessions`), push a batch of
//! edges (`POST /sessions/{id}/edges`), and poll the live per-tick body
//! (`GET /sessions/{id}`):
//!
//! * **Exact** ([`hare::WindowedCounter`]) — the default: exact
//!   live-window counts, the same bytes as one
//!   `hare-count --window --json` tick.
//! * **Budgeted** ([`hare::StreamingEstimator`]) — created with a
//!   `"memory_budget"` (bytes): the bounded-memory estimator, the same
//!   bytes as one `hare-count --window --memory-budget --json` tick.
//!   Per-session budgets are carved out of the daemon-wide pool
//!   (`--session-memory-budget`), so thousands of concurrent ingest
//!   sessions run at a fixed total RSS instead of only the count cap.
//!
//! Late and self-loop arrivals are dropped and counted, never fatal —
//! the CLI runs the same session type, so a flushed session is
//! byte-identical to the final tick of the equivalent CLI run. This
//! module only keeps the store: ids, locking and the memory pool.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use hare::query::{PlanError, SessionSpec};
use temporal_graph::Timestamp;

pub use hare::query::{PushOutcome, Session};

/// Creation failure: reserving the requested per-session budget would
/// overflow the daemon-wide session memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Bytes the new session asked for.
    pub requested: u64,
    /// Bytes still unreserved in the pool.
    pub available: u64,
}

/// Why [`SessionStore::create`] refused a session.
#[derive(Debug, Clone, PartialEq)]
pub enum CreateError {
    /// A parameter is out of domain (see [`SessionSpec::validate`]).
    Invalid(PlanError),
    /// The requested budget does not fit in the pool.
    PoolExhausted(PoolExhausted),
}

/// Thread-safe id → session map. Sessions are independently locked so
/// concurrent clients never serialise on each other's streams. Budgeted
/// sessions reserve their bytes from a shared pool at creation and
/// return them on close.
#[derive(Default)]
pub struct SessionStore {
    inner: RwLock<HashMap<u64, Arc<Mutex<Session>>>>,
    next_id: AtomicU64,
    created: AtomicU64,
    /// Daemon-wide session memory pool in bytes (`None` = unmetered).
    pool: Option<u64>,
    /// Bytes currently reserved by open budgeted sessions.
    reserved: AtomicU64,
}

impl SessionStore {
    /// An empty store with no memory pool (budgeted sessions are
    /// unmetered).
    #[must_use]
    pub fn new() -> SessionStore {
        SessionStore::default()
    }

    /// An empty store metering budgeted sessions against `pool` bytes.
    #[must_use]
    pub fn with_pool(pool: Option<u64>) -> SessionStore {
        SessionStore {
            pool,
            ..SessionStore::default()
        }
    }

    /// Create a session. A `memory_budget` selects the bounded-memory
    /// estimator engine and reserves that many bytes from the pool.
    ///
    /// # Errors
    /// [`CreateError::Invalid`] for out-of-domain parameters,
    /// [`CreateError::PoolExhausted`] when the requested budget does not
    /// fit in the pool's unreserved remainder.
    pub fn create(
        &self,
        delta: Timestamp,
        window: Timestamp,
        slack: Timestamp,
        memory_budget: Option<u64>,
    ) -> Result<u64, CreateError> {
        let session = Session::new(SessionSpec::new(delta, window, slack, memory_budget))
            .map_err(CreateError::Invalid)?;
        if let Some(budget) = memory_budget {
            self.reserve(budget).map_err(CreateError::PoolExhausted)?;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.created.fetch_add(1, Ordering::Relaxed);
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, Arc::new(Mutex::new(session)));
        Ok(id)
    }

    /// Atomically reserve `budget` bytes from the pool (no-op when the
    /// store is unmetered).
    fn reserve(&self, budget: u64) -> Result<(), PoolExhausted> {
        let Some(pool) = self.pool else { return Ok(()) };
        self.reserved
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                r.checked_add(budget).filter(|&total| total <= pool)
            })
            .map(|_| ())
            .map_err(|r| PoolExhausted {
                requested: budget,
                available: pool.saturating_sub(r),
            })
    }

    /// Fetch a session by id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&id)
            .cloned()
    }

    /// Close a session, returning its reserved budget (if any) to the
    /// pool. Returns `false` when the id is unknown.
    pub fn remove(&self, id: u64) -> bool {
        let removed = self
            .inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&id);
        match removed {
            Some(session) => {
                let budget = session
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .memory_budget();
                if let Some(b) = budget {
                    self.reserved.fetch_sub(b, Ordering::Relaxed);
                }
                true
            }
            None => false,
        }
    }

    /// Ids of the open sessions, sorted.
    #[must_use]
    pub fn ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of open sessions.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Sessions created over the server's lifetime.
    #[must_use]
    pub fn created_count(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// The daemon-wide session memory pool (`None` = unmetered).
    #[must_use]
    pub fn pool_bytes(&self) -> Option<u64> {
        self.pool
    }

    /// Bytes currently reserved by open budgeted sessions.
    #[must_use]
    pub fn reserved_bytes(&self) -> u64 {
        self.reserved.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_push_poll_close() {
        let store = SessionStore::new();
        let id = store.create(20, 100, 0, None).unwrap();
        assert_eq!(store.open_count(), 1);

        let session = store.get(id).unwrap();
        let mut s = session.lock().unwrap();
        let out = s.push_edges(&[(0, 1, 10), (1, 2, 12), (3, 3, 13), (2, 0, 14), (4, 5, 1)]);
        assert_eq!(out.accepted, 3);
        assert_eq!(out.self_loops_dropped, 1);
        assert_eq!(out.late_dropped, 1, "t=1 is behind the zero-slack floor");

        s.flush();
        let body = s.tick_body();
        assert_eq!(body["tick"].as_i64(), Some(14));
        assert_eq!(body["live_edges"].as_u64(), Some(3));
        assert_eq!(body["total"].as_u64(), Some(1), "one triangle instance");
        assert_eq!(body["late_dropped"].as_u64(), Some(1));
        assert_eq!(body["self_loops_dropped"].as_u64(), Some(1));
        drop(s);

        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert_eq!(store.open_count(), 0);
        assert_eq!(store.created_count(), 1);
    }

    #[test]
    fn budgeted_session_reports_estimator_shape() {
        let store = SessionStore::new();
        let id = store.create(20, 100, 0, Some(1 << 20)).unwrap();
        let session = store.get(id).unwrap();
        let mut s = session.lock().unwrap();
        let out = s.push_edges(&[(0, 1, 10), (1, 2, 12), (2, 0, 14)]);
        assert_eq!(out.accepted, 3);
        let push_body = s.push_body(out);
        assert_eq!(push_body["retained_edges"].as_u64(), Some(3));
        assert_eq!(push_body["memory_budget"].as_u64(), Some(1 << 20));
        assert!(
            push_body["live_edges"].as_u64().is_none(),
            "budget shape has no live_edges"
        );
        s.flush();
        let body = s.tick_body();
        assert_eq!(body["tick"].as_i64(), Some(14));
        assert_eq!(body["budget"]["bytes"].as_u64(), Some(1 << 20));
        assert_eq!(body["budget"]["prob"].as_f64(), Some(1.0));
        assert_eq!(body["total_estimate"].as_f64(), Some(1.0));
        assert!(
            body["total"].as_u64().is_none(),
            "estimator ticks carry estimates"
        );
    }

    #[test]
    fn pool_reserves_and_releases_budgets() {
        let store = SessionStore::with_pool(Some(1000));
        assert_eq!(store.pool_bytes(), Some(1000));
        let a = store.create(10, 10, 0, Some(600)).unwrap();
        assert_eq!(store.reserved_bytes(), 600);
        // Exact sessions never draw from the pool.
        let _e = store.create(10, 10, 0, None).unwrap();
        assert_eq!(store.reserved_bytes(), 600);
        // 600 + 600 > 1000: exhausted, with the remainder reported.
        let err = store.create(10, 10, 0, Some(600)).unwrap_err();
        assert_eq!(
            err,
            CreateError::PoolExhausted(PoolExhausted {
                requested: 600,
                available: 400
            })
        );
        // A fitting budget still goes through, then the pool is full.
        let b = store.create(10, 10, 0, Some(400)).unwrap();
        assert_eq!(store.reserved_bytes(), 1000);
        assert!(store.create(10, 10, 0, Some(1)).is_err());
        // Closing returns bytes to the pool.
        assert!(store.remove(a));
        assert_eq!(store.reserved_bytes(), 400);
        assert!(store.remove(b));
        assert_eq!(store.reserved_bytes(), 0);
    }

    #[test]
    fn invalid_sessions_are_rejected_without_reserving() {
        let store = SessionStore::with_pool(Some(1000));
        for (delta, window, slack, budget) in [
            (-5, 10, 0, Some(600)),
            (20, 10, 0, None),
            (10, 10, -1, Some(600)),
            (10, 10, 0, Some(0)),
        ] {
            let err = store.create(delta, window, slack, budget).unwrap_err();
            assert!(matches!(err, CreateError::Invalid(_)), "{err:?}");
        }
        assert_eq!(store.reserved_bytes(), 0);
        assert_eq!(store.open_count(), 0);
        assert_eq!(store.created_count(), 0);
    }

    #[test]
    fn unmetered_store_accepts_any_budget() {
        let store = SessionStore::new();
        assert_eq!(store.pool_bytes(), None);
        let id = store.create(10, 10, 0, Some(u64::MAX)).unwrap();
        assert_eq!(store.reserved_bytes(), 0, "no pool, no accounting");
        assert!(store.remove(id));
    }

    #[test]
    fn poisoned_store_lock_recovers() {
        let store = Arc::new(SessionStore::new());
        let id = store.create(20, 100, 0, None).unwrap();

        // Poison the inner RwLock: a thread panics while holding it.
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.write().unwrap();
            panic!("worker dies holding the sessions lock");
        })
        .join();
        assert!(store.inner.is_poisoned(), "lock must actually be poisoned");

        // Every verb still works: the map itself was not mid-mutation.
        assert_eq!(store.open_count(), 1);
        assert!(store.get(id).is_some());
        let id2 = store.create(20, 100, 0, None).unwrap();
        assert_eq!(store.ids(), vec![id, id2]);
        assert!(store.remove(id));
        assert!(store.remove(id2));
        assert_eq!(store.open_count(), 0);
    }

    #[test]
    fn poisoned_session_lock_recovers() {
        let store = SessionStore::new();
        let id = store.create(20, 100, 0, None).unwrap();
        let session = store.get(id).unwrap();

        let hostage = Arc::clone(&session);
        let _ = std::thread::spawn(move || {
            let _guard = hostage.lock().unwrap();
            panic!("worker dies holding a session lock");
        })
        .join();

        // The API layer recovers via PoisonError::into_inner; mirror it.
        let mut s = session.lock().unwrap_or_else(PoisonError::into_inner);
        let out = s.push_edges(&[(0, 1, 10)]);
        assert_eq!(out.accepted, 1);
    }

    #[test]
    fn ids_are_unique_and_sorted() {
        let store = SessionStore::new();
        let a = store.create(10, 10, 0, None).unwrap();
        let b = store.create(10, 10, 0, None).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.ids(), vec![a.min(b), a.max(b)]);
    }

    #[test]
    fn empty_session_polls_a_zero_tick() {
        let store = SessionStore::new();
        let id = store.create(10, 50, 5, None).unwrap();
        let session = store.get(id).unwrap();
        let body = session.lock().unwrap().tick_body();
        assert_eq!(body["tick"].as_i64(), Some(0));
        assert_eq!(body["total"].as_u64(), Some(0));
        assert_eq!(body["window"].as_i64(), Some(50));
        assert_eq!(body["slack"].as_i64(), Some(5));
    }
}
