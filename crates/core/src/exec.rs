//! The executor every parallel driver runs on.
//!
//! HARE (node chunks and hub ranges), FAST-Pair (pair slots), node
//! profiles (node chunks), the sampling driver of both estimators
//! (window-aligned time ranges), the out-of-core driver (δ-haloed
//! time chunks) and the EX, EWS and BTS baselines all share one shape:
//! plan an ordered task list, run the kernel over each task with a
//! worker's [`NeighborScratch`], then fold the results. This module owns the middle step, so the worker count,
//! the pool and the scratch are decided in one place:
//!
//! * [`workers`] is the one thread policy: `0` means all cores, and any
//!   request is clamped to the machine's available parallelism — a
//!   CPU-bound kernel gains nothing from oversubscription, and a hostile
//!   thread count cannot spawn more threads than there are cores;
//! * [`map`] runs the tasks and returns their results **in task order**,
//!   so every driver's fold sees the same sequence for every worker
//!   count. It runs inline on the calling thread when there is one
//!   worker or one task, and hands each task its worker's thread-local
//!   scratch ([`crate::scratch::with_thread_scratch`]), so no task
//!   allocates per-call scratch. A task may itself count (or run a
//!   nested `map`): the nested call takes a scratch of its own;
//! * [`chunks`] cuts an index space into the usual task list.
//!
//! The workers are `std::thread::scope` threads started for each call;
//! the calling thread is one of them. They pull tasks from one shared
//! queue, so a worker that drew cheap tasks takes the next one while
//! another is still on a hub. A task that panics makes `map` panic with
//! the same payload once every worker has stopped.
//!
//! This is the only place in the workspace's counting code (this crate
//! and the baselines) that starts threads.

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

use crate::scratch::{with_thread_scratch, NeighborScratch};

/// Worker threads for a request of `threads` (`0` = all cores), clamped
/// to the machine's available parallelism. Always at least 1.
///
/// The available parallelism is read once per process (the first call
/// pays the system query, every later call is a load), so it does not
/// follow CPU-affinity changes made after that first call.
#[must_use]
pub fn workers(threads: usize) -> usize {
    static AVAIL: OnceLock<usize> = OnceLock::new();
    let avail = *AVAIL
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get));
    if threads == 0 {
        avail
    } else {
        threads.min(avail)
    }
}

/// Run `f` over every task on [`workers`]`(threads)` threads (so `0` =
/// all cores) and return the results in task order. Each call gets its
/// worker's scratch, grown to index neighbours `0..num_nodes`. With one
/// worker or at most one task, every task runs on the calling thread and
/// no thread is started.
///
/// # Panics
///
/// If a task panics, `map` panics with that task's payload after the
/// other workers have drained the queue.
pub fn map<T, R, F>(threads: usize, num_nodes: usize, tasks: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T, &mut NeighborScratch) -> R + Sync,
{
    let run = |task: T| with_thread_scratch(num_nodes, |scratch| f(task, scratch));
    let workers = workers(threads).min(tasks.len());
    if workers <= 1 {
        return tasks.into_iter().map(run).collect();
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    // Each worker returns its `(task index, result)` pairs; the lock is
    // held only to take the next task.
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("task queue poisoned").next();
            let Some((i, task)) = next else { break done };
            done.push((i, run(task)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(drain)).collect();
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(theirs) => done.extend(theirs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// `0..len` cut into consecutive ranges of `size` (the last one may be
/// shorter): the usual task list of a driver that splits an index
/// space. `size` is raised to 1.
pub fn chunks(len: usize, size: usize) -> impl Iterator<Item = Range<usize>> {
    let size = size.max(1);
    (0..len)
        .step_by(size)
        .map(move |start| start..(start + size).min(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::CenterTally;
    use crate::fused::count_node;
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;
    use temporal_graph::{TemporalEdge, TemporalGraph};

    fn avail() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }

    #[test]
    fn workers_is_clamped_to_available_parallelism() {
        assert_eq!(workers(0), avail());
        assert_eq!(workers(usize::MAX), avail());
        assert_eq!(workers(1), 1);
        assert_eq!(workers(2), 2.min(avail()));
    }

    #[test]
    fn results_keep_task_order() {
        for w in [0, 1, 2, 3] {
            for len in [0, 1, 2, 3, 100] {
                let tasks: Vec<usize> = (0..len).collect();
                let got = map(w, 0, tasks, |i, _| i * 10);
                let want: Vec<usize> = (0..len).map(|i| i * 10).collect();
                assert_eq!(got, want, "workers={w} tasks={len}");
            }
        }
    }

    #[test]
    fn one_worker_runs_every_task_on_the_calling_thread() {
        let me = thread::current().id();
        let ids: Vec<ThreadId> = map(1, 0, (0..16).collect(), |_: usize, _| {
            thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == me));
        // A single task runs inline whatever the worker count.
        let ids: Vec<ThreadId> = map(4, 0, vec![()], |(), _| thread::current().id());
        assert_eq!(ids, [me]);
    }

    #[test]
    fn map_actually_uses_multiple_threads() {
        if avail() < 2 {
            return;
        }
        // Task 0 waits for task 1's signal, which can only arrive if
        // task 1 runs on another thread while task 0 is waiting.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let got = map(2, 0, vec![0, 1], |i: usize, _| {
            if i == 0 {
                let rx = rx.lock().expect("receiver lock");
                rx.recv_timeout(Duration::from_secs(30)).is_ok()
            } else {
                tx.send(()).is_ok()
            }
        });
        assert_eq!(got, [true, true], "the two tasks did not overlap");
    }

    #[test]
    fn a_panicking_task_panics_the_caller_and_map_still_works() {
        let caught = std::panic::catch_unwind(|| {
            map(2, 0, (0..32).collect(), |i: usize, _| {
                assert_ne!(i, 17, "task 17 fails");
                i
            })
        });
        let payload = caught.expect_err("the task's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied());
        assert!(
            message.is_some_and(|m| m.contains("task 17 fails")),
            "{message:?}"
        );
        let again = map(2, 0, (0..32).collect(), |i: usize, _| i + 1);
        assert_eq!(again, (1..33).collect::<Vec<_>>());
    }

    #[test]
    fn tasks_get_scratch_covering_the_node_space() {
        // A hub whose neighbours reach id 49: the kernel indexes the
        // scratch by neighbour, so a task scratch short of 50 nodes would
        // panic, and one left dirty by an earlier task would miscount.
        let g = TemporalGraph::from_edges(
            (0..200u32)
                .map(|k| TemporalEdge::new(0, 1 + k % 49, i64::from(k)))
                .collect(),
        );
        let star_at_hub = |delta, scratch: &mut NeighborScratch| {
            let mut t = CenterTally::default();
            count_node::<true, false, false>(&g, 0, 0..200, delta, &[], scratch, &mut t);
            t
        };
        let deltas: Vec<i64> = (0..8).map(|k| 40 + 10 * k).collect();
        let got = map(2, 50, deltas.clone(), star_at_hub);
        for (t, delta) in got.iter().zip(deltas) {
            assert_eq!(*t, star_at_hub(delta, &mut NeighborScratch::new(50)));
        }
    }

    #[test]
    fn tasks_may_count() {
        // Each task runs a whole sequential count (which takes a scratch
        // of its own on the task's thread) and a parallel HARE count
        // (which runs a nested map).
        let graphs: Vec<TemporalGraph> = (0..6)
            .map(|seed| temporal_graph::gen::erdos_renyi_temporal(30, 800, 2_000, seed))
            .collect();
        let want: Vec<_> = graphs.iter().map(|g| crate::count_motifs(g, 300)).collect();
        for threads in [1, 2, 0] {
            let got = map(threads, 30, graphs.iter().collect(), |g, _| {
                let seq = crate::count_motifs(g, 300);
                assert_eq!(seq, crate::Hare::with_threads(2).count_all(g, 300));
                seq
            });
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn chunks_tile_the_index_space() {
        assert_eq!(chunks(7, 3).collect::<Vec<_>>(), [0..3, 3..6, 6..7]);
        assert_eq!(chunks(6, 3).collect::<Vec<_>>(), [0..3, 3..6]);
        assert_eq!(chunks(2, 0).collect::<Vec<_>>(), [0..1, 1..2]);
        assert_eq!(chunks(0, 4).count(), 0);
    }
}
