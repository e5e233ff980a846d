//! A fixed-size thread pool built on std threads, one mutex and a condvar.
//!
//! Work reaches the pool only through [`parallel_map`], which queues one
//! job per item on a single FIFO queue. Workers take jobs from its front,
//! so items **start in input order** — the property the cost-model
//! scheduler in [`crate::sched`] relies on: submitting suite tasks
//! longest-predicted-first means workers actually start them in that
//! order. Idle workers block on the condvar until a job arrives or the
//! pool shuts down.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Set when the pool is shutting down; workers drain the queue first.
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    ready: Condvar,
}

impl Shared {
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        #[expect(
            clippy::expect_used,
            reason = "jobs run outside the queue lock, so poisoning means the pool's own push/pop panicked; the pool cannot continue and propagating is correct"
        )]
        self.queue.lock().expect("job queue poisoned")
    }

    /// Blocks until a job is queued, or returns `None` once the pool is
    /// shutting down and the queue is empty.
    fn pop(&self) -> Option<Job> {
        let mut queue = self.lock();
        #[expect(
            clippy::expect_used,
            reason = "jobs run outside the queue lock, so poisoning means the pool's own push/pop panicked; the pool cannot continue and propagating is correct"
        )]
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.ready.wait(queue).expect("job queue poisoned");
        }
    }
}

std::thread_local! {
    /// The current thread's worker index, if it is a pool worker.
    static CURRENT_WORKER: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    CURRENT_WORKER.with(|c| c.set(Some(index)));
    while let Some(job) = shared.pop() {
        // Contain panics to the job: the closure (and the result-channel
        // sender it holds) is dropped, so the collector observes a missing
        // result and fails with a clear message instead of hanging on a
        // dead worker, and the worker stays available.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            eprintln!("leopard-worker-{index}: job panicked: {message}");
        }
    }
}

/// A fixed-size thread pool with one FIFO job queue.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::default());
        let workers = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                #[expect(clippy::expect_used, reason = "thread spawn fails only on resource exhaustion at pool construction; there is no caller that could meaningfully recover")]
                std::thread::Builder::new()
                    .name(format!("leopard-worker-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// The calling thread's worker index within its pool, or `None` when called
/// from any thread that is not a pool worker. Telemetry uses this to route
/// span records to the per-worker buffer (and as the trace track id).
pub fn current_worker_index() -> Option<usize> {
    CURRENT_WORKER.with(std::cell::Cell::get)
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned queue still takes the flag.
        let queue = self.shared.queue.lock();
        queue.unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Default worker count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on the pool, preserving input order in the output.
///
/// `f` receives `(index, &item)`. Items start in input order and the call
/// blocks until every item is processed. Results arrive in completion
/// order internally but are re-sorted, so the output is deterministic
/// regardless of scheduling.
pub fn parallel_map<T, R, F>(pool: &ThreadPool, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    let n = items.len();
    let items = Arc::new(items);
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    pool.shared.lock().jobs.extend((0..n).map(|index| {
        let items = Arc::clone(&items);
        let f = Arc::clone(&f);
        let tx = tx.clone();
        Box::new(move || {
            let result = f(index, &items[index]);
            // The receiver only hangs up early on panic; nothing to do here.
            let _ = tx.send((index, result));
        }) as Job
    }));
    pool.shared.ready.notify_all();
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (index, result) in rx {
        slots[index] = Some(result);
    }
    #[expect(
        clippy::expect_used,
        reason = "every item sends its result unless it panicked; the worker contained and printed that panic, and re-raising it here is the only sound recovery"
    )]
    slots
        .into_iter()
        .map(|slot| slot.expect("an item panicked on a pool worker (message on stderr)"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = parallel_map(&pool, (0..100i64).collect(), |i, &x| {
            assert_eq!(i as i64, x);
            x * x
        });
        assert_eq!(out, (0..100i64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn items_start_in_input_order_on_one_worker() {
        // The queue is FIFO and a single worker drains it front to back —
        // the ordering contract the cost-model scheduler's submission order
        // rests on (with more workers, starts still follow input order even
        // though completions may interleave).
        let pool = ThreadPool::new(1);
        let started = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&started);
        let out = parallel_map(&pool, (0..64u64).collect(), move |_, &x| {
            log.lock().unwrap().push(x);
            x + 1
        });
        assert_eq!(out, (1..65).collect::<Vec<_>>());
        assert_eq!(*started.lock().unwrap(), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_item_does_not_kill_the_worker_or_hang_the_pool() {
        let pool = ThreadPool::new(1);
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&pool, vec![0u8, 1], |_, &x| {
                assert_ne!(x, 1, "item goes boom");
                x
            })
        }));
        assert!(failed.is_err(), "a missing result fails the call");
        // The sole worker must survive the panic and run the next call.
        assert_eq!(parallel_map(&pool, vec![41u8], |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn current_worker_index_is_visible_inside_jobs_only() {
        assert_eq!(current_worker_index(), None);
        let pool = ThreadPool::new(2);
        let seen = parallel_map(&pool, vec![()], |_, _| current_worker_index());
        assert!(matches!(seen[..], [Some(index)] if index < 2), "{seen:?}");
    }

    #[test]
    fn drop_joins_cleanly_with_idle_workers() {
        let pool = ThreadPool::new(8);
        std::thread::sleep(std::time::Duration::from_millis(5));
        drop(pool); // must not hang
    }
}
