//! A small fixed-size worker pool: a FIFO of request jobs.
//!
//! Whole engine requests (query batches, edits, snapshots) are submitted
//! with [`PoolHandle::spawn`] and drained in order by the worker threads.
//! That is the pool's only job: `workers` is how many requests — and so
//! how many sessions — are served at once. A query's demanded cone is
//! evaluated by the one worker that picked its request up (see
//! `dai_core::FuncAnalysis::evaluate`).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct Injector {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A cloneable handle onto the pool's job queue. Jobs submitted through
/// any clone are drained by the same worker threads.
#[derive(Clone)]
pub struct PoolHandle {
    injector: Arc<Injector>,
    workers: usize,
}

impl PoolHandle {
    /// Number of worker threads behind this handle.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueues a job for the worker threads.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        {
            let mut q = self.injector.queue.lock().expect("pool queue poisoned");
            q.push_back(Box::new(job));
        }
        self.injector.available.notify_one();
    }
}

/// A fixed-size worker pool. Dropping it shuts the workers down after the
/// queue drains.
pub struct WorkerPool {
    handle: PoolHandle,
    threads: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (minimum 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let injector = Arc::new(Injector::default());
        let handle = PoolHandle {
            injector: Arc::clone(&injector),
            workers,
        };
        let threads = (0..workers)
            .map(|i| {
                let injector = Arc::clone(&injector);
                std::thread::Builder::new()
                    .name(format!("dai-worker-{i}"))
                    .spawn(move || worker_loop(&injector))
                    .expect("spawn engine worker")
            })
            .collect();
        WorkerPool { handle, threads }
    }

    /// A cloneable handle for submitting work.
    pub fn handle(&self) -> PoolHandle {
        self.handle.clone()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handle.workers
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // The flag must be set while holding the queue mutex: a worker
        // that has checked `shutdown == false` but not yet entered
        // `Condvar::wait` still holds the lock, so storing under the lock
        // serializes with that window and the notification cannot be
        // lost (a missed notify would leave `join` below hanging).
        {
            let _guard = self
                .handle
                .injector
                .queue
                .lock()
                .expect("pool queue poisoned");
            self.handle.injector.shutdown.store(true, Ordering::Release);
        }
        self.handle.injector.available.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// How many queued jobs a worker claims per queue-lock acquisition when
/// the backlog is deep. Under a dense request stream (e.g. a benchmark
/// submitting its whole load up front) this turns per-job lock ping-pong
/// between submitter and worker into one lock round per batch. Shallow
/// queues are claimed one job at a time so a handful of requests spreads
/// across workers instead of being swallowed into a single worker's local
/// batch.
const WORKER_BATCH: usize = 8;

/// A queue at or beyond this depth is a backlog worth batch-claiming;
/// below it, fairness (one job per worker) matters more than lock
/// amortization.
const DEEP_QUEUE: usize = 2 * WORKER_BATCH;

fn worker_loop(injector: &Injector) {
    let mut local: Vec<Job> = Vec::with_capacity(WORKER_BATCH);
    loop {
        {
            let mut q = injector.queue.lock().expect("pool queue poisoned");
            loop {
                // Requests are batch-claimed only under a deep backlog.
                let claim = if q.len() >= DEEP_QUEUE {
                    WORKER_BATCH
                } else {
                    1
                };
                while local.len() < claim {
                    match q.pop_front() {
                        Some(job) => local.push(job),
                        None => break,
                    }
                }
                if !local.is_empty() {
                    break;
                }
                if injector.shutdown.load(Ordering::Acquire) {
                    return;
                }
                q = injector.available.wait(q).expect("pool queue poisoned");
            }
        }
        for job in local.drain(..) {
            // A panicking request must not take the worker down with it;
            // the requester observes the failure through its dropped reply
            // channel.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawned_jobs_all_run() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            pool.handle().spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..100 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.handle().spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // must not hang
    }
}
