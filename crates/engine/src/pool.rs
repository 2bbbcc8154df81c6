//! A small fixed-size worker pool: a FIFO of request jobs, and inline
//! scopes that keep a synchronous caller's jobs on its own thread.
//!
//! Whole engine requests (query batches, edits, snapshots) are submitted
//! with [`PoolHandle::spawn`]. Which thread runs a job depends on where it
//! was spawned:
//!
//! * outside an inline scope, the job goes to the shared FIFO and one of
//!   the worker threads drains it — `workers` is how many asynchronous
//!   requests, and so how many sessions, are served at once;
//! * inside an inline scope ([`PoolHandle::run_inline`]), the job is
//!   queued on the spawning thread, and that thread runs it — together
//!   with every job those jobs spawn, in FIFO order — before the scope
//!   closes. A synchronous request that would only wait for a worker
//!   runs on the thread that asked for it, so it pays no hand-off to a
//!   worker and none back.
//!
//! Either way a job runs under `catch_unwind`, and a query's demanded cone
//! is evaluated by the one thread that runs its job (see
//! `dai_core::FuncAnalysis::evaluate`).

use std::cell::RefCell;
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

    /// Enqueues a job: on this thread's inline queue while an inline
    /// scope is open here, else for the worker threads.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let outside = INLINE.with(|inline| {
            let mut inline = inline.borrow_mut();
            if inline.depth == 0 {
                return Some(job);
            }
            inline.jobs.push_back(job);
            None
        });
        if let Some(job) = outside {
            self.inject(job);
        }
    }

    fn inject(&self, job: Job) {
        {
            let mut q = self.injector.queue.lock().expect("pool queue poisoned");
            q.push_back(job);
        }
        self.injector.available.notify_one();
    }

    /// Runs `submit` inside an inline scope on this thread: every job
    /// spawned while it runs — and every job those jobs spawn — is run
    /// here, in FIFO order and each under `catch_unwind`, before this
    /// returns. A synchronous request submits inside the scope and waits
    /// on its ticket after it, so the wait finds its answer already there
    /// unless another thread owns the job that answers it (a batch it
    /// joined, an edit it queued behind).
    ///
    /// Scopes nest: a synchronous request made by an inline job or by a
    /// completion hook drains the thread's queue — the outer scope's jobs
    /// included — before it returns, so no ticket it waits on can hang on
    /// a job queued, unrun, beneath it. If `submit` panics, the scope
    /// still closes; jobs it left queued go to the worker threads once
    /// the outermost scope is gone.
    pub fn run_inline<T>(&self, submit: impl FnOnce() -> T) -> T {
        let scope = InlineScope::open(self);
        let out = submit();
        while let Some(job) = INLINE.with(|inline| inline.borrow_mut().jobs.pop_front()) {
            run_job(job);
        }
        drop(scope);
        out
    }
}

/// One thread's inline queue: how many scopes are open on it, and the
/// jobs spawned under them that have yet to run.
struct Inline {
    depth: usize,
    jobs: VecDeque<Job>,
}

thread_local! {
    static INLINE: RefCell<Inline> = const {
        RefCell::new(Inline {
            depth: 0,
            jobs: VecDeque::new(),
        })
    };
}

/// Closes an inline scope however [`PoolHandle::run_inline`] leaves it.
/// After a panic the closing outermost scope hands what is still queued
/// to the worker threads, so `spawn` on this thread reaches the pool
/// again and no job is stranded.
struct InlineScope<'a> {
    pool: &'a PoolHandle,
}

impl<'a> InlineScope<'a> {
    fn open(pool: &'a PoolHandle) -> InlineScope<'a> {
        INLINE.with(|inline| inline.borrow_mut().depth += 1);
        InlineScope { pool }
    }
}

impl Drop for InlineScope<'_> {
    fn drop(&mut self) {
        let left = INLINE.with(|inline| {
            let mut inline = inline.borrow_mut();
            inline.depth -= 1;
            if inline.depth == 0 {
                std::mem::take(&mut inline.jobs)
            } else {
                VecDeque::new()
            }
        });
        for job in left {
            self.pool.inject(job);
        }
    }
}

/// Runs one job. A panicking request must not take its thread down with
/// it; the requester observes the failure through its dropped reply
/// channel.
fn run_job(job: Job) {
    let _ = catch_unwind(AssertUnwindSafe(job));
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
            run_job(job);
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

    /// The thread-local inline queue is empty and no scope is open.
    fn no_scope_is_open() -> bool {
        INLINE.with(|inline| {
            let inline = inline.borrow();
            inline.depth == 0 && inline.jobs.is_empty()
        })
    }

    /// Spawns a job reporting the thread that ran it, and waits for it.
    fn runs_on(handle: &PoolHandle) -> std::thread::ThreadId {
        let (tx, rx) = std::sync::mpsc::channel();
        handle.spawn(move || {
            let _ = tx.send(std::thread::current().id());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job ran")
    }

    #[test]
    fn jobs_spawned_in_an_inline_scope_run_on_the_caller_in_fifo_order() {
        let pool = WorkerPool::new(2);
        let handle = pool.handle();
        let caller = std::thread::current().id();
        let order = Arc::new(Mutex::new(Vec::new()));
        let log = |order: &Arc<Mutex<Vec<u32>>>, n: u32| {
            let order = Arc::clone(order);
            move || {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(n);
            }
        };
        handle.run_inline(|| {
            let (first, third) = (log(&order, 1), log(&order, 3));
            let inner = handle.clone();
            handle.spawn(move || {
                first();
                // Spawned by an inline job: queued behind `2`, still here.
                inner.spawn(third);
            });
            handle.spawn(log(&order, 2));
            assert!(
                order.lock().unwrap().is_empty(),
                "nothing runs before the drain"
            );
        });
        assert_eq!(*order.lock().unwrap(), vec![1, 2, 3]);
        assert!(no_scope_is_open());
        assert_ne!(
            runs_on(&handle),
            caller,
            "outside a scope a worker runs the job"
        );
    }

    #[test]
    fn a_panicking_inline_job_is_contained_and_its_requester_disconnected() {
        let pool = WorkerPool::new(1);
        let handle = pool.handle();
        let caller = std::thread::current().id();
        let behind = Arc::new(AtomicU64::new(0));
        let (ticket, responder) = crate::engine::reply_slot::<()>();
        handle.run_inline(|| {
            handle.spawn(move || {
                let _responder = responder;
                panic!("injected job panic");
            });
            let behind = Arc::clone(&behind);
            handle.spawn(move || {
                behind.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(
            behind.load(Ordering::SeqCst),
            1,
            "the job behind the panic ran"
        );
        assert!(matches!(
            ticket.wait(),
            Err(crate::EngineError::Disconnected)
        ));
        assert!(no_scope_is_open());
        assert_ne!(runs_on(&handle), caller);
    }

    #[test]
    fn a_scope_whose_submit_panics_closes_and_hands_its_jobs_to_the_workers() {
        let pool = WorkerPool::new(1);
        let handle = pool.handle();
        let caller = std::thread::current().id();
        let (tx, rx) = std::sync::mpsc::channel();
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            handle.run_inline(|| {
                let tx = tx.clone();
                handle.spawn(move || {
                    let _ = tx.send(std::thread::current().id());
                });
                panic!("injected submit panic");
            })
        }));
        assert!(unwound.is_err());
        assert!(no_scope_is_open());
        let ran_on = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the job queued before the panic still ran");
        assert_ne!(ran_on, caller);
        assert_ne!(runs_on(&handle), caller, "spawn reaches the pool again");
    }

    #[test]
    fn a_nested_scope_runs_the_outer_queue_before_it_returns() {
        // The first job opens a scope of its own and then needs what the
        // second — queued behind it in the outer scope — delivers. Were
        // the nested scope to drain only its own jobs, this would hang.
        let pool = WorkerPool::new(1);
        let handle = pool.handle();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let got = Arc::new(AtomicU64::new(0));
        handle.run_inline(|| {
            let inner = handle.clone();
            let got = Arc::clone(&got);
            handle.spawn(move || {
                inner.run_inline(|| ());
                if rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok() {
                    got.fetch_add(1, Ordering::SeqCst);
                }
            });
            handle.spawn(move || {
                let _ = tx.send(());
            });
        });
        assert_eq!(got.load(Ordering::SeqCst), 1);
        assert!(no_scope_is_open());
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
