//! The pool core: per-worker deques, a shared injector, and the
//! sleep/wake protocol.
//!
//! One [`Registry`] is one pool. Work lives in `n` lock-guarded
//! [`VecDeque`]s (one per worker, LIFO for the owner) plus a shared
//! injector queue (FIFO) fed by non-worker threads. Idle workers scan
//! own deque → injector → steal (FIFO from the victim's front), then
//! park on a `Condvar` guarded by an epoch counter so a push between
//! "found nothing" and "went to sleep" can never be lost.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of queued work. All jobs the crate enqueues wrap user code in
/// `catch_unwind`, so executing a job never unwinds into the worker
/// loop.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Erases a job's borrow lifetime so it can sit in a `'static` queue.
///
/// # Safety
///
/// The caller must guarantee the job is executed (or dropped) before
/// any borrow it captures expires. `join`/`scope` uphold this by
/// blocking until every enqueued job has run.
pub(crate) unsafe fn erase_job<'a>(job: Box<dyn FnOnce() + Send + 'a>) -> Job {
    // SAFETY: only the lifetime is transmuted; the caller upholds that
    // the job does not outlive its borrows.
    unsafe { std::mem::transmute(job) }
}

/// Sleep-state guarded by the registry mutex: a monotonically
/// increasing push epoch plus the shutdown flag.
struct Sleep {
    epoch: u64,
    shutdown: bool,
}

/// One worker's deque. The owner pops from the back (LIFO: good cache
/// locality, depth-first descent); thieves pop from the front (FIFO:
/// they take the oldest — typically largest — pending subtree).
struct WorkerQueue {
    deque: Mutex<VecDeque<Job>>,
}

/// A single thread pool: queues, sleep protocol and size.
pub(crate) struct Registry {
    injector: Mutex<VecDeque<Job>>,
    workers: Vec<WorkerQueue>,
    sleep: Mutex<Sleep>,
    wake: Condvar,
    n_threads: usize,
}

/// Identifies the current thread as worker `index` of `registry`.
struct WorkerCtx {
    registry: Arc<Registry>,
    index: usize,
}

thread_local! {
    /// Set once at worker-thread start, never changed.
    static WORKER: std::cell::RefCell<Option<WorkerCtx>> =
        const { std::cell::RefCell::new(None) };
    /// Stack of `ThreadPool::install` overrides on this thread.
    static INSTALLED: std::cell::RefCell<Vec<Arc<Registry>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The lazily-created global pool (sized by `CAWO_THREADS`, else the
/// machine). Never dropped.
static GLOBAL: OnceLock<crate::pool::ThreadPool> = OnceLock::new();

/// Number of threads the global pool gets on first use: `CAWO_THREADS`
/// if set to a positive integer, `available_parallelism()` otherwise
/// (`CAWO_THREADS=0` and unparsable values mean "all cores"), clamped
/// to the pool ceiling.
pub(crate) fn default_thread_count() -> usize {
    let n = match std::env::var("CAWO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    n.min(crate::pool::MAX_THREADS)
}

impl Registry {
    /// Creates a registry with `n_threads` workers (clamped to ≥ 1). A
    /// 1-thread registry spawns no workers: everything runs inline on
    /// the calling thread.
    pub(crate) fn new(n_threads: usize) -> Arc<Registry> {
        let n_threads = n_threads.max(1);
        let n_workers = if n_threads > 1 { n_threads } else { 0 };
        Arc::new(Registry {
            injector: Mutex::new(VecDeque::new()),
            workers: (0..n_workers)
                .map(|_| WorkerQueue {
                    deque: Mutex::new(VecDeque::new()),
                })
                .collect(),
            sleep: Mutex::new(Sleep {
                epoch: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            n_threads,
        })
    }

    /// The registry governing the current thread: innermost
    /// `ThreadPool::install`, else the pool this worker thread belongs
    /// to, else the (lazily created) global pool.
    pub(crate) fn current() -> Arc<Registry> {
        if let Some(r) = INSTALLED.with(|s| s.borrow().last().cloned()) {
            return r;
        }
        if let Some(r) = WORKER.with(|w| w.borrow().as_ref().map(|c| c.registry.clone())) {
            return r;
        }
        GLOBAL
            .get_or_init(|| {
                crate::pool::ThreadPoolBuilder::new()
                    .num_threads(default_thread_count())
                    .build()
                    .expect("failed to build the global cawo_par pool")
            })
            .registry()
    }

    /// Pool size (1 ⇒ strictly sequential execution).
    pub(crate) fn num_threads(&self) -> usize {
        self.n_threads
    }

    /// Whether this registry ever runs anything off the calling thread.
    pub(crate) fn is_parallel(&self) -> bool {
        self.n_threads > 1
    }

    /// Pushes the install override for the duration of `op`.
    pub(crate) fn install<R>(self: &Arc<Registry>, op: impl FnOnce() -> R) -> R {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                INSTALLED.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        INSTALLED.with(|s| s.borrow_mut().push(self.clone()));
        let _g = Guard;
        op()
    }

    /// Enqueues a job: onto the current worker's own deque when called
    /// from a worker of this pool (LIFO locality), onto the injector
    /// otherwise. Never called on a 1-thread registry (callers run
    /// inline instead).
    pub(crate) fn inject(self: &Arc<Registry>, job: Job) {
        debug_assert!(self.is_parallel());
        let job = WORKER.with(|w| match &*w.borrow() {
            Some(ctx) if Arc::ptr_eq(&ctx.registry, self) => {
                ctx.registry.workers[ctx.index]
                    .deque
                    .lock()
                    .expect("lock poisoned")
                    .push_back(job);
                None
            }
            _ => Some(job),
        });
        if let Some(job) = job {
            self.injector.lock().expect("lock poisoned").push_back(job);
        }
        let mut s = self.sleep.lock().expect("lock poisoned");
        s.epoch += 1;
        drop(s);
        self.wake.notify_all();
    }

    /// Takes one pending job: own deque (back), injector (front), then
    /// steal rotation over the other workers (front).
    fn find_work(&self, own: Option<usize>) -> Option<Job> {
        if let Some(i) = own {
            if let Some(j) = self.workers[i]
                .deque
                .lock()
                .expect("lock poisoned")
                .pop_back()
            {
                return Some(j);
            }
        }
        if let Some(j) = self.injector.lock().expect("lock poisoned").pop_front() {
            return Some(j);
        }
        let n = self.workers.len();
        let start = own.map_or(0, |i| i + 1);
        for k in 0..n {
            let t = (start + k) % n;
            if Some(t) == own {
                continue;
            }
            if let Some(j) = self.workers[t]
                .deque
                .lock()
                .expect("lock poisoned")
                .pop_front()
            {
                return Some(j);
            }
        }
        None
    }

    /// Index of the current thread if it is a worker of *this* pool.
    fn own_index(self: &Arc<Registry>) -> Option<usize> {
        WORKER.with(|w| match &*w.borrow() {
            Some(ctx) if Arc::ptr_eq(&ctx.registry, self) => Some(ctx.index),
            _ => None,
        })
    }

    /// Blocks until `latch` is set, executing other pool jobs while
    /// waiting (help-first: a blocked `join`/`scope` never idles a
    /// thread that could be working).
    pub(crate) fn wait_until(self: &Arc<Registry>, latch: &Latch) {
        let own = self.own_index();
        while !latch.probe() {
            match self.find_work(own) {
                Some(job) => job(),
                None => latch.wait_timeout(Duration::from_micros(200)),
            }
        }
    }

    /// Signals shutdown and wakes every worker (used by `ThreadPool`'s
    /// `Drop`). Pending jobs are discarded — by construction only
    /// already-claimed join tombstones can still be queued then.
    pub(crate) fn terminate(&self) {
        let mut s = self.sleep.lock().expect("lock poisoned");
        s.shutdown = true;
        drop(s);
        self.wake.notify_all();
    }

    /// Body of each worker thread.
    pub(crate) fn worker_main(registry: Arc<Registry>, index: usize) {
        WORKER.with(|w| {
            *w.borrow_mut() = Some(WorkerCtx {
                registry: registry.clone(),
                index,
            });
        });
        loop {
            if let Some(job) = registry.find_work(Some(index)) {
                job();
                continue;
            }
            let s = registry.sleep.lock().expect("lock poisoned");
            if s.shutdown {
                return;
            }
            let epoch = s.epoch;
            drop(s);
            // Re-check after publishing intent to sleep: a push between
            // the failed scan and here bumped the epoch.
            if let Some(job) = registry.find_work(Some(index)) {
                job();
                continue;
            }
            let s = registry.sleep.lock().expect("lock poisoned");
            if s.shutdown {
                return;
            }
            if s.epoch == epoch {
                // Timeout is belt-and-braces: correctness comes from
                // re-scanning the queues on every loop iteration.
                let _ = registry.wake.wait_timeout(s, Duration::from_millis(10));
            }
        }
    }
}

/// A set-once flag with its own mutex/condvar, used to signal "this
/// batch of jobs has completed" to a helping waiter.
pub(crate) struct Latch {
    done: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Latch {
    pub(crate) fn new() -> Latch {
        Latch {
            done: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn probe(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    pub(crate) fn set(&self) {
        // The empty critical section orders the store against a waiter
        // that checked `done` and is about to park.
        let _g = self.lock.lock().expect("lock poisoned");
        self.done.store(true, Ordering::Release);
        drop(_g);
        self.cv.notify_all();
    }

    fn wait_timeout(&self, d: Duration) {
        let g = self.lock.lock().expect("lock poisoned");
        if !self.done.load(Ordering::Acquire) {
            let _ = self.cv.wait_timeout(g, d);
        }
    }
}
