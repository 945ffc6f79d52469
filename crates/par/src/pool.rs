//! Pool handles: [`ThreadPool`], [`ThreadPoolBuilder`] and the global
//! pool accessors.

use std::sync::Arc;
use std::thread::JoinHandle;

use crate::registry::Registry;

/// An owned work-stealing thread pool.
///
/// Most code never constructs one: the parallel APIs lazily create a
/// global pool sized by `CAWO_THREADS` (or the machine). An explicit
/// pool is for scoping — run a closure under a specific thread count
/// with [`ThreadPool::install`], e.g. to compare 1-thread and 4-thread
/// runs in one process:
///
/// ```
/// use cawo_par::prelude::*;
///
/// let pool = cawo_par::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
/// let doubled: Vec<i32> = pool.install(|| (0..64).into_par_iter().map(|x| x * 2).collect());
/// assert_eq!(doubled[10], 20);
/// ```
///
/// Dropping the pool shuts its workers down (blocking until they
/// exit). A pool built with `num_threads(1)` spawns no threads at all;
/// every operation under it runs inline on the calling thread.
pub struct ThreadPool {
    registry: Arc<Registry>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Runs `op` with this pool as the current pool.
    ///
    /// The override is thread-local and stack-like: parallel calls made
    /// by `op` (and by jobs it spawns into this pool) use this pool;
    /// other threads are unaffected. `op` itself runs on the calling
    /// thread, which also lends a hand executing pool jobs whenever it
    /// blocks in `join`/`scope`/collect.
    ///
    /// ```
    /// use cawo_par::prelude::*;
    ///
    /// let seq = cawo_par::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    /// let sum: i64 = seq.install(|| (1..=100i64).into_par_iter().sum());
    /// assert_eq!(sum, 5050);
    /// ```
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        self.registry.install(op)
    }

    /// The number of threads this pool was built with (1 ⇒ strictly
    /// sequential).
    ///
    /// ```
    /// let pool = cawo_par::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
    /// assert_eq!(pool.current_num_threads(), 3);
    /// ```
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    pub(crate) fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.registry.num_threads())
            .finish()
    }
}

/// The most threads one pool may have. [`ThreadPoolBuilder::build`]
/// refuses larger counts before it starts any thread, and
/// `CAWO_THREADS` is clamped to it.
pub(crate) const MAX_THREADS: usize = 256;

/// Error building a pool: a thread count above the ceiling of 256, or
/// a thread the OS refused to start.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    msg: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cawo_par pool build failed: {}", self.msg)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Configures a [`ThreadPool`].
///
/// ```
/// let pool = cawo_par::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
/// assert_eq!(pool.current_num_threads(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (thread count from
    /// `CAWO_THREADS`, else all cores).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Sets the worker count. `0` (the default) means "decide at
    /// `build` time": `CAWO_THREADS` if set, else
    /// `std::thread::available_parallelism()`. `1` means strictly
    /// sequential — no worker threads are spawned.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Builds the pool, spawning its workers. Counts above 256 are
    /// refused before any thread starts.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            crate::registry::default_thread_count()
        } else {
            self.num_threads
        };
        if n > MAX_THREADS {
            return Err(ThreadPoolBuildError {
                msg: format!("{n} threads requested, above the ceiling of {MAX_THREADS}"),
            });
        }
        let registry = Registry::new(n);
        let mut handles = Vec::new();
        if n > 1 {
            for index in 0..n {
                let reg = registry.clone();
                #[expect(clippy::disallowed_methods, reason = "the pool's own worker threads")]
                let h = std::thread::Builder::new()
                    .name(format!("cawo-par-{index}"))
                    .spawn(move || Registry::worker_main(reg, index))
                    .map_err(|e| ThreadPoolBuildError {
                        msg: format!("spawning worker {index}: {e}"),
                    })?;
                handles.push(h);
            }
        }
        Ok(ThreadPool { registry, handles })
    }
}

/// The thread count of the current pool: the innermost
/// [`ThreadPool::install`] on this thread, the pool owning this worker
/// thread, or the global pool (created on first use).
///
/// ```
/// let pool = cawo_par::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
/// assert_eq!(pool.install(cawo_par::current_num_threads), 1);
/// ```
pub fn current_num_threads() -> usize {
    Registry::current().num_threads()
}
