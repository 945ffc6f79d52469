//! A std-only work-stealing thread pool behind the workspace's `rayon`
//! facade.
//!
//! `cawo_par` implements exactly the rayon API subset the CaWoSched
//! workspace codes against — [`prelude::IntoParallelIterator`] /
//! [`prelude::IntoParallelRefIterator`] with `map` / `filter_map` /
//! `collect` / `sum` / `unzip`, plus [`join`] and [`scope`] — on a
//! small crossbeam-style pool: per-worker lock-guarded deques (LIFO for
//! the owner, FIFO for thieves), a shared `Mutex`+`Condvar` injector,
//! and help-first blocking (a thread waiting in `join`/`scope` executes
//! other pool jobs instead of idling).
//!
//! The workspace's `rayon` dependency is an alias for this crate (see
//! `vendor/rayon`), so `par_iter()` call sites in `cawo_sim`,
//! `cawo_exact` and the benches parallelise with no call-site changes.
//!
//! # Pool selection
//!
//! Parallel calls run on the *current* pool: the innermost
//! [`ThreadPool::install`] on the calling thread, else the pool owning
//! the current worker thread, else a global pool created on first use
//! with `CAWO_THREADS` threads (all cores when unset or `0`). No pool
//! has more than 256 threads. A pool of 1 thread executes everything
//! inline on the calling thread — no worker threads, no queues — which
//! is what makes `CAWO_THREADS=1` runs strictly sequential.
//!
//! ```
//! use cawo_par::prelude::*;
//!
//! // Same expression, explicit 2-thread pool vs inline sequential —
//! // the determinism contract says the results are identical.
//! let par = cawo_par::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
//! let seq = cawo_par::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
//! let f = || (0..100u64).into_par_iter().map(|x| x * 3).sum::<u64>();
//! assert_eq!(par.install(f), seq.install(f));
//! ```
//!
//! # Determinism contract
//!
//! Every adaptor materialises its output **in input order** regardless
//! of thread count, and `sum` folds in input order, so any pipeline of
//! these adaptors is bit-identical to its sequential counterpart. The
//! full workspace-level contract (including the exact solvers) is
//! specified in `docs/CONCURRENCY.md`.
//!
//! # Panic semantics (matching rayon)
//!
//! [`join`] waits for both closures and re-throws the first closure's
//! panic preferentially; [`scope`] waits for all spawned jobs before
//! re-throwing; iterator adaptors propagate a panic from the closure
//! after the parallel pass has quiesced.

// The one crate exempt from the workspace-wide `unsafe_code = "deny"`.
// Each unsafe block still needs a `// SAFETY:` comment directly above
// it (`clippy::undocumented_unsafe_blocks`, docs/LINTS.md).
#![expect(unsafe_code, reason = "the pool is the single audited unsafe surface")]
#![forbid(unsafe_op_in_unsafe_fn)]

mod iter;
mod join;
mod pool;
mod registry;
mod scope;

pub use join::join;
pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
pub use scope::{scope, Scope};

pub mod prelude {
    //! Drop-in subset of `rayon::prelude`: glob-import to get
    //! `par_iter()` / `into_par_iter()` on ordinary collections.
    //!
    //! ```
    //! use cawo_par::prelude::*;
    //! let doubled: Vec<i32> = [1, 2, 3].par_iter().map(|&x| x * 2).collect();
    //! assert_eq!(doubled, vec![2, 4, 6]);
    //! ```
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParIter};
}
