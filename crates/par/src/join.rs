//! Fork-join of two closures, the primitive everything else builds on.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use crate::registry::{erase_job, Job, Latch, Registry};

/// A queued job that the enqueuing thread may reclaim: whoever `take`s
/// the inner closure first runs it, the other side sees `None`.
struct Stealable {
    job: Mutex<Option<Job>>,
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns
/// both results.
///
/// `oper_b` is offered to the current pool while the calling thread
/// runs `oper_a`; if no other thread has taken it by then, the caller
/// reclaims and runs it inline, so `join` never blocks on a busy pool.
/// On a 1-thread pool both closures simply run sequentially, in order.
///
/// ```
/// let (a, b) = cawo_par::join(|| 2 + 2, || "ok".len());
/// assert_eq!((a, b), (4, 2));
/// ```
///
/// # Panics
///
/// Waits for both closures to complete, then re-throws a panic:
/// `oper_a`'s panic wins when both panicked (matching rayon). On a
/// 1-thread pool a panic in `oper_a` propagates immediately and
/// `oper_b` never runs — also rayon's behaviour when `b` was never
/// stolen.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = Registry::current();
    if !registry.is_parallel() {
        let ra = oper_a();
        let rb = oper_b();
        return (ra, rb);
    }

    let latch = Latch::new();
    let mut rb_slot: Option<std::thread::Result<RB>> = None;
    let ra = {
        struct SendPtr<T>(*mut T);
        // SAFETY: the pointer targets `rb_slot` on this stack frame,
        // which outlives the job (see below); exactly one thread — the
        // thief or the reclaiming caller — ever dereferences it.
        unsafe impl<T> Send for SendPtr<T> {}
        let slot = SendPtr(&mut rb_slot);
        let latch_ref = &latch;
        let b_job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let slot = slot; // capture the whole Send wrapper, not the raw field
            let r = catch_unwind(AssertUnwindSafe(oper_b));
            // SAFETY: the slot outlives this job — `join` does not
            // return before the job ran (reclaimed inline or signalled
            // through the latch).
            unsafe { *slot.0 = Some(r) };
            latch_ref.set();
        });
        let stealable = Arc::new(Stealable {
            // SAFETY: see above — the job is consumed before `join`
            // returns, on every path.
            job: Mutex::new(Some(unsafe { erase_job(b_job) })),
        });
        let runner = stealable.clone();
        registry.inject(Box::new(move || {
            let job = runner.job.lock().expect("lock poisoned").take();
            if let Some(job) = job {
                job();
            }
        }));

        let ra = catch_unwind(AssertUnwindSafe(oper_a));
        let reclaimed = stealable.job.lock().expect("lock poisoned").take();
        match reclaimed {
            // Nobody stole b: run it inline (sets the latch).
            Some(job) => job(),
            // A thief has it: help with other work until it finishes.
            None => registry.wait_until(&latch),
        }
        ra
    };

    let ra = match ra {
        Ok(v) => v,
        Err(p) => resume_unwind(p),
    };
    let rb = match rb_slot.expect("join: oper_b completed") {
        Ok(v) => v,
        Err(p) => resume_unwind(p),
    };
    (ra, rb)
}
