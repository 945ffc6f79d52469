//! Behavioural tests for the cawo_par pool: join ordering, panic
//! propagation, degenerate collects, and ordering guarantees under a
//! real multi-thread pool.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cawo_par::prelude::*;
use cawo_par::{join, scope, ThreadPool, ThreadPoolBuilder};

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

#[test]
fn join_returns_both_results() {
    for threads in [1, 4] {
        let (a, b) = pool(threads).install(|| join(|| 6 * 7, || "seven".to_string()));
        assert_eq!(a, 42);
        assert_eq!(b, "seven");
    }
}

#[test]
fn join_on_one_thread_runs_a_before_b() {
    // The sequential pool's documented ordering: a first, then b.
    let order = Mutex::new(Vec::new());
    pool(1).install(|| {
        join(
            || order.lock().unwrap().push('a'),
            || order.lock().unwrap().push('b'),
        )
    });
    assert_eq!(*order.lock().unwrap(), vec!['a', 'b']);
}

#[test]
fn join_nests() {
    for threads in [1, 4] {
        let total = pool(threads).install(|| {
            let ((a, b), (c, d)) = join(|| join(|| 1, || 2), || join(|| 3, || 4));
            a + b + c + d
        });
        assert_eq!(total, 10);
    }
}

#[test]
fn join_propagates_b_panic_after_a_completes() {
    for threads in [1, 4] {
        let p = pool(threads);
        let a_ran = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            p.install(|| {
                join(
                    || a_ran.fetch_add(1, Ordering::SeqCst),
                    || panic!("b exploded"),
                )
            })
        }));
        let payload = r.expect_err("must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "b exploded", "threads={threads}");
        assert_eq!(a_ran.load(Ordering::SeqCst), 1, "threads={threads}");
    }
}

#[test]
fn join_prefers_a_panic_when_both_panic() {
    // Rayon contract: when both closures panic, a's payload wins.
    let p = pool(4);
    let r = catch_unwind(AssertUnwindSafe(|| {
        p.install(|| join(|| panic!("from a"), || panic!("from b")))
    }));
    let payload = r.expect_err("must propagate");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
    assert_eq!(msg, "from a");
}

#[test]
fn scope_waits_for_all_spawns() {
    for threads in [1, 4] {
        let hits = AtomicUsize::new(0);
        pool(threads).install(|| {
            scope(|s| {
                for _ in 0..64 {
                    s.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        });
        assert_eq!(hits.load(Ordering::SeqCst), 64, "threads={threads}");
    }
}

#[test]
fn scope_supports_nested_spawns() {
    for threads in [1, 4] {
        let hits = AtomicUsize::new(0);
        pool(threads).install(|| {
            scope(|s| {
                for _ in 0..8 {
                    s.spawn(|s| {
                        hits.fetch_add(1, Ordering::SeqCst);
                        s.spawn(|_| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                }
            })
        });
        assert_eq!(hits.load(Ordering::SeqCst), 16, "threads={threads}");
    }
}

#[test]
fn scope_propagates_spawn_panic_but_finishes_siblings() {
    for threads in [1, 4] {
        let p = pool(threads);
        let done = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            p.install(|| {
                scope(|s| {
                    s.spawn(|_| panic!("spawned job failed"));
                    for _ in 0..16 {
                        s.spawn(|_| {
                            done.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                })
            })
        }));
        assert!(r.is_err(), "threads={threads}");
        // On a 1-thread pool the inline panic aborts the loop at the
        // first spawn; on a parallel pool every sibling completes
        // before the panic is re-thrown.
        if threads > 1 {
            assert_eq!(done.load(Ordering::SeqCst), 16);
        }
    }
}

#[test]
fn empty_collect_is_empty() {
    for threads in [1, 4] {
        let v: Vec<i32> = pool(threads).install(|| {
            Vec::<i32>::new()
                .into_par_iter()
                .map(|x| x * 2)
                .collect::<Vec<i32>>()
        });
        assert!(v.is_empty(), "threads={threads}");
    }
}

#[test]
fn single_element_collect() {
    for threads in [1, 4] {
        let v: Vec<i32> = pool(threads).install(|| {
            vec![21]
                .into_par_iter()
                .map(|x| x * 2)
                .collect::<Vec<i32>>()
        });
        assert_eq!(v, vec![42], "threads={threads}");
    }
}

#[test]
fn map_preserves_input_order_under_contention() {
    // Items deliberately sized so late chunks finish first.
    let p = pool(4);
    let out: Vec<usize> = p.install(|| {
        (0..200usize)
            .into_par_iter()
            .map(|i| {
                if i < 8 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i
            })
            .collect()
    });
    assert_eq!(out, (0..200).collect::<Vec<_>>());
}

#[test]
fn float_sum_is_bit_identical_across_thread_counts() {
    // Part of the determinism contract: sum folds in input order.
    let xs: Vec<f64> = (0..1000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let seq: f64 = pool(1).install(|| xs.par_iter().map(|&x| x * 1.000001).sum());
    let par: f64 = pool(4).install(|| xs.par_iter().map(|&x| x * 1.000001).sum());
    assert_eq!(seq.to_bits(), par.to_bits());
}

#[test]
fn filter_map_unzip_and_hashmap_collect() {
    use std::collections::HashMap;
    for threads in [1, 4] {
        let p = pool(threads);
        let m: HashMap<u32, u32> =
            p.install(|| (0..100u32).into_par_iter().map(|k| (k, k * k)).collect());
        assert_eq!(m.len(), 100);
        assert_eq!(m[&9], 81);
        let evens: Vec<u32> = p.install(|| {
            (0..100u32)
                .into_par_iter()
                .filter_map(|x| (x % 2 == 0).then_some(x))
                .collect()
        });
        assert_eq!(evens.len(), 50);
        assert_eq!(evens[1], 2);
        let (a, b): (Vec<u32>, Vec<u32>) =
            p.install(|| (0..10u32).into_par_iter().map(|x| (x, x + 1)).unzip());
        assert_eq!(a, (0..10).collect::<Vec<_>>());
        assert_eq!(b, (1..11).collect::<Vec<_>>());
    }
}

#[test]
fn iterator_panic_propagates_and_pool_survives() {
    let p = pool(4);
    let r = catch_unwind(AssertUnwindSafe(|| {
        p.install(|| {
            (0..100usize)
                .into_par_iter()
                .map(|i| if i == 57 { panic!("item 57") } else { i })
                .collect::<Vec<_>>()
        })
    }));
    assert!(r.is_err());
    // The pool is still usable after a propagated panic.
    let sum: usize = p.install(|| (0..10usize).into_par_iter().sum());
    assert_eq!(sum, 45);
}

#[test]
fn install_is_stacked_per_thread() {
    let outer = pool(4);
    let inner = pool(1);
    let (o, i, o2) = outer.install(|| {
        let o = cawo_par::current_num_threads();
        let i = inner.install(cawo_par::current_num_threads);
        (o, i, cawo_par::current_num_threads())
    });
    assert_eq!((o, i, o2), (4, 1, 4));
}

#[test]
fn thread_counts_above_the_ceiling_are_refused() {
    // Refused before any thread starts: this spawns nothing.
    let err = ThreadPoolBuilder::new()
        .num_threads(257)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("ceiling of 256"), "{err}");
}

#[test]
fn stress_many_small_batches() {
    // Rapid-fire small parallel passes; shakes out wake/sleep races.
    let p = pool(4);
    for round in 0..200 {
        let n = 1 + round % 7;
        let v: Vec<usize> = p.install(|| (0..n).into_par_iter().map(|x| x + round).collect());
        assert_eq!(v.len(), n);
        assert_eq!(v[0], round);
    }
}
