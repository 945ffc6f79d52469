//! Warm-path serving at simulation scale.
//!
//! The quick test checks the serving contract on a small model; the
//! `#[ignore]`d test is the CI `warm-path` release job (run with
//! `cargo test --release -p cawo_sim --test warm_path -- --ignored`):
//! on the 100-task model, an exact re-query must be two orders of
//! magnitude faster than its cold solve, and an incremental trace-tail
//! re-answer must beat (and bit-match) cold re-evaluation.
//!
//! Timing note (PR 5 precedent): speedup assertions compare wall-clock
//! measured in the same process back to back, single query at a time —
//! no rayon contention inside the timed sections beyond what the
//! solver itself uses in both arms.

use std::time::Instant;

use cawo_cache::{CacheOutcome, SolveCache};
use cawo_core::{carbon_cost, EngineKind, Instance, Variant};
use cawo_exact::{Budget, SolverKind};
use cawo_graph::generator::{generate, Family, GeneratorConfig};
use cawo_heft::heft_schedule;
use cawo_platform::{Cluster, DeadlineFactor, PowerProfile, TraceConfig, TraceSource};

/// A measured trace and a second forecast that diverges only in the
/// tail (after t = 1200): the rolling-forecast shape the incremental
/// re-answer path is built for.
const TRACE_OLD: &str = "time,intensity\n0,420\n600,95\n1200,250\n1800,340\n2400,280\n";
const TRACE_NEW: &str = "time,intensity\n0,420\n600,95\n1200,250\n1800,120\n2400,450\n";

/// The n-task paper model on the tiny cluster, plus the two
/// trace-backed profiles over its horizon.
fn model(n: usize) -> (Instance, PowerProfile, PowerProfile) {
    let wf = generate(&GeneratorConfig::new(Family::Atacseq, n, 42));
    let cluster = Cluster::tiny(&[0, 3, 5], 42);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let asap = inst.asap_makespan();
    let build = |csv: &str| {
        TraceConfig::new(TraceSource::Csv(csv.to_string()), DeadlineFactor::X15)
            .build(&cluster, asap)
            .expect("inline trace loads")
    };
    (inst, build(TRACE_OLD), build(TRACE_NEW))
}

#[test]
fn repeated_queries_are_served_from_the_cache() {
    let (inst, old, new) = model(30);
    let cache = SolveCache::new();
    let engine = EngineKind::default();
    let budget = Budget::parse("250ms").expect("valid budget");

    let (cold, o1) = cache
        .solve(SolverKind::Bnb, engine, &inst, &old, budget)
        .expect("cold solve");
    assert_eq!(o1, CacheOutcome::Cold);
    let (hit, o2) = cache
        .solve(SolverKind::Bnb, engine, &inst, &old, budget)
        .expect("hit");
    assert_eq!(o2, CacheOutcome::Hit);
    assert_eq!(hit.cost, cold.cost);
    assert_eq!(hit.schedule, cold.schedule);

    // Tail-shifted forecast: the eval path re-answers the cached
    // schedule incrementally, bit-identical to cold re-pricing.
    let (a, o3) = cache.evaluate(Variant::PressWRLs, engine, &inst, &old);
    assert_eq!(o3, CacheOutcome::Cold);
    let (b, o4) = cache.evaluate(Variant::PressWRLs, engine, &inst, &new);
    assert_eq!(o4, CacheOutcome::Warm);
    assert_eq!(b.schedule, a.schedule);
    assert_eq!(b.cost, carbon_cost(&inst, &b.schedule, &new));
    assert_eq!(cache.stats().rejected, 0);
}

#[test]
#[ignore = "CI warm-path release job: cargo test --release -p cawo_sim --test warm_path -- --ignored"]
#[expect(clippy::disallowed_methods, reason = "speedup timings, never a result")]
fn warm_speedup_on_the_100_task_model() {
    let (inst, old, new) = model(100);
    let cache = SolveCache::new();
    let engine = EngineKind::default();
    let budget = Budget::parse("2s").expect("valid budget");

    // Exact re-query of the identical instance: a lookup, not a solve.
    let t0 = Instant::now();
    let (cold, o1) = cache
        .solve(SolverKind::Milp, engine, &inst, &old, budget)
        .expect("cold solve");
    let t_cold = t0.elapsed().as_secs_f64();
    assert_eq!(o1, CacheOutcome::Cold);
    let t0 = Instant::now();
    let (hit, o2) = cache
        .solve(SolverKind::Milp, engine, &inst, &old, budget)
        .expect("hit");
    let t_hit = t0.elapsed().as_secs_f64();
    assert_eq!(o2, CacheOutcome::Hit);
    assert_eq!(hit.cost, cold.cost);
    assert_eq!(hit.schedule, cold.schedule);
    let hit_speedup = t_cold / t_hit.max(1e-9);
    eprintln!(
        "solver re-query: cold {:.1} ms, hit {:.4} ms, speedup {hit_speedup:.0}x",
        t_cold * 1e3,
        t_hit * 1e3
    );
    assert!(
        hit_speedup > 100.0,
        "exact re-query speedup {hit_speedup:.1}x <= 100x (cold {t_cold:.3}s, hit {t_hit:.6}s)"
    );

    // Incremental trace-tail re-answer vs cold re-evaluation.
    let t0 = Instant::now();
    let (cold_eval, o3) = cache.evaluate(Variant::PressWRLs, engine, &inst, &old);
    let t_cold_eval = t0.elapsed().as_secs_f64();
    assert_eq!(o3, CacheOutcome::Cold);
    let t0 = Instant::now();
    let (warm_eval, o4) = cache.evaluate(Variant::PressWRLs, engine, &inst, &new);
    let t_warm = t0.elapsed().as_secs_f64();
    assert_eq!(o4, CacheOutcome::Warm);
    assert_eq!(warm_eval.schedule, cold_eval.schedule);
    // Bit-identity: the re-answer equals pricing the cached schedule
    // cold under the new profile.
    assert_eq!(
        warm_eval.cost,
        carbon_cost(&inst, &warm_eval.schedule, &new)
    );
    let warm_speedup = t_cold_eval / t_warm.max(1e-9);
    eprintln!(
        "eval re-answer: cold {:.1} ms, warm {:.4} ms, speedup {warm_speedup:.1}x",
        t_cold_eval * 1e3,
        t_warm * 1e3
    );
    assert!(
        warm_speedup > 1.0,
        "incremental re-answer not faster than cold eval ({t_cold_eval:.4}s vs {t_warm:.4}s)"
    );
}
