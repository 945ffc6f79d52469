//! `warm` — the solve cache, one query at a time (no concurrent
//! queries inside a timed region).
//!
//! * **solve** — one milp query on the 100-task paper instance served
//!   cold, then re-queried exactly (a cache hit: the acceptance bar is
//!   ≥ 100× faster than cold), then re-solved after the second half of
//!   the profile's green budgets drops to 3/4: warm (seeded with the
//!   first answer's schedule and root basis, as the cache seeds it)
//!   next to cold. No solve carries a budget, so warm and cold are
//!   timed to the same answer, which the section asserts. (The trace
//!   model below does not close without a budget: its milp stays
//!   `feasible` after 60 s even at 20 tasks.)
//! * **eval** — one heuristic evaluation on the 100-task trace model
//!   served cold, re-queried exactly (hit), then re-answered
//!   incrementally after a trace tail shift, next to cold
//!   re-evaluation; the incremental cost must be bit-identical to cold
//!   re-pricing of the cached schedule.

use cawo_bench::obj;
use cawo_bench::report::{batch, min_interleaved, min_of, once, Artifact, Val};
use cawo_cache::{CacheOutcome, SolveCache};
use cawo_core::{carbon_cost, EngineKind, Instance, Variant};
use cawo_exact::{Budget, SolveResult, SolverKind, WarmStart};
use cawo_graph::generator::{generate, instantiate, Family, GeneratorConfig, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_platform::{
    Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario, TraceConfig, TraceSource,
};

/// A measured trace and a forecast revision that diverges only after
/// t = 1200 — the rolling-forecast shape the re-answer path serves.
const TRACE_OLD: &str = "time,intensity\n0,420\n600,95\n1200,250\n1800,340\n2400,280\n";
const TRACE_NEW: &str = "time,intensity\n0,420\n600,95\n1200,250\n1800,120\n2400,450\n";

const TASKS: usize = 100;

/// Timed rounds of every repeated probe.
const ROUNDS: usize = 5;
/// Calls per round for the sub-millisecond hit path.
const HIT_ITERS: u32 = 200;

fn row(section: &str, phase: &str, outcome: &str, secs: f64, cost: u64) -> Val {
    obj! {
        "section" => section,
        "phase" => phase,
        "outcome" => outcome,
        "seconds" => secs,
        "cost" => cost,
    }
}

/// Checksum of a solve for [`min_interleaved`].
fn sum(res: &SolveResult) -> u64 {
    res.cost ^ (res.status as u64) << 60
}

pub fn run() {
    let kind = SolverKind::Milp;
    let engine = EngineKind::default();
    let budget = Budget::default();
    let cache = SolveCache::new();
    let mut results = Vec::new();

    // solve: the 100-task paper instance (small cluster, S1, x1.5).
    let wf = instantiate(
        &PaperInstance {
            family: Family::Atacseq,
            scaled_to: Some(TASKS),
        },
        42,
    );
    let cluster = Cluster::paper_small(42);
    let inst = Instance::build(&wf, &cluster, &heft_schedule(&wf, &cluster));
    let old = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 42)
        .build(&cluster, inst.asap_makespan());
    let j = old.interval_count();
    let new = PowerProfile::from_parts(
        old.boundaries().to_vec(),
        (0..j)
            .map(|k| {
                if k < j / 2 {
                    old.budget(k)
                } else {
                    old.budget(k) * 3 / 4
                }
            })
            .collect(),
    );

    let ((first, o), t_cold) = once(|| {
        cache
            .solve(kind, engine, &inst, &old, budget)
            .expect("cold")
    });
    assert_eq!(o, CacheOutcome::Cold);
    results.push(row("solve", "first", "cold", t_cold, first.cost));
    let t_hit = min_of(
        ROUNDS,
        batch(HIT_ITERS, || {
            let (res, o) = cache.solve(kind, engine, &inst, &old, budget).expect("hit");
            assert_eq!(o, CacheOutcome::Hit);
            res.cost
        }),
    ) / f64::from(HIT_ITERS);
    results.push(row("solve", "re-query", "hit", t_hit, first.cost));

    let seed = WarmStart {
        incumbent: Some(first.schedule.clone()),
        basis: first.basis.clone(),
    };
    let (mut warm, mut cold) = (None, None);
    let secs = min_interleaved(
        ROUNDS,
        &mut [
            Box::new(|| {
                let res = kind
                    .solve_with(engine, &inst, &new, budget, &seed)
                    .expect("warm");
                sum(warm.insert(res))
            }),
            Box::new(|| {
                let res = kind
                    .solve_with(engine, &inst, &new, budget, &WarmStart::default())
                    .expect("cold");
                sum(cold.insert(res))
            }),
        ],
    );
    let (warm, cold) = (warm.expect("timed"), cold.expect("timed"));
    assert_eq!(
        (warm.status, warm.cost),
        (cold.status, cold.cost),
        "warm and cold re-solves must reach the same status and cost"
    );
    results.push(
        row("solve", "tail-shift", "warm", secs[0], warm.cost).with("status", warm.status.name()),
    );
    results.push(
        row("solve", "tail-shift", "cold", secs[1], cold.cost).with("status", cold.status.name()),
    );
    // The cache takes the same warm path.
    let (cached, o) = cache
        .solve(kind, engine, &inst, &new, budget)
        .expect("warm");
    assert_eq!((o, cached.cost), (CacheOutcome::Warm, warm.cost));

    // eval: the 100-task trace model (tiny cluster, trace profile x1.5).
    let wf = generate(&GeneratorConfig::new(Family::Atacseq, TASKS, 42));
    let cluster = Cluster::tiny(&[0, 3, 5], 42);
    let inst = Instance::build(&wf, &cluster, &heft_schedule(&wf, &cluster));
    let asap = inst.asap_makespan();
    let build = |csv: &str| -> PowerProfile {
        TraceConfig::new(TraceSource::Csv(csv.to_string()), DeadlineFactor::X15)
            .build(&cluster, asap)
            .expect("inline trace loads")
    };
    let (old, new) = (build(TRACE_OLD), build(TRACE_NEW));

    // eval: cold, hit, incremental re-answer vs cold re-evaluation.
    let v = Variant::PressWRLs;
    let ((eval_cold, o), t_eval_cold) = once(|| cache.evaluate(v, engine, &inst, &old));
    assert_eq!(o, CacheOutcome::Cold);
    results.push(row("eval", "first", "cold", t_eval_cold, eval_cold.cost));
    let t_eval_hit = min_of(
        ROUNDS,
        batch(HIT_ITERS, || {
            let (ans, o) = cache.evaluate(v, engine, &inst, &old);
            assert_eq!(o, CacheOutcome::Hit);
            ans.cost
        }),
    ) / f64::from(HIT_ITERS);
    results.push(row("eval", "re-query", "hit", t_eval_hit, eval_cold.cost));

    let ((reanswer, o), t_reanswer) = once(|| cache.evaluate(v, engine, &inst, &new));
    assert_eq!(o, CacheOutcome::Warm);
    assert_eq!(reanswer.schedule, eval_cold.schedule);
    assert_eq!(
        reanswer.cost,
        carbon_cost(&inst, &reanswer.schedule, &new),
        "incremental re-answer diverged from cold re-pricing"
    );
    results.push(row("eval", "tail-shift", "warm", t_reanswer, reanswer.cost));
    let (cost2, t_eval_cold2) = once(|| carbon_cost(&inst, &v.run(&inst, &new), &new));
    results.push(row("eval", "tail-shift", "cold", t_eval_cold2, cost2));

    let hit_speedup = t_cold / t_hit.max(1e-12);
    let warm_solve_speedup = secs[1] / secs[0].max(1e-12);
    let warm_eval_speedup = t_eval_cold2 / t_reanswer.max(1e-12);
    crate::emit(&Artifact {
        bench: "warm",
        timing: format!(
            "hit rows: per-call seconds, min of {ROUNDS} rounds (after one warm-up) of \
             {HIT_ITERS} calls; tail-shift solve rows: min of {ROUNDS} interleaved warm/cold \
             rounds (after one warm-up); every other row: one run"
        ),
        params: obj! {
            "tasks" => TASKS,
            "solver" => kind.name(),
            "budget" => "none",
            "tail_shift" => "second half of the green budgets x 3/4",
            "variant" => v.name(),
        },
        results,
        summary: obj! {
            "hit_speedup" => hit_speedup,
            "warm_solve_speedup" => warm_solve_speedup,
            "warm_solve_status" => warm.status.name(),
            "warm_eval_speedup" => warm_eval_speedup,
            "reanswer_identical" => true,
        },
        note: "solve = milp with no budget on the 100-task atacseq paper instance (small \
               cluster, S1, x1.5), served cold / exact re-query (hit) / re-solved after the \
               second half of the green budgets drops to 3/4, warm (from the first answer's \
               schedule + root basis) vs cold; warm and cold must reach the same status and \
               cost, so warm_solve_speedup compares times to the same answer. eval = \
               pressWR-LS on the 100-task atacseq trace model (tiny cluster, trace profile \
               x1.5) cold / hit / incremental trace-tail re-answer vs cold re-evaluation \
               (reanswer_identical: the incremental cost bit-matches cold re-pricing of the \
               cached schedule). acceptance: hit_speedup >= 100, warm_eval_speedup > 1",
    });
    assert!(
        hit_speedup >= 100.0,
        "acceptance: exact re-query speedup {hit_speedup:.1}x < 100x"
    );
    assert!(
        warm_eval_speedup > 1.0,
        "acceptance: incremental re-answer not faster than cold eval"
    );
}
