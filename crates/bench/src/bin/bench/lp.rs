//! `lp` — the sparse revised-simplex LP engine on compact Appendix A.4
//! models. Four row groups:
//!
//! * **sparse_only** — the compact windowed model (`SparseA4Model`) at
//!   25–1000 task chains, one cold solve each under a wall-clock cap;
//!   capped rows report the Lagrangian dual bound proven by then
//!   instead of a stale primal objective.
//! * **headline** — the paper-grid 200-task instance (Fig. 7 regime):
//!   `--solver lp` and `--solver milp` through the `SolverKind` registry
//!   under a 60 s budget, with status, bound, cost and root-cut counts.
//! * **threads** — the headline's compact model (over 2 M nonzeros plus
//!   rows, past the parallel work gate) solved cold on dedicated
//!   `cawo_par` pools of 1/2/4/8 workers; iterations and objectives are
//!   asserted bit-identical across the ladder (the deterministic
//!   reduction contract). `par_gate_cols` is the work-based column
//!   threshold from which the engine splits a pricing block.
//! * **warm_resolve** — solve the 100-task chain cold, clamp one active
//!   start column to zero (a branch step), then re-solve warm from the
//!   incumbent basis versus cold from scratch.
//!
//! Agreement with the dense tableau is asserted by the `lp_parity`
//! test suite, not here.

use std::time::Duration;

use cawo_bench::fixtures::lp_chain_fixture;
use cawo_bench::obj;
use cawo_bench::report::{min_interleaved, once, Artifact, Probe, Val};
use cawo_core::Instance;
use cawo_exact::{Budget, SolverKind, SparseA4Model};
use cawo_graph::generator::{instantiate, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_lp::{LpSolution, LpStatus, SimplexOptions, SimplexSolver};
use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario, Time};

/// Pool sizes of the threads ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

const ROUNDS: usize = 3;

/// One row of a raw LP solve (no cuts, no branching).
fn lp_row(
    section: &str,
    tasks: usize,
    engine: &str,
    model: &SparseA4Model,
    secs: f64,
    sol: &LpSolution,
) -> Val {
    let optimal = sol.status == LpStatus::Optimal;
    obj! {
        "section" => section,
        "tasks" => tasks,
        "engine" => engine,
        "cols" => model.lp.num_cols(),
        "rows" => model.lp.num_rows(),
        "seconds" => secs,
        "status" => format!("{:?}", sol.status).to_lowercase(),
        "objective" => optimal.then_some(sol.objective),
        "dual_bound" => if optimal { None } else { sol.dual_bound },
        "iters" => sol.iterations,
    }
}

pub fn run() {
    let mut results = Vec::new();

    // Sparse-only ladder. Cold starts (no incumbent crash basis here)
    // pay the composite phase 1 in full, so each solve carries a
    // wall-clock cap; the 500/1000-task rungs exist to prove a useful
    // dual bound in single-digit seconds, not to grind to optimality.
    for n in [25usize, 50, 100, 200, 500, 1000] {
        let (inst, profile) = lp_chain_fixture(n, 2 * n as Time, 6, &[0, 4]);
        let model = SparseA4Model::build(&inst, &profile);
        let opts = SimplexOptions {
            time_limit: Some(Duration::from_secs(if n >= 500 { 6 } else { 30 })),
            ..SimplexOptions::default()
        };
        let (sol, secs) = once(|| cawo_lp::solve(&model.lp, &opts));
        results.push(lp_row("sparse_only", n, "sparse", &model, secs, &sol));
    }

    // Headline: the 200-task Fig. 7 instance through the registry.
    let wf = instantiate(
        &PaperInstance {
            family: Family::Atacseq,
            scaled_to: Some(200),
        },
        42,
    );
    let cluster = Cluster::paper_small(42);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 42)
        .build(&cluster, inst.asap_makespan());
    let model = SparseA4Model::build(&inst, &profile);
    let budget = Budget::time(Duration::from_secs(60));
    for kind in [SolverKind::Lp, SolverKind::Milp] {
        let (res, secs) = once(|| kind.solve(&inst, &profile, budget));
        let (status, cost, lb, stats) = match &res {
            Ok(r) => (
                r.status.name().to_string(),
                Some(r.cost),
                r.lower_bound,
                r.stats,
            ),
            Err(e) => (e.to_string(), None, None, Default::default()),
        };
        results.push(obj! {
            "section" => "headline",
            "tasks" => 200usize,
            "engine" => kind.name(),
            "cols" => model.lp.num_cols(),
            "rows" => model.lp.num_rows(),
            "seconds" => secs,
            "status" => status,
            "objective" => cost,
            "dual_bound" => lb,
            "iters" => stats.lp_iterations,
            "dual_iters" => stats.dual_iterations,
            "cuts" => stats.cuts,
        });
    }

    // Threads ladder: parallel pricing on the headline model.
    let opts = SimplexOptions::default();
    let pools: Vec<_> = THREAD_LADDER
        .iter()
        .map(|&threads| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool construction cannot fail")
        })
        .collect();
    let mut sols: Vec<Option<LpSolution>> = vec![None; pools.len()];
    let mut probes: Vec<Probe> = pools
        .iter()
        .zip(sols.iter_mut())
        .map(|(pool, slot)| -> Probe {
            let (model, opts) = (&model, &opts);
            Box::new(move || {
                let sol = pool.install(|| cawo_lp::solve(&model.lp, opts));
                let sum = sol.iterations ^ sol.objective.to_bits();
                *slot = Some(sol);
                sum
            })
        })
        .collect();
    let secs = min_interleaved(ROUNDS, &mut probes);
    drop(probes);
    let sols: Vec<LpSolution> = sols.into_iter().flatten().collect();
    for (k, sol) in sols.iter().enumerate() {
        assert_eq!(
            (sol.iterations, sol.objective.to_bits()),
            (sols[0].iterations, sols[0].objective.to_bits()),
            "parallel pricing changed the solve at {} threads",
            THREAD_LADDER[k]
        );
        results.push(
            lp_row("threads", 200, "sparse", &model, secs[k], sol)
                .with("threads", THREAD_LADDER[k])
                .with("par_gate_cols", sol.stats.par_gate_cols),
        );
    }
    let threads_speedup = THREAD_LADDER
        .iter()
        .zip(&secs)
        .map(|(t, s)| (t.to_string(), Val::Num(secs[0] / s.max(1e-12))))
        .collect();

    // Warm resolve: dual repair after a branch-style bound clamp.
    let n = 100usize;
    let (inst, profile) = lp_chain_fixture(n, 2 * n as Time, 6, &[0, 4]);
    let model = SparseA4Model::build(&inst, &profile);
    let mut solver = SimplexSolver::new(&model.lp);
    let first = solver.solve(&opts);
    assert_eq!(first.status, LpStatus::Optimal, "warm_resolve cold solve");
    // Branch the way the MILP does: clamp the most active *start*
    // column of the last task with a non-degenerate window to zero,
    // making the incumbent basis primal-infeasible while the task can
    // still start elsewhere. A *sink* task keeps the perturbation local
    // — the node-level reality of a B&B window split — whereas clamping
    // the chain's first task forces every successor to move and
    // measures a full re-solve, and clamping an arbitrary argmax column
    // (e.g. a brown-usage variable) would make the LP infeasible and
    // measure phase 1.
    let j = (0..model.node_count() as cawo_graph::NodeId)
        .rev()
        .find_map(|v| {
            let (est, lst) = model.window(v);
            // `rev` + `max_by` keeps the earliest start among equal masses.
            (lst > est)
                .then(|| {
                    (est..=lst)
                        .rev()
                        .map(|t| model.s_col(v, t) as usize)
                        .max_by(|&a, &b| first.x[a].total_cmp(&first.x[b]))
                })
                .flatten()
        })
        .expect("a branchable start column");
    let mut branched = model.lp.clone();
    branched.set_bounds(j, 0.0, 0.0);
    let (warm, warm_secs) = once(|| {
        solver.set_col_bounds(j, 0.0, 0.0);
        solver.solve(&opts)
    });
    let (cold, cold_secs) = once(|| cawo_lp::solve(&branched, &opts));
    assert_eq!(warm.status, cold.status, "warm/cold verdicts diverge");
    if warm.status == LpStatus::Optimal {
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }
    results.push(lp_row("warm_resolve", n, "warm", &model, warm_secs, &warm));
    results.push(lp_row("warm_resolve", n, "cold", &model, cold_secs, &cold));
    let warm_ratio = warm.iterations as f64 / (cold.iterations as f64).max(1.0);

    crate::emit(&Artifact {
        bench: "lp",
        timing: format!(
            "threads rows: min of {ROUNDS} interleaved rounds over the pool sizes (after one \
             warm-up); every other row: one run"
        ),
        params: obj! {
            "headline_budget" => "60s",
            "sparse_only_caps_s" => "30 (6 from 500 tasks)",
        },
        results,
        summary: obj! {
            "pricing_threads_speedup" => Val::Obj(threads_speedup),
            "warm_resolve_iter_ratio" => warm_ratio,
        },
        note: "sparse_only = the compact windowed SparseA4Model on 25-1000-task chains \
               (capped rows report the proven dual bound); headline = the paper-grid 200-task \
               atacseq instance (small cluster, S1, x1.5) through --solver lp / --solver milp, \
               objective = cost and dual_bound = the proven lower bound; threads = the \
               headline's compact model solved cold with parallel pricing on 1/2/4/8-worker \
               pools, iterations and objectives bit-identical across the ladder \
               (pricing_threads_speedup saturates at the host's core count; larger pools \
               oversubscribe it); warm_resolve = dual-simplex repair after a branch-style \
               bound clamp on the 100-task chain, warm_resolve_iter_ratio = warm over cold \
               iterations (acceptance: <= 0.10)",
    });
}
