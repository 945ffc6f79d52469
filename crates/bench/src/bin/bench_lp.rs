//! Measures the sparse revised-simplex LP engine on compact Appendix
//! A.4 models and emits a machine-readable `BENCH_lp.json` (written to
//! the current directory, mirrored on stdout).
//!
//! ```text
//! cargo run --release -p cawo_bench --bin bench_lp
//! ```
//!
//! Four sections:
//!
//! * **sparse-only ladder** — the compact windowed model
//!   (`SparseA4Model`) at 25–1000 task chains. Every row records the
//!   iteration count; rows that hit the wall-clock cap report the
//!   Lagrangian dual bound the engine proved by then instead of a stale
//!   primal objective.
//! * **headline** — the paper-grid 200-task instance (Fig. 7 regime):
//!   `--solver lp` and `--solver milp` through the `Solver` registry
//!   under a wall-clock budget, recording status, bound, cost, and the
//!   root-cut statistics. The seed engine (Dantzig primal only, no
//!   cuts) left this row `feasible` at the 60 s budget; the
//!   Devex/dual/cut engine is expected to close it to `optimal`.
//! * **threads ladder** — the headline's compact model (over 2 M
//!   nonzeros plus rows, past the parallel work gate) solved cold on
//!   dedicated `cawo_par` pools of 1/2/4/8 workers, min of 3 interleaved
//!   runs per rung; iterations and objectives are asserted bit-identical across
//!   the ladder (the deterministic-reduction contract). Each row records
//!   `par_gate_cols`, the work-based column threshold from which the
//!   engine splits a pricing block across the pool.
//! * **warm resolve** — the dual-simplex acceptance check: solve the
//!   100-task model cold, clamp one active start column to zero (a
//!   branch step), then re-solve warm from the incumbent basis versus
//!   cold from scratch. `warm_resolve_iter_ratio` is warm iterations
//!   over cold iterations; the dual repair is expected to need ≤ 10%.
//!
//! Engine parity against the dense tableau is asserted by the
//! `lp_parity` test suite, not here.

use std::time::{Duration, Instant};

use cawo_bench::fixtures::lp_chain_fixture;
use cawo_core::Instance;
use cawo_exact::{Budget, SolverKind, SparseA4Model};
use cawo_graph::generator::{instantiate, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_lp::{LpStatus, SimplexOptions, SimplexSolver};
use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario, Time};

struct Row {
    section: &'static str,
    tasks: usize,
    engine: &'static str,
    cols: usize,
    rows: usize,
    seconds: f64,
    objective: f64,
    status: String,
    /// Pool size the row was measured on (1 = sequential; only the
    /// threads ladder varies this).
    threads: usize,
    /// Simplex iterations (for solver rows: LP iterations across the
    /// whole run, cuts and branching included).
    iters: u64,
    /// Root cuts appended (solver rows only).
    cuts: u32,
    /// Best proven lower bound when the row did not reach Optimal.
    dual_bound: Option<f64>,
    /// Work-based parallel-pricing gate (columns) the engine derived.
    par_gate_cols: usize,
}

impl Row {
    fn new(section: &'static str, tasks: usize, engine: &'static str) -> Self {
        Row {
            section,
            tasks,
            engine,
            cols: 0,
            rows: 0,
            seconds: 0.0,
            objective: f64::NAN,
            status: String::new(),
            threads: 1,
            iters: 0,
            cuts: 0,
            dual_bound: None,
            par_gate_cols: 0,
        }
    }
}

/// Pool sizes of the threads ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut rows: Vec<Row> = Vec::new();

    // --- Sparse-only ladder: the compact model at growing sizes.
    // Cold starts (no incumbent crash basis here) pay the composite
    // phase 1 in full, so each solve carries a wall-clock cap; capped
    // rows surface the proven Lagrangian dual bound, not a stale
    // primal objective.
    for &n in &[25usize, 50, 100, 200, 500, 1000] {
        let (inst, profile) = lp_chain_fixture(n, 2 * n as Time, 6, &[0, 4]);
        let model = SparseA4Model::build(&inst, &profile);
        // The 500/1000-task rungs exist to prove a useful dual bound in
        // single-digit seconds, not to grind to optimality.
        let cap = if n >= 500 { 6 } else { 30 };
        let opts = SimplexOptions {
            time_limit: Some(Duration::from_secs(cap)),
            ..SimplexOptions::default()
        };
        let t0 = Instant::now();
        let sol = cawo_lp::solve(&model.lp, &opts);
        let secs = t0.elapsed().as_secs_f64();
        let optimal = sol.status == LpStatus::Optimal;
        rows.push(Row {
            cols: model.lp.num_cols(),
            rows: model.lp.num_rows(),
            seconds: secs,
            objective: if optimal { sol.objective } else { f64::NAN },
            status: format!("{:?}", sol.status).to_lowercase(),
            iters: sol.iterations,
            dual_bound: if optimal { None } else { sol.dual_bound },
            ..Row::new("sparse_only", n, "sparse")
        });
    }

    // --- Headline: the 200-task Fig. 7 instance through the registry. ---
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
    let budget = Budget::parse("60s").expect("static budget string parses");
    for kind in [SolverKind::Lp, SolverKind::Milp] {
        let solver = kind.build();
        let t0 = Instant::now();
        let res = solver.solve(&inst, &profile, budget);
        let secs = t0.elapsed().as_secs_f64();
        let (status, cost, lb, stats) = match &res {
            Ok(r) => (
                r.status.name().to_string(),
                r.cost as f64,
                r.lower_bound.map(|b| b as f64),
                r.stats,
            ),
            Err(e) => (format!("{e}"), f64::NAN, None, Default::default()),
        };
        eprintln!(
            "headline {kind}: {status} cost {cost} lb {lb:?} in {secs:.1}s \
             ({} lp iters, {} dual, {} cuts)",
            stats.lp_iterations, stats.dual_iterations, stats.cuts,
        );
        rows.push(Row {
            cols: model.lp.num_cols(),
            rows: model.lp.num_rows(),
            seconds: secs,
            objective: cost,
            status,
            iters: stats.lp_iterations,
            cuts: stats.cuts,
            dual_bound: lb,
            ..Row::new("headline", 200, kind.name())
        });
    }

    // --- Threads ladder: parallel pricing on the headline model. ---
    {
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
        let mut best = [f64::INFINITY; THREAD_LADDER.len()];
        let mut sols = Vec::new();
        // Interleaved rounds, so every rung sees the same host drift.
        for _ in 0..3 {
            sols.clear();
            for (k, pool) in pools.iter().enumerate() {
                let t0 = Instant::now();
                sols.push(pool.install(|| cawo_lp::solve(&model.lp, &opts)));
                best[k] = best[k].min(t0.elapsed().as_secs_f64());
            }
        }
        for (k, sol) in sols.iter().enumerate() {
            assert_eq!(
                (sol.iterations, sol.objective.to_bits()),
                (sols[0].iterations, sols[0].objective.to_bits()),
                "parallel pricing changed the solve at {} threads",
                THREAD_LADDER[k]
            );
            rows.push(Row {
                cols: model.lp.num_cols(),
                rows: model.lp.num_rows(),
                seconds: best[k],
                objective: sol.objective,
                status: format!("{:?}", sol.status).to_lowercase(),
                threads: THREAD_LADDER[k],
                iters: sol.iterations,
                par_gate_cols: sol.stats.par_gate_cols,
                ..Row::new("threads", 200, "sparse")
            });
        }
    }

    // --- Warm resolve: dual repair after a branch-style bound clamp. ---
    let warm_ratio = {
        let n = 100usize;
        let (inst, profile) = lp_chain_fixture(n, 2 * n as Time, 6, &[0, 4]);
        let model = SparseA4Model::build(&inst, &profile);
        let opts = SimplexOptions::default();
        let mut solver = SimplexSolver::new(&model.lp);
        let first = solver.solve(&opts);
        assert_eq!(first.status, LpStatus::Optimal, "warm_resolve cold solve");
        // Branch the way the MILP does: clamp the most active *start*
        // column of the last task with a non-degenerate window to
        // zero, making the incumbent basis primal-infeasible while the
        // task can still start elsewhere. A *sink* task keeps the
        // perturbation local — the node-level reality of a B&B window
        // split — whereas clamping the chain's first task forces every
        // successor to move and measures a full re-solve, and clamping
        // an arbitrary argmax column (e.g. a brown-usage variable)
        // would make the LP infeasible and measure phase 1.
        let mut j = usize::MAX;
        let mut best_mass = f64::NEG_INFINITY;
        for v in (0..model.node_count()).rev() {
            let v = v as cawo_graph::NodeId;
            let (est, lst) = model.window(v);
            if lst <= est {
                continue;
            }
            for t in est..=lst {
                let c = model.s_col(v, t) as usize;
                if first.x[c] > best_mass {
                    best_mass = first.x[c];
                    j = c;
                }
            }
            if j != usize::MAX {
                break;
            }
        }
        assert!(j < model.lp.num_cols(), "no branchable start column");
        let mut branched = model.lp.clone();
        branched.set_bounds(j, 0.0, 0.0);

        let t0 = Instant::now();
        solver.set_col_bounds(j, 0.0, 0.0);
        let warm = solver.solve(&opts);
        let warm_secs = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let cold = cawo_lp::solve(&branched, &opts);
        let cold_secs = t0.elapsed().as_secs_f64();
        assert_eq!(warm.status, cold.status, "warm/cold verdicts diverge");
        if warm.status == LpStatus::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
                "warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
        for (engine, sol, secs) in [("warm", &warm, warm_secs), ("cold", &cold, cold_secs)] {
            rows.push(Row {
                cols: model.lp.num_cols(),
                rows: model.lp.num_rows(),
                seconds: secs,
                objective: sol.objective,
                status: format!("{:?}", sol.status).to_lowercase(),
                iters: sol.iterations,
                ..Row::new("warm_resolve", n, engine)
            });
        }
        warm.iterations as f64 / (cold.iterations as f64).max(1.0)
    };

    // --- Emit JSON. ---
    let mut json = format!(
        "{{\n  \"bench\": \"lp_engines\",\n  \"host\": {},\n  \"results\": [\n",
        cawo_obs::host_meta_json()
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"section\": \"{}\", \"tasks\": {}, \"engine\": \"{}\", \"cols\": {}, \
             \"rows\": {}, \"seconds\": {:.3e}, \"objective\": {}, \"status\": \"{}\", \
             \"threads\": {}, \"iters\": {}, \"cuts\": {}, \
             \"dual_bound\": {}, \"par_gate_cols\": {}}}{}\n",
            r.section,
            r.tasks,
            r.engine,
            r.cols,
            r.rows,
            r.seconds,
            if r.objective.is_nan() {
                "null".to_string()
            } else {
                format!("{:.6}", r.objective)
            },
            r.status,
            r.threads,
            r.iters,
            r.cuts,
            r.dual_bound
                .map(|b| format!("{b:.6}"))
                .unwrap_or_else(|| "null".into()),
            r.par_gate_cols,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let ladder_secs = |threads: usize| -> f64 {
        rows.iter()
            .find(|r| r.section == "threads" && r.threads == threads)
            .expect("measured")
            .seconds
    };
    json.push_str(&format!(
        "  \"pricing_threads_speedup\": {{{}}},\n",
        THREAD_LADDER
            .iter()
            .map(|&t| format!("\"{t}\": {:.2}", ladder_secs(1) / ladder_secs(t).max(1e-12)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    json.push_str(&format!(
        "  \"warm_resolve_iter_ratio\": {warm_ratio:.4},\n"
    ));
    json.push_str(
        "  \"note\": \"sparse_only = the compact windowed SparseA4Model on 25-1000-task \
         chains (capped rows report the proven dual bound); headline = the paper-grid \
         200-task atacseq instance (small cluster, S1, x1.5) through --solver lp / \
         --solver milp under a 60s budget, with root-cut and iteration statistics (the \
         seed engine reported milp feasible here; the Devex/dual/cut engine closes it); \
         threads = the headline's compact model solved cold with parallel pricing on \
         1/2/4/8-worker pools, min of 3 interleaved runs, iterations and objectives \
         bit-identical across the ladder, par_gate_cols = the work-derived parallel gate \
         (pricing_threads_speedup saturates at the host's core count; larger pools \
         oversubscribe it); warm_resolve = dual-simplex repair after a branch-style bound \
         clamp on the 100-task model, warm_resolve_iter_ratio = warm over cold iterations \
         (acceptance: <= 0.10)\"\n}\n",
    );
    std::fs::write("BENCH_lp.json", &json).expect("write BENCH_lp.json");
    print!("{json}");
}
