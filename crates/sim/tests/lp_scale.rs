//! The Fig. 7 regime acceptance check: `--solver milp` and
//! `--solver lp` must conclude (`optimal` or `feasible`, never a crash
//! or an `unsupported` decline) on a 200-task S-series grid instance
//! within a wall-clock `Budget`.
//!
//! The full-size run is `#[ignore]`d in the default (debug) test pass —
//! a 90k-column LP in an unoptimised build wastes CI minutes — and run
//! in release mode by the CI smoke job:
//!
//! ```text
//! cargo test --release -p cawo_sim --test lp_scale -- --ignored
//! ```
//!
//! A scaled-down version of the same path runs everywhere.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use cawo_core::Variant;
use cawo_exact::{Budget, SolverKind};
use cawo_graph::generator::{self, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_platform::{DeadlineFactor, Scenario};
use cawo_sim::experiment::{run_one, ClusterKind, ExperimentConfig, GridScale, InstanceSpec};

fn run_spec(scaled_to: Option<usize>, budget: Budget, require_milp_optimal: bool) {
    let cfg = ExperimentConfig {
        variants: vec![Variant::Asap, Variant::PressWRLs],
        solvers: vec![SolverKind::Lp, SolverKind::Milp],
        solver_budget: budget,
        serial_timing: true,
        ..ExperimentConfig::new(GridScale::Quick, 42)
    };
    let spec = InstanceSpec {
        family: Family::Atacseq,
        scaled_to,
        cluster: ClusterKind::Small,
        scenario: Scenario::SolarMorning.into(),
        deadline: DeadlineFactor::X15,
    };
    let wf = generator::instantiate(
        &PaperInstance {
            family: spec.family,
            scaled_to: spec.scaled_to,
        },
        cfg.seed,
    );
    let cluster = spec.cluster.build(cfg.seed);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = cawo_core::Instance::build(&wf, &cluster, &mapping);
    let res = run_one(&cfg, &spec, &inst, &cluster).unwrap();

    assert_eq!(res.solver_rows.len(), 2);
    let heuristic_best = *res.cost.iter().min().unwrap();
    for row in &res.solver_rows {
        let status = row.status.name();
        assert!(
            status == "optimal" || status == "feasible",
            "{} concluded `{status}` on {} tasks — the sparse engine must \
             solve the Fig. 7 regime within the budget",
            row.kind,
            res.n_tasks,
        );
        let cost = row.cost.expect("concluded solvers return a schedule");
        assert!(
            cost <= heuristic_best,
            "{} worse than its own incumbent",
            row.kind
        );
        if let Some(lb) = row.lower_bound {
            assert!(lb <= cost, "{}: bound {lb} above cost {cost}", row.kind);
        }
        if status == "optimal" {
            assert_eq!(row.lower_bound, Some(cost));
        }
        if require_milp_optimal && row.kind == SolverKind::Milp {
            assert_eq!(
                status, "optimal",
                "milp must close the Fig. 7 regime (LP-guided rounding + \
                 root cuts + dual repair), not just report an incumbent"
            );
        }
    }
}

/// Debug-friendly miniature of the same end-to-end path.
#[test]
fn sparse_solvers_conclude_on_a_scaled_down_grid_instance() {
    run_spec(Some(40), Budget::parse("60s").unwrap(), false);
}

/// The paper's Fig. 7 regime: 200-task replica, small cluster, S1,
/// deadline ×1.5 — run in release mode by CI's smoke job.
#[test]
#[ignore = "release-scale: cargo test --release -p cawo_sim --test lp_scale -- --ignored"]
fn sparse_solvers_conclude_on_the_200_task_regime() {
    run_spec(Some(200), Budget::parse("45s").unwrap(), true);
}
