//! Pins of the registry's `lp` entry on the uniprocessor chain the
//! `exact` benchmark queries: `n` chained tasks with cyclic execution
//! times `2, 3, 4, …` on one unit (`P_idle` 1, `P_work` 5), slack `2n`,
//! and six equal profile intervals with budgets `0, 4, 0, 4, 0, 4`.
//!
//! The bound, the simplex iteration count (`nodes`), the cost and the
//! status are deterministic and do not depend on the host, so any
//! change to the model, the crash basis or the pivoting rules that
//! alters a single pivot shows up here.
//!
//! Run by name in CI: `cargo test -p cawo_exact --test lp_pin`.

use cawo_core::enhanced::UnitInfo;
use cawo_core::{Cost, Instance};
use cawo_exact::{Budget, SolveStatus, SolverKind};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};

/// Budgets of the six profile intervals.
const BUDGETS: [u64; 6] = [0, 4, 0, 4, 0, 4];

/// `(tasks, lower bound, LP iterations, cost)` of `SolverKind::Lp`.
const PINNED: [(usize, Cost, u64, Cost); 3] =
    [(20, 190, 46, 214), (25, 246, 53, 264), (50, 490, 144, 559)];

/// The chain of `n` tasks and its six-interval profile.
fn chain(n: usize) -> (Instance, PowerProfile) {
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(i as u32 - 1, i as u32);
    }
    let exec: Vec<Time> = (0..n).map(|i| 2 + (i as Time % 3)).collect();
    let horizon = exec.iter().sum::<Time>() + 2 * n as Time;
    let inst = Instance::from_raw(
        b.build().expect("a chain is acyclic"),
        exec,
        vec![0; n],
        vec![UnitInfo {
            p_idle: 1,
            p_work: 5,
            is_link: false,
        }],
        0,
    );
    let mut bounds = vec![0];
    for k in 1..=BUDGETS.len() as Time {
        bounds.push(horizon * k / BUDGETS.len() as Time);
    }
    (inst, PowerProfile::from_parts(bounds, BUDGETS.to_vec()))
}

#[test]
fn lp_answers_on_the_benchmark_chains_are_pinned() {
    for (n, bound, iterations, cost) in PINNED {
        let (inst, profile) = chain(n);
        let res = SolverKind::Lp
            .solve(&inst, &profile, Budget::default())
            .unwrap_or_else(|e| panic!("chain-{n}: {e}"));
        assert_eq!(
            (res.lower_bound, res.nodes, res.cost, res.status),
            (Some(bound), iterations, cost, SolveStatus::Feasible),
            "chain-{n}: (bound, iterations, cost, status)"
        );
    }
}
