//! Test support: the dense oracles behind the differential suites.
//!
//! The literal Appendix A.4 model, solved by a dense full-tableau
//! simplex ([`simplex`]) and a dense branch-and-bound over it
//! ([`milp`]). Like the paper's Gurobi runs they only fit toy
//! instances, which is all an oracle needs; the production `lp`/`milp`
//! solvers run the compact model on `cawo_lp`. Each suite pulls this
//! module in with `mod support;` and uses only part of it.

// Not an expect: it would go unfulfilled in a suite that uses all of it.
#![allow(dead_code, reason = "each suite mounting this uses a different part")]

pub mod milp;
pub mod simplex;

use cawo_core::{Cost, Instance};
use cawo_exact::{check_schedule_against_ilp, IlpModel};
use cawo_lp::{RowCmp, SparseLp};
use cawo_platform::PowerProfile;

use milp::{lp_relaxation, solve_milp, MilpConfig, MilpOutcome};
use simplex::{solve_lp, LpCmp, LpOutcome, LpProblem};

/// Translates a dense [`LpProblem`] (implicit `x ≥ 0`) into a
/// [`SparseLp`], so both engines solve the identical model.
pub fn sparse_from_lp_problem(p: &LpProblem) -> SparseLp {
    let mut lp = SparseLp::new();
    for j in 0..p.num_vars {
        lp.add_col(p.objective[j], 0.0, f64::INFINITY);
    }
    for (terms, cmp, rhs) in &p.rows {
        let terms: Vec<(u32, f64)> = terms.iter().map(|&(j, a)| (j as u32, a)).collect();
        let cmp = match cmp {
            LpCmp::Le => RowCmp::Le,
            LpCmp::Eq => RowCmp::Eq,
            LpCmp::Ge => RowCmp::Ge,
        };
        lp.add_row(terms, cmp, *rhs);
    }
    lp
}

/// The optimal carbon cost of a tiny deadline-feasible instance, by the
/// dense branch-and-bound over the literal A.4 model. The optimal
/// assignment is decoded into a schedule and certified by the A.4
/// checker, whose cost must equal the MILP objective.
pub fn dense_milp_cost(inst: &Instance, profile: &PowerProfile) -> Cost {
    let model = IlpModel::build(inst, profile);
    let (lp, ints) = lp_relaxation(&model);
    let (objective, solution) = match solve_milp(&lp, &ints, MilpConfig::default()) {
        MilpOutcome::Optimal {
            objective,
            solution,
        } => (objective, solution),
        other => panic!("dense MILP did not prove optimality: {other:?}"),
    };
    let schedule = model
        .extract_schedule(&solution)
        .expect("optimal MILP point encodes a complete schedule");
    let cost = check_schedule_against_ilp(inst, profile, &schedule)
        .expect("optimal MILP schedule passes the A.4 checker");
    assert_eq!(
        cost,
        objective.round() as Cost,
        "certified cost differs from the MILP objective"
    );
    cost
}

/// The dense LP-relaxation lower bound of the literal A.4 model,
/// rounded up to the integral cost it bounds.
pub fn dense_lp_bound(inst: &Instance, profile: &PowerProfile) -> Cost {
    let (lp, _) = lp_relaxation(&IlpModel::build(inst, profile));
    match solve_lp(&lp) {
        LpOutcome::Optimal { objective, .. } => (objective - 1e-6).ceil().max(0.0) as Cost,
        other => panic!("dense A.4 relaxation did not solve: {other:?}"),
    }
}
