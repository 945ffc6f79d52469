//! Exact methods for the CaWoSched problem.
//!
//! * [`dp`] — the uniprocessor dynamic programs of §4.1: the
//!   pseudo-polynomial `Opt(i, t)` table and the fully polynomial variant
//!   restricted to the E-schedule end-time set of Appendix A.2,
//! * [`ilp`] — the time-indexed integer linear program of Appendix A.4 as
//!   an explicit model, plus a checker that maps a schedule to an ILP
//!   assignment and verifies every constraint (and that the ILP objective
//!   equals the carbon cost),
//! * [`bnb`] — an exact branch-and-bound solver over task start times
//!   with an admissible partial-cost lower bound; it optimises over
//!   exactly the solution space the ILP encodes and replaces the paper's
//!   Gurobi runs for the optimality comparison (Fig. 7) — see
//!   docs/ARCHITECTURE.md, "Substitutions",
//! * [`eschedule`] — Lemma 4.2's block-shift transformation as
//!   executable code (any uniprocessor schedule → an E-schedule of equal
//!   or lower cost),
//! * [`milp`] — the branch-and-bound MILP solver over the compact A.4
//!   model on [`cawo_lp`]'s sparse revised simplex, which reaches the
//!   paper's 200-task regime,
//! * [`sparse_model`] — the compact windowed A.4 formulation
//!   (EST/LST-restricted start binaries, aggregated precedence, implied
//!   brown power) that [`cawo_lp`]'s revised simplex solves at scale,
//!   the root relaxation `lp` and `milp` both start from, and the
//!   LP-relaxation bound solver over it,
//! * [`reduction`] — the 3-Partition gadget of the strong NP-completeness
//!   proof (§4.2 / Appendix A.3), used as an adversarial test generator.
//!
//! The registered methods are reachable through one enum:
//! [`solver::SolverKind`] (`bnb`, `dp`, `ilp`, `milp`, `lp`) is the
//! runtime registry that CLIs and experiment grids select from, and its
//! `solve(&Instance, &PowerProfile, Budget) → SolveResult` dispatches
//! straight to each method. The pseudo-polynomial DP
//! ([`dp_pseudo_polynomial`]) and the E-schedule transformation
//! ([`to_e_schedule`]) are library functions, not registry entries: the
//! first is the polynomial DP's test oracle, the second Lemma 4.2's
//! executable proof. The solvers' inner loops price candidates through
//! `cawo_core`'s incremental [`CostEngine`] machinery (placement deltas,
//! prefix-sum oracles) — never by re-evaluating whole schedules with
//! `carbon_cost`, which is reserved for tests and debug oracles.
//!
//! The literal A.4 model solved by a dense two-phase tableau and a dense
//! branch-and-bound is not part of the library: like the paper's Gurobi
//! runs it only fits toy instances, so it lives in `tests/support` as
//! the oracle of the differential suites (`lp_parity`, `milp_cross`,
//! `cuts`, `dense_oracle`).
//!
//! [`CostEngine`]: cawo_core::CostEngine

// Solver errors are values, never aborts (docs/LINTS.md).
#![warn(clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod bnb;
pub mod cuts;
pub mod dp;
pub mod eschedule;
pub mod ilp;
pub mod milp;
pub mod reduction;
pub mod solver;
pub mod sparse_model;

pub use bnb::{solve_exact, solve_exact_on, BnbConfig, BnbResult};
pub use cuts::{root_cut_loop, CutStats};
pub use dp::{dp_polynomial, dp_pseudo_polynomial, DpResult};
pub use eschedule::{is_e_schedule, to_e_schedule, to_e_schedule_on};
pub use ilp::{check_schedule_against_ilp, IlpModel};
pub use reduction::three_partition_instance;
pub use solver::{Budget, SolveError, SolveResult, SolveStats, SolveStatus, SolverKind, WarmStart};
pub use sparse_model::SparseA4Model;
