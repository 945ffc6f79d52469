//! `cawo_lp` — a sparse bounded-variable revised-simplex LP engine.
//!
//! The exact baselines of the CaWoSched reproduction (the Appendix A.4
//! ILP, its LP relaxation) were limited to ~2k-variable models by a
//! dense full-tableau simplex. This crate is the subsystem that lifts
//! them to the paper's 200-task Fig. 7 regime:
//!
//! * [`csc`] — compressed sparse column matrices ([`CscMatrix`]),
//! * [`model`] — the [`SparseLp`] problem form: `min cᵀx` over sparse
//!   rows with *native variable bounds* (free, fixed, boxed — a binary
//!   costs no constraint row),
//! * [`lu`] — Markowitz-style sparse LU factorisation of the basis with
//!   product-form eta updates and periodic refactorisation,
//! * [`simplex`] — the bounded-variable revised simplex itself:
//!   composite (artificial-free) phase 1, Devex partial pricing in
//!   phase 2, a dual-simplex repair loop for warm starts, bound flips,
//!   Bland anti-cycling, and **warm starts** from a saved [`Basis`] so
//!   branch-and-bound nodes re-solve in a handful of pivots
//!   ([`SimplexSolver`]).
//!
//! The crate depends only on the thread pool and the observability
//! counters: it speaks plain `f64` LP, and `cawo_exact` owns the
//! translation from scheduling instances to [`SparseLp`] models. The
//! dense tableau survives in `cawo_exact`'s test support as the
//! differential-testing oracle — the `lp_parity` suite holds the two
//! engines to bit-comparable objectives.

// Solver errors are values, never aborts (docs/LINTS.md).
#![warn(clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod csc;
pub mod lu;
pub mod model;
pub mod simplex;

pub use csc::CscMatrix;
pub use model::{Row, RowCmp, SparseLp};
pub use simplex::{
    solve, Basis, LpSolution, LpStats, LpStatus, SimplexOptions, SimplexSolver, VStat,
};
