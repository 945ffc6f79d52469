//! Experiment harness reproducing the CaWoSched evaluation (§6).
//!
//! Replaces the paper's simexpal-managed C++ campaign
//! (docs/ARCHITECTURE.md, "Substitutions") with a deterministic,
//! rayon-parallel grid runner:
//!
//! * [`experiment`] — instance grid (workflow × cluster × scenario ×
//!   deadline), instantiation and execution of all 17 algorithm variants
//!   with wall-clock timing,
//! * [`metrics`] — rankings, performance profiles, cost ratios, boxplot
//!   statistics (the paper's Figures 1–6 and 10–17 ingredients),
//! * [`exactcmp`] — the small-instance optimality comparison of Fig. 7,
//! * [`des`] — a discrete-event execution simulator serving as an
//!   independent oracle for the analytic cost engine,
//! * [`report`] — plain-text/markdown series and table emitters,
//! * [`cli`] — the plumbing the `cawosched`, `experiments` and `figures`
//!   binaries share: error and closed-stdout exits, observability
//!   flags, the `--threads` pool.
//!
//! The `figures` binary maps every paper artifact id (`table1`, `fig1`,
//! …, `fig17`) to the code that regenerates its rows/series.

// Solver errors are values, never aborts (docs/LINTS.md).
#![warn(clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod cli;
pub mod des;
pub mod exactcmp;
pub mod experiment;
pub mod metrics;
pub mod report;

pub use experiment::{
    build_profile, run_grid, ClusterKind, ExperimentConfig, GridScale, InstanceSpec, ScenarioSpec,
    SolverRow, SolverRowStatus, SpecResult, TraceScenario,
};
pub use metrics::{
    boxplot, competition_ranks, cost_ratios_vs, median, performance_profile, BoxplotStats,
};
