//! CaWoSched core: carbon-aware scheduling with fixed mapping & deadline.
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`enhanced`] — the communication-enhanced DAG `Gc` of §3: every
//!   cross-processor communication becomes a task on a fictional link
//!   processor, with ordering constraints (`E''`) baked in as edges,
//! * [`digest`] — an [`Instance`]'s stable content hash, which caches
//!   key it by, absorbed once per instance and memoised,
//! * [`schedule`] — start-time assignments over `Gc` plus validity checks,
//! * [`cost`] — the carbon-cost function: the polynomial interval-sweep
//!   algorithm of Appendix A.1 and a pseudo-polynomial per-time-unit
//!   oracle,
//! * [`engine`] — the [`engine::CostEngine`] trait behind all
//!   incremental cost evaluation, with two interchangeable backends:
//!   the per-time-unit [`engine::DenseGrid`] oracle and the
//!   interval-sparse [`engine::IntervalEngine`] whose operations cost
//!   `O(breakpoints touched)` instead of `O(horizon)`,
//! * [`bounds`] — earliest/latest start times (EST/LST) with dynamic
//!   updates after each placement (§5.2),
//! * [`scores`] — slack, pressure and their power-weighted variants,
//! * [`subdivision`] — the refined interval subdivision built from blocks
//!   of at most `k` consecutive tasks (§5.2),
//! * [`greedy`] — the greedy placement procedure (8 variants),
//! * [`mod@local_search`] — the hill-climbing refinement (suffix `-LS`),
//! * [`variant`] — the 16 named CaWoSched variants plus the ASAP baseline.

// Solver errors are values, never aborts (docs/LINTS.md).
#![warn(clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod bounds;
pub mod cost;
pub mod digest;
pub mod engine;
pub mod enhanced;
pub mod greedy;
pub mod local_search;
pub mod schedule;
pub mod scores;
pub mod subdivision;
pub mod variant;

pub use bounds::Bounds;
pub use cost::{carbon_cost, carbon_cost_from, carbon_cost_naive, Cost};
pub use digest::{InstanceDigest, KeyHasher};
pub use engine::{
    profile_divergence, reanswer_cost, repair_for_deadline, CostEngine, DenseGrid, EngineKind,
    Fenwick, FenwickEngine, IntervalEngine, PrefixCost,
};
pub use enhanced::{Instance, NodeKind, UnitId};
pub use greedy::{greedy_schedule, greedy_schedule_with_engine, GreedyConfig};
pub use local_search::{
    local_search, local_search_on_engine, local_search_with_engine, local_search_with_policy,
    LocalSearchStats, LsPolicy,
};
pub use schedule::{Schedule, ScheduleError};
pub use scores::Score;
pub use variant::{RunParams, Variant};
