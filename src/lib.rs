//! # cawosched — Carbon-Aware Workflow Scheduling
//!
//! Facade crate for the CaWoSched reproduction ("Carbon-Aware Workflow
//! Scheduling with Fixed Mapping and Deadline Constraint", ICPP 2025).
//! It re-exports the workspace crates under stable module names:
//!
//! * [`graph`] — DAG substrate, workflow model, synthetic generator, DOT I/O.
//! * [`platform`] — heterogeneous clusters, link processors, green-power
//!   profiles (scenarios S1–S4 plus CSV carbon-trace-driven profiles).
//! * [`heft`] — the HEFT list scheduler that produces the *fixed mapping
//!   and ordering* the carbon-aware scheduler starts from.
//! * [`core`] — the paper's contribution: communication-enhanced DAG,
//!   pluggable carbon-cost engines (dense oracle / interval-sparse),
//!   ASAP baseline, the 16 CaWoSched greedy + local-search variants.
//! * [`lp`] — the sparse bounded-variable revised-simplex LP engine
//!   (CSC matrices, LU + eta updates, warm starts) behind
//!   the paper-scale `milp`/`lp` solvers.
//! * [`exact`] — exact optimality references: uniprocessor dynamic
//!   programs, the time-indexed ILP model, branch-and-bound, the compact
//!   sparse A.4 model on [`lp`] and the E-schedule normalisation; the
//!   `SolverKind` registry selects and runs `bnb`, `dp`, `ilp`, `milp`
//!   and `lp`.
//! * [`cache`] — the warm-path serving layer: content-addressed solve
//!   cache (exact-key hits, warm-state re-solves, incremental
//!   trace-tail re-answers).
//! * [`sim`] — the experiment harness reproducing every table and figure
//!   of the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use cawosched::prelude::*;
//!
//! // 1. A workflow (here: a generated atacseq-like instance).
//! let wf = generate(&GeneratorConfig::new(Family::Atacseq, 60, 42));
//! // 2. A platform (a tiny cluster here; `Cluster::paper_small` for the
//! //    paper's 72-node platform) and a HEFT mapping.
//! let cluster = Cluster::tiny(&[0, 3, 5], 42);
//! let mapping = heft_schedule(&wf, &cluster);
//! // 3. The communication-enhanced instance Gc.
//! let inst = Instance::build(&wf, &cluster, &mapping);
//! // 4. A green-power profile over the ASAP-derived horizon.
//! let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 42)
//!     .build(&cluster, inst.asap_makespan());
//! // 5. Schedule carbon-aware and compare against the ASAP baseline.
//! let baseline_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
//! let sched = Variant::PressWRLs.run(&inst, &profile);
//! assert!(carbon_cost(&inst, &sched, &profile) <= baseline_cost);
//! ```

pub use cawo_cache as cache;
pub use cawo_core as core;
pub use cawo_exact as exact;
pub use cawo_graph as graph;
pub use cawo_heft as heft;
pub use cawo_lp as lp;
pub use cawo_platform as platform;
pub use cawo_sim as sim;

/// Most-used items in one import.
pub mod prelude {
    pub use cawo_cache::{CacheOutcome, SolveCache};
    pub use cawo_core::{carbon_cost, Cost, EngineKind, Instance, RunParams, Schedule, Variant};
    pub use cawo_exact::{Budget, SolveStatus, SolverKind};
    pub use cawo_graph::generator::{generate, Family, GeneratorConfig};
    pub use cawo_graph::{Workflow, WorkflowBuilder};
    pub use cawo_heft::{heft_schedule, Mapping};
    pub use cawo_platform::{
        Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario, Time, TraceConfig,
        TraceSource,
    };
}
