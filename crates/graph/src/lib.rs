//! DAG substrate and workflow model for the CaWoSched reproduction.
//!
//! This crate provides everything the scheduler needs to know about the
//! *application*:
//!
//! * [`Dag`] — a compact CSR-based directed acyclic graph with Kahn
//!   topological ordering and reachability helpers,
//! * [`Workflow`] — a DAG decorated with normalized vertex (computation)
//!   and edge (communication) weights, as defined in §3 of the paper,
//! * [`generator`] — synthetic workflow families (atacseq, bacass, eager,
//!   methylseq) scaled to a target number of vertices in the style of
//!   WfGen, as used in §6.1 of the paper,
//! * [`dot`] — import/export of the `.dot` exchange format the paper uses
//!   for Nextflow-derived traces,
//! * [`wfjson`] — import of WfCommons JSON instances (the project behind
//!   the paper's WfGen generator).
//!
//! All quantities are integers: the paper fixes a time unit and expresses
//! every parameter as an integer multiple of it.

pub mod dag;
pub mod dot;
pub mod generator;
pub mod wfjson;
pub mod workflow;

pub use dag::{Dag, DagBuilder, DagError, NodeId};
pub use generator::{Family, GeneratorConfig, WeightDistribution};
pub use workflow::{EdgeId, Workflow, WorkflowBuilder};

/// Weight of a vertex (normalized computation demand) or an edge
/// (normalized communication volume). Integer per the paper's framework.
pub type Weight = u64;

/// Largest task or edge weight the [`dot`] and [`wfjson`] parsers
/// accept: 2^28. A processor of normalized speed `s ≥ 1` runs a task of
/// weight `w` in `⌈8w / s⌉ ≤ 2^31` time units and an edge takes `w`
/// units, so an ASAP makespan, at most the sum of those times over the
/// fewer than 2^32 nodes a `NodeId` can number, stays below 2^63 and
/// fits a `u64` time.
pub const MAX_WEIGHT: Weight = 1 << 28;
