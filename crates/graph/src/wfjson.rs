//! WfCommons workflow-instance import.
//!
//! WfCommons \[11\] is the framework behind the WfGen generator the paper
//! uses for its scaled workflows; its JSON "WfFormat" is the de-facto
//! interchange format for scientific-workflow research. This module
//! reads the subset needed to schedule an instance:
//!
//! ```json
//! {
//!   "name": "atacseq-run",
//!   "workflow": {
//!     "tasks": [
//!       { "name": "fastqc_1", "runtimeInSeconds": 12.4,
//!         "children": ["trim_1"], "parents": [],
//!         "writtenBytes": 1048576 }
//!     ]
//!   }
//! }
//! ```
//!
//! * task weight = `ceil(runtimeInSeconds)` (alias `runtime`), min 1,
//! * edge weight = `ceil(writtenBytes / bytes_per_weight_unit)` of the
//!   producing task (min 1), letting callers calibrate communication
//!   volume; tasks without `writtenBytes` get weight-1 edges,
//! * a task whose weight or edge weight exceeds [`MAX_WEIGHT`] is
//!   rejected ([`WfJsonError::WeightTooLarge`]),
//! * dependencies = union of `children` and `parents` declarations.

use std::collections::HashMap;

use serde::Deserialize;

use crate::workflow::{Workflow, WorkflowBuilder};
use crate::{NodeId, Weight, MAX_WEIGHT};

/// Import errors.
#[derive(Debug)]
pub enum WfJsonError {
    /// The JSON could not be parsed at all.
    Parse(serde_json::Error),
    /// A `children`/`parents` entry referenced an unknown task name.
    UnknownTask(String),
    /// The dependencies form a cycle.
    Cyclic,
    /// The instance declares no tasks.
    Empty,
    /// The named task's runtime, or its written bytes, give a weight
    /// above [`MAX_WEIGHT`].
    WeightTooLarge(String),
}

impl std::fmt::Display for WfJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WfJsonError::Parse(e) => write!(f, "invalid WfCommons JSON: {e}"),
            WfJsonError::UnknownTask(t) => write!(f, "dependency references unknown task `{t}`"),
            WfJsonError::Cyclic => write!(f, "task dependencies form a cycle"),
            WfJsonError::Empty => write!(f, "workflow declares no tasks"),
            WfJsonError::WeightTooLarge(t) => write!(
                f,
                "task `{t}`: runtime or written bytes give a weight above {MAX_WEIGHT}"
            ),
        }
    }
}

impl std::error::Error for WfJsonError {}

#[derive(Deserialize)]
struct WfInstance {
    #[serde(default)]
    name: Option<String>,
    workflow: WfWorkflow,
}

#[derive(Deserialize)]
struct WfWorkflow {
    #[serde(default)]
    tasks: Vec<WfTask>,
    /// Newer WfFormat versions nest tasks under `specification`.
    #[serde(default)]
    specification: Option<WfSpecification>,
}

#[derive(Deserialize)]
struct WfSpecification {
    #[serde(default)]
    tasks: Vec<WfTask>,
}

#[derive(Deserialize)]
struct WfTask {
    name: String,
    #[serde(default, alias = "runtimeInSeconds")]
    runtime: Option<f64>,
    #[serde(default)]
    children: Vec<String>,
    #[serde(default)]
    parents: Vec<String>,
    #[serde(default, alias = "writtenBytes")]
    written_bytes: Option<u64>,
}

/// Import options.
#[derive(Debug, Clone, Copy)]
pub struct WfJsonOptions {
    /// Bytes of written output per unit of communication weight.
    pub bytes_per_weight_unit: u64,
}

impl Default for WfJsonOptions {
    fn default() -> Self {
        WfJsonOptions {
            bytes_per_weight_unit: 1 << 20,
        } // 1 MiB
    }
}

/// Parses a WfCommons JSON instance into a [`Workflow`].
pub fn from_wfcommons_json(input: &str, options: WfJsonOptions) -> Result<Workflow, WfJsonError> {
    let instance: WfInstance = serde_json::from_str(input).map_err(WfJsonError::Parse)?;
    let tasks: Vec<WfTask> = match instance.workflow.specification {
        Some(spec) if !spec.tasks.is_empty() => spec.tasks,
        _ => instance.workflow.tasks,
    };
    if tasks.is_empty() {
        return Err(WfJsonError::Empty);
    }

    let mut b = WorkflowBuilder::new(instance.name.unwrap_or_else(|| "wfcommons".to_string()));
    let mut id_of: HashMap<&str, NodeId> = HashMap::with_capacity(tasks.len());
    let mut out_weight: Vec<Weight> = Vec::with_capacity(tasks.len());
    for t in &tasks {
        let w = t.runtime.map_or(1.0, |r| r.ceil().max(1.0));
        let c = t.written_bytes.map_or(1, |bytes| {
            bytes.div_ceil(options.bytes_per_weight_unit).max(1)
        });
        if w > MAX_WEIGHT as f64 || c > MAX_WEIGHT {
            return Err(WfJsonError::WeightTooLarge(t.name.clone()));
        }
        let id = b.add_task(w as Weight);
        id_of.insert(t.name.as_str(), id);
        out_weight.push(c);
    }
    for t in &tasks {
        let u = id_of[t.name.as_str()];
        for child in &t.children {
            let v = *id_of
                .get(child.as_str())
                .ok_or_else(|| WfJsonError::UnknownTask(child.clone()))?;
            b.add_dependence(u, v, out_weight[u as usize]);
        }
        for parent in &t.parents {
            let p = *id_of
                .get(parent.as_str())
                .ok_or_else(|| WfJsonError::UnknownTask(parent.clone()))?;
            b.add_dependence(p, u, out_weight[p as usize]);
        }
    }
    b.build().map_err(|_| WfJsonError::Cyclic)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = r#"{
        "name": "demo",
        "workflow": {
            "tasks": [
                {"name": "a", "runtimeInSeconds": 10.2, "children": ["b", "c"],
                 "writtenBytes": 3145728},
                {"name": "b", "runtime": 5.0, "children": ["d"]},
                {"name": "c", "runtimeInSeconds": 7.9, "children": ["d"]},
                {"name": "d", "runtimeInSeconds": 2.0, "parents": ["b", "c"]}
            ]
        }
    }"#;

    #[test]
    fn parses_simple_instance() {
        let wf = from_wfcommons_json(SIMPLE, WfJsonOptions::default()).unwrap();
        assert_eq!(wf.name(), "demo");
        assert_eq!(wf.task_count(), 4);
        // Weights are rounded up.
        assert_eq!(wf.node_weight(0), 11);
        assert_eq!(wf.node_weight(1), 5);
        assert_eq!(wf.node_weight(2), 8);
        // Duplicate parent/child declarations collapse.
        assert_eq!(wf.edge_count(), 4);
        // a wrote 3 MiB ⇒ edge weight 3 at the default 1 MiB unit.
        assert_eq!(wf.edge_weight_between(0, 1), Some(3));
        // b declared no output ⇒ weight 1.
        assert_eq!(wf.edge_weight_between(1, 3), Some(1));
    }

    #[test]
    fn nested_specification_layout() {
        let json = r#"{"workflow": {"specification": {"tasks": [
            {"name": "x", "children": ["y"]},
            {"name": "y"}
        ]}}}"#;
        let wf = from_wfcommons_json(json, WfJsonOptions::default()).unwrap();
        assert_eq!(wf.task_count(), 2);
        assert_eq!(wf.name(), "wfcommons");
        assert!(wf.node_weights().iter().all(|&w| w == 1));
    }

    #[test]
    fn bytes_per_unit_scales_edges() {
        let wf = from_wfcommons_json(
            SIMPLE,
            WfJsonOptions {
                bytes_per_weight_unit: 1 << 10,
            },
        )
        .unwrap();
        assert_eq!(wf.edge_weight_between(0, 1), Some(3072));
    }

    #[test]
    fn unknown_child_rejected() {
        let json = r#"{"workflow": {"tasks": [{"name": "a", "children": ["ghost"]}]}}"#;
        assert!(matches!(
            from_wfcommons_json(json, WfJsonOptions::default()),
            Err(WfJsonError::UnknownTask(t)) if t == "ghost"
        ));
    }

    #[test]
    fn cyclic_dependencies_rejected() {
        let json = r#"{"workflow": {"tasks": [
            {"name": "a", "children": ["b"]},
            {"name": "b", "children": ["a"]}
        ]}}"#;
        assert!(matches!(
            from_wfcommons_json(json, WfJsonOptions::default()),
            Err(WfJsonError::Cyclic)
        ));
    }

    #[test]
    fn empty_and_malformed_rejected() {
        assert!(matches!(
            from_wfcommons_json(r#"{"workflow": {"tasks": []}}"#, WfJsonOptions::default()),
            Err(WfJsonError::Empty)
        ));
        assert!(matches!(
            from_wfcommons_json("not json", WfJsonOptions::default()),
            Err(WfJsonError::Parse(_))
        ));
    }

    #[test]
    fn weights_above_the_cap_rejected() {
        let task = |field: &str| {
            format!(
                r#"{{"workflow": {{"tasks": [{{"name": "big", {field}}}, {{"name": "b", "parents": ["big"]}}]}}}}"#
            )
        };
        let cap = task(&format!(r#""runtimeInSeconds": {MAX_WEIGHT}"#));
        let wf = from_wfcommons_json(&cap, WfJsonOptions::default()).unwrap();
        assert_eq!(wf.node_weight(0), MAX_WEIGHT);
        for runtime in ["4611686018427387904", "4.7e18", "1e30", "268435456.5"] {
            let json = task(&format!(r#""runtimeInSeconds": {runtime}"#));
            assert!(
                matches!(
                    from_wfcommons_json(&json, WfJsonOptions::default()),
                    Err(WfJsonError::WeightTooLarge(t)) if t == "big"
                ),
                "runtime {runtime}"
            );
        }
        // Output volume: 2^62 bytes at one byte per weight unit.
        let json = task(r#""writtenBytes": 4611686018427387904"#);
        let per_byte = WfJsonOptions {
            bytes_per_weight_unit: 1,
        };
        assert!(matches!(
            from_wfcommons_json(&json, per_byte),
            Err(WfJsonError::WeightTooLarge(t)) if t == "big"
        ));
        assert!(from_wfcommons_json(&json, WfJsonOptions::default()).is_err());
    }

    #[test]
    fn imported_workflow_schedules_end_to_end() {
        // The imported DAG is a normal Workflow: it must survive the
        // whole pipeline (done in the facade integration tests; here we
        // just sanity-check structure).
        let wf = from_wfcommons_json(SIMPLE, WfJsonOptions::default()).unwrap();
        assert!(wf.dag().topological_order().is_some());
        assert_eq!(wf.dag().sources(), vec![0]);
        assert_eq!(wf.dag().sinks(), vec![3]);
    }
}
