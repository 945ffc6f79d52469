//! Minimal `.dot` import/export for workflows.
//!
//! The paper converts Nextflow workflow definitions to `.dot` with a
//! Nextflow tool and strips pseudo-tasks (§6.1). This module speaks the
//! subset of the DOT language needed for that exchange: node statements
//! with a `weight` attribute and edge statements with an optional `weight`
//! attribute. Nodes without an explicit statement default to weight 1,
//! matching how stripped pseudo-tasks are usually re-weighted.
//!
//! ```text
//! digraph wf {
//!   t0 [weight=12];
//!   t1 [weight=30];
//!   t0 -> t1 [weight=4];
//! }
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::workflow::{Workflow, WorkflowBuilder};
use crate::{NodeId, Weight, MAX_WEIGHT};

/// Errors raised while parsing DOT input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DotError {
    /// The input did not start with `digraph <name> {`.
    MissingHeader,
    /// The closing brace was never found.
    UnterminatedGraph,
    /// A statement could not be parsed.
    BadStatement(String),
    /// A `weight` attribute was not an integer in `1..=`[`MAX_WEIGHT`].
    BadWeight(String),
    /// The edges form a cycle (not a workflow).
    Cyclic,
}

impl std::fmt::Display for DotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DotError::MissingHeader => write!(f, "expected `digraph <name> {{`"),
            DotError::UnterminatedGraph => write!(f, "missing closing `}}`"),
            DotError::BadStatement(s) => write!(f, "cannot parse statement `{s}`"),
            DotError::BadWeight(s) => {
                write!(
                    f,
                    "bad weight `{s}` (expected an integer in 1..={MAX_WEIGHT})"
                )
            }
            DotError::Cyclic => write!(f, "graph contains a cycle"),
        }
    }
}

impl std::error::Error for DotError {}

/// Serializes a workflow to DOT. Node ids become `t<i>` identifiers.
pub fn to_dot(wf: &Workflow) -> String {
    let mut out = String::new();
    let name: String = wf
        .name()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect();
    let _ = writeln!(out, "digraph {name} {{");
    for v in 0..wf.task_count() as NodeId {
        let _ = writeln!(out, "  t{v} [weight={}];", wf.node_weight(v));
    }
    for (u, v) in wf.dag().edges() {
        let w = wf.edge_weight_between(u, v).expect("edge exists");
        let _ = writeln!(out, "  t{u} -> t{v} [weight={w}];");
    }
    out.push_str("}\n");
    out
}

/// Parses the DOT subset produced by [`to_dot`] (plus unquoted arbitrary
/// identifiers and missing weight attributes).
pub fn from_dot(input: &str) -> Result<Workflow, DotError> {
    let input = input.trim();
    let open = input.find('{').ok_or(DotError::MissingHeader)?;
    let header = &input[..open];
    if !header.trim_start().starts_with("digraph") {
        return Err(DotError::MissingHeader);
    }
    let name = header
        .trim()
        .strip_prefix("digraph")
        .unwrap_or("")
        .trim()
        .to_string();
    let close = input.rfind('}').ok_or(DotError::UnterminatedGraph)?;
    let body = &input[open + 1..close];

    let mut b = WorkflowBuilder::new(if name.is_empty() {
        "dot".to_string()
    } else {
        name
    });
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut weights: Vec<(NodeId, Weight)> = Vec::new();
    let mut pending_edges: Vec<(NodeId, NodeId, Weight)> = Vec::new();

    let mut intern = |b: &mut WorkflowBuilder, token: &str| -> NodeId {
        let key = token.trim_matches('"').to_string();
        *ids.entry(key).or_insert_with(|| b.add_task(1))
    };

    for raw in body.split(';') {
        let stmt = raw.trim();
        if stmt.is_empty() {
            continue;
        }
        let (head, attrs) = match stmt.find('[') {
            Some(i) => {
                let tail = stmt[i..]
                    .trim_start_matches('[')
                    .trim_end_matches(']')
                    .trim()
                    .to_string();
                (stmt[..i].trim(), Some(tail))
            }
            None => (stmt, None),
        };
        let weight = match &attrs {
            Some(a) => parse_weight_attr(a)?,
            None => None,
        };
        if let Some(arrow) = head.find("->") {
            let u = intern(&mut b, head[..arrow].trim());
            let v = intern(&mut b, head[arrow + 2..].trim());
            pending_edges.push((u, v, weight.unwrap_or(1)));
        } else {
            let v = intern(&mut b, head);
            if let Some(w) = weight {
                weights.push((v, w));
            }
        }
    }

    for (u, v, w) in pending_edges {
        b.add_dependence(u, v, w);
    }
    // Node weights were defaulted to 1 at interning; rebuild with explicit
    // weights where present by patching through a second builder pass.
    let explicit: HashMap<NodeId, Weight> = weights.into_iter().collect();
    let n = b.task_count();
    let mut b2 = WorkflowBuilder::new("tmp");
    for v in 0..n as NodeId {
        b2.add_task(*explicit.get(&v).unwrap_or(&1));
    }
    let wf = b.build().map_err(|_| DotError::Cyclic)?;
    for (u, v) in wf.dag().edges() {
        b2.add_dependence(
            u,
            v,
            wf.edge_weight_between(u, v).expect("edge from edges()"),
        );
    }
    Ok(b2
        .build()
        .map_err(|_| DotError::Cyclic)?
        .with_name(wf.name().to_string()))
}

fn parse_weight_attr(attrs: &str) -> Result<Option<Weight>, DotError> {
    for pair in attrs.split(',') {
        let mut kv = pair.splitn(2, '=');
        let key = kv.next().unwrap_or("").trim();
        if key == "weight" {
            let val = kv.next().ok_or_else(|| DotError::BadWeight(pair.into()))?;
            let val = val.trim().trim_matches('"');
            let w: Weight = val
                .parse()
                .map_err(|_| DotError::BadWeight(val.to_string()))?;
            if w == 0 || w > MAX_WEIGHT {
                return Err(DotError::BadWeight(val.to_string()));
            }
            return Ok(Some(w));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, Family, GeneratorConfig};

    #[test]
    fn roundtrip_small() {
        let mut b = WorkflowBuilder::new("rt");
        let a = b.add_task(10);
        let c = b.add_task(20);
        b.add_dependence(a, c, 3);
        let wf = b.build().unwrap();
        let dot = to_dot(&wf);
        let parsed = from_dot(&dot).unwrap();
        assert_eq!(parsed.task_count(), 2);
        assert_eq!(parsed.node_weight(0), 10);
        assert_eq!(parsed.node_weight(1), 20);
        assert_eq!(parsed.edge_weight_between(0, 1), Some(3));
    }

    #[test]
    fn roundtrip_generated() {
        let wf = generate(&GeneratorConfig::new(Family::Bacass, 60, 1));
        let parsed = from_dot(&to_dot(&wf)).unwrap();
        assert_eq!(parsed.task_count(), wf.task_count());
        assert_eq!(parsed.edge_count(), wf.edge_count());
        assert_eq!(parsed.total_work(), wf.total_work());
        // Structure preserved edge by edge.
        for (u, v) in wf.dag().edges() {
            assert_eq!(
                parsed.edge_weight_between(u, v),
                wf.edge_weight_between(u, v)
            );
        }
    }

    #[test]
    fn default_weights_are_one() {
        let wf = from_dot("digraph g { a -> b; b -> c; }").unwrap();
        assert_eq!(wf.task_count(), 3);
        assert!(wf.node_weights().iter().all(|&w| w == 1));
        assert_eq!(wf.edge_weight_between(0, 1), Some(1));
    }

    #[test]
    fn named_nodes_and_quoted_ids() {
        let wf = from_dot("digraph g { \"fastqc\" [weight=5]; fastqc -> align; }").unwrap();
        assert_eq!(wf.task_count(), 2);
        assert_eq!(wf.node_weight(0), 5);
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(
            from_dot("graph g { a -- b; }").unwrap_err(),
            DotError::MissingHeader
        );
    }

    #[test]
    fn rejects_unterminated() {
        assert_eq!(
            from_dot("digraph g { a -> b; ").unwrap_err(),
            DotError::UnterminatedGraph
        );
    }

    #[test]
    fn rejects_cycles() {
        assert_eq!(
            from_dot("digraph g { a -> b; b -> a; }").unwrap_err(),
            DotError::Cyclic
        );
    }

    #[test]
    fn rejects_zero_weight() {
        assert!(matches!(
            from_dot("digraph g { a [weight=0]; }").unwrap_err(),
            DotError::BadWeight(_)
        ));
    }

    #[test]
    fn rejects_weights_above_the_cap() {
        let cap = format!("digraph g {{ a [weight={MAX_WEIGHT}]; }}");
        assert_eq!(from_dot(&cap).unwrap().node_weight(0), MAX_WEIGHT);
        for w in [
            (MAX_WEIGHT + 1).to_string(),
            (1u64 << 62).to_string(),
            "1e30".to_string(),
        ] {
            for dot in [
                format!("digraph g {{ t0 [weight={w}]; }}"),
                format!("digraph g {{ a -> b [weight={w}]; }}"),
            ] {
                assert_eq!(from_dot(&dot).unwrap_err(), DotError::BadWeight(w.clone()));
            }
        }
    }

    #[test]
    fn ignores_unknown_attrs() {
        let wf = from_dot("digraph g { a [color=red, weight=7]; a -> b [style=dashed]; }").unwrap();
        assert_eq!(wf.node_weight(0), 7);
        assert_eq!(wf.edge_weight_between(0, 1), Some(1));
    }
}
