//! Compact directed-acyclic-graph representation.
//!
//! The scheduler traverses predecessor and successor lists of every task
//! many times (EST/LST propagation after each placement, §5.2), so both
//! directions are stored in CSR (compressed sparse row) form: one offsets
//! array and one flat adjacency array per direction. Node identifiers are
//! dense `u32` indices.

use std::fmt;

/// Dense node identifier. `u32` keeps adjacency arrays half the size of
/// `usize` on 64-bit targets; the paper's largest workflows have 30 000
/// tasks plus communication tasks, far below the limit.
pub type NodeId = u32;

/// Errors raised while building a [`Dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge referenced a node index `>= n`.
    NodeOutOfRange {
        /// The out-of-range endpoint.
        endpoint: NodeId,
        /// The graph's node count.
        n: usize,
    },
    /// A self-loop `(v, v)` was inserted.
    SelfLoop(NodeId),
    /// The edge set contains a directed cycle; no topological order exists.
    Cyclic,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::NodeOutOfRange { endpoint, n } => {
                write!(f, "edge endpoint {endpoint} out of range for {n} nodes")
            }
            DagError::SelfLoop(v) => write!(f, "self-loop on node {v}"),
            DagError::Cyclic => write!(f, "graph contains a directed cycle"),
        }
    }
}

impl std::error::Error for DagError {}

/// Incremental builder for [`Dag`]. Duplicate edges are merged.
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Creates a builder for a graph with `n` nodes and no edges yet.
    pub fn new(n: usize) -> Self {
        DagBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes the final graph will have.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.n as NodeId;
        self.n += 1;
        id
    }

    /// Records the directed edge `(u, v)`. Validation happens in
    /// [`DagBuilder::build`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Validates and freezes the graph. Fails on out-of-range endpoints,
    /// self-loops, or cycles.
    pub fn build(mut self) -> Result<Dag, DagError> {
        let n = self.n;
        for &(u, v) in &self.edges {
            if (u as usize) >= n {
                return Err(DagError::NodeOutOfRange { endpoint: u, n });
            }
            if (v as usize) >= n {
                return Err(DagError::NodeOutOfRange { endpoint: v, n });
            }
            if u == v {
                return Err(DagError::SelfLoop(u));
            }
        }
        // Sort by (source, target) and dedup so the CSR successor list is
        // ordered — `Dag::edge_position` binary-searches it.
        self.edges.sort_unstable();
        self.edges.dedup();

        let m = self.edges.len();
        let mut succ_off = vec![0u32; n + 1];
        for &(u, _) in &self.edges {
            succ_off[u as usize + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ = vec![0 as NodeId; m];
        {
            let mut cursor = succ_off.clone();
            for &(u, v) in &self.edges {
                let slot = cursor[u as usize] as usize;
                succ[slot] = v;
                cursor[u as usize] += 1;
            }
        }

        let mut pred_off = vec![0u32; n + 1];
        for &(_, v) in &self.edges {
            pred_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut pred = vec![0 as NodeId; m];
        let mut pred_edge = vec![0u32; m];
        {
            let mut cursor = pred_off.clone();
            // Iterate in edge (CSR) order so that `pred_edge` can map each
            // predecessor entry back to its dense edge index.
            for (e, &(u, v)) in self.edges.iter().enumerate() {
                let slot = cursor[v as usize] as usize;
                pred[slot] = u;
                pred_edge[slot] = e as u32;
                cursor[v as usize] += 1;
            }
        }

        let dag = Dag {
            succ_off,
            succ,
            pred_off,
            pred,
            pred_edge,
        };
        if dag.topological_order().is_none() {
            return Err(DagError::Cyclic);
        }
        Ok(dag)
    }
}

/// Immutable DAG in dual-direction CSR form.
///
/// Edges have a dense *edge index* given by their position in the sorted
/// `(source, target)` order; [`Workflow`](crate::Workflow) stores
/// communication weights in that order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dag {
    succ_off: Vec<u32>,
    succ: Vec<NodeId>,
    pred_off: Vec<u32>,
    pred: Vec<NodeId>,
    /// For each entry of `pred`, the dense edge index of that edge.
    pred_edge: Vec<u32>,
}

impl Dag {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    /// Successors of `v` in ascending id order.
    pub fn successors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.succ_off[v as usize] as usize;
        let hi = self.succ_off[v as usize + 1] as usize;
        &self.succ[lo..hi]
    }

    /// Predecessors of `v` (order unspecified but deterministic).
    pub fn predecessors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.pred_off[v as usize] as usize;
        let hi = self.pred_off[v as usize + 1] as usize;
        &self.pred[lo..hi]
    }

    /// `(predecessor, edge index)` pairs of incoming edges of `v`.
    pub fn in_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let lo = self.pred_off[v as usize] as usize;
        let hi = self.pred_off[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.pred[i], self.pred_edge[i] as usize))
    }

    /// `(successor, edge index)` pairs of outgoing edges of `v`.
    pub fn out_edges(&self, v: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let lo = self.succ_off[v as usize] as usize;
        let hi = self.succ_off[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.succ[i], i))
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.predecessors(v).len()
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.successors(v).len()
    }

    /// Dense edge index of `(u, v)` if the edge exists. Edge indices are
    /// assigned in sorted `(source, target)` order.
    pub fn edge_position(&self, u: NodeId, v: NodeId) -> Option<usize> {
        let lo = self.succ_off[u as usize] as usize;
        let hi = self.succ_off[u as usize + 1] as usize;
        self.succ[lo..hi].binary_search(&v).ok().map(|i| lo + i)
    }

    /// `(source, target)` of the edge with dense index `e`.
    pub fn edge_endpoints(&self, e: usize) -> (NodeId, NodeId) {
        debug_assert!(e < self.edge_count());
        // The offsets array is sorted, so the source is found by binary
        // search for the last offset <= e.
        let u = match self.succ_off.binary_search(&(e as u32)) {
            Ok(mut i) => {
                // Skip empty adjacency ranges that share the same offset.
                while self.succ_off[i + 1] == e as u32 {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (u as NodeId, self.succ[e])
    }

    /// Iterates over all edges as `(source, target)` in dense edge order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count() as NodeId)
            .flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// Kahn's algorithm \[21\]. Returns a topological order, or `None` if the
    /// graph has a cycle (only possible for graphs built unsafely).
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indeg: Vec<u32> = (0..n).map(|v| self.in_degree(v as NodeId) as u32).collect();
        let mut queue: Vec<NodeId> = (0..n as NodeId)
            .filter(|&v| indeg[v as usize] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            for &v in self.successors(u) {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Checks whether `order` is a permutation of the nodes consistent with
    /// every edge.
    pub fn is_topological_order(&self, order: &[NodeId]) -> bool {
        let n = self.node_count();
        if order.len() != n {
            return false;
        }
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            if (v as usize) >= n || pos[v as usize] != usize::MAX {
                return false;
            }
            pos[v as usize] = i;
        }
        self.edges().all(|(u, v)| pos[u as usize] < pos[v as usize])
    }

    /// Nodes with in-degree 0.
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.node_count() as NodeId)
            .filter(|&v| self.in_degree(v) == 0)
            .collect()
    }

    /// Nodes with out-degree 0.
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.node_count() as NodeId)
            .filter(|&v| self.out_degree(v) == 0)
            .collect()
    }

    /// Longest-path level of every node (sources have level 0); the DAG
    /// "depth" is `max + 1`. Used by the workflow generator and tests.
    pub fn levels(&self) -> Vec<u32> {
        let order = self
            .topological_order()
            .expect("Dag is acyclic by construction");
        let mut level = vec![0u32; self.node_count()];
        for &u in &order {
            for &v in self.successors(u) {
                level[v as usize] = level[v as usize].max(level[u as usize] + 1);
            }
        }
        level
    }

    /// True if the DAG is weakly connected (ignoring edge direction).
    pub fn is_weakly_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 0;
        while let Some(u) = stack.pop() {
            count += 1;
            for &v in self.successors(u).iter().chain(self.predecessors(u)) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_counts() {
        let d = diamond();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.successors(0), &[1, 2]);
        assert_eq!(d.predecessors(3), &[1, 2]);
        assert_eq!(d.in_degree(0), 0);
        assert_eq!(d.out_degree(3), 0);
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        assert_eq!(b.build().unwrap_err(), DagError::Cyclic);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new(2);
        b.add_edge(1, 1);
        assert_eq!(b.build().unwrap_err(), DagError::SelfLoop(1));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 5);
        assert!(matches!(
            b.build().unwrap_err(),
            DagError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn dedups_edges() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        let d = b.build().unwrap();
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn topological_order_is_valid() {
        let d = diamond();
        let order = d.topological_order().unwrap();
        assert!(d.is_topological_order(&order));
        // A wrong permutation is rejected.
        assert!(!d.is_topological_order(&[3, 1, 2, 0]));
        // Wrong length rejected.
        assert!(!d.is_topological_order(&[0, 1, 2]));
        // Duplicates rejected.
        assert!(!d.is_topological_order(&[0, 1, 1, 3]));
    }

    #[test]
    fn edge_position_and_endpoints_roundtrip() {
        let d = diamond();
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            let e = d.edge_position(u, v).unwrap();
            assert_eq!(d.edge_endpoints(e), (u, v));
        }
        assert_eq!(d.edge_position(1, 2), None);
        assert_eq!(d.edge_position(3, 0), None);
    }

    #[test]
    fn edge_endpoints_skips_isolated_nodes() {
        // Node 1 has no outgoing edges; offsets repeat.
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let d = b.build().unwrap();
        assert_eq!(d.edge_endpoints(0), (0, 1));
        assert_eq!(d.edge_endpoints(1), (2, 3));
    }

    #[test]
    fn levels_of_diamond() {
        let d = diamond();
        assert_eq!(d.levels(), vec![0, 1, 1, 2]);
    }

    #[test]
    fn sources_and_sinks() {
        let d = diamond();
        assert_eq!(d.sources(), vec![0]);
        assert_eq!(d.sinks(), vec![3]);
    }

    #[test]
    fn weak_connectivity() {
        let d = diamond();
        assert!(d.is_weakly_connected());
        let mut b = DagBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        assert!(!b.build().unwrap().is_weakly_connected());
    }

    #[test]
    fn empty_graph() {
        let d = DagBuilder::new(0).build().unwrap();
        assert_eq!(d.node_count(), 0);
        assert_eq!(d.topological_order().unwrap(), Vec::<NodeId>::new());
        assert!(d.is_weakly_connected());
    }

    #[test]
    fn in_out_edge_indices_agree() {
        let d = diamond();
        for v in 0..4 {
            for (u, e) in d.in_edges(v) {
                assert_eq!(d.edge_position(u, v), Some(e));
            }
            for (w, e) in d.out_edges(v) {
                assert_eq!(d.edge_position(v, w), Some(e));
            }
        }
    }
}
