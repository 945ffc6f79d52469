//! The communication-enhanced DAG `Gc = (Vc, Ec, ω)` of §3.
//!
//! Given a workflow, a cluster and a fixed [`Mapping`], every edge whose
//! endpoints live on different processors becomes a *communication task*
//! executed by the fictional processor of that directed link. The
//! enhanced DAG contains:
//!
//! * the original precedence edges between co-located tasks (`E \ E'`),
//! * `(v_i, v_{ij})` and `(v_{ij}, v_j)` for every communication,
//! * chain edges expressing the given execution order on every compute
//!   processor, and the given communication order on every link (`E''`).
//!
//! After this construction there are no communication *costs* left — only
//! tasks with running times — which is what every algorithm in this
//! repository operates on.

use std::sync::OnceLock;

use cawo_graph::dag::{Dag, DagBuilder};
use cawo_graph::{NodeId, Workflow};
use cawo_heft::Mapping;
use cawo_platform::{Cluster, Power, ProcId, Time};

use crate::digest::InstanceDigest;
use crate::schedule::Schedule;

/// Execution-unit index: `0..P` are the compute processors, higher ids
/// are the (lazily materialised) link processors that carry at least one
/// communication.
pub type UnitId = u32;

/// What a `Gc` node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An original workflow task.
    Task,
    /// A communication task `v_{ij}` for the original edge `(i, j)`.
    Comm {
        /// Source task of the communicated edge.
        from: NodeId,
        /// Target task of the communicated edge.
        to: NodeId,
    },
}

/// One execution unit (compute processor or materialised link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitInfo {
    /// Idle power of this unit.
    pub p_idle: Power,
    /// Working power of this unit.
    pub p_work: Power,
    /// `true` for fictional link processors.
    pub is_link: bool,
}

/// A scheduling instance: enhanced DAG, execution times, unit assignment
/// and power data — everything §5's algorithms need.
///
/// An instance is immutable once built: no method takes `&mut self`,
/// which is what lets it memoise its content [`Instance::digest`].
#[derive(Debug, Clone)]
pub struct Instance {
    n_original: usize,
    dag: Dag,
    kind: Vec<NodeKind>,
    exec: Vec<Time>,
    unit_of: Vec<UnitId>,
    units: Vec<UnitInfo>,
    unit_order: Vec<Vec<NodeId>>,
    topo: Vec<NodeId>,
    total_idle: Power,
    max_unit_total_power: Power,
    /// Filled by the first [`Instance::digest`] call; a clone carries
    /// it, which is correct because the clone's content is identical.
    digest: OnceLock<InstanceDigest>,
}

impl Instance {
    /// Builds the enhanced instance from a workflow, cluster and mapping.
    ///
    /// Communication tasks sharing a link are ordered by the mapping's
    /// seed finish time of their source task (ties by source/target id) —
    /// the order in which HEFT would issue them. This realises the
    /// assumption that "the order of communications is also given with
    /// the mapping" (§3).
    pub fn build(wf: &Workflow, cluster: &Cluster, mapping: &Mapping) -> Self {
        let n = wf.task_count();
        let dag0 = wf.dag();
        let p = cluster.proc_count();

        // Compute units first; link units appended on demand.
        let mut units: Vec<UnitInfo> = (0..p)
            .map(|q| {
                let cp = cluster.proc(q as ProcId);
                UnitInfo {
                    p_idle: cp.p_idle,
                    p_work: cp.p_work,
                    is_link: false,
                }
            })
            .collect();
        // BTreeMap keeps any future iteration over link units in
        // deterministic key order (docs/CONCURRENCY.md); today the map
        // is only used for entry/lookup.
        let mut link_unit: std::collections::BTreeMap<u32, UnitId> =
            std::collections::BTreeMap::new();

        let mut kind: Vec<NodeKind> = (0..n).map(|_| NodeKind::Task).collect();
        let mut exec: Vec<Time> = (0..n as NodeId)
            .map(|v| cluster.exec_time(wf.node_weight(v), mapping.proc_of(v)))
            .collect();
        let mut unit_of: Vec<UnitId> = (0..n as NodeId).map(|v| mapping.proc_of(v)).collect();

        // One comm node per cross-processor edge, plus its Gc edges.
        let mut builder = DagBuilder::new(n);
        let mut comm_nodes: Vec<(UnitId, NodeId)> = Vec::new(); // (link unit, comm node)
        for (u, v) in dag0.edges() {
            let pu = mapping.proc_of(u);
            let pv = mapping.proc_of(v);
            if pu == pv {
                builder.add_edge(u, v);
            } else {
                #[expect(
                    clippy::expect_used,
                    reason = "(u, v) comes from `dag0.edges()`, so the edge and its weight exist."
                )]
                let c = wf.edge_weight_between(u, v).expect("edge exists");
                let link = cluster.link_id(pu, pv);
                let lu = *link_unit.entry(link).or_insert_with(|| {
                    let (p_idle, p_work) = cluster.link_power(link);
                    units.push(UnitInfo {
                        p_idle,
                        p_work,
                        is_link: true,
                    });
                    (units.len() - 1) as UnitId
                });
                let comm = builder.add_node();
                kind.push(NodeKind::Comm { from: u, to: v });
                exec.push(cluster.comm_time(c));
                unit_of.push(lu);
                comm_nodes.push((lu, comm));
                builder.add_edge(u, comm);
                builder.add_edge(comm, v);
            }
        }

        // Chain edges fixing the order on every compute processor.
        for q in 0..p as ProcId {
            for w in mapping.order_on(q).windows(2) {
                builder.add_edge(w[0], w[1]);
            }
        }

        // Order of communication tasks on each link (E''): by seed finish
        // of the source task, ties by (source, target).
        let mut unit_order: Vec<Vec<NodeId>> = vec![Vec::new(); units.len()];
        for (q, slot) in unit_order.iter_mut().enumerate().take(p) {
            *slot = mapping.order_on(q as ProcId).to_vec();
        }
        for &(lu, comm) in &comm_nodes {
            unit_order[lu as usize].push(comm);
        }
        for (u, order) in unit_order.iter_mut().enumerate() {
            if units[u].is_link {
                order.sort_by_key(|&cn| match kind[cn as usize] {
                    NodeKind::Comm { from, to } => (mapping.seed_finish(from), from, to),
                    #[expect(
                        clippy::unreachable,
                        reason = "`unit_order` for a link unit is populated exclusively with Comm nodes in the loop above."
                    )]
                    NodeKind::Task => unreachable!("links only hold comm tasks"),
                });
                for w in order.windows(2) {
                    builder.add_edge(w[0], w[1]);
                }
            }
        }

        #[expect(
            clippy::expect_used,
            reason = "Gc adds edges only along precedences and per-unit seed order, both acyclic by the mapping's validity (§4); a cycle means a corrupt mapping."
        )]
        let dag = builder
            .build()
            .expect("mapping order is consistent with precedences, so Gc is acyclic");
        #[expect(
            clippy::expect_used,
            reason = "same invariant: `build` above already proved acyclicity."
        )]
        let topo = dag.topological_order().expect("Gc is acyclic");
        let total_idle = cluster.total_idle_power();
        let max_unit_total_power = units.iter().map(|u| u.p_idle + u.p_work).max().unwrap_or(1);

        Instance {
            n_original: n,
            dag,
            kind,
            exec,
            unit_of,
            units,
            unit_order,
            topo,
            total_idle,
            max_unit_total_power,
            digest: OnceLock::new(),
        }
    }

    /// Builds a bare instance directly from `Gc`-level data — used by the
    /// exact solvers and tests to craft adversarial instances without a
    /// workflow/mapping detour. Chain edges for `unit_order` must already
    /// be part of `dag`.
    pub fn from_raw(
        dag: Dag,
        exec: Vec<Time>,
        unit_of: Vec<UnitId>,
        units: Vec<UnitInfo>,
        extra_idle: Power,
    ) -> Self {
        let n = dag.node_count();
        assert_eq!(exec.len(), n);
        assert_eq!(unit_of.len(), n);
        assert!(
            exec.iter().all(|&e| e > 0),
            "execution times must be positive"
        );
        let mut unit_order: Vec<Vec<NodeId>> = vec![Vec::new(); units.len()];
        #[expect(
            clippy::expect_used,
            reason = "`from_raw`'s documented precondition: callers hand it an already-acyclic `Gc` dag."
        )]
        let topo = dag
            .topological_order()
            .expect("raw instance must be acyclic");
        for &v in &topo {
            unit_order[unit_of[v as usize] as usize].push(v);
        }
        let total_idle = units.iter().map(|u| u.p_idle).sum::<Power>() + extra_idle;
        let max_unit_total_power = units.iter().map(|u| u.p_idle + u.p_work).max().unwrap_or(1);
        Instance {
            n_original: n,
            kind: vec![NodeKind::Task; n],
            dag,
            exec,
            unit_of,
            units,
            unit_order,
            topo,
            total_idle,
            max_unit_total_power,
            digest: OnceLock::new(),
        }
    }

    /// Total number of `Gc` nodes `N = n + |E'|`.
    pub fn node_count(&self) -> usize {
        self.dag.node_count()
    }

    /// Number of original workflow tasks `n`.
    pub fn original_task_count(&self) -> usize {
        self.n_original
    }

    /// Number of communication tasks `|E'|`.
    pub fn comm_task_count(&self) -> usize {
        self.node_count() - self.n_original
    }

    /// The enhanced DAG `Gc`.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// What node `v` represents.
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kind[v as usize]
    }

    /// Running time `ω(v)` (execution or communication time).
    pub fn exec(&self, v: NodeId) -> Time {
        self.exec[v as usize]
    }

    /// All running times, indexed by node.
    pub fn exec_times(&self) -> &[Time] {
        &self.exec
    }

    /// Execution unit of node `v`.
    pub fn unit_of(&self, v: NodeId) -> UnitId {
        self.unit_of[v as usize]
    }

    /// Number of execution units (compute processors + used links).
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Power data of unit `u`.
    pub fn unit(&self, u: UnitId) -> UnitInfo {
        self.units[u as usize]
    }

    /// Working power of the unit executing node `v`.
    pub fn work_power(&self, v: NodeId) -> Power {
        self.units[self.unit_of[v as usize] as usize].p_work
    }

    /// `P_idle + P_work` of the unit executing `v` (used by the weighted
    /// scores and the greedy budget decrement).
    pub fn unit_total_power(&self, v: NodeId) -> Power {
        let u = self.units[self.unit_of[v as usize] as usize];
        u.p_idle + u.p_work
    }

    /// `max_u (P_idle + P_work)` over all units.
    pub fn max_unit_total_power(&self) -> Power {
        self.max_unit_total_power
    }

    /// Execution order of nodes on unit `u` (fixed by the mapping).
    pub fn unit_order(&self, u: UnitId) -> &[NodeId] {
        &self.unit_order[u as usize]
    }

    /// Total idle power of the *whole* platform (including unused links).
    pub fn total_idle_power(&self) -> Power {
        self.total_idle
    }

    /// A topological order of `Gc`, precomputed once.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// The content digest caches key this instance by
    /// ([`crate::digest`]): absorbed on the first call, a memo load on
    /// every later one.
    pub fn digest(&self) -> InstanceDigest {
        *self.digest.get_or_init(|| InstanceDigest::of(self))
    }

    /// The ASAP schedule: every node at its earliest start time (§5.1).
    /// Its makespan `D` is the tightest feasible deadline.
    pub fn asap_schedule(&self) -> Schedule {
        let mut start = vec![0 as Time; self.node_count()];
        for &u in &self.topo {
            let finish = start[u as usize] + self.exec[u as usize];
            for &v in self.dag.successors(u) {
                start[v as usize] = start[v as usize].max(finish);
            }
        }
        Schedule::new(start)
    }

    /// The ASAP makespan `D` (basis of the deadline factors, §6.1).
    pub fn asap_makespan(&self) -> Time {
        self.asap_schedule().makespan(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_graph::WorkflowBuilder;
    use cawo_heft::heft_schedule;

    /// Workflow: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 (diamond).
    fn diamond() -> Workflow {
        let mut b = WorkflowBuilder::new("diamond");
        let s = b.add_task(8);
        let l = b.add_task(16);
        let r = b.add_task(16);
        let t = b.add_task(8);
        b.add_dependence(s, l, 4);
        b.add_dependence(s, r, 4);
        b.add_dependence(l, t, 4);
        b.add_dependence(r, t, 4);
        b.build().unwrap()
    }

    #[test]
    fn same_processor_has_no_comm_tasks() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[3], 0);
        let mapping = Mapping::single_processor(&wf, &cluster, 0);
        let inst = Instance::build(&wf, &cluster, &mapping);
        assert_eq!(inst.node_count(), 4);
        assert_eq!(inst.comm_task_count(), 0);
        // The order chain serialises everything on unit 0.
        assert_eq!(inst.unit_order(0).len(), 4);
    }

    #[test]
    fn cross_processor_edges_become_comm_tasks() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[3, 3], 0);
        // Force 1 on the other processor: edges (0,1) and (1,3) cross.
        let mapping = Mapping::from_parts(
            &wf,
            &cluster,
            vec![0, 1, 0, 0],
            vec![vec![0, 2, 3], vec![1]],
            vec![0, 8, 8, 24],
            vec![8, 24, 24, 32],
        )
        .unwrap();
        let inst = Instance::build(&wf, &cluster, &mapping);
        assert_eq!(inst.comm_task_count(), 2);
        assert_eq!(inst.node_count(), 6);
        // Comm nodes carry NodeKind::Comm with the original endpoints.
        let comms: Vec<_> = (4..6)
            .map(|v| match inst.kind(v as NodeId) {
                NodeKind::Comm { from, to } => (from, to),
                NodeKind::Task => panic!("expected comm"),
            })
            .collect();
        assert!(comms.contains(&(0, 1)));
        assert!(comms.contains(&(1, 3)));
        // Link units were materialised (both directions used).
        assert_eq!(inst.unit_count(), 2 + 2);
        // Every comm node sits between its endpoints.
        for v in 4..6 as NodeId {
            if let NodeKind::Comm { from, to } = inst.kind(v) {
                assert!(inst.dag().edge_position(from, v).is_some());
                assert!(inst.dag().edge_position(v, to).is_some());
            }
        }
    }

    #[test]
    fn comm_exec_matches_comm_time() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[3, 3], 0);
        let mapping = Mapping::from_parts(
            &wf,
            &cluster,
            vec![0, 1, 0, 0],
            vec![vec![0, 2, 3], vec![1]],
            vec![0, 8, 8, 24],
            vec![8, 24, 24, 32],
        )
        .unwrap();
        let inst = Instance::build(&wf, &cluster, &mapping);
        for v in 4..6 as NodeId {
            assert_eq!(inst.exec(v), cluster.comm_time(4));
        }
    }

    #[test]
    fn asap_matches_hand_computation() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[3], 0); // PT4 speed 12 ⇒ exec = ceil(w*8/12)
        let mapping = Mapping::single_processor(&wf, &cluster, 0);
        let inst = Instance::build(&wf, &cluster, &mapping);
        // exec: 8*8/12=6 (ceil 16*8/12=11): tasks 6,11,11,6 in chain.
        assert_eq!(inst.exec(0), 6);
        assert_eq!(inst.exec(1), 11);
        let asap = inst.asap_schedule();
        assert_eq!(asap.makespan(&inst), 6 + 11 + 11 + 6);
    }

    #[test]
    fn asap_is_valid_and_earliest() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[0, 5], 1);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let asap = inst.asap_schedule();
        let t = asap.makespan(&inst);
        assert!(asap.validate(&inst, t).is_ok());
        // No node can start earlier than ASAP.
        for &v in inst.topo_order() {
            let est = inst
                .dag()
                .predecessors(v)
                .iter()
                .map(|&u| asap.start(u) + inst.exec(u))
                .max()
                .unwrap_or(0);
            assert_eq!(asap.start(v), est);
        }
    }

    #[test]
    fn heft_mapping_builds_consistent_instance() {
        use cawo_graph::generator::{generate, Family, GeneratorConfig};
        let wf = generate(&GeneratorConfig::new(Family::Eager, 120, 5));
        let cluster = Cluster::from_type_counts("mini", &[1, 1, 1, 1, 1, 1], 5);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        // Units hold each node exactly once.
        let mut seen = vec![false; inst.node_count()];
        for u in 0..inst.unit_count() as UnitId {
            for &v in inst.unit_order(u) {
                assert_eq!(inst.unit_of(v), u);
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Topological order covers Gc.
        assert!(inst.dag().is_topological_order(inst.topo_order()));
        // ASAP is valid.
        let asap = inst.asap_schedule();
        assert!(asap.validate(&inst, asap.makespan(&inst)).is_ok());
    }

    #[test]
    fn from_raw_roundtrip() {
        use cawo_graph::dag::DagBuilder;
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let dag = b.build().unwrap();
        let units = vec![UnitInfo {
            p_idle: 0,
            p_work: 1,
            is_link: false,
        }];
        let inst = Instance::from_raw(dag, vec![3, 4], vec![0, 0], units, 0);
        assert_eq!(inst.node_count(), 2);
        assert_eq!(inst.exec(1), 4);
        assert_eq!(inst.unit_order(0), &[0, 1]);
        assert_eq!(inst.asap_makespan(), 7);
        assert_eq!(inst.total_idle_power(), 0);
        assert_eq!(inst.max_unit_total_power(), 1);

        // The digest is absorbed on first use, and a clone carries it.
        assert!(inst.digest.get().is_none());
        let d = inst.digest();
        assert_eq!(inst.digest.get(), Some(&d));
        assert_eq!(inst.clone().digest.get(), Some(&d));
    }
}
