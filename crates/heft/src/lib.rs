//! HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. \[34\]).
//!
//! CaWoSched assumes the *mapping* of tasks to processors and the
//! *ordering* of tasks and communications on each processor/link are
//! given, "for instance as the result of executing the de-facto standard
//! HEFT algorithm" (§1). This crate is that standard: the paper's §6.1
//! uses "our own basic HEFT implementation without special techniques for
//! tie-breaking", which is exactly what [`heft_schedule`] implements —
//! upward ranks, processors chosen by earliest finish time with insertion,
//! ties broken by lowest processor id.
//!
//! The output [`Mapping`] also records HEFT's start/finish times; the
//! CaWoSched core uses the finish times to fix the ordering of
//! communication tasks that share a link.

use cawo_graph::{NodeId, Workflow};
use cawo_platform::{Cluster, ProcId, Time};

pub mod carbon;

pub use carbon::{carbon_heft_schedule, two_pass_carbon_heft, CarbonHeftConfig};

/// A fixed assignment of tasks to processors together with the execution
/// order on each processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    proc_of: Vec<ProcId>,
    proc_order: Vec<Vec<NodeId>>,
    start: Vec<Time>,
    finish: Vec<Time>,
}

/// Errors raised by [`Mapping::from_parts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// `proc_of` length does not match the task count.
    WrongLength {
        /// Number of workflow tasks.
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// A processor id is out of range.
    ProcOutOfRange(ProcId),
    /// A task appears zero or multiple times in the per-processor orders.
    OrderMismatch(NodeId),
    /// The per-processor order contradicts a DAG precedence.
    OrderViolatesPrecedence {
        /// The predecessor task.
        before: NodeId,
        /// The successor placed earlier in the order.
        after: NodeId,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::WrongLength { expected, got } => {
                write!(f, "proc_of has length {got}, expected {expected}")
            }
            MappingError::ProcOutOfRange(p) => write!(f, "processor {p} out of range"),
            MappingError::OrderMismatch(v) => {
                write!(f, "task {v} missing or duplicated in processor orders")
            }
            MappingError::OrderViolatesPrecedence { before, after } => {
                write!(f, "order places {after} before its predecessor {before}")
            }
        }
    }
}

impl std::error::Error for MappingError {}

impl Mapping {
    /// Builds a mapping from explicit parts, validating consistency:
    /// every task appears exactly once in the order of its processor, and
    /// per-processor orders do not contradict DAG precedences.
    ///
    /// `start`/`finish` seed the communication ordering; use the task's
    /// position when no schedule is available.
    pub fn from_parts(
        wf: &Workflow,
        cluster: &Cluster,
        proc_of: Vec<ProcId>,
        proc_order: Vec<Vec<NodeId>>,
        start: Vec<Time>,
        finish: Vec<Time>,
    ) -> Result<Self, MappingError> {
        let n = wf.task_count();
        if proc_of.len() != n || start.len() != n || finish.len() != n {
            return Err(MappingError::WrongLength {
                expected: n,
                got: proc_of.len(),
            });
        }
        for &p in &proc_of {
            if (p as usize) >= cluster.proc_count() {
                return Err(MappingError::ProcOutOfRange(p));
            }
        }
        let mut seen = vec![false; n];
        for (p, order) in proc_order.iter().enumerate() {
            for &v in order {
                if (v as usize) >= n || seen[v as usize] || proc_of[v as usize] as usize != p {
                    return Err(MappingError::OrderMismatch(v));
                }
                seen[v as usize] = true;
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(MappingError::OrderMismatch(v as NodeId));
        }
        // Per-processor order must respect precedences among co-located
        // tasks (otherwise the combined graph Gc would be cyclic).
        let mut pos = vec![0usize; n];
        for order in &proc_order {
            for (i, &v) in order.iter().enumerate() {
                pos[v as usize] = i;
            }
        }
        for (u, v) in wf.dag().edges() {
            if proc_of[u as usize] == proc_of[v as usize] && pos[u as usize] > pos[v as usize] {
                return Err(MappingError::OrderViolatesPrecedence {
                    before: u,
                    after: v,
                });
            }
        }
        Ok(Mapping {
            proc_of,
            proc_order,
            start,
            finish,
        })
    }

    /// Maps every task to one processor in DAG topological order — the
    /// uniprocessor setting of §4.1.
    pub fn single_processor(wf: &Workflow, cluster: &Cluster, proc: ProcId) -> Self {
        let order = wf.dag().topological_order().expect("workflow is acyclic");
        let n = wf.task_count();
        let mut start = vec![0 as Time; n];
        let mut finish = vec![0 as Time; n];
        let mut t = 0;
        for &v in &order {
            start[v as usize] = t;
            t += cluster.exec_time(wf.node_weight(v), proc);
            finish[v as usize] = t;
        }
        let mut proc_order = vec![Vec::new(); cluster.proc_count()];
        proc_order[proc as usize] = order;
        Mapping {
            proc_of: vec![proc; n],
            proc_order,
            start,
            finish,
        }
    }

    /// Processor of task `v`.
    pub fn proc_of(&self, v: NodeId) -> ProcId {
        self.proc_of[v as usize]
    }

    /// Execution order of tasks on processor `p`.
    pub fn order_on(&self, p: ProcId) -> &[NodeId] {
        &self.proc_order[p as usize]
    }

    /// HEFT (or seed) start time of task `v`; only used for diagnostics
    /// and to fix communication orderings.
    pub fn seed_start(&self, v: NodeId) -> Time {
        self.start[v as usize]
    }

    /// HEFT (or seed) finish time of task `v`.
    pub fn seed_finish(&self, v: NodeId) -> Time {
        self.finish[v as usize]
    }

    /// HEFT makespan (max finish time).
    pub fn seed_makespan(&self) -> Time {
        self.finish.iter().copied().max().unwrap_or(0)
    }

    /// Number of processors that received at least one task.
    pub fn used_proc_count(&self) -> usize {
        self.proc_order.iter().filter(|o| !o.is_empty()).count()
    }
}

/// Runs HEFT and returns the mapping plus ordering it produces.
///
/// * ranks: `rank_u(v) = w̄(v) + max_succ (c(v,s) + rank_u(s))` with `w̄`
///   the mean execution time over all processors and `c` the edge weight
///   (mean communication cost at unit bandwidth),
/// * priority: non-increasing `rank_u`, ties by task id (no special
///   tie-breaking, §6.1),
/// * placement: insertion-based earliest finish time over all processors,
///   ties by lowest processor id.
pub fn heft_schedule(wf: &Workflow, cluster: &Cluster) -> Mapping {
    // `min_by_key` keeps the first minimum: the lowest processor.
    list_schedule(wf, cluster, |slots| {
        slots
            .min_by_key(|s| s.finish)
            .expect("cluster has at least one processor")
    })
}

/// A processor's earliest insertion slot for the task being placed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) proc: ProcId,
    pub(crate) start: Time,
    pub(crate) finish: Time,
}

/// The list scheduler behind [`heft_schedule`] and
/// [`carbon_heft_schedule`]: HEFT's upward ranks and priority order,
/// then for each task every processor's ready time and earliest
/// insertion slot. `pick` draws those slots in processor order and
/// returns the one to take.
pub(crate) fn list_schedule(
    wf: &Workflow,
    cluster: &Cluster,
    mut pick: impl FnMut(&mut dyn Iterator<Item = Slot>) -> Slot,
) -> Mapping {
    let n = wf.task_count();
    let dag = wf.dag();
    let p = cluster.proc_count();

    // Mean execution times over processors (f64 to avoid bias).
    let mean_exec: Vec<f64> = (0..n)
        .map(|v| {
            let w = wf.node_weight(v as NodeId);
            (0..p)
                .map(|q| cluster.exec_time(w, q as ProcId) as f64)
                .sum::<f64>()
                / p as f64
        })
        .collect();

    // Upward ranks in reverse topological order.
    let topo = dag.topological_order().expect("workflow is acyclic");
    let mut rank = vec![0.0f64; n];
    for &v in topo.iter().rev() {
        let mut best = 0.0f64;
        for (s, e) in dag.out_edges(v) {
            let c = if p > 1 { wf.edge_weight(e) as f64 } else { 0.0 };
            best = best.max(c + rank[s as usize]);
        }
        rank[v as usize] = mean_exec[v as usize] + best;
    }

    // Priority list: non-increasing rank (stable sort ⇒ ties by id).
    let mut prio: Vec<NodeId> = (0..n as NodeId).collect();
    prio.sort_by(|&a, &b| {
        rank[b as usize]
            .partial_cmp(&rank[a as usize])
            .expect("ranks are finite")
            .then(a.cmp(&b))
    });

    // Insertion-based placement.
    let mut busy: Vec<Vec<(Time, Time, NodeId)>> = vec![Vec::new(); p];
    let mut proc_of = vec![0 as ProcId; n];
    let mut start = vec![0 as Time; n];
    let mut finish = vec![0 as Time; n];
    let mut placed = vec![false; n];

    for &v in &prio {
        debug_assert!(
            dag.predecessors(v).iter().all(|&u| placed[u as usize]),
            "HEFT priority order must be topological"
        );
        let mut candidates = (0..p as ProcId).map(|q| {
            let exec = cluster.exec_time(wf.node_weight(v), q);
            // Ready time on q: all predecessors finished and data arrived.
            let mut ready = 0;
            for (u, e) in dag.in_edges(v) {
                let mut t = finish[u as usize];
                if proc_of[u as usize] != q {
                    t += cluster.comm_time(wf.edge_weight(e));
                }
                ready = ready.max(t);
            }
            let st = earliest_slot(&busy[q as usize], ready, exec);
            Slot {
                proc: q,
                start: st,
                finish: st + exec,
            }
        });
        let Slot {
            proc: q,
            start: st,
            finish: ft,
        } = pick(&mut candidates);
        proc_of[v as usize] = q;
        start[v as usize] = st;
        finish[v as usize] = ft;
        placed[v as usize] = true;
        let slots = &mut busy[q as usize];
        let at = slots.partition_point(|&(s, _, _)| s < st);
        slots.insert(at, (st, ft, v));
    }

    let mut proc_order = vec![Vec::new(); p];
    for (q, slots) in busy.iter().enumerate() {
        proc_order[q] = slots.iter().map(|&(_, _, v)| v).collect();
    }
    Mapping {
        proc_of,
        proc_order,
        start,
        finish,
    }
}

/// Earliest start `>= ready` such that `[start, start+exec)` fits between
/// existing busy slots (insertion policy).
fn earliest_slot(busy: &[(Time, Time, NodeId)], ready: Time, exec: Time) -> Time {
    let mut t = ready;
    // Start scanning at the first slot that could overlap [t, t+exec).
    let mut i = busy.partition_point(|&(_, e, _)| e <= ready);
    while i < busy.len() {
        let (s, e, _) = busy[i];
        if t + exec <= s {
            return t;
        }
        t = t.max(e);
        i += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_graph::generator::{generate, Family, GeneratorConfig};
    use cawo_graph::WorkflowBuilder;

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

    fn check_valid(wf: &Workflow, cluster: &Cluster, m: &Mapping) {
        let n = wf.task_count();
        let mut seen = vec![false; n];
        for q in 0..cluster.proc_count() as ProcId {
            for &v in m.order_on(q) {
                assert_eq!(m.proc_of(v), q);
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
            for w in m.order_on(q).windows(2) {
                assert!(
                    m.seed_finish(w[0]) <= m.seed_start(w[1]),
                    "overlap on proc {q}"
                );
            }
        }
        assert!(seen.iter().all(|&s| s));
        // Precedences hold in seed times (with communication delay).
        for (u, v) in wf.dag().edges() {
            let mut ready = m.seed_finish(u);
            if m.proc_of(u) != m.proc_of(v) {
                ready += cluster.comm_time(wf.edge_weight_between(u, v).unwrap());
            }
            assert!(m.seed_start(v) >= ready, "edge ({u},{v}) violated");
        }
    }

    #[test]
    fn heft_on_diamond_is_valid() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[0, 5], 1);
        let m = heft_schedule(&wf, &cluster);
        check_valid(&wf, &cluster, &m);
    }

    #[test]
    fn heft_prefers_fast_processor_for_entry_task() {
        let wf = diamond();
        // PT1 (speed 4) vs PT6 (speed 32): the entry task should land on
        // the fast processor — an 8x slowdown dominates communication.
        let cluster = Cluster::tiny(&[0, 5], 1);
        let m = heft_schedule(&wf, &cluster);
        assert_eq!(m.proc_of(0), 1);
    }

    #[test]
    fn heft_parallelizes_independent_tasks() {
        let mut b = WorkflowBuilder::new("indep");
        for _ in 0..8 {
            b.add_task(64);
        }
        let wf = b.build().unwrap();
        let cluster = Cluster::tiny(&[5, 5, 5, 5], 1);
        let m = heft_schedule(&wf, &cluster);
        check_valid(&wf, &cluster, &m);
        assert_eq!(m.used_proc_count(), 4, "independent tasks should spread");
        let seq: Time = (0..8).map(|v| cluster.exec_time(64, m.proc_of(v))).sum();
        assert!(m.seed_makespan() < seq);
    }

    #[test]
    fn heft_on_generated_families_is_valid() {
        for f in Family::ALL {
            let wf = generate(&GeneratorConfig::new(f, 150, 13));
            let cluster = Cluster::from_type_counts("mini", &[2, 2, 2, 2, 2, 2], 13);
            let m = heft_schedule(&wf, &cluster);
            check_valid(&wf, &cluster, &m);
        }
    }

    #[test]
    fn single_processor_mapping() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[2], 0);
        let m = Mapping::single_processor(&wf, &cluster, 0);
        check_valid(&wf, &cluster, &m);
        assert_eq!(m.used_proc_count(), 1);
        let total: Time = (0..4)
            .map(|v| cluster.exec_time(wf.node_weight(v), 0))
            .sum();
        assert_eq!(m.seed_makespan(), total);
    }

    #[test]
    fn from_parts_validates() {
        let wf = diamond();
        let cluster = Cluster::tiny(&[0, 1], 0);
        assert!(matches!(
            Mapping::from_parts(
                &wf,
                &cluster,
                vec![0; 3],
                vec![vec![], vec![]],
                vec![0; 3],
                vec![0; 3]
            ),
            Err(MappingError::WrongLength { .. })
        ));
        assert!(matches!(
            Mapping::from_parts(
                &wf,
                &cluster,
                vec![9, 0, 0, 0],
                vec![vec![1, 2, 3], vec![]],
                vec![0; 4],
                vec![0; 4]
            ),
            Err(MappingError::ProcOutOfRange(9))
        ));
        assert!(matches!(
            Mapping::from_parts(
                &wf,
                &cluster,
                vec![0, 0, 0, 0],
                vec![vec![0, 1, 2], vec![]],
                vec![0; 4],
                vec![0; 4]
            ),
            Err(MappingError::OrderMismatch(_))
        ));
        assert!(matches!(
            Mapping::from_parts(
                &wf,
                &cluster,
                vec![0, 0, 0, 0],
                vec![vec![3, 0, 1, 2], vec![]],
                vec![0; 4],
                vec![0; 4]
            ),
            Err(MappingError::OrderViolatesPrecedence { .. })
        ));
        let m = Mapping::from_parts(
            &wf,
            &cluster,
            vec![0, 0, 1, 0],
            vec![vec![0, 1, 3], vec![2]],
            vec![0, 10, 10, 50],
            vec![10, 30, 30, 60],
        )
        .unwrap();
        assert_eq!(m.proc_of(2), 1);
        assert_eq!(m.order_on(0), &[0, 1, 3]);
    }

    #[test]
    fn earliest_slot_insertion() {
        let busy = vec![(10, 20, 0 as NodeId), (30, 40, 1)];
        assert_eq!(earliest_slot(&busy, 0, 10), 0);
        assert_eq!(earliest_slot(&busy, 5, 8), 20);
        assert_eq!(earliest_slot(&busy, 22, 8), 22);
        assert_eq!(earliest_slot(&busy, 15, 25), 40);
        assert_eq!(earliest_slot(&[], 7, 3), 7);
    }

    #[test]
    fn heft_is_deterministic() {
        let wf = generate(&GeneratorConfig::new(Family::Atacseq, 300, 3));
        let cluster = Cluster::paper_small(3);
        let a = heft_schedule(&wf, &cluster);
        let b = heft_schedule(&wf, &cluster);
        assert_eq!(a, b);
    }

    #[test]
    fn large_cluster_concentrates_on_fast_processors() {
        // §6.1: "Since there are more fast and power-intensive processors
        // on the large cluster, HEFT schedules more tasks to these
        // processors". The share of tasks on the two fastest types should
        // not shrink from small to large cluster.
        let wf = generate(&GeneratorConfig::new(Family::Eager, 400, 9));
        let small = Cluster::paper_small(9);
        let large = Cluster::paper_large(9);
        let share = |c: &Cluster| {
            let m = heft_schedule(&wf, c);
            let fast = (0..wf.task_count() as NodeId)
                .filter(|&v| c.proc(m.proc_of(v)).type_index >= 4)
                .count();
            fast as f64 / wf.task_count() as f64
        };
        assert!(share(&large) >= share(&small) * 0.9);
    }
}
