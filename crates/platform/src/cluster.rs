//! Heterogeneous cluster with fictional communication-link processors.
//!
//! §3: the platform is a cluster of `P` heterogeneous processors with a
//! fully connected full-duplex topology. Each of the `P(P-1)` directed
//! links is a *fictional processor* that executes communication tasks;
//! links draw a small random idle/working power (1 or 2 units, §6.1) to
//! introduce mild heterogeneity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::processor::{exec_time, ProcessorType, PAPER_PROCESSOR_TYPES};
use crate::{Power, Time};

/// Compute-processor index (`0..P`).
pub type ProcId = u32;

/// Directed-link index (`0..P(P-1)`); see [`Cluster::link_id`].
pub type LinkId = u32;

/// One concrete compute processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeProcessor {
    /// Normalized speed (Table 1).
    pub speed: u64,
    /// Idle power `P_idle`.
    pub p_idle: Power,
    /// Working power `P_work`.
    pub p_work: Power,
    /// Index into the processor-type table this processor was drawn from.
    pub type_index: u8,
}

/// A cluster: `P` compute processors plus `P(P-1)` directed links.
///
/// The paper's two evaluation platforms are [`Cluster::paper_small`]
/// (12 nodes of each of the 6 types, 72 total) and
/// [`Cluster::paper_large`] (24 each, 144 total).
#[derive(Debug, Clone)]
pub struct Cluster {
    name: String,
    procs: Vec<ComputeProcessor>,
    /// `(p_idle, p_work)` of every directed link, indexed by [`LinkId`].
    link_power: Vec<(Power, Power)>,
    total_idle: Power,
    total_work: Power,
}

impl Cluster {
    /// Builds a cluster with `counts[i]` processors of
    /// `PAPER_PROCESSOR_TYPES[i]`. Link powers are drawn uniformly from
    /// {1, 2} using `seed` (§6.1).
    pub fn from_type_counts(name: impl Into<String>, counts: &[usize; 6], seed: u64) -> Self {
        let types: Vec<(ProcessorType, usize)> = PAPER_PROCESSOR_TYPES
            .iter()
            .copied()
            .zip(counts.iter().copied())
            .collect();
        Self::from_types(name, &types, seed)
    }

    /// Builds a cluster from explicit `(type, count)` pairs.
    pub fn from_types(
        name: impl Into<String>,
        types: &[(ProcessorType, usize)],
        seed: u64,
    ) -> Self {
        let mut procs = Vec::new();
        for (ti, &(t, count)) in types.iter().enumerate() {
            for _ in 0..count {
                procs.push(ComputeProcessor {
                    speed: t.speed,
                    p_idle: t.p_idle,
                    p_work: t.p_work,
                    type_index: ti as u8,
                });
            }
        }
        assert!(
            !procs.is_empty(),
            "cluster must have at least one processor"
        );
        let p = procs.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1A5_7E2D_0000_0000);
        let link_power: Vec<(Power, Power)> = (0..p * p.saturating_sub(1))
            .map(|_| (rng.gen_range(1..=2), rng.gen_range(1..=2)))
            .collect();
        let total_idle = procs.iter().map(|q| q.p_idle).sum::<Power>()
            + link_power.iter().map(|&(i, _)| i).sum::<Power>();
        let total_work = procs.iter().map(|q| q.p_work).sum::<Power>()
            + link_power.iter().map(|&(_, w)| w).sum::<Power>();
        Cluster {
            name: name.into(),
            procs,
            link_power,
            total_idle,
            total_work,
        }
    }

    /// The paper's *small* cluster: 12 nodes per type, 72 total.
    pub fn paper_small(seed: u64) -> Self {
        Self::from_type_counts("small", &[12; 6], seed)
    }

    /// The paper's *large* cluster: 24 nodes per type, 144 total.
    pub fn paper_large(seed: u64) -> Self {
        Self::from_type_counts("large", &[24; 6], seed)
    }

    /// A deliberately tiny cluster (one processor of each given type
    /// index) for tests and exact-solver experiments.
    pub fn tiny(type_indices: &[usize], seed: u64) -> Self {
        let types: Vec<(ProcessorType, usize)> = type_indices
            .iter()
            .map(|&i| (PAPER_PROCESSOR_TYPES[i], 1))
            .collect();
        Self::from_types("tiny", &types, seed)
    }

    /// Cluster name (`"small"`, `"large"`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of compute processors `P`.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Number of directed links `P(P-1)`.
    pub fn link_count(&self) -> usize {
        self.link_power.len()
    }

    /// The compute processor with index `p`.
    pub fn proc(&self, p: ProcId) -> &ComputeProcessor {
        &self.procs[p as usize]
    }

    /// All compute processors.
    pub fn procs(&self) -> &[ComputeProcessor] {
        &self.procs
    }

    /// Dense id of the directed link `from -> to` (`from != to`).
    pub fn link_id(&self, from: ProcId, to: ProcId) -> LinkId {
        debug_assert_ne!(from, to);
        let p = self.proc_count() as u32;
        debug_assert!(from < p && to < p);
        let col = if to > from { to - 1 } else { to };
        from * (p - 1) + col
    }

    /// `(p_idle, p_work)` of a directed link.
    pub fn link_power(&self, link: LinkId) -> (Power, Power) {
        self.link_power[link as usize]
    }

    /// Integer running time of a task with weight `w` on processor `p`.
    pub fn exec_time(&self, w: u64, p: ProcId) -> Time {
        exec_time(w, self.procs[p as usize].speed)
    }

    /// Communication time of an edge with weight `c` between two distinct
    /// processors. Bandwidth is normalized to 1 (§6.1), so this is `c`
    /// (and 0 for co-located tasks, handled by the caller).
    pub fn comm_time(&self, c: u64) -> Time {
        c.max(1)
    }

    /// Total idle power `Σ P_idle` over compute processors *and* links —
    /// the lower clamp of every green budget (§6.1).
    pub fn total_idle_power(&self) -> Power {
        self.total_idle
    }

    /// Total working power `Σ P_work` over compute processors and links.
    pub fn total_work_power(&self) -> Power {
        self.total_work
    }

    /// `P_idle + P_work` of compute processor `p` — the weighting factor
    /// numerator of the weighted scores (§5.2).
    pub fn proc_total_power(&self, p: ProcId) -> Power {
        let q = &self.procs[p as usize];
        q.p_idle + q.p_work
    }

    /// `max_j (P_idle + P_work)` over compute processors — the weighting
    /// factor denominator of §5.2.
    pub fn max_proc_total_power(&self) -> Power {
        self.procs
            .iter()
            .map(|q| q.p_idle + q.p_work)
            .max()
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_small_has_72_nodes() {
        let c = Cluster::paper_small(1);
        assert_eq!(c.proc_count(), 72);
        assert_eq!(c.link_count(), 72 * 71);
        assert_eq!(c.name(), "small");
    }

    #[test]
    fn paper_large_has_144_nodes() {
        let c = Cluster::paper_large(1);
        assert_eq!(c.proc_count(), 144);
        assert_eq!(c.link_count(), 144 * 143);
    }

    #[test]
    fn link_ids_are_dense_and_unique() {
        let c = Cluster::tiny(&[0, 1, 2, 3], 0);
        let p = c.proc_count() as u32;
        let mut seen = vec![false; c.link_count()];
        for a in 0..p {
            for b in 0..p {
                if a == b {
                    continue;
                }
                let id = c.link_id(a, b) as usize;
                assert!(id < c.link_count());
                assert!(!seen[id], "duplicate link id {id}");
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn link_power_in_range() {
        let c = Cluster::paper_small(7);
        for l in 0..c.link_count() as u32 {
            let (i, w) = c.link_power(l);
            assert!((1..=2).contains(&i));
            assert!((1..=2).contains(&w));
        }
    }

    #[test]
    fn link_power_is_deterministic_in_seed() {
        let a = Cluster::paper_small(7);
        let b = Cluster::paper_small(7);
        let c = Cluster::paper_small(8);
        assert_eq!(a.link_power, b.link_power);
        assert_ne!(a.link_power, c.link_power);
    }

    #[test]
    fn totals_add_up() {
        let c = Cluster::tiny(&[0, 5], 3);
        // Compute: 40+10 and 200+100; links: 2 links with power 1..=2 each.
        let link_idle: Power = (0..c.link_count() as u32).map(|l| c.link_power(l).0).sum();
        let link_work: Power = (0..c.link_count() as u32).map(|l| c.link_power(l).1).sum();
        assert_eq!(c.total_idle_power(), 40 + 200 + link_idle);
        assert_eq!(c.total_work_power(), 10 + 100 + link_work);
    }

    #[test]
    fn exec_and_comm_times() {
        let c = Cluster::tiny(&[0, 5], 0); // speeds 4 and 32
        assert_eq!(c.exec_time(100, 0), 200);
        assert_eq!(c.exec_time(100, 1), 25);
        assert_eq!(c.comm_time(5), 5);
        assert_eq!(c.comm_time(0), 1);
    }

    #[test]
    fn weighting_factors() {
        let c = Cluster::tiny(&[0, 5], 0);
        assert_eq!(c.proc_total_power(0), 50);
        assert_eq!(c.proc_total_power(1), 300);
        assert_eq!(c.max_proc_total_power(), 300);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn empty_cluster_panics() {
        let _ = Cluster::from_types("empty", &[], 0);
    }
}
