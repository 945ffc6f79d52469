//! Synthetic workflow generator reproducing §6.1 of the paper.
//!
//! The paper evaluates on four real-world Nextflow workflows (atacseq,
//! bacass, eager, methylseq) plus WfGen-style scaled replicas with 200 to
//! 30 000 vertices. The traces themselves are not redistributable, so this
//! module generates *family-shaped* synthetic instances: each family is a
//! template of per-sample pipeline stages plus global aggregation stages,
//! instantiated for however many samples are needed to reach the target
//! vertex count — exactly the structural scaling WfGen performs with a
//! model graph (see docs/ARCHITECTURE.md, "Substitutions").
//!
//! Vertex and edge weights follow a normal distribution with vertex
//! weights "in general larger than edge weights" (§6.1); all weights are
//! integers and every instance is reproducible from its seed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};

use crate::workflow::{Workflow, WorkflowBuilder};
use crate::{NodeId, Weight};

/// The four workflow families of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// ATAC-seq peak-calling pipeline: per-sample chains with a two-way
    /// branch after alignment, converging into consensus/QC stages.
    Atacseq,
    /// Bacterial assembly: almost purely sequential per-sample chains,
    /// one global summary. The paper only uses the real-world instance.
    Bacass,
    /// Ancient-DNA pipeline: wide three-way per-sample branching with two
    /// global merge points.
    Eager,
    /// Bisulfite-sequencing pipeline: map-reduce shape, two independent
    /// global reductions over different per-sample stages.
    Methylseq,
}

impl Family {
    /// All families, in the order the paper lists them.
    pub const ALL: [Family; 4] = [
        Family::Atacseq,
        Family::Bacass,
        Family::Eager,
        Family::Methylseq,
    ];

    /// Lower-case name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Family::Atacseq => "atacseq",
            Family::Bacass => "bacass",
            Family::Eager => "eager",
            Family::Methylseq => "methylseq",
        }
    }

    fn template(self) -> &'static FamilyTemplate {
        match self {
            Family::Atacseq => &ATACSEQ,
            Family::Bacass => &BACASS,
            Family::Eager => &EAGER,
            Family::Methylseq => &METHYLSEQ,
        }
    }

    /// Number of samples used for the "real-world" base instance.
    pub fn real_world_samples(self) -> usize {
        match self {
            Family::Atacseq => 24,
            Family::Bacass => 8,
            Family::Eager => 16,
            Family::Methylseq => 16,
        }
    }

    /// The scaled vertex counts the paper uses for this family
    /// (§6.1: atacseq/methylseq get all eleven sizes, eager stops at
    /// 18 000, bacass is only used in its real-world version).
    pub fn paper_sizes(self) -> &'static [usize] {
        const ALL_SIZES: [usize; 11] = [
            200, 1_000, 2_000, 4_000, 8_000, 10_000, 15_000, 18_000, 20_000, 25_000, 30_000,
        ];
        match self {
            Family::Atacseq | Family::Methylseq => &ALL_SIZES,
            Family::Eager => &ALL_SIZES[..8],
            Family::Bacass => &[],
        }
    }
}

/// Structural template: per-sample stage DAG + global aggregation stages.
struct FamilyTemplate {
    /// Per-sample stages; entry `i` lists the in-sample predecessors of
    /// stage `i` (indices `< i`). An empty list marks a sample source.
    sample_stages: &'static [&'static [usize]],
    /// Global stages; each entry is `(fan_in_sample_stages, global_preds)`:
    /// the per-sample stages whose instance in *every* sample feeds this
    /// global node, and the global predecessors (indices `< i`).
    global_stages: &'static [(&'static [usize], &'static [usize])],
}

/// nf-core/atacseq shape: fastqc(0), trim(1), align(2), filter(3),
/// callpeak(4), bigwig(5), sample_qc(6); globals: consensus(all 4),
/// counts(consensus), deseq(counts), multiqc(all 0 & 6, deseq).
static ATACSEQ: FamilyTemplate = FamilyTemplate {
    sample_stages: &[
        &[],     // 0 fastqc
        &[0],    // 1 trim_galore
        &[1],    // 2 bwa_align
        &[2],    // 3 filter_bam
        &[3],    // 4 macs2_callpeak
        &[3],    // 5 bigwig
        &[4, 5], // 6 sample_qc
    ],
    global_stages: &[
        (&[4], &[]),     // 7 consensus_peaks <- every callpeak
        (&[], &[0]),     // 8 featurecounts <- consensus
        (&[], &[1]),     // 9 deseq2 <- counts
        (&[0, 6], &[2]), // 10 multiqc <- every fastqc + sample_qc + deseq2
    ],
};

/// nf-core/bacass shape: mostly a chain per sample.
static BACASS: FamilyTemplate = FamilyTemplate {
    sample_stages: &[
        &[],  // 0 trim
        &[0], // 1 unicycler_assembly
        &[1], // 2 polish_medaka
        &[2], // 3 polish_pilon
        &[3], // 4 prokka_annotate
        &[4], // 5 quast_qc
    ],
    global_stages: &[
        (&[5], &[]),  // 6 summary <- every quast
        (&[0], &[0]), // 7 multiqc <- every trim + summary
    ],
};

/// nf-core/eager shape: three-way branch per sample, two global merges.
static EAGER: FamilyTemplate = FamilyTemplate {
    sample_stages: &[
        &[],     // 0 fastqc
        &[0],    // 1 adapter_removal
        &[1],    // 2 map_bwa
        &[2],    // 3 dedup
        &[3],    // 4 damageprofiler
        &[3],    // 5 qualimap
        &[3],    // 6 genotyping
        &[4, 5], // 7 sample_report
    ],
    global_stages: &[
        (&[6], &[]),     // 8 genotype_merge <- every genotyping
        (&[], &[0]),     // 9 phylo <- genotype_merge
        (&[0, 7], &[1]), // 10 multiqc <- every fastqc + report + phylo
    ],
};

/// nf-core/methylseq shape: map-reduce with two reductions.
static METHYLSEQ: FamilyTemplate = FamilyTemplate {
    sample_stages: &[
        &[],  // 0 fastqc
        &[0], // 1 trim
        &[1], // 2 bismark_align
        &[2], // 3 dedup
        &[3], // 4 methylation_extract
        &[4], // 5 sample_report
    ],
    global_stages: &[
        (&[5], &[]),     // 6 bismark_summary <- every sample_report
        (&[0, 4], &[0]), // 7 multiqc <- every fastqc + extract + summary
    ],
};

/// Normal weight distributions for vertices and edges (§6.1: vertex
/// weights in general larger than edge weights). Values are clamped and
/// rounded to positive integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightDistribution {
    /// Mean of vertex weights.
    pub node_mean: f64,
    /// Standard deviation of vertex weights.
    pub node_sd: f64,
    /// Lower clamp of vertex weights.
    pub node_min: Weight,
    /// Upper clamp of vertex weights.
    pub node_max: Weight,
    /// Mean of edge weights.
    pub edge_mean: f64,
    /// Standard deviation of edge weights.
    pub edge_sd: f64,
    /// Lower clamp of edge weights.
    pub edge_min: Weight,
    /// Upper clamp of edge weights.
    pub edge_max: Weight,
}

impl Default for WeightDistribution {
    fn default() -> Self {
        WeightDistribution {
            node_mean: 100.0,
            node_sd: 25.0,
            node_min: 20,
            node_max: 250,
            edge_mean: 15.0,
            edge_sd: 5.0,
            edge_min: 1,
            edge_max: 40,
        }
    }
}

impl WeightDistribution {
    fn sample_node(&self, rng: &mut StdRng) -> Weight {
        sample_clamped(
            rng,
            self.node_mean,
            self.node_sd,
            self.node_min,
            self.node_max,
        )
    }

    fn sample_edge(&self, rng: &mut StdRng) -> Weight {
        sample_clamped(
            rng,
            self.edge_mean,
            self.edge_sd,
            self.edge_min,
            self.edge_max,
        )
    }
}

fn sample_clamped(rng: &mut StdRng, mean: f64, sd: f64, lo: Weight, hi: Weight) -> Weight {
    let normal = Normal::new(mean, sd).expect("sd > 0");
    let x = normal.sample(rng).round();
    if !x.is_finite() || x < lo as f64 {
        lo
    } else if x > hi as f64 {
        hi
    } else {
        x as Weight
    }
}

/// Configuration for one generated workflow instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorConfig {
    /// Workflow family (structural template).
    pub family: Family,
    /// Target number of tasks; the generator chooses the number of samples
    /// so the result is as close as possible (exact only when the template
    /// arithmetic allows).
    pub target_tasks: usize,
    /// Master seed; every weight derives from it.
    pub seed: u64,
    /// Weight distributions.
    pub weights: WeightDistribution,
}

impl GeneratorConfig {
    /// Convenience constructor with default weight distributions.
    pub fn new(family: Family, target_tasks: usize, seed: u64) -> Self {
        GeneratorConfig {
            family,
            target_tasks,
            seed,
            weights: WeightDistribution::default(),
        }
    }

    /// Configuration of the family's "real-world" base instance.
    pub fn real_world(family: Family, seed: u64) -> Self {
        let t = family.template();
        let tasks = family.real_world_samples() * t.sample_stages.len() + t.global_stages.len();
        GeneratorConfig::new(family, tasks, seed)
    }
}

/// Generates a workflow from `config`. Deterministic in the seed.
pub fn generate(config: &GeneratorConfig) -> Workflow {
    let template = config.family.template();
    let per_sample = template.sample_stages.len();
    let globals = template.global_stages.len();
    let samples = if config.target_tasks <= globals + per_sample {
        1
    } else {
        // Round to nearest sample count.
        ((config.target_tasks - globals) as f64 / per_sample as f64)
            .round()
            .max(1.0) as usize
    };
    let n = samples * per_sample + globals;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = WorkflowBuilder::new(format!("{}-{}", config.family.name(), n));

    // Per-sample stage nodes, laid out sample-major so node ids are
    // contiguous per sample: node(sample s, stage k) = s * per_sample + k.
    for _ in 0..samples * per_sample {
        let w = config.weights.sample_node(&mut rng);
        b.add_task(w);
    }
    // Global nodes follow.
    for _ in 0..globals {
        let w = config.weights.sample_node(&mut rng);
        b.add_task(w);
    }
    let global_base = (samples * per_sample) as NodeId;

    for s in 0..samples {
        let base = (s * per_sample) as NodeId;
        for (k, preds) in template.sample_stages.iter().enumerate() {
            for &p in preds.iter() {
                let c = config.weights.sample_edge(&mut rng);
                b.add_dependence(base + p as NodeId, base + k as NodeId, c);
            }
        }
    }
    for (g, (fan_in, gpreds)) in template.global_stages.iter().enumerate() {
        let gnode = global_base + g as NodeId;
        for &stage in fan_in.iter() {
            for s in 0..samples {
                let c = config.weights.sample_edge(&mut rng);
                b.add_dependence((s * per_sample + stage) as NodeId, gnode, c);
            }
        }
        for &p in gpreds.iter() {
            let c = config.weights.sample_edge(&mut rng);
            b.add_dependence(global_base + p as NodeId, gnode, c);
        }
    }

    b.build().expect("templates are acyclic by construction")
}

/// Descriptor of one of the paper's 34 workflow instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaperInstance {
    /// Workflow family.
    pub family: Family,
    /// `None` = real-world base instance, `Some(n)` = scaled to `n` tasks.
    pub scaled_to: Option<usize>,
}

/// The paper's 34-workflow grid (§6.1): 12 atacseq, 1 bacass, 9 eager,
/// 12 methylseq (real-world base + scaled replicas each).
pub fn paper_instances() -> Vec<PaperInstance> {
    let mut out = Vec::with_capacity(34);
    for family in Family::ALL {
        out.push(PaperInstance {
            family,
            scaled_to: None,
        });
        for &n in family.paper_sizes() {
            out.push(PaperInstance {
                family,
                scaled_to: Some(n),
            });
        }
    }
    out
}

/// Instantiates a [`PaperInstance`] with a per-instance seed derived from
/// `master_seed`.
pub fn instantiate(instance: &PaperInstance, master_seed: u64) -> Workflow {
    // Cheap splitmix-style derivation keeps instances decorrelated.
    let tag = (instance.family as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (instance.scaled_to.unwrap_or(0) as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let seed = master_seed ^ tag;
    let config = match instance.scaled_to {
        None => GeneratorConfig::real_world(instance.family, seed),
        Some(n) => GeneratorConfig::new(instance.family, n, seed),
    };
    let mut wf = generate(&config);
    if instance.scaled_to.is_none() {
        wf = wf.with_name(format!("{}-real", instance.family.name()));
    }
    wf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_names_and_templates() {
        for f in Family::ALL {
            assert!(!f.name().is_empty());
            assert!(!f.template().sample_stages.is_empty());
            assert!(!f.template().global_stages.is_empty());
        }
    }

    #[test]
    fn generated_sizes_are_close_to_target() {
        for f in Family::ALL {
            for &target in &[200usize, 1_000, 4_000] {
                let wf = generate(&GeneratorConfig::new(f, target, 7));
                let n = wf.task_count();
                let per_sample = f.template().sample_stages.len();
                assert!(
                    n.abs_diff(target) <= per_sample,
                    "{}: got {n}, target {target}",
                    f.name()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let c = GeneratorConfig::new(Family::Eager, 500, 42);
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.task_count(), b.task_count());
        assert_eq!(a.node_weights(), b.node_weights());
        assert_eq!(a.dag().edge_count(), b.dag().edge_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::new(Family::Atacseq, 500, 1));
        let b = generate(&GeneratorConfig::new(Family::Atacseq, 500, 2));
        assert_eq!(a.task_count(), b.task_count());
        assert_ne!(a.node_weights(), b.node_weights());
    }

    #[test]
    fn generated_workflows_are_connected_dags() {
        for f in Family::ALL {
            let wf = generate(&GeneratorConfig::new(f, 300, 3));
            assert!(wf.dag().topological_order().is_some());
            assert!(wf.dag().is_weakly_connected(), "{} not connected", f.name());
        }
    }

    #[test]
    fn vertex_weights_dominate_edge_weights() {
        // §6.1: vertex weights are "in general larger" than edge weights.
        let wf = generate(&GeneratorConfig::new(Family::Methylseq, 1_000, 9));
        let mean_node: f64 =
            wf.node_weights().iter().map(|&w| w as f64).sum::<f64>() / wf.task_count() as f64;
        let mean_edge: f64 = (0..wf.edge_count())
            .map(|e| wf.edge_weight(e) as f64)
            .sum::<f64>()
            / wf.edge_count() as f64;
        assert!(
            mean_node > 3.0 * mean_edge,
            "node {mean_node} vs edge {mean_edge}"
        );
    }

    #[test]
    fn weights_respect_clamps() {
        let c = GeneratorConfig::new(Family::Atacseq, 2_000, 11);
        let wf = generate(&c);
        for &w in wf.node_weights() {
            assert!(w >= c.weights.node_min && w <= c.weights.node_max);
        }
        for e in 0..wf.edge_count() {
            let w = wf.edge_weight(e);
            assert!(w >= c.weights.edge_min && w <= c.weights.edge_max);
        }
    }

    #[test]
    fn paper_grid_has_34_instances() {
        let grid = paper_instances();
        assert_eq!(grid.len(), 34);
        let atacseq = grid.iter().filter(|i| i.family == Family::Atacseq).count();
        let bacass = grid.iter().filter(|i| i.family == Family::Bacass).count();
        let eager = grid.iter().filter(|i| i.family == Family::Eager).count();
        let methylseq = grid
            .iter()
            .filter(|i| i.family == Family::Methylseq)
            .count();
        assert_eq!((atacseq, bacass, eager, methylseq), (12, 1, 9, 12));
    }

    #[test]
    fn real_world_instances_have_expected_shape() {
        for f in Family::ALL {
            let wf = instantiate(
                &PaperInstance {
                    family: f,
                    scaled_to: None,
                },
                5,
            );
            assert!(wf.name().ends_with("-real"));
            let t = f.template();
            assert_eq!(
                wf.task_count(),
                f.real_world_samples() * t.sample_stages.len() + t.global_stages.len()
            );
        }
    }

    #[test]
    fn eager_caps_at_18000() {
        assert_eq!(*Family::Eager.paper_sizes().last().unwrap(), 18_000);
        assert_eq!(*Family::Atacseq.paper_sizes().last().unwrap(), 30_000);
    }

    #[test]
    fn tiny_target_yields_single_sample() {
        let wf = generate(&GeneratorConfig::new(Family::Bacass, 1, 0));
        let t = Family::Bacass.template();
        assert_eq!(
            wf.task_count(),
            t.sample_stages.len() + t.global_stages.len()
        );
    }
}
