//! Small-instance optimality comparison (Figure 7).
//!
//! The paper compares the heuristics against Gurobi-optimal solutions on
//! instances with up to 200 tasks. Our exact solver is the
//! branch-and-bound of `cawo-exact` (docs/ARCHITECTURE.md,
//! "Substitutions"), whose tractable ceiling is lower, so this grid uses
//! small workflows with deliberately small weights on tiny heterogeneous
//! clusters; the measured quantity — `optimal cost / heuristic cost` per
//! variant — is the same as the paper's.

use rayon::prelude::*;

use cawo_core::{carbon_cost, Cost, Instance, Schedule, Variant};
use cawo_exact::{solve_exact, BnbConfig, Budget};
use cawo_graph::generator::{generate, Family, GeneratorConfig, WeightDistribution};
use cawo_heft::heft_schedule;
use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario};

/// Outcome of one exact-vs-heuristics instance.
#[derive(Debug, Clone)]
pub struct ExactCmpResult {
    /// Instance description.
    pub label: String,
    /// Exact (or best-found) cost.
    pub optimal: Cost,
    /// Whether optimality was proven within the node budget.
    pub proved: bool,
    /// Explored branch-and-bound nodes.
    pub nodes: u64,
    /// `(variant, cost)` for every compared heuristic.
    pub heuristic: Vec<(Variant, Cost)>,
}

impl ExactCmpResult {
    /// `optimal / heuristic` ratio (the paper's Fig. 7 quantity; 1 when
    /// the heuristic is optimal, conventions as in §6.2).
    pub fn ratio(&self, v: Variant) -> f64 {
        #[expect(
            clippy::expect_used,
            reason = "rows hold one entry per compared variant; querying an uncompared variant is a bug in the caller's report wiring."
        )]
        let h = self
            .heuristic
            .iter()
            .find(|&&(hv, _)| hv == v)
            .map(|&(_, c)| c)
            .expect("variant was compared");
        if h == self.optimal {
            1.0
        } else if h == 0 {
            // Unreachable when `optimal` is a true optimum (h >= opt).
            0.0
        } else {
            self.optimal as f64 / h as f64
        }
    }
}

/// Configuration of the Fig. 7 grid.
#[derive(Debug, Clone)]
pub struct ExactCmpConfig {
    /// Number of instances.
    pub instances: usize,
    /// Tasks per workflow (kept small; the search is exponential).
    pub tasks: usize,
    /// Branch-and-bound node budget per instance.
    pub node_limit: u64,
    /// Master seed.
    pub seed: u64,
    /// Variants to compare (defaults to ASAP + the 8 `-LS` variants).
    pub variants: Vec<Variant>,
}

impl Default for ExactCmpConfig {
    fn default() -> Self {
        let mut variants = vec![Variant::Asap];
        variants.extend(Variant::WITH_LS);
        ExactCmpConfig {
            instances: 12,
            tasks: 9,
            node_limit: 3_000_000,
            seed: 42,
            variants,
        }
    }
}

/// Small weights keep horizons (and the time-indexed search space)
/// tractable for the exact solver.
fn small_weights() -> WeightDistribution {
    WeightDistribution {
        node_mean: 5.0,
        node_sd: 2.0,
        node_min: 2,
        node_max: 9,
        edge_mean: 2.0,
        edge_sd: 1.0,
        edge_min: 1,
        edge_max: 3,
    }
}

/// Runs the comparison grid in parallel.
pub fn run_exact_comparison(cfg: &ExactCmpConfig) -> Vec<ExactCmpResult> {
    let scenarios = Scenario::ALL;
    let families = Family::ALL;
    (0..cfg.instances)
        .into_par_iter()
        .map(|i| {
            let family = families[(i / scenarios.len()) % families.len()];
            let scenario = scenarios[i % scenarios.len()];
            let seed = cfg.seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
            let gcfg = GeneratorConfig {
                family,
                target_tasks: cfg.tasks,
                seed,
                weights: small_weights(),
            };
            let wf = generate(&gcfg);
            // Tiny 2-processor cluster: one slow, one fast (types 0, 5).
            let cluster = Cluster::tiny(&[0, 5], seed);
            let mapping = heft_schedule(&wf, &cluster);
            let inst = Instance::build(&wf, &cluster, &mapping);
            let profile = ProfileConfig {
                scenario,
                deadline: DeadlineFactor::X15,
                seed,
                intervals: 6,
                perturbation: 0.1,
            }
            .build(&cluster, inst.asap_makespan());

            let mut heuristic: Vec<(Variant, Cost)> = Vec::new();
            let mut best: Option<(Cost, Schedule)> = None;
            for &v in &cfg.variants {
                let s = v.run(&inst, &profile);
                let c = carbon_cost(&inst, &s, &profile);
                if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    best = Some((c, s.clone()));
                }
                heuristic.push((v, c));
            }
            let res = solve_exact(
                &inst,
                &profile,
                BnbConfig {
                    budget: Budget::nodes(cfg.node_limit),
                    incumbent: best.map(|(_, s)| s),
                    ..BnbConfig::default()
                },
            );
            ExactCmpResult {
                label: format!("{}/{}/n{}", wf.name(), scenario.label(), inst.node_count()),
                optimal: res.cost,
                proved: res.optimal,
                nodes: res.nodes,
                heuristic,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_at_most_one_when_proved() {
        let cfg = ExactCmpConfig {
            instances: 4,
            tasks: 6,
            node_limit: 500_000,
            seed: 9,
            ..ExactCmpConfig::default()
        };
        let results = run_exact_comparison(&cfg);
        assert_eq!(results.len(), 4);
        for r in &results {
            for &(v, c) in &r.heuristic {
                if r.proved {
                    assert!(c >= r.optimal, "{}: {v} beat the optimum", r.label);
                }
                let ratio = r.ratio(v);
                assert!((0.0..=1.0).contains(&ratio) || !r.proved);
            }
        }
    }

    #[test]
    fn heuristics_land_within_factor_two_of_optimum() {
        // §6.2: "the median cost ratio is still reasonable when we
        // compare our heuristics to exact solutions". On tiny
        // adversarial instances the heuristics rarely hit the optimum
        // exactly, but the best heuristic should stay within 2× of it.
        let cfg = ExactCmpConfig {
            instances: 4,
            tasks: 6,
            node_limit: 500_000,
            seed: 5,
            ..ExactCmpConfig::default()
        };
        let results = run_exact_comparison(&cfg);
        for r in results.iter().filter(|r| r.proved) {
            let best = r.heuristic.iter().map(|&(_, c)| c).min().unwrap();
            assert!(
                best >= r.optimal,
                "{}: heuristic beat a proven optimum",
                r.label
            );
            assert!(
                best <= 2 * r.optimal.max(1),
                "{}: best heuristic {best} vs optimum {}",
                r.label,
                r.optimal
            );
        }
    }
}
