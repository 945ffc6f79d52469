//! The named algorithm variants of the paper.
//!
//! Four scores (slack, slackW, press, pressW) × two subdivisions
//! (normal, refined `R`) × optional local search (`-LS`) = 16 CaWoSched
//! heuristics, plus the carbon-unaware [`Variant::Asap`] baseline.

use cawo_platform::{PowerProfile, Time};

use crate::engine::{CostEngine, DenseGrid, EngineKind, FenwickEngine, IntervalEngine};
use crate::enhanced::Instance;
use crate::greedy::{greedy_schedule, greedy_schedule_with_engine, GreedyConfig};
use crate::local_search::{local_search_on_engine, LsPolicy};
use crate::schedule::Schedule;
use crate::scores::Score;

/// Tunable parameters shared by all variants (paper defaults: `k = 3`,
/// `µ = 10`; cost engine: interval-sparse).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// Local-search window `µ`.
    pub mu: Time,
    /// Refined-subdivision block size `k`.
    pub block_k: usize,
    /// Cap on refined boundaries (tractability guard; `usize::MAX` to
    /// reproduce the uncapped construction).
    pub refine_cap: usize,
    /// Incremental cost backend for the `-LS` phase. Both backends
    /// produce identical schedules (the deltas are exact either way);
    /// [`EngineKind::Dense`] re-enables the pseudo-polynomial oracle.
    pub engine: EngineKind,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            mu: 10,
            block_k: 3,
            refine_cap: 4096,
            engine: EngineKind::default(),
        }
    }
}

/// One of the 17 evaluated algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[expect(
    missing_docs,
    reason = "systematic naming: score / W(eighted) / R(efined) / Ls"
)]
pub enum Variant {
    Asap,
    Slack,
    SlackW,
    SlackR,
    SlackWR,
    Press,
    PressW,
    PressR,
    PressWR,
    SlackLs,
    SlackWLs,
    SlackRLs,
    SlackWRLs,
    PressLs,
    PressWLs,
    PressRLs,
    PressWRLs,
}

impl Variant {
    /// All 17 variants: baseline first, then the greedy-only eight, then
    /// the eight with local search (paper's Figure 1 ordering).
    pub const ALL: [Variant; 17] = [
        Variant::Asap,
        Variant::Slack,
        Variant::SlackW,
        Variant::SlackR,
        Variant::SlackWR,
        Variant::Press,
        Variant::PressW,
        Variant::PressR,
        Variant::PressWR,
        Variant::SlackLs,
        Variant::SlackWLs,
        Variant::SlackRLs,
        Variant::SlackWRLs,
        Variant::PressLs,
        Variant::PressWLs,
        Variant::PressRLs,
        Variant::PressWRLs,
    ];

    /// The 16 CaWoSched heuristics (everything but the baseline).
    pub const CAWOSCHED: [Variant; 16] = [
        Variant::Slack,
        Variant::SlackW,
        Variant::SlackR,
        Variant::SlackWR,
        Variant::Press,
        Variant::PressW,
        Variant::PressR,
        Variant::PressWR,
        Variant::SlackLs,
        Variant::SlackWLs,
        Variant::SlackRLs,
        Variant::SlackWRLs,
        Variant::PressLs,
        Variant::PressWLs,
        Variant::PressRLs,
        Variant::PressWRLs,
    ];

    /// The eight variants *with* local search — the main configuration
    /// of §6.2.
    pub const WITH_LS: [Variant; 8] = [
        Variant::SlackLs,
        Variant::SlackWLs,
        Variant::SlackRLs,
        Variant::SlackWRLs,
        Variant::PressLs,
        Variant::PressWLs,
        Variant::PressRLs,
        Variant::PressWRLs,
    ];

    /// Paper name, e.g. `"pressWR-LS"`.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Asap => "ASAP",
            Variant::Slack => "slack",
            Variant::SlackW => "slackW",
            Variant::SlackR => "slackR",
            Variant::SlackWR => "slackWR",
            Variant::Press => "press",
            Variant::PressW => "pressW",
            Variant::PressR => "pressR",
            Variant::PressWR => "pressWR",
            Variant::SlackLs => "slack-LS",
            Variant::SlackWLs => "slackW-LS",
            Variant::SlackRLs => "slackR-LS",
            Variant::SlackWRLs => "slackWR-LS",
            Variant::PressLs => "press-LS",
            Variant::PressWLs => "pressW-LS",
            Variant::PressRLs => "pressR-LS",
            Variant::PressWRLs => "pressWR-LS",
        }
    }

    /// Parses a paper name (inverse of [`Variant::name`]). Matching is
    /// ASCII case-insensitive — paper names mix cases (`ASAP`,
    /// `pressWR-LS`) and CLI users should not have to remember which
    /// letters are capitalised.
    pub fn from_name(name: &str) -> Option<Variant> {
        Variant::ALL
            .into_iter()
            .find(|v| v.name().eq_ignore_ascii_case(name))
    }

    /// Greedy components `(score, weighted, refined, local_search)`;
    /// `None` for the baseline.
    pub fn components(self) -> Option<(Score, bool, bool, bool)> {
        use Variant::*;
        Some(match self {
            Asap => return None,
            Slack => (Score::Slack, false, false, false),
            SlackW => (Score::Slack, true, false, false),
            SlackR => (Score::Slack, false, true, false),
            SlackWR => (Score::Slack, true, true, false),
            Press => (Score::Pressure, false, false, false),
            PressW => (Score::Pressure, true, false, false),
            PressR => (Score::Pressure, false, true, false),
            PressWR => (Score::Pressure, true, true, false),
            SlackLs => (Score::Slack, false, false, true),
            SlackWLs => (Score::Slack, true, false, true),
            SlackRLs => (Score::Slack, false, true, true),
            SlackWRLs => (Score::Slack, true, true, true),
            PressLs => (Score::Pressure, false, false, true),
            PressWLs => (Score::Pressure, true, false, true),
            PressRLs => (Score::Pressure, false, true, true),
            PressWRLs => (Score::Pressure, true, true, true),
        })
    }

    /// Whether this variant applies the local search.
    pub fn has_local_search(self) -> bool {
        self.components().is_some_and(|(_, _, _, ls)| ls)
    }

    /// The greedy-only counterpart of an `-LS` variant (identity for
    /// greedy-only variants and the baseline). Used for Table 2.
    pub fn without_local_search(self) -> Variant {
        use Variant::*;
        match self {
            SlackLs => Slack,
            SlackWLs => SlackW,
            SlackRLs => SlackR,
            SlackWRLs => SlackWR,
            PressLs => Press,
            PressWLs => PressW,
            PressRLs => PressR,
            PressWRLs => PressWR,
            other => other,
        }
    }

    /// Runs the variant with paper-default parameters.
    pub fn run(self, inst: &Instance, profile: &PowerProfile) -> Schedule {
        self.run_with(inst, profile, RunParams::default())
    }

    /// Runs the variant with explicit parameters. The cost engine named
    /// by `params.engine` is built once after the greedy phase and
    /// drives the whole local search.
    pub fn run_with(self, inst: &Instance, profile: &PowerProfile, params: RunParams) -> Schedule {
        match self.components() {
            None => inst.asap_schedule(),
            Some((score, weighted, refined, ls)) => {
                let cfg = GreedyConfig {
                    score,
                    weighted,
                    refined,
                    block_k: params.block_k,
                    refine_cap: params.refine_cap,
                };
                if !ls {
                    return greedy_schedule(inst, profile, cfg);
                }
                match params.engine {
                    EngineKind::Dense => run_ls::<DenseGrid>(inst, profile, cfg, params.mu),
                    EngineKind::Interval => run_ls::<IntervalEngine>(inst, profile, cfg, params.mu),
                    EngineKind::Fenwick => run_ls::<FenwickEngine>(inst, profile, cfg, params.mu),
                }
            }
        }
    }
}

/// Greedy + local search over one concrete engine backend.
fn run_ls<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    cfg: GreedyConfig,
    mu: Time,
) -> Schedule {
    let (mut sched, mut engine) = greedy_schedule_with_engine::<E>(inst, profile, cfg);
    local_search_on_engine(
        inst,
        profile,
        &mut sched,
        mu,
        LsPolicy::FirstImprovement,
        &mut engine,
    );
    sched
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::carbon_cost;
    use cawo_graph::generator::{generate, Family, GeneratorConfig};
    use cawo_heft::heft_schedule;
    use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario};

    #[test]
    fn seventeen_variants_with_unique_names() {
        let names: std::collections::BTreeSet<_> = Variant::ALL.iter().map(|v| v.name()).collect();
        assert_eq!(names.len(), 17);
        assert_eq!(Variant::CAWOSCHED.len(), 16);
        assert_eq!(Variant::WITH_LS.len(), 8);
    }

    #[test]
    fn names_roundtrip() {
        for v in Variant::ALL {
            assert_eq!(Variant::from_name(v.name()), Some(v));
        }
        assert_eq!(Variant::from_name("nope"), None);
    }

    #[test]
    fn from_name_is_case_insensitive() {
        assert_eq!(Variant::from_name("asap"), Some(Variant::Asap));
        assert_eq!(Variant::from_name("ASAP"), Some(Variant::Asap));
        assert_eq!(Variant::from_name("presswr-ls"), Some(Variant::PressWRLs));
        assert_eq!(Variant::from_name("PRESSWR-LS"), Some(Variant::PressWRLs));
        assert_eq!(Variant::from_name("SlackW"), Some(Variant::SlackW));
    }

    #[test]
    fn both_engines_produce_identical_schedules() {
        let wf = generate(&GeneratorConfig::new(Family::Methylseq, 50, 9));
        let cluster = Cluster::from_type_counts("mini", &[1, 1, 0, 1, 1, 0], 9);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::SolarMidday, DeadlineFactor::X20, 9)
            .build(&cluster, inst.asap_makespan());
        for v in Variant::ALL {
            let dense = v.run_with(
                &inst,
                &profile,
                RunParams {
                    engine: crate::engine::EngineKind::Dense,
                    ..RunParams::default()
                },
            );
            let sparse = v.run_with(
                &inst,
                &profile,
                RunParams {
                    engine: crate::engine::EngineKind::Interval,
                    ..RunParams::default()
                },
            );
            assert_eq!(dense, sparse, "{v}");
        }
    }

    #[test]
    fn components_match_names() {
        let (score, w, r, ls) = Variant::PressWRLs.components().unwrap();
        assert_eq!(score, Score::Pressure);
        assert!(w && r && ls);
        assert!(Variant::Asap.components().is_none());
        let (score, w, r, ls) = Variant::Slack.components().unwrap();
        assert_eq!(score, Score::Slack);
        assert!(!w && !r && !ls);
    }

    #[test]
    fn ls_strip_mapping() {
        assert_eq!(Variant::PressWRLs.without_local_search(), Variant::PressWR);
        assert_eq!(Variant::SlackLs.without_local_search(), Variant::Slack);
        assert_eq!(Variant::Press.without_local_search(), Variant::Press);
        assert_eq!(Variant::Asap.without_local_search(), Variant::Asap);
        for v in Variant::WITH_LS {
            assert!(v.has_local_search());
            assert!(!v.without_local_search().has_local_search());
        }
    }

    #[test]
    fn all_variants_valid_and_ls_no_worse_than_greedy() {
        let wf = generate(&GeneratorConfig::new(Family::Bacass, 40, 77));
        let cluster = Cluster::from_type_counts("mini", &[1, 0, 1, 0, 1, 1], 77);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::Sinusoidal, DeadlineFactor::X20, 77)
            .build(&cluster, inst.asap_makespan());
        let mut costs = std::collections::BTreeMap::new();
        for v in Variant::ALL {
            let s = v.run(&inst, &profile);
            assert!(s.validate(&inst, profile.deadline()).is_ok(), "{v}");
            costs.insert(v, carbon_cost(&inst, &s, &profile));
        }
        for v in Variant::WITH_LS {
            assert!(
                costs[&v] <= costs[&v.without_local_search()],
                "{v} worse than its greedy-only counterpart"
            );
        }
    }

    #[test]
    fn asap_runs_at_est() {
        let wf = generate(&GeneratorConfig::new(Family::Eager, 30, 1));
        let cluster = Cluster::tiny(&[2, 4], 1);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::Constant, DeadlineFactor::X15, 1)
            .build(&cluster, inst.asap_makespan());
        let s = Variant::Asap.run(&inst, &profile);
        assert_eq!(s, inst.asap_schedule());
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(Variant::PressWRLs.to_string(), "pressWR-LS");
        assert_eq!(Variant::Asap.to_string(), "ASAP");
    }
}
