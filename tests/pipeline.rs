//! End-to-end integration tests: generate → map → enhance → schedule →
//! validate → cost, across families, scenarios, deadline factors and
//! clusters.

use cawosched::prelude::*;

/// A small but non-trivial instance shared by several tests.
fn setup(
    family: Family,
    tasks: usize,
    scenario: Scenario,
    deadline: DeadlineFactor,
    seed: u64,
) -> (Instance, PowerProfile, Cluster) {
    let wf = generate(&GeneratorConfig::new(family, tasks, seed));
    let cluster = Cluster::from_type_counts("itest", &[2, 2, 2, 2, 2, 2], seed);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile =
        ProfileConfig::new(scenario, deadline, seed).build(&cluster, inst.asap_makespan());
    (inst, profile, cluster)
}

#[test]
fn every_variant_is_valid_on_every_family() {
    for family in [
        Family::Atacseq,
        Family::Bacass,
        Family::Eager,
        Family::Methylseq,
    ] {
        let (inst, profile, _) = setup(family, 120, Scenario::SolarMorning, DeadlineFactor::X20, 1);
        for v in Variant::ALL {
            let sched = v.run(&inst, &profile);
            sched
                .validate(&inst, profile.deadline())
                .unwrap_or_else(|e| panic!("{family:?}/{v}: {e}"));
        }
    }
}

#[test]
fn asap_meets_the_tightest_deadline_exactly() {
    let (inst, _, cluster) = setup(
        Family::Eager,
        100,
        Scenario::Constant,
        DeadlineFactor::X10,
        2,
    );
    let profile = ProfileConfig::new(Scenario::Constant, DeadlineFactor::X10, 2)
        .build(&cluster, inst.asap_makespan());
    assert_eq!(profile.deadline(), inst.asap_makespan());
    // Every variant still produces a valid schedule at factor 1.0.
    for v in Variant::ALL {
        let sched = v.run(&inst, &profile);
        assert!(sched.validate(&inst, profile.deadline()).is_ok(), "{v}");
    }
}

#[test]
fn local_search_never_hurts_across_the_grid() {
    for (scenario, deadline) in [
        (Scenario::SolarMorning, DeadlineFactor::X15),
        (Scenario::SolarMidday, DeadlineFactor::X20),
        (Scenario::Sinusoidal, DeadlineFactor::X30),
        (Scenario::Constant, DeadlineFactor::X10),
    ] {
        let (inst, profile, _) = setup(Family::Atacseq, 80, scenario, deadline, 3);
        for ls in Variant::WITH_LS {
            let greedy = ls.without_local_search();
            let c_ls = carbon_cost(&inst, &ls.run(&inst, &profile), &profile);
            let c_gr = carbon_cost(&inst, &greedy.run(&inst, &profile), &profile);
            assert!(c_ls <= c_gr, "{ls} ({c_ls}) worse than {greedy} ({c_gr})");
        }
    }
}

#[test]
fn heuristics_beat_asap_on_solar_profiles_with_slack() {
    // §6.2's headline: with tolerance in the deadline and little green
    // power early (S1), CaWoSched saves substantially over ASAP.
    let (inst, profile, _) = setup(
        Family::Methylseq,
        150,
        Scenario::SolarMorning,
        DeadlineFactor::X30,
        4,
    );
    let asap_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
    assert!(asap_cost > 0);
    for v in Variant::WITH_LS {
        let cost = carbon_cost(&inst, &v.run(&inst, &profile), &profile);
        assert!(
            (cost as f64) < 0.9 * asap_cost as f64,
            "{v}: {cost} vs ASAP {asap_cost}"
        );
    }
}

#[test]
fn deterministic_end_to_end() {
    let (inst_a, profile_a, _) = setup(
        Family::Bacass,
        60,
        Scenario::Sinusoidal,
        DeadlineFactor::X15,
        5,
    );
    let (inst_b, profile_b, _) = setup(
        Family::Bacass,
        60,
        Scenario::Sinusoidal,
        DeadlineFactor::X15,
        5,
    );
    assert_eq!(profile_a.budgets(), profile_b.budgets());
    for v in Variant::ALL {
        let a = v.run(&inst_a, &profile_a);
        let b = v.run(&inst_b, &profile_b);
        assert_eq!(a.starts(), b.starts(), "{v} not deterministic");
    }
}

#[test]
fn cost_engines_agree_on_heuristic_schedules() {
    use cawosched::core::{carbon_cost_naive, CostEngine, DenseGrid, IntervalEngine};
    let (inst, profile, _) = setup(
        Family::Eager,
        60,
        Scenario::SolarMidday,
        DeadlineFactor::X20,
        6,
    );
    for v in [Variant::Asap, Variant::SlackWR, Variant::PressRLs] {
        let sched = v.run(&inst, &profile);
        let sweep = carbon_cost(&inst, &sched, &profile);
        let naive = carbon_cost_naive(&inst, &sched, &profile);
        let dense = DenseGrid::build(&inst, &sched, &profile).total_cost();
        let sparse = IntervalEngine::build(&inst, &sched, &profile).total_cost();
        assert_eq!(sweep, naive, "{v}");
        assert_eq!(sweep, dense, "{v}");
        assert_eq!(sweep, sparse, "{v}");
    }
}

#[test]
fn ilp_checker_accepts_all_variant_schedules() {
    use cawosched::exact::check_schedule_against_ilp;
    // Keep the instance tiny: the ILP has Θ(N·T) variables.
    let wf = generate(&GeneratorConfig {
        family: Family::Bacass,
        target_tasks: 8,
        seed: 7,
        weights: cawosched::graph::generator::WeightDistribution {
            node_mean: 4.0,
            node_sd: 1.0,
            node_min: 2,
            node_max: 6,
            edge_mean: 1.5,
            edge_sd: 0.5,
            edge_min: 1,
            edge_max: 2,
        },
    });
    let cluster = Cluster::tiny(&[2, 4], 7);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig {
        scenario: Scenario::SolarMorning,
        deadline: DeadlineFactor::X15,
        seed: 7,
        intervals: 5,
        perturbation: 0.1,
    }
    .build(&cluster, inst.asap_makespan());
    for v in Variant::ALL {
        let sched = v.run(&inst, &profile);
        let obj = check_schedule_against_ilp(&inst, &profile, &sched)
            .unwrap_or_else(|e| panic!("{v}: {e}"));
        assert_eq!(obj, carbon_cost(&inst, &sched, &profile), "{v}");
    }
}

#[test]
fn exact_solver_lower_bounds_all_heuristics() {
    use cawosched::exact::{solve_exact, BnbConfig};
    let wf = generate(&GeneratorConfig {
        family: Family::Methylseq,
        target_tasks: 8,
        seed: 8,
        weights: cawosched::graph::generator::WeightDistribution {
            node_mean: 4.0,
            node_sd: 1.0,
            node_min: 2,
            node_max: 6,
            edge_mean: 1.5,
            edge_sd: 0.5,
            edge_min: 1,
            edge_max: 2,
        },
    });
    let cluster = Cluster::tiny(&[1, 5], 8);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig {
        scenario: Scenario::Sinusoidal,
        deadline: DeadlineFactor::X15,
        seed: 8,
        intervals: 5,
        perturbation: 0.1,
    }
    .build(&cluster, inst.asap_makespan());
    let exact = solve_exact(&inst, &profile, BnbConfig::default());
    assert!(exact.optimal, "search space should be exhausted on 8 tasks");
    for v in Variant::ALL {
        let cost = carbon_cost(&inst, &v.run(&inst, &profile), &profile);
        assert!(cost >= exact.cost, "{v} beat the proven optimum");
    }
}

#[test]
fn uniprocessor_dp_matches_bnb_end_to_end() {
    use cawosched::exact::{dp_polynomial, dp_pseudo_polynomial, solve_exact, BnbConfig};
    let wf = generate(&GeneratorConfig {
        family: Family::Bacass,
        target_tasks: 7,
        seed: 9,
        weights: cawosched::graph::generator::WeightDistribution {
            node_mean: 4.0,
            node_sd: 1.0,
            node_min: 2,
            node_max: 6,
            edge_mean: 1.5,
            edge_sd: 0.5,
            edge_min: 1,
            edge_max: 2,
        },
    });
    let cluster = Cluster::tiny(&[3], 9);
    let mapping = Mapping::single_processor(&wf, &cluster, 0);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig {
        scenario: Scenario::SolarMorning,
        deadline: DeadlineFactor::X20,
        seed: 9,
        intervals: 6,
        perturbation: 0.1,
    }
    .build(&cluster, inst.asap_makespan());
    let poly = dp_polynomial(&inst, &profile);
    let pseudo = dp_pseudo_polynomial(&inst, &profile);
    let bnb = solve_exact(&inst, &profile, BnbConfig::default());
    assert!(bnb.optimal);
    assert_eq!(poly.cost, pseudo.cost);
    assert_eq!(poly.cost, bnb.cost);
}

#[test]
fn clusters_small_and_large_both_work() {
    let wf = generate(&GeneratorConfig::new(Family::Atacseq, 200, 10));
    for cluster in [Cluster::paper_small(10), Cluster::paper_large(10)] {
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::Sinusoidal, DeadlineFactor::X15, 10)
            .build(&cluster, inst.asap_makespan());
        let asap_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
        let sched = Variant::SlackWRLs.run(&inst, &profile);
        assert!(sched.validate(&inst, profile.deadline()).is_ok());
        assert!(carbon_cost(&inst, &sched, &profile) <= asap_cost);
    }
}

#[test]
fn dot_roundtrip_preserves_scheduling_behaviour() {
    use cawosched::graph::dot;
    let wf = generate(&GeneratorConfig::new(Family::Eager, 50, 12));
    let reparsed = dot::from_dot(&dot::to_dot(&wf)).unwrap();
    let cluster = Cluster::tiny(&[0, 3], 12);
    let profile_for = |w: &Workflow| {
        let mapping = heft_schedule(w, &cluster);
        let inst = Instance::build(w, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 12)
            .build(&cluster, inst.asap_makespan());
        let sched = Variant::PressLs.run(&inst, &profile);
        carbon_cost(&inst, &sched, &profile)
    };
    assert_eq!(profile_for(&wf), profile_for(&reparsed));
}

#[test]
fn run_params_variations_all_valid() {
    use cawosched::core::variant::RunParams;
    let (inst, profile, _) = setup(
        Family::Eager,
        60,
        Scenario::SolarMorning,
        DeadlineFactor::X20,
        15,
    );
    for params in [
        RunParams {
            mu: 0,
            block_k: 1,
            refine_cap: 8,
            ..RunParams::default()
        },
        RunParams {
            mu: 50,
            block_k: 4,
            refine_cap: usize::MAX,
            ..RunParams::default()
        },
        RunParams {
            mu: 10,
            block_k: 3,
            refine_cap: 4096,
            engine: cawosched::core::EngineKind::Dense,
        },
    ] {
        for v in [Variant::SlackWRLs, Variant::PressR, Variant::PressWRLs] {
            let sched = v.run_with(&inst, &profile, params);
            assert!(
                sched.validate(&inst, profile.deadline()).is_ok(),
                "{v} with {params:?}"
            );
        }
    }
}

#[test]
fn uncapped_refinement_never_worse_at_greedy_stage() {
    use cawosched::core::variant::RunParams;
    // Not a theorem — more boundaries usually help the greedy; assert a
    // sane relation (within 2x) rather than strict dominance.
    let (inst, profile, _) = setup(
        Family::Bacass,
        40,
        Scenario::SolarMorning,
        DeadlineFactor::X20,
        16,
    );
    let capped = Variant::SlackR.run_with(
        &inst,
        &profile,
        RunParams {
            refine_cap: 64,
            ..RunParams::default()
        },
    );
    let uncapped = Variant::SlackR.run_with(
        &inst,
        &profile,
        RunParams {
            refine_cap: usize::MAX,
            ..RunParams::default()
        },
    );
    let c_capped = carbon_cost(&inst, &capped, &profile);
    let c_uncapped = carbon_cost(&inst, &uncapped, &profile);
    assert!(
        c_uncapped <= 2 * c_capped.max(1),
        "{c_uncapped} vs {c_capped}"
    );
}

#[test]
fn carbon_heft_two_pass_end_to_end() {
    use cawosched::heft::{two_pass_carbon_heft, CarbonHeftConfig};
    let wf = generate(&GeneratorConfig::new(Family::Atacseq, 100, 18));
    let cluster = Cluster::from_type_counts("itest", &[2, 2, 2, 2, 2, 2], 18);
    let (mapping, profile) = two_pass_carbon_heft(
        &wf,
        &cluster,
        Scenario::SolarMorning,
        DeadlineFactor::X20,
        18,
        CarbonHeftConfig::default(),
    );
    let inst = Instance::build(&wf, &cluster, &mapping);
    // The makespan guard keeps the remapped instance within the shared
    // deadline on typical instances.
    assert!(inst.asap_makespan() <= profile.deadline());
    let sched = Variant::PressWRLs.run(&inst, &profile);
    assert!(sched.validate(&inst, profile.deadline()).is_ok());
}

#[test]
fn gantt_renders_for_pipeline_schedules() {
    use cawosched::sim::report::render_gantt;
    let (inst, profile, _) = setup(
        Family::Bacass,
        40,
        Scenario::SolarMidday,
        DeadlineFactor::X15,
        19,
    );
    let sched = Variant::SlackLs.run(&inst, &profile);
    let g = render_gantt(&inst, &sched, &profile, 80);
    assert!(g.lines().count() >= 2);
    assert!(g.contains("green"));
    assert!(g.contains('#'));
}
