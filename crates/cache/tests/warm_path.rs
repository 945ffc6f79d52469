//! Warm-path property suite (ISSUE 8): the serving layer may be fast,
//! but never wrong.
//!
//! * Incremental trace-tail re-answers are **bit-identical** to cold
//!   re-pricing across S1–S4 and measured-trace profiles.
//! * Cache lookups never cross distinct keys — distinct queries get
//!   distinct answers, and a simulated primary-key collision is
//!   rejected by the verify signature instead of served.
//! * Warm-started exact solves reach the same optimum as cold ones.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cawo_cache::{instance_fingerprint, CacheOutcome, SolveCache};
use cawo_core::enhanced::UnitInfo;
use cawo_core::{carbon_cost, reanswer_cost, EngineKind, Instance, Variant};
use cawo_exact::{Budget, SolverKind, WarmStart};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{
    Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario, TraceConfig, TraceSource,
};

/// A short inline carbon-intensity trace and a second one that differs
/// only after t = 1200 (a shifted forecast tail).
const TRACE_CSV: &str = "time,intensity\n0,420\n600,95\n1200,250\n1800,340\n";
const TRACE_CSV_TAIL: &str = "time,intensity\n0,420\n600,95\n1200,310\n1800,120\n";

/// A two-unit instance with a cross-unit edge: small enough for every
/// exact solver to exhaust, rich enough to exercise gap costs.
fn two_unit_instance() -> Instance {
    let mut b = DagBuilder::new(6);
    b.add_edge(0, 1);
    b.add_edge(1, 2);
    b.add_edge(0, 3);
    b.add_edge(3, 4);
    b.add_edge(4, 5);
    b.add_edge(2, 5);
    let unit = |p_idle, p_work| UnitInfo {
        p_idle,
        p_work,
        is_link: false,
    };
    Instance::from_raw(
        b.build().unwrap(),
        vec![2, 3, 1, 2, 2, 2],
        vec![0, 0, 0, 1, 1, 0],
        vec![unit(1, 5), unit(2, 3)],
        0,
    )
}

/// S1–S4 at two deadlines and two seeds, plus both trace profiles: the
/// profile population the properties quantify over.
fn profile_zoo(cluster: &Cluster, asap: u64) -> Vec<(String, PowerProfile)> {
    let mut out = Vec::new();
    for scenario in Scenario::ALL {
        for factor in [DeadlineFactor::X15, DeadlineFactor::X30] {
            for seed in [7, 8] {
                out.push((
                    format!("{}/x{}/s{seed}", scenario.label(), factor.as_f64()),
                    ProfileConfig::new(scenario, factor, seed).build(cluster, asap),
                ));
            }
        }
    }
    for (name, csv) in [("trace", TRACE_CSV), ("trace-tail", TRACE_CSV_TAIL)] {
        out.push((
            name.to_string(),
            TraceConfig::new(TraceSource::Csv(csv.to_string()), DeadlineFactor::X20)
                .build(cluster, asap)
                .expect("inline trace loads"),
        ));
    }
    out
}

#[test]
fn incremental_reanswer_is_bit_identical_to_cold() {
    let inst = two_unit_instance();
    let cluster = Cluster::tiny(&[3, 5], 2);
    let zoo = profile_zoo(&cluster, inst.asap_makespan());
    let mut answered = 0usize;
    for (old_name, old) in &zoo {
        let sched = Variant::PressWRLs.run(&inst, old);
        let old_cost = carbon_cost(&inst, &sched, old);
        for (new_name, new) in &zoo {
            // The contract quantifies over arbitrary profile pairs: the
            // divergence point is found internally, whether the change
            // is a tail shift, a full reshape or no change at all.
            match reanswer_cost(&inst, &sched, old, old_cost, new) {
                Some(re) => {
                    assert_eq!(
                        re,
                        carbon_cost(&inst, &sched, new),
                        "re-answer differs from cold re-pricing ({old_name} -> {new_name})"
                    );
                    answered += 1;
                }
                None => {
                    // Only a deadline the cached schedule no longer
                    // meets may refuse an incremental answer.
                    assert!(
                        sched.makespan(&inst) > new.deadline(),
                        "refused re-answer with a fitting schedule ({old_name} -> {new_name})"
                    );
                }
            }
        }
    }
    assert!(answered > zoo.len(), "property quantified over too little");
}

#[test]
fn cache_lookups_never_cross_distinct_keys() {
    // Many small random instances behind one cache: every re-query must
    // come back as a hit carrying its own original answer.
    let mut rng = StdRng::seed_from_u64(0xCA5CADE);
    let cluster = Cluster::tiny(&[3], 2);
    let cache = SolveCache::new();
    let mut instances = Vec::new();
    for _ in 0..40 {
        let n = rng.gen_range(3..8usize);
        let mut b = DagBuilder::new(n);
        for v in 1..n {
            let u = rng.gen_range(0..v);
            b.add_edge(u as u32, v as u32);
        }
        let inst = Instance::from_raw(
            b.build().unwrap(),
            (0..n).map(|_| rng.gen_range(1..5)).collect(),
            vec![0; n],
            vec![UnitInfo {
                p_idle: rng.gen_range(1..3),
                p_work: rng.gen_range(2..6),
                is_link: false,
            }],
            0,
        );
        let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 7)
            .build(&cluster, inst.asap_makespan());
        instances.push((inst, profile));
    }
    let keys: std::collections::HashSet<u128> = instances
        .iter()
        .map(|(inst, _)| instance_fingerprint(inst))
        .collect();
    assert_eq!(keys.len(), instances.len(), "fingerprint collision");

    let engine = EngineKind::default();
    let mut first = Vec::new();
    for (inst, profile) in &instances {
        let (ans, outcome) = cache.evaluate(Variant::PressWRLs, engine, inst, profile);
        assert_eq!(outcome, CacheOutcome::Cold);
        first.push(ans.cost);
    }
    for ((inst, profile), &expected) in instances.iter().zip(&first) {
        let (ans, outcome) = cache.evaluate(Variant::PressWRLs, engine, inst, profile);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(ans.cost, expected, "hit served a foreign answer");
        assert_eq!(ans.cost, carbon_cost(inst, &ans.schedule, profile));
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.cold, stats.rejected), (40, 40, 0));

    // Two copies of one 3-node chain that differ only in the
    // platform's idle power: every cost adds it, so the key must too.
    let chain = |extra_idle| {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let unit = UnitInfo {
            p_idle: 1,
            p_work: 7,
            is_link: false,
        };
        Instance::from_raw(
            b.build().unwrap(),
            vec![3, 2, 4],
            vec![0; 3],
            vec![unit],
            extra_idle,
        )
    };
    let (lean, idle) = (chain(0), chain(5));
    assert_ne!(
        instance_fingerprint(&lean),
        instance_fingerprint(&idle),
        "idle power is part of the instance key"
    );
    let profile = PowerProfile::from_parts(vec![0, 5, 10, 15], vec![9, 4, 8]);
    let cache = SolveCache::new();
    let (_, outcome) = cache.evaluate(Variant::Slack, engine, &lean, &profile);
    assert_eq!(outcome, CacheOutcome::Cold);
    let (ans, outcome) = cache.evaluate(Variant::Slack, engine, &idle, &profile);
    assert_eq!(outcome, CacheOutcome::Cold, "served the lean twin's answer");
    assert_eq!(ans.cost, carbon_cost(&idle, &ans.schedule, &profile));
    // `idle`'s digest is memoised by now: a clone carries it, and a
    // separately rebuilt copy computes the same one.
    for (name, twin) in [("clone", idle.clone()), ("rebuilt", chain(5))] {
        let (again, outcome) = cache.evaluate(Variant::Slack, engine, &twin, &profile);
        assert_eq!(outcome, CacheOutcome::Hit, "{name}");
        assert_eq!(again.cost, ans.cost, "{name}");
    }
}

#[test]
fn cache_lookups_never_cross_time_budget_keys() {
    // A 500 µs cap must not be keyed like "no time limit": the capped
    // answer may be a timeout, which the uncapped query must not be
    // served.
    let inst = two_unit_instance();
    let cluster = Cluster::tiny(&[3, 5], 2);
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 7)
        .build(&cluster, inst.asap_makespan());
    let cache = SolveCache::new();
    let engine = EngineKind::default();
    let capped = Budget {
        node_limit: 200,
        time_limit: Some(std::time::Duration::from_micros(500)),
    };
    let (_, o1) = cache
        .solve(SolverKind::Milp, engine, &inst, &profile, capped)
        .expect("capped solve");
    assert_eq!(o1, CacheOutcome::Cold);
    let (_, o2) = cache
        .solve(
            SolverKind::Milp,
            engine,
            &inst,
            &profile,
            Budget::nodes(200),
        )
        .expect("node-only solve");
    assert_ne!(
        o2,
        CacheOutcome::Hit,
        "node-only query served the capped answer"
    );
}

#[test]
fn collision_guard_rejects_instead_of_serving() {
    let inst = two_unit_instance();
    let cluster = Cluster::tiny(&[3, 5], 2);
    let profile = ProfileConfig::new(Scenario::Sinusoidal, DeadlineFactor::X20, 7)
        .build(&cluster, inst.asap_makespan());
    let cache = SolveCache::new();
    let engine = EngineKind::default();

    let (a, o1) = cache.evaluate(Variant::PressWRLs, engine, &inst, &profile);
    assert_eq!(o1, CacheOutcome::Cold);
    let (_, o2) = cache.evaluate(Variant::PressWRLs, engine, &inst, &profile);
    assert_eq!(o2, CacheOutcome::Hit);

    // Same primary key, wrong verify signature — exactly what a
    // primary-key collision looks like. Must recompute, never serve.
    cache.corrupt_verify_for_tests();
    let (b, o3) = cache.evaluate(Variant::PressWRLs, engine, &inst, &profile);
    assert_eq!(o3, CacheOutcome::Cold);
    assert_eq!(a.cost, b.cost);
    assert!(cache.stats().rejected >= 2, "eval + seed lookups rejected");
}

#[test]
fn warm_started_exact_solves_reach_the_cold_optimum() {
    let inst = two_unit_instance();
    let cluster = Cluster::tiny(&[3, 5], 2);
    let engine = EngineKind::default();
    let budget = Budget::default();
    let old = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 7)
        .build(&cluster, inst.asap_makespan());
    let zoo = profile_zoo(&cluster, inst.asap_makespan());
    for kind in [SolverKind::Bnb, SolverKind::Milp, SolverKind::Ilp] {
        let cache = SolveCache::new();
        let (_, seed_outcome) = cache
            .solve(kind, engine, &inst, &old, budget)
            .expect("seed solve");
        assert_eq!(seed_outcome, CacheOutcome::Cold, "{kind:?}");
        for (name, profile) in &zoo {
            let cold = kind
                .solve_with(engine, &inst, profile, budget, &WarmStart::default())
                .unwrap_or_else(|e| panic!("{kind:?} cold on {name}: {e}"));
            let (warmed, outcome) = cache
                .solve(kind, engine, &inst, profile, budget)
                .unwrap_or_else(|e| panic!("{kind:?} warm on {name}: {e}"));
            assert_ne!(outcome, CacheOutcome::Hit, "{kind:?} {name}: fresh profile");
            assert_eq!(cold.status, warmed.status, "{kind:?} {name}");
            assert_eq!(cold.cost, warmed.cost, "{kind:?} {name}: optimum changed");
            // And a repeat is now an exact-key hit with the same answer.
            let (hit, outcome) = cache
                .solve(kind, engine, &inst, profile, budget)
                .expect("hit");
            assert_eq!(outcome, CacheOutcome::Hit, "{kind:?} {name}");
            assert_eq!(hit.cost, warmed.cost, "{kind:?} {name}");
            assert_eq!(hit.schedule, warmed.schedule, "{kind:?} {name}");
        }
    }
}

/// A 25-task chain (execution times `2, 3, 4, …`, `P_idle` 1,
/// `P_work` 5, slack 50) under six equal intervals with the given
/// budgets: a relaxation that takes the simplex some pivots.
fn chain25(budgets: &[u64]) -> (Instance, PowerProfile) {
    let n = 25;
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(i as u32 - 1, i as u32);
    }
    let exec: Vec<u64> = (0..n).map(|i| 2 + (i as u64 % 3)).collect();
    let horizon = exec.iter().sum::<u64>() + 2 * n as u64;
    let inst = Instance::from_raw(
        b.build().unwrap(),
        exec,
        vec![0; n],
        vec![UnitInfo {
            p_idle: 1,
            p_work: 5,
            is_link: false,
        }],
        0,
    );
    let k = budgets.len() as u64;
    let bounds = (0..=k).map(|i| horizon * i / k).collect();
    (inst, PowerProfile::from_parts(bounds, budgets.to_vec()))
}

#[test]
fn warm_lp_resolves_keep_the_cold_bound() {
    let inst = two_unit_instance();
    let cluster = Cluster::tiny(&[3, 5], 2);
    let engine = EngineKind::default();
    let budget = Budget::default();
    let old = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 7)
        .build(&cluster, inst.asap_makespan());
    let cache = SolveCache::new();
    let (seed, outcome) = cache
        .solve(SolverKind::Lp, engine, &inst, &old, budget)
        .expect("seed solve");
    assert_eq!(outcome, CacheOutcome::Cold);
    assert!(
        seed.basis.is_some(),
        "a cold lp answer carries its root basis"
    );
    for (name, profile) in &profile_zoo(&cluster, inst.asap_makespan()) {
        let cold = SolverKind::Lp
            .solve_with(engine, &inst, profile, budget, &WarmStart::default())
            .unwrap_or_else(|e| panic!("lp cold on {name}: {e}"));
        let (warmed, outcome) = cache
            .solve(SolverKind::Lp, engine, &inst, profile, budget)
            .unwrap_or_else(|e| panic!("lp warm on {name}: {e}"));
        assert_eq!(outcome, CacheOutcome::Warm, "{name}");
        assert_eq!(warmed.lower_bound, cold.lower_bound, "{name}: bound moved");
        assert!(
            warmed.cost <= cold.cost,
            "{name}: warm cost {} above cold {}",
            warmed.cost,
            cold.cost
        );
    }

    // The returned basis is the optimal one of the full model: a
    // restart from it on the same profile takes no pivot, and a revised
    // forecast re-solves warm from it to the cold bound.
    let (chain, base) = chain25(&[0, 4, 0, 4, 0, 4]);
    let (_, revised) = chain25(&[0, 4, 0, 3, 0, 3]);
    let cache = SolveCache::new();
    let (first, _) = cache
        .solve(SolverKind::Lp, engine, &chain, &base, budget)
        .expect("chain solve");
    assert!(first.nodes > 0, "the chain relaxation takes pivots");
    let restart = WarmStart {
        incumbent: None,
        basis: first.basis.clone(),
    };
    let again = SolverKind::Lp
        .solve_with(engine, &chain, &base, budget, &restart)
        .expect("restart");
    assert_eq!((again.nodes, again.lower_bound), (0, first.lower_bound));
    let cold = SolverKind::Lp
        .solve(&chain, &revised, budget)
        .expect("revised cold");
    let (warmed, outcome) = cache
        .solve(SolverKind::Lp, engine, &chain, &revised, budget)
        .expect("revised warm");
    assert_eq!(outcome, CacheOutcome::Warm);
    assert_eq!(warmed.lower_bound, cold.lower_bound);
    assert!(warmed.cost <= cold.cost);
}
