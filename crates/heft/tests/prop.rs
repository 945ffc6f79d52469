//! Property-based tests for HEFT and its carbon-aware extension.

#![expect(clippy::unwrap_used, reason = "fixture helpers outside #[test] unwrap")]
use proptest::prelude::*;

use cawo_graph::generator::{generate, Family, GeneratorConfig};
use cawo_heft::{carbon_heft_schedule, heft_schedule, CarbonHeftConfig, Mapping};
use cawo_platform::{Cluster, PowerProfile, ProcId};

/// Validates the structural invariants of any mapping.
fn check_mapping(wf: &cawo_graph::Workflow, cluster: &Cluster, m: &Mapping) {
    let n = wf.task_count();
    let mut seen = vec![false; n];
    for q in 0..cluster.proc_count() as ProcId {
        for &v in m.order_on(q) {
            assert_eq!(m.proc_of(v), q);
            assert!(!seen[v as usize], "task {v} mapped twice");
            seen[v as usize] = true;
        }
        for w in m.order_on(q).windows(2) {
            assert!(m.seed_finish(w[0]) <= m.seed_start(w[1]), "overlap on {q}");
        }
    }
    assert!(seen.iter().all(|&s| s));
    for (u, v) in wf.dag().edges() {
        let mut ready = m.seed_finish(u);
        if m.proc_of(u) != m.proc_of(v) {
            ready += cluster.comm_time(wf.edge_weight_between(u, v).unwrap());
        }
        assert!(m.seed_start(v) >= ready, "edge ({u},{v}) violated");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn heft_is_always_valid(
        family_idx in 0usize..4,
        tasks in 10usize..120,
        seed in any::<u64>(),
        types in proptest::collection::vec(0usize..6, 1..5),
    ) {
        let wf = generate(&GeneratorConfig::new(Family::ALL[family_idx], tasks, seed));
        let cluster = Cluster::tiny(&types, seed);
        let m = heft_schedule(&wf, &cluster);
        check_mapping(&wf, &cluster, &m);
    }

    #[test]
    fn carbon_heft_is_always_valid(
        family_idx in 0usize..4,
        tasks in 10usize..80,
        seed in any::<u64>(),
        lambda in 0.0f64..=1.0,
        budget in 0u64..500,
    ) {
        let wf = generate(&GeneratorConfig::new(Family::ALL[family_idx], tasks, seed));
        let cluster = Cluster::tiny(&[0, 3, 5], seed);
        let profile = PowerProfile::uniform(1_000_000, budget);
        let m = carbon_heft_schedule(
            &wf,
            &cluster,
            &profile,
            CarbonHeftConfig { carbon_weight: lambda, makespan_slack: 0.5 },
        );
        check_mapping(&wf, &cluster, &m);
    }

    #[test]
    fn zero_lambda_recovers_plain_heft(
        family_idx in 0usize..4,
        tasks in 10usize..60,
        seed in any::<u64>(),
    ) {
        let wf = generate(&GeneratorConfig::new(Family::ALL[family_idx], tasks, seed));
        let cluster = Cluster::tiny(&[1, 4], seed);
        let profile = PowerProfile::uniform(1_000_000, 100);
        let plain = heft_schedule(&wf, &cluster);
        let carbon = carbon_heft_schedule(
            &wf,
            &cluster,
            &profile,
            CarbonHeftConfig { carbon_weight: 0.0, makespan_slack: 0.5 },
        );
        prop_assert_eq!(plain, carbon);
    }

    #[test]
    fn makespan_guard_bounds_degradation(
        family_idx in 0usize..4,
        tasks in 10usize..60,
        seed in any::<u64>(),
    ) {
        // With the default 0.5 guard, the carbon mapping's makespan stays
        // within a small factor of plain HEFT's. The per-task guard does
        // not bound the end-to-end makespan by 1.5 exactly (delays
        // compound), but a 3x blowup would indicate the guard is broken.
        let wf = generate(&GeneratorConfig::new(Family::ALL[family_idx], tasks, seed));
        let cluster = Cluster::tiny(&[0, 3, 5], seed);
        let profile = PowerProfile::uniform(1_000_000, 0); // worst case: all brown
        let plain = heft_schedule(&wf, &cluster);
        let carbon = carbon_heft_schedule(&wf, &cluster, &profile, CarbonHeftConfig::default());
        prop_assert!(carbon.seed_makespan() <= 3 * plain.seed_makespan().max(1));
    }
}

/// FNV-1a checksum over `heft_schedule` and `carbon_heft_schedule`
/// mappings — every task's processor, seed start and seed finish, then
/// every processor's order — across the four families, three sizes,
/// three seeds, S1–S4 and six (λ, slack) pairs, recorded before the two
/// schedulers shared one list-scheduling loop.
const PINNED_MAPPINGS: u64 = 16_988_086_415_460_807_966;

#[test]
fn heft_and_carbon_heft_mappings_are_pinned() {
    use cawo_platform::{DeadlineFactor, ProfileConfig, Scenario};
    let blends = [
        (0.0, 0.5),
        (0.25, 0.4),
        (0.5, 0.5),
        (0.75, 0.0),
        (1.0, f64::INFINITY),
        (1.0, 0.0),
    ];
    let (mut checksum, mut plain_count, mut carbon_count) = (0xCBF2_9CE4_8422_2325_u64, 0, 0);
    for family in Family::ALL {
        for tasks in [30, 100, 300] {
            for seed in 1..=3u64 {
                let wf = generate(&GeneratorConfig::new(family, tasks, seed));
                let cluster = Cluster::from_type_counts("pin", &[1, 2, 1, 2, 1, 2], seed);
                let plain = heft_schedule(&wf, &cluster);
                checksum = fold_mapping(checksum, &wf, &cluster, &plain);
                plain_count += 1;
                for scenario in Scenario::ALL {
                    let profile = ProfileConfig::new(scenario, DeadlineFactor::X20, seed)
                        .build(&cluster, plain.seed_makespan());
                    for (carbon_weight, makespan_slack) in blends {
                        let config = CarbonHeftConfig {
                            carbon_weight,
                            makespan_slack,
                        };
                        let m = carbon_heft_schedule(&wf, &cluster, &profile, config);
                        checksum = fold_mapping(checksum, &wf, &cluster, &m);
                        carbon_count += 1;
                    }
                }
            }
        }
    }
    assert_eq!((plain_count, carbon_count), (36, 864));
    assert_eq!(checksum, PINNED_MAPPINGS, "mapping checksum");
}

/// Folds one mapping into an FNV-1a checksum: per task its processor,
/// seed start and seed finish, then each processor's order.
fn fold_mapping(checksum: u64, wf: &cawo_graph::Workflow, cluster: &Cluster, m: &Mapping) -> u64 {
    let fold = |h: u64, x: u64| (h ^ x).wrapping_mul(0x0100_0000_01B3);
    let mut h = checksum;
    for v in 0..wf.task_count() as cawo_graph::NodeId {
        h = fold(h, u64::from(m.proc_of(v)));
        h = fold(h, m.seed_start(v));
        h = fold(h, m.seed_finish(v));
    }
    for q in 0..cluster.proc_count() as ProcId {
        h = fold(h, u64::MAX);
        for &v in m.order_on(q) {
            h = fold(h, u64::from(v));
        }
    }
    h
}
