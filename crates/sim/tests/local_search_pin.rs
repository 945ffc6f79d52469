//! Paper-scale pin of the `-LS` hill climber: the summed
//! [`LocalSearchStats`] of the eight local-search variants over the
//! whole quick grid at one seed. The counts are deterministic and do
//! not depend on the host, so any change to how candidates are priced
//! or accepted that alters a single move shows up here — a pricing
//! speed-up must leave them untouched.

use std::collections::BTreeMap;

use cawo_core::{greedy_schedule, local_search, GreedyConfig, Instance, LocalSearchStats, Variant};
use cawo_graph::generator::{self, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_sim::experiment::{build_profile, ExperimentConfig, GridScale};
use rayon::prelude::*;

/// Grid seed of the pin.
const SEED: u64 = 1;

/// `(rounds, moves, gain)` summed over the 112 quick-grid instances ×
/// 8 `-LS` variants at [`SEED`], recorded before the window scan
/// replaced per-candidate pricing.
const PINNED: (u64, u64, u64) = (6_907, 48_131, 1_905_964);

#[test]
fn quick_grid_local_search_stats_are_pinned() {
    let cfg = ExperimentConfig::new(GridScale::Quick, SEED);
    let specs = cfg.grid();
    let mut prepared = BTreeMap::new();
    for spec in &specs {
        prepared
            .entry((spec.family, spec.scaled_to, spec.cluster))
            .or_insert_with(|| {
                let wf = generator::instantiate(
                    &PaperInstance {
                        family: spec.family,
                        scaled_to: spec.scaled_to,
                    },
                    SEED,
                );
                let cluster = spec.cluster.build(SEED);
                let inst = Instance::build(&wf, &cluster, &heft_schedule(&wf, &cluster));
                (inst, cluster)
            });
    }
    let runs: Vec<[LocalSearchStats; 8]> = specs
        .par_iter()
        .map(|spec| {
            let (inst, cluster) = &prepared[&(spec.family, spec.scaled_to, spec.cluster)];
            let profile = build_profile(&cfg, spec, cluster, inst.asap_makespan())
                .unwrap_or_else(|e| panic!("{e}"));
            Variant::WITH_LS.map(|v| {
                let Some((score, weighted, refined, _)) = v.components() else {
                    unreachable!("-LS variants are greedy-based")
                };
                let greedy = GreedyConfig::new(score, weighted, refined);
                let mut sched = greedy_schedule(inst, &profile, greedy);
                local_search(inst, &profile, &mut sched, 10)
            })
        })
        .collect();
    let total = runs.iter().flatten().fold((0, 0, 0), |(r, m, g), s| {
        (r + u64::from(s.rounds), m + s.moves, g + s.gain)
    });
    assert_eq!(specs.len(), 112);
    assert_eq!(total, PINNED, "(rounds, moves, gain) over the quick grid");
}
