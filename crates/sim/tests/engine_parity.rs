//! Engine parity on the paper grid: the dense (pseudo-polynomial
//! oracle), interval-sparse and Fenwick cost engines must produce
//! *identical schedules* — not merely equal costs — for all 16
//! CaWoSched variants plus the ASAP baseline on the paper's small
//! platform, across every scenario shape. Every engine prices each
//! local-search candidate exactly, so the hill climber must take the
//! same moves whichever engine (and whichever window-scan
//! implementation) drives it.

use cawo_core::{EngineKind, RunParams};
use cawo_graph::generator::{self, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_platform::{DeadlineFactor, Scenario};
use cawo_sim::experiment::{build_profile, ClusterKind, ExperimentConfig, GridScale, InstanceSpec};

#[test]
fn all_engines_produce_identical_schedules_on_the_small_paper_grid() {
    let seed = 11;
    let family = Family::Bacass;
    let wf = generator::instantiate(
        &PaperInstance {
            family,
            scaled_to: None,
        },
        seed,
    );
    let cluster = ClusterKind::Small.build(seed);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = cawo_core::Instance::build(&wf, &cluster, &mapping);

    let cfg = ExperimentConfig::new(GridScale::Quick, seed);
    assert_eq!(cfg.variants.len(), 17, "all 16 variants + ASAP");
    for scenario in Scenario::ALL {
        for deadline in [DeadlineFactor::X15, DeadlineFactor::X30] {
            let spec = InstanceSpec {
                family,
                scaled_to: None,
                cluster: ClusterKind::Small,
                scenario: scenario.into(),
                deadline,
            };
            let profile = build_profile(&cfg, &spec, &cluster, inst.asap_makespan())
                .unwrap_or_else(|e| panic!("{e}"));
            for &v in &cfg.variants {
                let [dense, rest @ ..] = EngineKind::ALL.map(|engine| {
                    let params = RunParams {
                        engine,
                        ..RunParams::default()
                    };
                    v.run_with(&inst, &profile, params)
                });
                for (engine, sched) in EngineKind::ALL[1..].iter().zip(&rest) {
                    assert_eq!(
                        sched,
                        &dense,
                        "{} {v}: {engine} schedule differs from dense",
                        spec.id()
                    );
                }
            }
        }
    }
}
