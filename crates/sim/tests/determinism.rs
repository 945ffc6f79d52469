//! The determinism contract of docs/CONCURRENCY.md, checked at the
//! simulation layer: grid results and exhausted branch-and-bound
//! optima must be **bit-identical** on 1-thread and 4-thread pools,
//! across the synthetic scenarios S1–S4 and a measured-trace column.
//!
//! Wall-clock columns (`millis`) are exempt — they are the only field
//! the thread count is allowed to change.

use cawo_core::enhanced::UnitInfo;
use cawo_core::{Instance, Variant};
use cawo_exact::{Budget, SolverKind};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario, TraceConfig, TraceSource};
use cawo_sim::experiment::{run_grid, ExperimentConfig, GridScale, SpecResult, TraceScenario};

/// A short inline carbon-intensity trace (time, gCO₂/kWh).
const TRACE_CSV: &str = "time,intensity\n0,420\n600,95\n1200,250\n1800,340\n";

/// Quick grid, two cheap variants, S1–S4 plus the trace column.
fn grid_config() -> ExperimentConfig {
    ExperimentConfig {
        variants: vec![Variant::Asap, Variant::PressWRLs],
        trace: Some(TraceScenario {
            name: "inline".to_string(),
            source: TraceSource::Csv(TRACE_CSV.to_string()),
        }),
        ..ExperimentConfig::new(GridScale::Quick, 20_260_808)
    }
}

/// A dedicated pool of `threads` workers (1 = strictly sequential).
fn pool_of(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the pool builds")
}

/// The grid of [`grid_config`] on a dedicated `threads`-worker pool.
fn run_grid_on(threads: usize) -> Vec<SpecResult> {
    pool_of(threads).install(|| run_grid(&grid_config()))
}

#[test]
fn grid_results_are_bit_identical_at_1_and_4_threads() {
    let one = run_grid_on(1);
    let four = run_grid_on(4);
    assert!(!one.is_empty());
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a.spec.id(), b.spec.id());
        assert_eq!(a.n_tasks, b.n_tasks, "{}", a.spec.id());
        assert_eq!(a.gc_nodes, b.gc_nodes, "{}", a.spec.id());
        assert_eq!(a.asap_makespan, b.asap_makespan, "{}", a.spec.id());
        assert_eq!(a.variants, b.variants, "{}", a.spec.id());
        // The contract proper: integer carbon costs, bit for bit.
        assert_eq!(a.cost, b.cost, "{}", a.spec.id());
    }
}

#[test]
fn grid_results_are_bit_identical_with_tracing_on_and_off() {
    // Observability must be a pure observer: the full event timeline
    // at `trace` (spans, counters, samples from every layer down to
    // the LP pivot loop) must leave every grid number untouched, at 1
    // thread and on a real pool.
    for threads in [1usize, 4] {
        cawo_obs::set_level(cawo_obs::Level::Off);
        let _ = cawo_obs::drain();
        let off = run_grid_on(threads);
        cawo_obs::set_level(cawo_obs::Level::Trace);
        let on = run_grid_on(threads);
        cawo_obs::set_level(cawo_obs::Level::Off);
        let snap = cawo_obs::drain();
        assert!(
            snap.counter(cawo_obs::Ctr::GridRows) >= off.len() as u64,
            "tracing actually recorded the traced run ({threads} threads)"
        );
        assert_eq!(off.len(), on.len());
        for (a, b) in off.iter().zip(&on) {
            assert_eq!(a.spec.id(), b.spec.id());
            assert_eq!(
                a.variants,
                b.variants,
                "{} threads, {}",
                threads,
                a.spec.id()
            );
            assert_eq!(a.cost, b.cost, "{} threads, {}", threads, a.spec.id());
        }
    }
}

#[test]
fn exhausted_bnb_optima_are_bit_identical_at_1_and_4_threads() {
    // Instances small enough for the search to exhaust, so the
    // parallel solver must reproduce the sequential optimum exactly —
    // cost *and* schedule — under every scenario shape.
    let (one, four) = (pool_of(1), pool_of(4));
    // A single-unit chain: the boundary candidate set applies, so the
    // search exhausts in milliseconds even with deadline slack.
    let n = 6usize;
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(i as u32 - 1, i as u32);
    }
    let exec = vec![2, 1, 3, 2, 1, 2];
    let asap: u64 = exec.iter().sum();
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
    // The cluster only feeds the profile's power band.
    let cluster = Cluster::tiny(&[3], 2);
    let mut profiles = Vec::new();
    for scenario in Scenario::ALL {
        profiles.push((
            scenario.label().to_string(),
            ProfileConfig::new(scenario, DeadlineFactor::X20, 7).build(&cluster, asap),
        ));
    }
    profiles.push((
        "trace".to_string(),
        TraceConfig::new(TraceSource::Csv(TRACE_CSV.to_string()), DeadlineFactor::X20)
            .build(&cluster, asap)
            .expect("inline trace loads"),
    ));
    for (label, profile) in &profiles {
        let a = one
            .install(|| SolverKind::Bnb.solve(&inst, profile, Budget::default()))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = four
            .install(|| SolverKind::Bnb.solve(&inst, profile, Budget::default()))
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        // Equality below is only meaningful when the search space was
        // exhausted; a budget cut-off would make the incumbent depend
        // on scheduling order.
        assert_eq!(a.status.name(), "optimal", "{label}");
        assert_eq!(a.status, b.status, "{label}");
        assert_eq!(a.cost, b.cost, "{label}");
        assert_eq!(a.schedule.starts(), b.schedule.starts(), "{label}");
        assert_eq!(a.lower_bound, b.lower_bound, "{label}");
    }
}
