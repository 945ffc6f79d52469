//! `obs` — what observability costs and what it shows.
//!
//! * **overhead** — fixed-work probes run with observability Off and
//!   Summary, interleaved. `lp` caps the raw simplex on the 100-task
//!   chain model at an exact pivot count (identical work at either
//!   level, by construction); `heuristics` runs every CaWoSched variant
//!   on the 200-task paper instance repeatedly — the local search's
//!   `shift_scan` pricing path, one counter bump per priced task
//!   visit, plus one `greedy.bound_updates` add per greedy run. The
//!   `lp` ratio must stay under [`MAX_RATIO`]; CI runs this section
//!   as that guard.
//! * **convergence** — the 100- and 200-task chain models through the
//!   raw LP and the `milp` solver at Trace level under a wall-clock
//!   budget; the drained event timeline yields the bound-vs-time and
//!   incumbent-vs-time series a single final number cannot show.

use std::time::Duration;

use cawo_bench::fixtures::lp_chain_fixture;
use cawo_bench::obj;
use cawo_bench::report::{min_interleaved, once, Artifact, Probe};
use cawo_core::{carbon_cost, EngineKind, Instance, RunParams, Variant};
use cawo_exact::{Budget, SolverKind, SparseA4Model, WarmStart};
use cawo_graph::generator::{instantiate, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_lp::SimplexOptions;
use cawo_obs::{Ctr, Level};
use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario, Time};

/// Enabled(Summary)-over-disabled time cap on the `lp` probe.
const MAX_RATIO: f64 = 1.05;
/// Exact pivot budget of the `lp` overhead probe.
const LP_PIVOTS: u64 = 10_000;
/// Heuristic sweeps of the `heuristics` overhead probe.
const HEUR_REPS: u32 = 10;
/// Interleaved Off/Summary rounds of each overhead probe.
const ROUNDS: usize = 4;

/// `(off_secs, summary_secs)` of `probe`, Off and Summary interleaved.
/// The shared checksum check of [`min_interleaved`] also asserts that
/// observability never steers the computation.
fn overhead(probe: &dyn Fn() -> u64) -> (f64, f64) {
    let at = |level: Level| -> Probe {
        Box::new(move || {
            cawo_obs::set_level(level);
            probe()
        })
    };
    let secs = min_interleaved(ROUNDS, &mut [at(Level::Off), at(Level::Summary)]);
    cawo_obs::set_level(Level::Off);
    cawo_obs::drain(); // reset sinks between sections
    (secs[0], secs[1])
}

/// A `[t_ms, value]` series from the drained timeline, times relative
/// to `t0_us`.
fn series(snap: &cawo_obs::Snapshot, cat: &str, name: &str, t0_us: u64) -> Vec<(f64, f64)> {
    snap.events
        .iter()
        .filter(|e| e.ph == cawo_obs::Phase::Sample && e.cat == cat && e.name == name)
        .filter_map(|e| {
            let v = e.args.iter().find(|(k, _)| *k == "value")?.1;
            Some((e.t_us.saturating_sub(t0_us) as f64 / 1e3, v))
        })
        .collect()
}

/// Runs `f` at Trace level and returns its output, seconds, the drained
/// timeline and the timeline's start.
fn traced<T>(f: impl FnOnce() -> T) -> (T, f64, cawo_obs::Snapshot, u64) {
    cawo_obs::set_level(Level::Trace);
    let t0_us = cawo_obs::now_us();
    let (out, secs) = once(f);
    cawo_obs::set_level(Level::Off);
    (out, secs, cawo_obs::drain(), t0_us)
}

pub fn run() {
    let mut results = Vec::new();

    // Overhead probe 1: the raw simplex, capped at an exact pivot count.
    let (inst, profile) = lp_chain_fixture(100, 200, 6, &[0, 4]);
    let model = SparseA4Model::build(&inst, &profile);
    let opts = SimplexOptions {
        max_iters: LP_PIVOTS,
        ..SimplexOptions::default()
    };
    let (off_lp, sum_lp) = overhead(&|| cawo_lp::solve(&model.lp, &opts).iterations);
    let lp_ratio = sum_lp / off_lp.max(1e-12);
    results.push(obj! {
        "section" => "overhead",
        "probe" => "lp",
        "tasks" => 100usize,
        "pivots" => LP_PIVOTS,
        "off_seconds" => off_lp,
        "summary_seconds" => sum_lp,
        "ratio" => lp_ratio,
    });

    // Overhead probe 2: every CaWoSched variant on the 200-task paper
    // instance, repeated — the `shift_scan` and greedy counter paths.
    let wf = instantiate(
        &PaperInstance {
            family: Family::Atacseq,
            scaled_to: Some(200),
        },
        42,
    );
    let cluster = Cluster::paper_small(42);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 42)
        .build(&cluster, inst.asap_makespan());
    let params = RunParams {
        engine: EngineKind::Interval,
        ..RunParams::default()
    };
    let (off_h, sum_h) = overhead(&|| {
        let mut acc = 0u64;
        for _ in 0..HEUR_REPS {
            for v in Variant::CAWOSCHED {
                let sched = v.run_with(&inst, &profile, params);
                acc = acc.wrapping_add(carbon_cost(&inst, &sched, &profile));
            }
        }
        acc
    });
    results.push(obj! {
        "section" => "overhead",
        "probe" => "heuristics",
        "tasks" => 200usize,
        "sweeps" => HEUR_REPS,
        "off_seconds" => off_h,
        "summary_seconds" => sum_h,
        "ratio" => sum_h / off_h.max(1e-12),
    });

    // Convergence, raw LP: the chain relaxations solved cold under a
    // 10 s cap. The simplex samples its best Lagrangian bound every 512
    // pivots, so the series shows the certificate tightening.
    for tasks in [100usize, 200] {
        let (inst, profile) = lp_chain_fixture(tasks, 2 * tasks as Time, 6, &[0, 4]);
        let model = SparseA4Model::build(&inst, &profile);
        let opts = SimplexOptions {
            time_limit: Some(Duration::from_secs(10)),
            ..SimplexOptions::default()
        };
        let (sol, secs, snap, t0_us) = traced(|| cawo_lp::solve(&model.lp, &opts));
        results.push(obj! {
            "section" => "convergence",
            "solver" => "lp",
            "tasks" => tasks,
            "budget" => "10s",
            "status" => format!("{:?}", sol.status).to_lowercase(),
            "seconds" => secs,
            "cost" => sol.objective,
            "lower_bound" => sol.dual_bound,
            "pivots" => sol.iterations,
            "dual_bound_series_ms" => series(&snap, "lp", "dual_bound", t0_us),
            "incumbent_series_ms" => Vec::<(f64, f64)>::new(),
        });
    }

    // Convergence, MILP: the same chain models through the full solver.
    // The dual bound is sampled per root cut round (the bound only
    // moves at the root in this solver) and incumbents on improvement.
    for (tasks, budget_s) in [(100usize, 5u64), (200, 15)] {
        let (inst, profile) = lp_chain_fixture(tasks, 2 * tasks as Time, 6, &[0, 4]);
        let (res, secs, snap, t0_us) = traced(|| {
            SolverKind::Milp
                .solve_with(
                    EngineKind::Interval,
                    &inst,
                    &profile,
                    Budget::time(Duration::from_secs(budget_s)),
                    &WarmStart::default(),
                )
                .expect("chain instance solves")
        });
        results.push(obj! {
            "section" => "convergence",
            "solver" => "milp",
            "tasks" => tasks,
            "budget" => format!("{budget_s}s"),
            "status" => res.status.name(),
            "seconds" => secs,
            "cost" => res.cost,
            "lower_bound" => res.lower_bound,
            "pivots" => snap.counter(Ctr::LpPivotsPhase1) + snap.counter(Ctr::LpPivotsPhase2),
            "dual_bound_series_ms" => series(&snap, "milp", "dual_bound", t0_us),
            "incumbent_series_ms" => series(&snap, "milp", "incumbent", t0_us),
        });
    }

    crate::emit(&Artifact {
        bench: "obs",
        timing: format!(
            "overhead rows: min of {ROUNDS} interleaved Off/Summary rounds (after one \
             warm-up); convergence rows: one traced run"
        ),
        params: obj! { "max_ratio" => MAX_RATIO },
        results,
        summary: obj! { "lp_overhead_ratio" => lp_ratio },
        note: "overhead = fixed-work probes; lp = raw simplex on the 100-task chain model \
               capped at an exact pivot count, heuristics = all CaWoSched variants on the \
               200-task atacseq paper instance (the shift_scan and greedy counter paths); \
               acceptance: lp ratio < max_ratio (the section fails otherwise). convergence = \
               the 100/200-task chain models at Trace level, raw lp (Lagrangian bound sampled \
               every 512 pivots) and milp (dual bound sampled per root cut round, incumbents on \
               improvement); series are [t_ms_since_solve_start, value] pairs from the drained \
               timeline",
    });
    assert!(
        lp_ratio < MAX_RATIO,
        "observability overhead {lp_ratio:.4} exceeds the {MAX_RATIO} cap"
    );
}
