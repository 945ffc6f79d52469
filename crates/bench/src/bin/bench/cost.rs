//! `cost` — the dense vs interval cost engines across horizon lengths.
//!
//! The headline is `shift_delta_speedup` at the largest horizon: the
//! interval engine prices the same move in time independent of the
//! horizon, so the ratio grows linearly with `T`.

use cawo_bench::fixtures::{horizon_fixture, COST_ENGINE_HORIZONS, COST_ENGINE_TASKS};
use cawo_bench::obj;
use cawo_bench::report::{batch, min_interleaved, Artifact, Val};
use cawo_core::{CostEngine, DenseGrid, Instance, IntervalEngine, Schedule};
use cawo_platform::{PowerProfile, Time};

const ROUNDS: usize = 7;

/// Calls per probe run of `(build, total_cost, shift_delta)`.
const ITERS: [u32; 3] = [3, 10, 20];

/// Per-call seconds of `(build, total_cost, shift_delta)` on both
/// engines, interleaved: `[dense ×3, interval ×3]`.
fn measure(inst: &Instance, sched: &Schedule, profile: &PowerProfile, horizon: Time) -> Vec<f64> {
    let task_len = inst.exec(0);
    let w = inst.work_power(0) as i64;
    let (from, to) = (sched.start(0), horizon / 2);
    let dense = DenseGrid::build(inst, sched, profile);
    let interval = IntervalEngine::build(inst, sched, profile);
    assert_eq!(
        dense.total_cost(),
        interval.total_cost(),
        "engines disagree"
    );
    let secs = min_interleaved(
        ROUNDS,
        &mut [
            batch(ITERS[0], || {
                DenseGrid::build(inst, sched, profile).total_cost()
            }),
            batch(ITERS[1], || dense.total_cost()),
            batch(ITERS[2], || {
                dense.shift_delta(from, task_len, w, to).unsigned_abs()
            }),
            batch(ITERS[0], || {
                IntervalEngine::build(inst, sched, profile).total_cost()
            }),
            batch(ITERS[1], || interval.total_cost()),
            batch(ITERS[2], || {
                interval.shift_delta(from, task_len, w, to).unsigned_abs()
            }),
        ],
    );
    secs.iter()
        .zip(ITERS.iter().cycle())
        .map(|(s, &n)| s / f64::from(n))
        .collect()
}

pub fn run() {
    let mut results = Vec::new();
    let mut speedup = Vec::new();
    for horizon in COST_ENGINE_HORIZONS {
        let (inst, sched, profile) = horizon_fixture(horizon, COST_ENGINE_TASKS);
        let s = measure(&inst, &sched, &profile, horizon);
        for (k, engine) in [DenseGrid::NAME, IntervalEngine::NAME]
            .into_iter()
            .enumerate()
        {
            results.push(obj! {
                "section" => "engine",
                "horizon" => horizon,
                "engine" => engine,
                "build_s" => s[3 * k],
                "total_cost_s" => s[3 * k + 1],
                "shift_delta_s" => s[3 * k + 2],
            });
        }
        speedup.push((horizon.to_string(), Val::Num(s[2] / s[5].max(1e-12))));
    }
    crate::emit(&Artifact {
        bench: "cost",
        timing: format!(
            "per-call seconds: min of {ROUNDS} interleaved rounds (after one warm-up) of a \
             {ITERS:?}-call batch for build/total_cost/shift_delta"
        ),
        params: obj! { "tasks" => COST_ENGINE_TASKS },
        results,
        summary: obj! { "shift_delta_speedup" => Val::Obj(speedup) },
        note: "horizon_fixture: independent long tasks staggered over the first half of a \
               48-interval [0, T) horizon, task count fixed while T grows; \
               shift_delta_speedup = dense / interval shift_delta seconds per horizon, \
               growing ~linearly with T",
    });
}
