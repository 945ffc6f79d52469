//! `cost` — the dense vs interval cost engines across horizon lengths,
//! and the interval engine's window scan against pointwise pricing.
//!
//! The headline is `shift_delta_speedup` at the largest horizon: the
//! interval engine prices the same move in time independent of the
//! horizon, so the ratio grows linearly with `T`. `shift_scan_speedup`
//! is what the local search gains per task visit: one task's µ = 10
//! window of 21 candidate starts priced by one `shift_scan` sweep
//! instead of 21 `shift_delta` calls.

use cawo_bench::fixtures::{horizon_fixture, COST_ENGINE_HORIZONS, COST_ENGINE_TASKS};
use cawo_bench::obj;
use cawo_bench::report::{batch, min_interleaved, Artifact, Val};
use cawo_core::{CostEngine, DenseGrid, Instance, IntervalEngine, Schedule};
use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

const ROUNDS: usize = 7;

/// Calls per probe run of `(build, total_cost, shift_delta)`; the two
/// window probes use the `shift_delta` count.
const ITERS: [u32; 3] = [3, 10, 20];

/// The local search's window: `µ` either side of the current start.
const MU: Time = 10;

/// Folds deltas into a probe checksum.
fn checksum(deltas: impl IntoIterator<Item = i64>) -> u64 {
    deltas
        .into_iter()
        .fold(0u64, |acc, d| acc.rotate_left(5) ^ d as u64)
}

/// Per-call seconds of `(build, total_cost, shift_delta)` on both
/// engines, then of the interval engine's window priced pointwise and
/// by one scan, interleaved: `[dense ×3, interval ×3, pointwise, scan]`.
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
    // A middle task, whose whole window fits the horizon.
    let v = (inst.node_count() / 2) as NodeId;
    let (len, wv, s) = (inst.exec(v), inst.work_power(v) as i64, sched.start(v));
    let (lo, hi) = (s - MU, s + MU);
    assert!(hi + len <= horizon, "window exceeds the horizon");
    let pointwise = || (lo..=hi).map(|c| interval.shift_delta(s, len, wv, c));
    let mut deltas = Vec::new();
    interval.shift_scan(s, len, wv, lo, hi, &mut deltas);
    assert_eq!(
        deltas,
        pointwise().collect::<Vec<_>>(),
        "scan disagrees with pointwise pricing"
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
            batch(ITERS[2], || checksum(pointwise())),
            batch(ITERS[2], || {
                interval.shift_scan(s, len, wv, lo, hi, &mut deltas);
                checksum(deltas.iter().copied())
            }),
        ],
    );
    secs.iter()
        .zip(ITERS.iter().chain(&ITERS).chain(&[ITERS[2]; 2]))
        .map(|(s, &n)| s / f64::from(n))
        .collect()
}

pub fn run() {
    let mut results = Vec::new();
    let mut speedup = Vec::new();
    let mut scan_speedup = Vec::new();
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
        results.push(obj! {
            "section" => "shift_scan",
            "horizon" => horizon,
            "engine" => IntervalEngine::NAME,
            "candidates" => 2 * MU + 1,
            "pointwise_s" => s[6],
            "scan_s" => s[7],
        });
        speedup.push((horizon.to_string(), Val::Num(s[2] / s[5].max(1e-12))));
        scan_speedup.push((horizon.to_string(), Val::Num(s[6] / s[7].max(1e-12))));
    }
    crate::emit(&Artifact {
        bench: "cost",
        timing: format!(
            "per-call seconds: min of {ROUNDS} interleaved rounds (after one warm-up) of a \
             {ITERS:?}-call batch for build/total_cost/shift_delta, and of a {}-call batch \
             for each window pricing",
            ITERS[2]
        ),
        params: obj! { "tasks" => COST_ENGINE_TASKS, "mu" => MU },
        results,
        summary: obj! {
            "shift_delta_speedup" => Val::Obj(speedup),
            "shift_scan_speedup" => Val::Obj(scan_speedup),
        },
        note: "horizon_fixture: independent long tasks staggered over the first half of a \
               48-interval [0, T) horizon, task count fixed while T grows; \
               shift_delta_speedup = dense / interval shift_delta seconds per horizon, \
               growing ~linearly with T; shift_scan rows price the middle task's \
               2·mu+1 candidate starts on the interval engine, pointwise_s by one \
               shift_delta call per candidate, scan_s by one shift_scan sweep, and \
               shift_scan_speedup = pointwise_s / scan_s",
    });
}
