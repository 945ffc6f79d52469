//! Instance construction shared by the bench sections.

use cawo_core::enhanced::UnitInfo;
use cawo_core::{Instance, Schedule};
use cawo_graph::dag::DagBuilder;
use cawo_platform::{PowerProfile, Time};

/// Horizon grid of the `cost` bench section.
pub const COST_ENGINE_HORIZONS: [Time; 3] = [1_000, 10_000, 100_000];

/// Uniprocessor chain fixture of the `lp` and `obs` bench sections:
/// `n` chained tasks with cyclic execution times `2, 3, 4, …` on one
/// unit, and a profile of `intervals` equal slices cycling through
/// `budget_cycle`.
pub fn lp_chain_fixture(
    n: usize,
    slack: Time,
    intervals: usize,
    budget_cycle: &[u64],
) -> (Instance, PowerProfile) {
    let mut b = DagBuilder::new(n);
    for i in 1..n {
        b.add_edge(i as u32 - 1, i as u32);
    }
    let exec: Vec<Time> = (0..n).map(|i| 2 + (i as Time % 3)).collect();
    let total: Time = exec.iter().sum();
    let inst = Instance::from_raw(
        b.build().expect("fixture dag is acyclic"),
        exec,
        vec![0; n],
        vec![UnitInfo {
            p_idle: 1,
            p_work: 5,
            is_link: false,
        }],
        0,
    );
    let horizon = total + slack;
    let j = intervals.min(horizon as usize).max(2);
    let mut bounds = vec![0];
    for k in 1..=j {
        let t = horizon * k as Time / j as Time;
        if t > *bounds.last().expect("seeded with 0") {
            bounds.push(t);
        }
    }
    let budgets: Vec<u64> = (0..bounds.len() - 1)
        .map(|k| budget_cycle[k % budget_cycle.len()])
        .collect();
    (inst, PowerProfile::from_parts(bounds, budgets))
}

/// Task count for the cost-engine fixtures (constant while the horizon
/// grows).
pub const COST_ENGINE_TASKS: usize = 8;

/// A horizon-scaling fixture for the cost-engine benches: `n_tasks`
/// independent long tasks (length `T / 2n`) staggered across the first
/// half of a `[0, T)` horizon under a 48-interval profile. The task
/// *count* is constant while the horizon grows, which is exactly the
/// regime separating the dense (O(T)) from the interval-sparse
/// (O(breakpoints)) engine.
pub fn horizon_fixture(horizon: Time, n_tasks: usize) -> (Instance, Schedule, PowerProfile) {
    assert!(horizon >= 4 * n_tasks as Time, "horizon too short");
    let dag = DagBuilder::new(n_tasks)
        .build()
        .expect("fixture dag is acyclic");
    let len = horizon / (2 * n_tasks as Time);
    let units: Vec<UnitInfo> = (0..n_tasks)
        .map(|i| UnitInfo {
            p_idle: (i % 3) as u64,
            p_work: 5 + 3 * (i % 7) as u64,
            is_link: false,
        })
        .collect();
    let inst = Instance::from_raw(
        dag,
        vec![len; n_tasks],
        (0..n_tasks as u32).collect(),
        units,
        0,
    );
    let sched = Schedule::new((0..n_tasks as Time).map(|i| i * len / 2).collect());
    let j = 48.min(horizon as usize);
    let mut boundaries = vec![0 as Time];
    let mut budgets = Vec::with_capacity(j);
    for k in 0..j {
        boundaries.push((horizon as u128 * (k as u128 + 1) / j as u128) as Time);
        budgets.push(((k * 13) % 29) as u64);
    }
    (inst, sched, PowerProfile::from_parts(boundaries, budgets))
}

/// Horizon grid of the `exact` bench section.
/// Kept below the cost-engine horizons: the *dense* baseline that the
/// comparison quantifies re-prices `O(horizon)` per candidate, and the
/// branch-and-bound evaluates `O(horizon)` candidates per search node.
pub const EXACT_HORIZONS: [Time; 3] = [500, 2_000, 8_000];

/// A uniprocessor chain whose task lengths scale with the horizon:
/// `n_tasks` chained tasks of length `T / (2·n_tasks)` (total work half
/// the horizon) on one unit, under an `intervals`-interval profile over
/// `[0, T)`. This is the exact solvers' scaling regime: long tasks,
/// long horizons, constant structure — fewer intervals mean longer
/// Lemma 4.2 block shifts.
pub fn exact_chain_fixture(
    horizon: Time,
    n_tasks: usize,
    intervals: usize,
) -> (Instance, PowerProfile) {
    assert!(horizon >= 4 * n_tasks as Time, "horizon too short");
    let mut b = DagBuilder::new(n_tasks);
    for i in 1..n_tasks {
        b.add_edge(i as u32 - 1, i as u32);
    }
    let len = horizon / (2 * n_tasks as Time);
    let inst = Instance::from_raw(
        b.build().expect("fixture dag is acyclic"),
        vec![len; n_tasks],
        vec![0; n_tasks],
        vec![UnitInfo {
            p_idle: 1,
            p_work: 9,
            is_link: false,
        }],
        0,
    );
    let j = intervals.min(horizon as usize);
    let mut boundaries = vec![0 as Time];
    let mut budgets = Vec::with_capacity(j);
    for k in 0..j {
        boundaries.push((horizon as u128 * (k as u128 + 1) / j as u128) as Time);
        budgets.push(((k * 13) % 29) as u64);
    }
    (inst, PowerProfile::from_parts(boundaries, budgets))
}

/// A deliberately misaligned (but valid) schedule for the chain of
/// [`exact_chain_fixture`]: every task floats one time unit off the
/// block grid, giving the E-schedule transformation real work.
pub fn misaligned_chain_schedule(inst: &Instance, horizon: Time) -> Schedule {
    let n = inst.node_count();
    let len = inst.exec(0);
    let gap = (horizon - n as Time * len) / (n as Time + 1);
    let starts: Vec<Time> = (0..n as u32)
        .scan(0, |t, v| {
            *t += gap.max(1);
            let s = *t;
            *t += inst.exec(v);
            Some(s)
        })
        .collect();
    let sched = Schedule::new(starts);
    assert!(sched.validate(inst, horizon).is_ok());
    sched
}
