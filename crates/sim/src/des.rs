//! Discrete-event execution simulator.
//!
//! An independent oracle for the analytic cost engine: instead of
//! evaluating formulas over the schedule, this module *executes* it —
//! walking start/end events in time order, tracking per-unit occupancy
//! and task completion, metering instantaneous power against the green
//! budget. It checks semantics the static validator only covers
//! indirectly:
//!
//! * **unit exclusivity** is verified directly (at most one task per
//!   execution unit at any instant), not via the chain edges of `Gc`,
//! * **data readiness** is verified against actual completion events,
//! * the **power meter** integrates green/brown energy segment by
//!   segment, reproducing the carbon cost by an entirely different code
//!   path than `cawo_core::carbon_cost`.
//!
//! Tests assert the simulated cost equals the analytic one on every
//! heuristic's output — a strong end-to-end consistency check for the
//! whole stack.

use cawo_core::{Cost, Instance, Schedule};
use cawo_graph::NodeId;
use cawo_platform::{Power, PowerProfile, Time};

/// Why a simulated execution failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Two tasks occupied one unit simultaneously.
    UnitConflict {
        /// The unit in conflict.
        unit: u32,
        /// Task already running.
        running: NodeId,
        /// Task that attempted to start.
        starting: NodeId,
        /// Time of the conflict.
        at: Time,
    },
    /// A task started before a predecessor's data was ready.
    NotReady {
        /// The premature task.
        task: NodeId,
        /// The unfinished predecessor.
        waiting_on: NodeId,
        /// Attempted start time.
        at: Time,
    },
    /// A task was still running at the deadline.
    DeadlineOverrun {
        /// The offending task.
        task: NodeId,
        /// Its completion time.
        finished_at: Time,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnitConflict {
                unit,
                running,
                starting,
                at,
            } => write!(
                f,
                "unit {unit} conflict at t={at}: {starting} started while {running} ran"
            ),
            SimError::NotReady {
                task,
                waiting_on,
                at,
            } => {
                write!(
                    f,
                    "task {task} started at t={at} before {waiting_on} finished"
                )
            }
            SimError::DeadlineOverrun { task, finished_at } => {
                write!(
                    f,
                    "task {task} finished at {finished_at}, after the deadline"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Outcome of a simulated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Completion time of the last task.
    pub makespan: Time,
    /// Brown energy metered during execution (= carbon cost).
    pub carbon_cost: Cost,
    /// Green energy metered during execution.
    pub green_energy: u64,
    /// Peak instantaneous platform power.
    pub peak_power: Power,
    /// Number of processed events (diagnostic).
    pub events: usize,
}

/// Executes the schedule event by event. Returns the metered report or
/// the first semantic violation encountered.
pub fn simulate(
    inst: &Instance,
    sched: &Schedule,
    profile: &PowerProfile,
) -> Result<SimReport, SimError> {
    let n = inst.node_count();
    // Events: (time, kind, node); ends sort before starts at equal time
    // (kind 0 = end, 1 = start) so back-to-back tasks hand over cleanly.
    let mut events: Vec<(Time, u8, NodeId)> = Vec::with_capacity(2 * n);
    for v in 0..n as NodeId {
        events.push((sched.start(v), 1, v));
        events.push((sched.finish(v, inst), 0, v));
    }
    events.sort_unstable();

    let deadline = profile.deadline();
    let idle = inst.total_idle_power() as i64;
    let mut running: Vec<Option<NodeId>> = vec![None; inst.unit_count()];
    let mut done = vec![false; n];
    let mut power: i64 = idle;
    let mut peak: i64 = idle;
    let mut makespan: Time = 0;

    // Power metering between consecutive event times, split at profile
    // boundaries.
    let mut green: u128 = 0;
    let mut brown: u128 = 0;
    let meter = |from: Time, to: Time, power: i64, green: &mut u128, brown: &mut u128| {
        let mut t = from;
        while t < to {
            let (seg_end, budget) = if t < deadline {
                let j = profile.interval_of(t);
                (profile.interval_span(j).1.min(to), profile.budget(j) as i64)
            } else {
                (to, 0)
            };
            let len = (seg_end - t) as u128;
            *green += power.min(budget).max(0) as u128 * len;
            *brown += (power - budget).max(0) as u128 * len;
            t = seg_end;
        }
    };

    let mut clock: Time = 0;
    for &(t, kind, v) in &events {
        if t > clock {
            meter(clock, t, power, &mut green, &mut brown);
            clock = t;
        }
        let unit = inst.unit_of(v) as usize;
        match kind {
            0 => {
                // End event.
                debug_assert_eq!(running[unit], Some(v));
                running[unit] = None;
                done[v as usize] = true;
                power -= inst.work_power(v) as i64;
                makespan = makespan.max(t);
                if t > deadline {
                    return Err(SimError::DeadlineOverrun {
                        task: v,
                        finished_at: t,
                    });
                }
            }
            _ => {
                // Start event: readiness and exclusivity.
                for &p in inst.dag().predecessors(v) {
                    if !done[p as usize] {
                        return Err(SimError::NotReady {
                            task: v,
                            waiting_on: p,
                            at: t,
                        });
                    }
                }
                if let Some(r) = running[unit] {
                    return Err(SimError::UnitConflict {
                        unit: unit as u32,
                        running: r,
                        starting: v,
                        at: t,
                    });
                }
                running[unit] = Some(v);
                power += inst.work_power(v) as i64;
                peak = peak.max(power);
            }
        }
    }
    // Idle tail until the deadline.
    if clock < deadline {
        meter(clock, deadline, power, &mut green, &mut brown);
    }
    debug_assert_eq!(power, idle, "all tasks must have ended");

    #[expect(
        clippy::expect_used,
        reason = "energy accumulates in u128; the total fits u64 for any bounded-horizon instance."
    )]
    let carbon_cost = Cost::try_from(brown).expect("fits");
    #[expect(clippy::expect_used, reason = "same bound as carbon_cost.")]
    let green_energy = u64::try_from(green).expect("fits");
    Ok(SimReport {
        makespan,
        carbon_cost,
        green_energy,
        peak_power: peak as Power,
        events: events.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_core::enhanced::UnitInfo;
    use cawo_core::{carbon_cost, Variant};
    use cawo_graph::dag::DagBuilder;
    use cawo_graph::generator::{generate, Family, GeneratorConfig};
    use cawo_heft::heft_schedule;
    use cawo_platform::{Cluster, DeadlineFactor, ProfileConfig, Scenario};

    #[test]
    fn meter_matches_analytic_cost() {
        let wf = generate(&GeneratorConfig::new(Family::Eager, 80, 31));
        let cluster = Cluster::from_type_counts("des", &[1, 1, 1, 1, 1, 1], 31);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = cawo_core::Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 31)
            .build(&cluster, inst.asap_makespan());
        for v in [Variant::Asap, Variant::SlackLs, Variant::PressWRLs] {
            let sched = v.run(&inst, &profile);
            let rep = simulate(&inst, &sched, &profile).unwrap();
            assert_eq!(rep.carbon_cost, carbon_cost(&inst, &sched, &profile), "{v}");
            assert_eq!(rep.makespan, sched.makespan(&inst), "{v}");
        }
    }

    #[test]
    fn detects_unit_conflicts_missed_by_raw_instances() {
        // Two tasks on one unit with NO chain edge: the static validator
        // cannot see the overlap, the simulator can.
        let dag = DagBuilder::new(2).build().unwrap();
        let inst = cawo_core::Instance::from_raw(
            dag,
            vec![4, 4],
            vec![0, 0],
            vec![UnitInfo {
                p_idle: 0,
                p_work: 1,
                is_link: false,
            }],
            0,
        );
        let profile = cawo_platform::PowerProfile::uniform(10, 5);
        let overlapping = cawo_core::Schedule::new(vec![0, 2]);
        assert!(
            overlapping.validate(&inst, 10).is_ok(),
            "static check is blind here"
        );
        assert!(matches!(
            simulate(&inst, &overlapping, &profile),
            Err(SimError::UnitConflict { unit: 0, at: 2, .. })
        ));
        // Serialised execution passes.
        let serial = cawo_core::Schedule::new(vec![0, 4]);
        assert!(simulate(&inst, &serial, &profile).is_ok());
    }

    #[test]
    fn detects_premature_starts() {
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = cawo_core::Instance::from_raw(
            b.build().unwrap(),
            vec![4, 2],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 0,
                    p_work: 1,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 0,
                    p_work: 1,
                    is_link: false,
                },
            ],
            0,
        );
        let profile = cawo_platform::PowerProfile::uniform(10, 5);
        let premature = cawo_core::Schedule::new(vec![0, 3]);
        assert!(matches!(
            simulate(&inst, &premature, &profile),
            Err(SimError::NotReady {
                task: 1,
                waiting_on: 0,
                at: 3
            })
        ));
    }

    #[test]
    fn back_to_back_handover_is_legal() {
        // Task 1 starts exactly when task 0 ends, same unit.
        let mut b = DagBuilder::new(2);
        b.add_edge(0, 1);
        let inst = cawo_core::Instance::from_raw(
            b.build().unwrap(),
            vec![3, 3],
            vec![0, 0],
            vec![UnitInfo {
                p_idle: 0,
                p_work: 2,
                is_link: false,
            }],
            0,
        );
        let profile = cawo_platform::PowerProfile::uniform(6, 10);
        let sched = cawo_core::Schedule::new(vec![0, 3]);
        let rep = simulate(&inst, &sched, &profile).unwrap();
        assert_eq!(rep.makespan, 6);
        assert_eq!(rep.peak_power, 2);
    }

    #[test]
    fn peak_power_counts_overlap() {
        let dag = DagBuilder::new(2).build().unwrap();
        let inst = cawo_core::Instance::from_raw(
            dag,
            vec![4, 4],
            vec![0, 1],
            vec![
                UnitInfo {
                    p_idle: 1,
                    p_work: 10,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 1,
                    p_work: 20,
                    is_link: false,
                },
            ],
            0,
        );
        let profile = cawo_platform::PowerProfile::uniform(10, 50);
        let sched = cawo_core::Schedule::new(vec![0, 2]);
        let rep = simulate(&inst, &sched, &profile).unwrap();
        // Overlap in [2,4): idle 2 + 10 + 20.
        assert_eq!(rep.peak_power, 32);
    }

    #[test]
    fn deadline_overrun_detected() {
        let dag = DagBuilder::new(1).build().unwrap();
        let inst = cawo_core::Instance::from_raw(
            dag,
            vec![5],
            vec![0],
            vec![UnitInfo {
                p_idle: 0,
                p_work: 1,
                is_link: false,
            }],
            0,
        );
        let profile = cawo_platform::PowerProfile::uniform(6, 5);
        let sched = cawo_core::Schedule::new(vec![3]);
        assert!(matches!(
            simulate(&inst, &sched, &profile),
            Err(SimError::DeadlineOverrun {
                task: 0,
                finished_at: 8
            })
        ));
    }

    #[test]
    fn green_plus_brown_equals_demand() {
        let wf = generate(&GeneratorConfig::new(Family::Bacass, 40, 33));
        let cluster = Cluster::tiny(&[0, 4], 33);
        let mapping = heft_schedule(&wf, &cluster);
        let inst = cawo_core::Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::Sinusoidal, DeadlineFactor::X15, 33)
            .build(&cluster, inst.asap_makespan());
        let sched = Variant::SlackWRLs.run(&inst, &profile);
        let rep = simulate(&inst, &sched, &profile).unwrap();
        let demand: u128 = inst.total_idle_power() as u128 * profile.deadline() as u128
            + (0..inst.node_count() as NodeId)
                .map(|v| inst.work_power(v) as u128 * inst.exec(v) as u128)
                .sum::<u128>();
        assert_eq!(rep.green_energy as u128 + rep.carbon_cost as u128, demand);
    }
}
