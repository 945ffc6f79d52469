//! Task scores driving the greedy processing order (§5.2).
//!
//! * **slack** `s(v) = LST(v) - EST(v)` — processed in *non-decreasing*
//!   order: tasks with little freedom are placed first.
//! * **pressure** `ρ(v) = ω(v) / (s(v) + ω(v)) ∈ [0, 1]` — processed in
//!   *non-increasing* order: tasks whose running time dominates their
//!   feasible window are placed first.
//!
//! Both scores optionally carry the power-heterogeneity weight
//! `wf(i) = (P_idle + P_work) / max_j (P_idle + P_work)` of the task's
//! processor: pressure is multiplied by `wf`, slack by its reciprocal
//! (because slack sorts ascending, §5.2).

use cawo_graph::NodeId;

use crate::bounds::Bounds;
use crate::enhanced::Instance;

/// The two base scores of §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Score {
    /// `s(v) = LST - EST`, ascending.
    Slack,
    /// `ρ(v) = ω / (s + ω)`, descending.
    Pressure,
}

/// Raw (possibly weighted) score value of a single task.
pub fn score_value(
    inst: &Instance,
    bounds: &Bounds,
    score: Score,
    weighted: bool,
    v: NodeId,
) -> f64 {
    let slack = bounds.slack(v) as f64;
    let omega = inst.exec(v) as f64;
    let wf = inst.unit_total_power(v) as f64 / inst.max_unit_total_power() as f64;
    match score {
        Score::Slack => {
            if weighted {
                slack / wf // reciprocal factor, §5.2
            } else {
                slack
            }
        }
        Score::Pressure => {
            let rho = omega / (slack + omega);
            if weighted {
                rho * wf
            } else {
                rho
            }
        }
    }
}

/// The greedy processing order: all nodes sorted by score (ties broken
/// by node id for determinism).
pub fn score_order(inst: &Instance, bounds: &Bounds, score: Score, weighted: bool) -> Vec<NodeId> {
    let n = inst.node_count();
    let values: Vec<f64> = (0..n as NodeId)
        .map(|v| score_value(inst, bounds, score, weighted, v))
        .collect();
    let mut order: Vec<NodeId> = (0..n as NodeId).collect();
    match score {
        #[expect(
            clippy::expect_used,
            reason = "score_value builds the values from finite integer bounds; NaN would silently corrupt the order, so it must fail loudly instead."
        )]
        Score::Slack => order.sort_by(|&a, &b| {
            values[a as usize]
                .partial_cmp(&values[b as usize])
                .expect("scores are finite")
                .then(a.cmp(&b))
        }),
        #[expect(
            clippy::expect_used,
            reason = "score_value builds the values from finite integer bounds; NaN would silently corrupt the order, so it must fail loudly instead."
        )]
        Score::Pressure => order.sort_by(|&a, &b| {
            values[b as usize]
                .partial_cmp(&values[a as usize])
                .expect("scores are finite")
                .then(a.cmp(&b))
        }),
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    /// Three independent tasks: exec 10, 2, 6 on units with total powers
    /// 10, 100, 100.
    fn instance() -> Instance {
        let dag = DagBuilder::new(3).build().unwrap();
        Instance::from_raw(
            dag,
            vec![10, 2, 6],
            vec![0, 1, 1],
            vec![
                UnitInfo {
                    p_idle: 5,
                    p_work: 5,
                    is_link: false,
                },
                UnitInfo {
                    p_idle: 50,
                    p_work: 50,
                    is_link: false,
                },
            ],
            0,
        )
    }

    #[test]
    fn slack_values() {
        let inst = instance();
        let b = Bounds::new(&inst, 20);
        // Independent tasks: slack = T - exec.
        assert_eq!(b.slack(0), 10);
        assert_eq!(b.slack(1), 18);
        assert_eq!(b.slack(2), 14);
        assert_eq!(score_value(&inst, &b, Score::Slack, false, 0), 10.0);
    }

    #[test]
    fn pressure_values() {
        let inst = instance();
        let b = Bounds::new(&inst, 20);
        // ρ = ω/(s+ω): task 0: 10/20 = 0.5, task 1: 2/20 = 0.1.
        assert_eq!(score_value(&inst, &b, Score::Pressure, false, 0), 0.5);
        assert_eq!(score_value(&inst, &b, Score::Pressure, false, 1), 0.1);
        // Pressure 1 when slack is 0.
        let tight = Bounds::new(&inst, 10);
        assert_eq!(score_value(&inst, &tight, Score::Pressure, false, 0), 1.0);
    }

    #[test]
    fn pressure_in_unit_range() {
        let inst = instance();
        let b = Bounds::new(&inst, 100);
        for v in 0..3 {
            let p = score_value(&inst, &b, Score::Pressure, false, v);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn slack_order_is_ascending() {
        let inst = instance();
        let b = Bounds::new(&inst, 20);
        assert_eq!(score_order(&inst, &b, Score::Slack, false), vec![0, 2, 1]);
    }

    #[test]
    fn pressure_order_is_descending() {
        let inst = instance();
        let b = Bounds::new(&inst, 20);
        // ρ: 0.5, 0.1, 0.3 ⇒ order 0, 2, 1.
        assert_eq!(
            score_order(&inst, &b, Score::Pressure, false,),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn weights_prefer_power_hungry_units() {
        let inst = instance();
        let b = Bounds::new(&inst, 20);
        // Unweighted pressure ranks task 0 (0.5) above task 2 (0.3); the
        // weight wf = 0.1 for unit 0 vs 1.0 for unit 1 flips them.
        let unweighted = score_order(&inst, &b, Score::Pressure, false);
        let weighted = score_order(&inst, &b, Score::Pressure, true);
        assert_eq!(unweighted[0], 0);
        assert_eq!(weighted[0], 2, "power-hungry unit should come first");
        // Weighted slack divides by wf: task 0's slack 10 becomes 100,
        // pushing it last.
        let wslack = score_order(&inst, &b, Score::Slack, true);
        assert_eq!(*wslack.last().unwrap(), 0);
    }

    #[test]
    fn ties_break_by_id() {
        let dag = DagBuilder::new(3).build().unwrap();
        let inst = Instance::from_raw(
            dag,
            vec![5, 5, 5],
            vec![0, 0, 0],
            vec![UnitInfo {
                p_idle: 1,
                p_work: 1,
                is_link: false,
            }],
            0,
        );
        let b = Bounds::new(&inst, 30);
        assert_eq!(score_order(&inst, &b, Score::Slack, false), vec![0, 1, 2]);
        assert_eq!(
            score_order(&inst, &b, Score::Pressure, false),
            vec![0, 1, 2]
        );
    }
}
