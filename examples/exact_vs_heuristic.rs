//! Domain scenario 3: optimality gap on a small instance (the Figure 7
//! methodology): run every heuristic, then prove the optimum with the
//! exact branch-and-bound solver and with the uniprocessor DP where it
//! applies, and verify everything against the ILP model.
//!
//! ```text
//! cargo run --release --example exact_vs_heuristic
//! ```

#![expect(clippy::print_stdout, reason = "an example prints to stdout")]

use cawosched::exact::{
    check_schedule_against_ilp, dp_polynomial, solve_exact, BnbConfig, Budget, SolverKind,
};
use cawosched::graph::generator::WeightDistribution;
use cawosched::prelude::*;

fn main() {
    // Small weights keep the exact search tractable.
    let gcfg = GeneratorConfig {
        family: Family::Bacass,
        target_tasks: 8,
        seed: 5,
        weights: WeightDistribution {
            node_mean: 5.0,
            node_sd: 2.0,
            node_min: 2,
            node_max: 9,
            edge_mean: 2.0,
            edge_sd: 1.0,
            edge_min: 1,
            edge_max: 3,
        },
    };
    let wf = generate(&gcfg);
    let cluster = Cluster::tiny(&[0, 5], 5);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig::new(Scenario::Sinusoidal, DeadlineFactor::X20, 5)
        .build(&cluster, inst.asap_makespan());
    println!(
        "instance: {} Gc nodes, horizon T = {}, {} intervals\n",
        inst.node_count(),
        profile.deadline(),
        profile.interval_count()
    );

    let mut best: Option<(Variant, Cost, Schedule)> = None;
    println!("{:<14} {:>10}", "variant", "cost");
    for v in Variant::ALL {
        let sched = v.run(&inst, &profile);
        let cost = carbon_cost(&inst, &sched, &profile);
        println!("{:<14} {:>10}", v.name(), cost);
        if best.as_ref().is_none_or(|&(_, c, _)| cost < c) {
            best = Some((v, cost, sched));
        }
    }
    let (bv, bc, bs) = best.expect("the variant list is non-empty");
    println!("\nbest heuristic: {} at cost {bc}", bv.name());

    let res = solve_exact(
        &inst,
        &profile,
        BnbConfig {
            budget: Budget::nodes(5_000_000),
            incumbent: Some(bs),
            ..BnbConfig::default()
        },
    );
    println!(
        "exact branch-and-bound: cost {} ({}; {} nodes explored)",
        res.cost,
        if res.optimal {
            "proven optimal"
        } else {
            "node limit hit"
        },
        res.nodes
    );
    println!(
        "optimality gap of {}: {:.1}%",
        bv.name(),
        100.0 * (bc as f64 / res.cost.max(1) as f64 - 1.0)
    );

    // Cross-check the exact schedule against the ILP formulation.
    let ilp_obj = check_schedule_against_ilp(&inst, &profile, &res.schedule)
        .expect("exact schedule satisfies every ILP constraint");
    assert_eq!(ilp_obj, res.cost);
    println!("ILP check: all Appendix A.4 constraints hold; objective = {ilp_obj}");

    // On a single processor, the polynomial DP of §4.1 gives the same
    // optimum as the branch-and-bound — two independent exact methods.
    let uni_cluster = Cluster::tiny(&[3], 5);
    let uni_mapping = Mapping::single_processor(&wf, &uni_cluster, 0);
    let uni_inst = Instance::build(&wf, &uni_cluster, &uni_mapping);
    let uni_profile = ProfileConfig::new(Scenario::Sinusoidal, DeadlineFactor::X20, 5)
        .build(&uni_cluster, uni_inst.asap_makespan());
    let dp = dp_polynomial(&uni_inst, &uni_profile);
    let bnb = solve_exact(&uni_inst, &uni_profile, BnbConfig::default());
    assert_eq!(dp.cost, bnb.cost, "two independent exact methods agree");
    println!(
        "\nuniprocessor cross-check: polynomial DP = branch-and-bound = {}",
        dp.cost
    );

    // The same comparison through the solver registry: every registered
    // solver on the same instance with one budget, reporting its own
    // status ("unsupported" where the method does not apply).
    println!("\n{:<10} {:>10} {:>10}  note", "solver", "cost", "status");
    for kind in SolverKind::ALL {
        match kind.solve(&uni_inst, &uni_profile, Budget::nodes(2_000_000)) {
            Ok(res) => println!(
                "{:<10} {:>10} {:>10}  {}",
                kind.name(),
                res.cost,
                res.status.name(),
                res.lower_bound
                    .map_or(String::new(), |lb| format!("lower bound {lb}")),
            ),
            Err(e) => println!("{:<10} {:>10} {:>10}  {e}", kind.name(), "-", "-"),
        }
    }
}
