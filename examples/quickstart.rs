//! Quickstart: schedule one workflow carbon-aware and compare against
//! the carbon-unaware ASAP baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![expect(clippy::print_stdout, reason = "an example prints to stdout")]

use cawosched::prelude::*;

fn main() {
    // A small eager-like genomics workflow (60 tasks).
    let wf = generate(&GeneratorConfig::new(Family::Eager, 60, 7));
    println!(
        "workflow: {} ({} tasks, {} edges)",
        wf.name(),
        wf.task_count(),
        wf.edge_count()
    );

    // A small heterogeneous platform: one processor each of the slowest,
    // a middle, and the fastest Table-1 type.
    let cluster = Cluster::tiny(&[0, 3, 5], 7);

    // HEFT fixes the mapping and the per-processor ordering...
    let mapping = heft_schedule(&wf, &cluster);
    println!(
        "HEFT mapping uses {} processors, makespan {}",
        mapping.used_proc_count(),
        mapping.seed_makespan()
    );

    // ...and CaWoSched shifts tasks into green intervals.
    let inst = Instance::build(&wf, &cluster, &mapping);
    let asap_makespan = inst.asap_makespan();
    println!(
        "enhanced DAG: {} nodes ({} communication tasks), ASAP makespan D = {asap_makespan}",
        inst.node_count(),
        inst.comm_task_count()
    );

    // Solar-style green power (S1), deadline 2x the ASAP makespan.
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 7)
        .build(&cluster, asap_makespan);
    println!(
        "profile: T = {}, {} intervals, scenario S1",
        profile.deadline(),
        profile.interval_count()
    );

    let baseline = inst.asap_schedule();
    let baseline_cost = carbon_cost(&inst, &baseline, &profile);

    println!("\n{:<14} {:>12} {:>8}", "variant", "carbon cost", "vs ASAP");
    println!("{:<14} {:>12} {:>8}", "ASAP", baseline_cost, "1.00");
    for v in [
        Variant::Slack,
        Variant::SlackLs,
        Variant::PressWR,
        Variant::PressWRLs,
    ] {
        let sched = v.run(&inst, &profile);
        sched
            .validate(&inst, profile.deadline())
            .expect("schedule is valid");
        let cost = carbon_cost(&inst, &sched, &profile);
        println!(
            "{:<14} {:>12} {:>8.2}",
            v.name(),
            cost,
            cost as f64 / baseline_cost.max(1) as f64
        );
    }
}
