//! Domain scenario 2: how much do the *shape* of the renewable supply
//! and the deadline tolerance matter? Sweeps all four §6.1 scenarios ×
//! four deadline factors on one workflow and reports the savings of
//! pressWR-LS over ASAP — the paper's "impact of parameters" analysis
//! (Figures 5, 15) in miniature.
//!
//! ```text
//! cargo run --release --example solar_datacenter
//! ```

#![expect(clippy::print_stdout, reason = "an example prints to stdout")]

use cawosched::prelude::*;

fn main() {
    let wf = generate(&GeneratorConfig::new(Family::Methylseq, 300, 23));
    let cluster = Cluster::paper_small(23);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let asap_makespan = inst.asap_makespan();
    println!(
        "workflow {} on cluster {}: {} Gc nodes, D = {asap_makespan}\n",
        wf.name(),
        cluster.name(),
        inst.node_count()
    );

    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>8}",
        "scenario", "deadline", "ASAP cost", "CaWoSched", "ratio"
    );
    for scenario in [
        Scenario::SolarMorning,
        Scenario::SolarMidday,
        Scenario::Sinusoidal,
        Scenario::Constant,
    ] {
        for deadline in [
            DeadlineFactor::X10,
            DeadlineFactor::X15,
            DeadlineFactor::X20,
            DeadlineFactor::X30,
        ] {
            let profile = ProfileConfig::new(scenario, deadline, 23).build(&cluster, asap_makespan);
            let asap_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
            let sched = Variant::PressWRLs.run(&inst, &profile);
            let cost = carbon_cost(&inst, &sched, &profile);
            println!(
                "{:<10} {:>8} {:>12} {:>12} {:>8.3}",
                scenario.label(),
                format!("x{}", deadline.as_f64()),
                asap_cost,
                cost,
                cost as f64 / asap_cost.max(1) as f64
            );
        }
        println!();
    }
    println!(
        "Expected shape (paper §6.2): biggest savings for S1/S3 (little green\n\
         power early) and looser deadlines; ASAP is hard to beat under S2/S4."
    );
}
