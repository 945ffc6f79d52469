//! Domain scenario 1: a bioinformatics campaign on the paper's small
//! cluster — all four nf-core-style workflow families, every CaWoSched
//! variant, solar power profile.
//!
//! ```text
//! cargo run --release --example genomics_pipeline
//! ```

#![expect(clippy::print_stdout, reason = "an example prints to stdout")]

use cawosched::prelude::*;

fn main() {
    let cluster = Cluster::paper_small(11);
    println!(
        "platform: {} compute processors, total idle {} / work {} power units\n",
        cluster.proc_count(),
        cluster.total_idle_power(),
        cluster.total_work_power()
    );

    for family in [
        Family::Atacseq,
        Family::Bacass,
        Family::Eager,
        Family::Methylseq,
    ] {
        let wf = generate(&GeneratorConfig::new(family, 200, 11));
        let mapping = heft_schedule(&wf, &cluster);
        let inst = Instance::build(&wf, &cluster, &mapping);
        let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 11)
            .build(&cluster, inst.asap_makespan());

        let baseline_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
        println!(
            "{:<14} {:>5} tasks  {:>6} Gc nodes  ASAP cost {}",
            wf.name(),
            wf.task_count(),
            inst.node_count(),
            baseline_cost
        );

        let mut best: Option<(Variant, Cost)> = None;
        for v in Variant::CAWOSCHED {
            let sched = v.run(&inst, &profile);
            let cost = carbon_cost(&inst, &sched, &profile);
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((v, cost));
            }
            println!(
                "    {:<12} cost {:>9}  ratio {:.3}",
                v.name(),
                cost,
                cost as f64 / baseline_cost.max(1) as f64
            );
        }
        let (bv, bc) = best.expect("CAWOSCHED is non-empty");
        println!(
            "  -> best: {} saves {:.1}% of the baseline's carbon cost\n",
            bv.name(),
            100.0 * (1.0 - bc as f64 / baseline_cost.max(1) as f64)
        );
    }
}
