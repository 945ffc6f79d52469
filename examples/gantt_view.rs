//! Visualise what carbon-aware shifting actually does: ASCII Gantt
//! charts of the ASAP baseline vs a CaWoSched schedule, with the green
//! budget as a sparkline underneath.
//!
//! ```text
//! cargo run --release --example gantt_view
//! ```

#![expect(clippy::print_stdout, reason = "an example prints to stdout")]

use cawo_sim::report::render_gantt;
use cawosched::prelude::*;

fn main() {
    let wf = generate(&GeneratorConfig::new(Family::Bacass, 30, 4));
    let cluster = Cluster::tiny(&[1, 4], 4);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 4)
        .build(&cluster, inst.asap_makespan());

    let asap = inst.asap_schedule();
    let sched = Variant::SlackRLs.run(&inst, &profile);

    println!(
        "{} on 2 processors; `#` = task, `~` = communication, bottom row = green budget\n",
        wf.name()
    );
    println!(
        "ASAP (carbon cost {}):\n{}",
        carbon_cost(&inst, &asap, &profile),
        render_gantt(&inst, &asap, &profile, 100)
    );
    println!(
        "slackR-LS (carbon cost {}):\n{}",
        carbon_cost(&inst, &sched, &profile),
        render_gantt(&inst, &sched, &profile, 100)
    );
    println!("Tasks migrate under the green hump while respecting every dependency.");
}
