//! Domain scenario 4: bring your own workflow as a `.dot` file (the
//! exchange format the paper derives from Nextflow), schedule it, and
//! export the annotated result.
//!
//! ```text
//! cargo run --release --example custom_workflow_dot [path/to/workflow.dot]
//! ```
//!
//! Without an argument, a built-in video-encoding-pipeline DOT string is
//! used.

#![expect(clippy::print_stdout, reason = "an example prints to stdout")]

use cawosched::graph::dot;
use cawosched::prelude::*;

const DEMO: &str = r#"
digraph video_pipeline {
  ingest      [weight=40];
  demux       [weight=20];
  video_dec   [weight=90];
  audio_dec   [weight=30];
  scale_1080  [weight=70];
  scale_720   [weight=60];
  encode_1080 [weight=120];
  encode_720  [weight=100];
  audio_enc   [weight=40];
  mux         [weight=30];
  qc          [weight=25];

  ingest -> demux          [weight=8];
  demux -> video_dec       [weight=12];
  demux -> audio_dec       [weight=4];
  video_dec -> scale_1080  [weight=10];
  video_dec -> scale_720   [weight=10];
  scale_1080 -> encode_1080 [weight=10];
  scale_720 -> encode_720  [weight=8];
  audio_dec -> audio_enc   [weight=4];
  encode_1080 -> mux       [weight=9];
  encode_720 -> mux        [weight=7];
  audio_enc -> mux         [weight=3];
  mux -> qc                [weight=5];
}
"#;

fn main() {
    let input = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEMO.to_string(),
    };
    let wf = dot::from_dot(&input).expect("valid workflow DOT");
    println!(
        "parsed workflow `{}`: {} tasks, {} edges, total work {}",
        wf.name(),
        wf.task_count(),
        wf.edge_count(),
        wf.total_work()
    );

    let cluster = Cluster::tiny(&[1, 3, 5], 99);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X20, 99)
        .build(&cluster, inst.asap_makespan());

    let asap_cost = carbon_cost(&inst, &inst.asap_schedule(), &profile);
    let sched = Variant::SlackWRLs.run(&inst, &profile);
    let cost = carbon_cost(&inst, &sched, &profile);
    println!(
        "ASAP cost {asap_cost}, slackWR-LS cost {cost} (ratio {:.3})\n",
        cost as f64 / asap_cost.max(1) as f64
    );

    println!(
        "{:<6} {:>7} {:>7} {:>7}  unit",
        "task", "start", "end", "exec"
    );
    for v in 0..wf.task_count() as u32 {
        println!(
            "t{:<5} {:>7} {:>7} {:>7}  p{}",
            v,
            sched.start(v),
            sched.finish(v, &inst),
            inst.exec(v),
            inst.unit_of(v)
        );
    }

    // Round-trip the workflow back to DOT (e.g. for visualisation).
    let exported = dot::to_dot(&wf);
    println!(
        "\nre-exported DOT ({} bytes) — first lines:",
        exported.len()
    );
    for line in exported.lines().take(4) {
        println!("  {line}");
    }
}
