//! `bench` — regenerates the committed `BENCH_*.json` artifacts, one
//! section per artifact, all in the schema of `cawo_bench::report`.
//!
//! ```text
//! cargo run --release -p cawo_bench --bin bench              # every section
//! cargo run --release -p cawo_bench --bin bench -- lp warm   # chosen sections
//! ```
//!
//! Each section writes `BENCH_<section>.json` into the current
//! directory, then checks its acceptance bars; a failed bar panics
//! (nonzero exit) after the artifact is written. An unknown section
//! name exits 2.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a CLI binary")]

mod cost;
mod exact;
mod lp;
mod obs;
mod warm;

use std::process::ExitCode;

use cawo_bench::report::Artifact;

/// `(name, what it measures, entry point)`, in run order.
const SECTIONS: [(&str, &str, fn()); 5] = [
    (
        "cost",
        "dense vs interval cost engine over the horizon",
        cost::run,
    ),
    (
        "exact",
        "exact solvers per cost engine, parallel B&B ladder",
        exact::run,
    ),
    (
        "lp",
        "LP engine ladder, 200-task headline, threads, warm repair",
        lp::run,
    ),
    (
        "warm",
        "solve cache: cold, hit, warm re-solve, re-answer",
        warm::run,
    ),
    (
        "obs",
        "observability overhead and convergence traces",
        obs::run,
    ),
];

fn usage() -> String {
    let mut s = String::from("usage: bench [SECTION...]   (no section = all)\nsections:\n");
    for (name, what, _) in SECTIONS {
        s.push_str(&format!("  {name:<6} BENCH_{name}.json: {what}\n"));
    }
    s
}

/// Writes `artifact` and reports where it went.
fn emit(artifact: &Artifact) {
    let name = artifact.file_name();
    artifact
        .write()
        .unwrap_or_else(|e| panic!("cannot write {name}: {e}"));
    eprintln!("bench: wrote {name}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if let Some(a) = args.iter().find(|a| !SECTIONS.iter().any(|s| s.0 == *a)) {
        eprint!("bench: unknown section `{a}`\n{}", usage());
        return ExitCode::from(2);
    }
    for (name, _, run) in SECTIONS {
        if args.is_empty() || args.iter().any(|a| a == name) {
            eprintln!("bench: section {name}");
            run();
        }
    }
    ExitCode::SUCCESS
}
