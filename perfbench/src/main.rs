//! `perfbench` — runs the benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--obs-out FILE]
//! perfbench [--seed N] [--seconds S] [--trace 0|1] [--obs-out DIR] [--out FILE]
//! ```
//!
//! With `--workload`, one run: the report goes to stderr and the last
//! line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics; per-layer ones with
//! `--trace 1`). Without it, every workload runs in its own child
//! process, one after the other; `--out` writes their results with a
//! host block. Exit code 2 on a usage or set-up error, without a result.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use cawo_perfbench::workloads::Workload;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    obs_out: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        obs_out: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload = Some(Workload::parse(&v).ok_or_else(|| {
                    format!(
                        "unknown workload `{v}` (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let v: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&v) {
                    return Err(format!("--seconds {v} out of range 0..=3600"));
                }
                args.seconds = v;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--obs-out" => args.obs_out = Some(value()?.into()),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    });
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let report = cawo_perfbench::run(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        args.obs_out.as_deref(),
    )?;
    eprint!("{}", report.text());
    println!("{}", report.json());
    Ok(())
}

/// Runs every workload in its own child process and collects the JSON
/// line each prints.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if let Some(dir) = &args.obs_out {
            cmd.arg("--obs-out")
                .arg(dir.join(format!("{}.jsonl", w.name())));
        }
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() || serde_json::parse_value_str(&line).is_err() {
            return Err(format!(
                "{} exited with {} and no result",
                w.name(),
                out.status
            ));
        }
        results.push(format!("    \"{}\": {line}", w.name()));
    }
    let doc = format!(
        "{{\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        cawo_obs::host_meta_json(),
        args.seed,
        args.seconds,
        args.trace,
        results.join(",\n")
    );
    if let Some(path) = &args.out {
        std::fs::write(path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{doc}");
    Ok(())
}
