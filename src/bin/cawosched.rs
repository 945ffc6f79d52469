//! `cawosched` — command-line front end for the library.
//!
//! ```text
//! cawosched generate --family atacseq --tasks 200 --seed 7
//! cawosched schedule --dot wf.dot --variant pressWR-LS --scenario S1 \
//!                    --deadline 2 --cluster tiny --gantt
//! cawosched evaluate --dot wf.dot --scenario S3 --deadline 1.5
//! ```
//!
//! * `generate` writes a synthetic workflow (DOT) to stdout,
//! * `schedule` runs one variant and prints the start times (or a Gantt
//!   chart with `--gantt`),
//! * `evaluate` runs all 17 variants and prints a cost table.
//!
//! `schedule --cache --repeat N` exercises the warm-path serving layer:
//! the query runs N times against one [`SolveCache`], printing per-
//! iteration wall-clock and cache outcome (`cold`/`hit`) — the shape of
//! a `cawod` daemon serving repeated queries.

#![expect(clippy::print_stderr, reason = "a CLI binary")]

use std::io::{self, Read, Write};
use std::time::Instant;

use cawosched::exact::WarmStart;
use cawosched::graph::dot;
use cawosched::graph::wfjson::{from_wfcommons_json, WfJsonOptions};
use cawosched::prelude::*;
use cawosched::sim::cli::{die, stdout_failed, with_threads, ObsArgs};
use cawosched::sim::report::render_gantt;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        die(&usage());
    };
    let opts = Options::parse(&args[1..]).unwrap_or_else(|e| die(&format!("{e}\n{}", usage())));
    opts.obs.init();
    let written = match cmd.as_str() {
        "generate" => generate_cmd(&opts),
        "schedule" => with_threads(opts.threads, || schedule_cmd(&opts)),
        "evaluate" => with_threads(opts.threads, || evaluate_cmd(&opts)),
        other => die(&format!("unknown command `{other}`\n{}", usage())),
    };
    written.unwrap_or_else(|e| stdout_failed(&e));
    opts.obs.finish();
}

/// The usage text; the solver list is read from the registry so it
/// cannot drift from what `--solver` accepts.
fn usage() -> String {
    let solvers = SolverKind::ALL.map(|k| k.name()).join("|");
    format!(
        "usage:
  cawosched generate --family <atacseq|bacass|eager|methylseq> [--tasks N] [--seed N]
  cawosched schedule [--dot FILE|-] [--json FILE] [--variant NAME]
                     [--solver {solvers}]
                     [--solver-budget SPEC] [--scenario S1..S4] [--trace CSV]
                     [--deadline 1|1.5|2|3] [--cluster tiny|small|large]
                     [--engine dense|interval|fenwick] [--seed N]
                     [--threads N] [--cache] [--repeat N] [--gantt]
                     [--log-level off|summary|trace] [--profile]
                     [--obs-out trace.jsonl]
  cawosched evaluate [--dot FILE|-] [--json FILE] [--scenario S1..S4]
                     [--solver NAME[,NAME...]] [--solver-budget SPEC]
                     [--trace CSV] [--deadline ...] [--cluster ...]
                     [--engine dense|interval|fenwick] [--seed N]
                     [--threads N] [--log-level off|summary|trace]
                     [--profile] [--obs-out trace.jsonl]

  --trace replaces the synthetic S1..S4 scenario with a measured
  carbon-intensity trace (CSV rows `time,intensity`); --engine picks the
  incremental cost backend (default: interval). --solver runs an exact
  solver instead of (schedule) or after (evaluate) the heuristics;
  --solver-budget caps it with a node count, `250ms`/`2s` wall-clock,
  or both (`500000,250ms`). --threads runs solvers and heuristics on a
  dedicated pool of N workers (1 = sequential, 0 = all cores — the
  default, at most 256); results are identical at any thread count.
  --repeat N runs the schedule query N times; with --cache, repeats
  after the first are served from the warm-path solve cache and each
  iteration reports its wall-clock and cache outcome. --profile prints a
  solve-profile summary (counters + span timings) to stderr after the
  command; --obs-out writes the JSONL event trace (see
  docs/OBSERVABILITY.md; obs_check validates it and converts it to a
  Chrome trace); --log-level (or the CAWO_LOG env var) sets the
  recording level explicitly."
    )
}

struct Options {
    family: Family,
    tasks: usize,
    seed: u64,
    dot: Option<String>,
    json: Option<String>,
    variant: Variant,
    solvers: Vec<SolverKind>,
    solver_budget: Budget,
    scenario: Scenario,
    scenario_explicit: bool,
    trace: Option<String>,
    deadline: DeadlineFactor,
    cluster: String,
    engine: EngineKind,
    gantt: bool,
    threads: usize,
    cache: bool,
    repeat: usize,
    obs: ObsArgs,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            family: Family::Atacseq,
            tasks: 100,
            seed: 42,
            dot: None,
            json: None,
            variant: Variant::PressWRLs,
            solvers: Vec::new(),
            solver_budget: Budget::default(),
            scenario: Scenario::SolarMorning,
            scenario_explicit: false,
            trace: None,
            deadline: DeadlineFactor::X15,
            cluster: "tiny".to_string(),
            engine: EngineKind::default(),
            gantt: false,
            threads: 0,
            cache: false,
            repeat: 1,
            obs: ObsArgs::default(),
        };
        let mut i = 0;
        let next = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value for {}", args[*i - 1]))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--family" => {
                    let v = next(&mut i)?;
                    o.family = Family::ALL
                        .into_iter()
                        .find(|f| f.name() == v)
                        .ok_or(format!("unknown family {v}"))?;
                }
                "--tasks" => o.tasks = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
                "--seed" => o.seed = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
                "--dot" => o.dot = Some(next(&mut i)?),
                "--json" => o.json = Some(next(&mut i)?),
                "--variant" => {
                    let v = next(&mut i)?;
                    o.variant = Variant::from_name(&v).ok_or(format!("unknown variant {v}"))?;
                }
                "--solver" => {
                    for name in next(&mut i)?.split(',') {
                        o.solvers.push(
                            SolverKind::parse(name.trim())
                                .ok_or(format!("unknown solver {name}"))?,
                        );
                    }
                }
                "--solver-budget" => {
                    let v = next(&mut i)?;
                    o.solver_budget = Budget::parse(&v).ok_or(format!("bad solver budget {v}"))?;
                }
                "--scenario" => {
                    let v = next(&mut i)?;
                    o.scenario = Scenario::ALL
                        .into_iter()
                        .find(|s| s.label() == v)
                        .ok_or(format!("unknown scenario {v}"))?;
                    o.scenario_explicit = true;
                }
                "--deadline" => {
                    let v = next(&mut i)?;
                    o.deadline = match v.as_str() {
                        "1" | "1.0" => DeadlineFactor::X10,
                        "1.5" => DeadlineFactor::X15,
                        "2" | "2.0" => DeadlineFactor::X20,
                        "3" | "3.0" => DeadlineFactor::X30,
                        _ => return Err(format!("unknown deadline factor {v}")),
                    };
                }
                "--trace" => o.trace = Some(next(&mut i)?),
                "--cluster" => o.cluster = next(&mut i)?,
                "--engine" => {
                    let v = next(&mut i)?;
                    o.engine = EngineKind::parse(&v).ok_or(format!("unknown engine {v}"))?;
                }
                "--gantt" => o.gantt = true,
                "--cache" => o.cache = true,
                "--repeat" => {
                    o.repeat = next(&mut i)?.parse().map_err(|e| format!("{e}"))?;
                    if o.repeat == 0 {
                        return Err("--repeat wants at least 1".to_string());
                    }
                }
                "--threads" => o.threads = next(&mut i)?.parse().map_err(|e| format!("{e}"))?,
                "--log-level" => o.obs.log_level = Some(next(&mut i)?),
                "--profile" => o.obs.profile = true,
                "--obs-out" => o.obs.obs_out = Some(next(&mut i)?),
                a => return Err(format!("unknown argument {a}")),
            }
            i += 1;
        }
        if o.trace.is_some() && o.scenario_explicit {
            return Err("--trace replaces the synthetic scenario; drop --scenario".to_string());
        }
        Ok(o)
    }

    fn build_cluster(&self) -> Cluster {
        match self.cluster.as_str() {
            "tiny" => Cluster::tiny(&[0, 3, 5], self.seed),
            "small" => Cluster::paper_small(self.seed),
            "large" => Cluster::paper_large(self.seed),
            other => die(&format!("unknown cluster `{other}` (tiny|small|large)")),
        }
    }

    fn load_workflow(&self) -> Workflow {
        if let Some(path) = &self.json {
            let buf = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            return from_wfcommons_json(&buf, WfJsonOptions::default())
                .unwrap_or_else(|e| die(&format!("bad WfCommons JSON: {e}")));
        }
        match &self.dot {
            None => generate(&GeneratorConfig::new(self.family, self.tasks, self.seed)),
            Some(path) if path == "-" => {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
                dot::from_dot(&buf).unwrap_or_else(|e| die(&format!("bad DOT: {e}")))
            }
            Some(path) => {
                let buf = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                dot::from_dot(&buf).unwrap_or_else(|e| die(&format!("bad DOT: {e}")))
            }
        }
    }
}

fn generate_cmd(o: &Options) -> io::Result<()> {
    let wf = generate(&GeneratorConfig::new(o.family, o.tasks, o.seed));
    let mut out = io::stdout().lock();
    out.write_all(dot::to_dot(&wf).as_bytes())?;
    out.flush()
}

fn prepare(o: &Options) -> (Instance, PowerProfile, Cost) {
    let _s = cawo_obs::span("cli", "prepare");
    let wf = o.load_workflow();
    let cluster = o.build_cluster();
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let (profile, scenario_label) = match &o.trace {
        Some(path) => {
            let cfg = TraceConfig::new(TraceSource::CsvFile(path.into()), o.deadline);
            let p = cfg
                .build(&cluster, inst.asap_makespan())
                .unwrap_or_else(|e| die(&format!("bad trace {path}: {e}")));
            (p, "trace".to_string())
        }
        None => (
            ProfileConfig::new(o.scenario, o.deadline, o.seed)
                .build(&cluster, inst.asap_makespan()),
            o.scenario.label().to_string(),
        ),
    };
    let baseline = carbon_cost(&inst, &inst.asap_schedule(), &profile);
    eprintln!(
        "instance: {} tasks ({} Gc nodes), cluster {}, {} x{}, T={}, J={}, engine {}",
        inst.original_task_count(),
        inst.node_count(),
        cluster.name(),
        scenario_label,
        o.deadline.as_f64(),
        profile.deadline(),
        profile.interval_count(),
        o.engine,
    );
    (inst, profile, baseline)
}

fn run_params(o: &Options) -> RunParams {
    RunParams {
        engine: o.engine,
        ..RunParams::default()
    }
}

fn schedule_cmd(o: &Options) -> io::Result<()> {
    let (inst, profile, baseline) = prepare(o);
    if o.solvers.len() > 1 {
        die("schedule runs one solver; pass a single --solver name (evaluate accepts a list)");
    }
    // Repeated-query serving loop: with --cache, iterations after the
    // first are exact-key hits served from the cache; without it every
    // iteration computes cold (the comparison baseline).
    let cache = SolveCache::new();
    let mut answer = None;
    for it in 1..=o.repeat {
        let _s = cawo_obs::span("cli", "query");
        #[expect(
            clippy::disallowed_methods,
            reason = "measures elapsed runtime for the CLI's timing printout; never feeds schedules or costs."
        )]
        let t0 = Instant::now();
        let (label, sched, cost, outcome) = match o.solvers.first() {
            Some(&kind) => {
                let solved = if o.cache {
                    cache.solve(kind, o.engine, &inst, &profile, o.solver_budget)
                } else {
                    kind.solve_with(
                        o.engine,
                        &inst,
                        &profile,
                        o.solver_budget,
                        &WarmStart::default(),
                    )
                    .map(|res| (res, CacheOutcome::Cold))
                };
                match solved {
                    Ok((res, outcome)) => {
                        if it == 1 {
                            eprintln!(
                                "{kind}: status {}, {} nodes{}",
                                res.status,
                                res.nodes,
                                res.lower_bound
                                    .map_or(String::new(), |lb| format!(", lower bound {lb}")),
                            );
                        }
                        (kind.name(), res.schedule, res.cost, outcome)
                    }
                    Err(e) => die(&format!("solver {kind}: {e}")),
                }
            }
            None if o.cache => {
                let (ans, outcome) = cache.evaluate(o.variant, o.engine, &inst, &profile);
                (o.variant.name(), (*ans.schedule).clone(), ans.cost, outcome)
            }
            None => {
                let sched = o.variant.run_with(&inst, &profile, run_params(o));
                let cost = carbon_cost(&inst, &sched, &profile);
                (o.variant.name(), sched, cost, CacheOutcome::Cold)
            }
        };
        if o.repeat > 1 {
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            eprintln!("iter {it}: cost {cost}, {ms:.4} ms ({outcome})");
        }
        answer = Some((label, sched, cost));
    }
    let (label, sched, cost) = answer.expect("--repeat wants at least 1");
    sched
        .validate(&inst, profile.deadline())
        .unwrap_or_else(|e| die(&format!("internal error — invalid schedule: {e}")));
    eprintln!(
        "{label}: carbon cost {cost} (ASAP {baseline}, ratio {:.3})",
        cost as f64 / baseline.max(1) as f64
    );
    let mut out = io::stdout().lock();
    if o.gantt {
        out.write_all(render_gantt(&inst, &sched, &profile, 120).as_bytes())?;
    } else {
        writeln!(out, "task,start,finish,unit")?;
        for v in 0..inst.original_task_count() as u32 {
            writeln!(
                out,
                "{v},{},{},{}",
                sched.start(v),
                sched.finish(v, &inst),
                inst.unit_of(v)
            )?;
        }
    }
    out.flush()
}

fn evaluate_cmd(o: &Options) -> io::Result<()> {
    let (inst, profile, baseline) = prepare(o);
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "{:<14} {:>12} {:>8} {:>12}",
        "variant", "carbon_cost", "ratio", "status"
    )?;
    writeln!(out, "{:<14} {:>12} {:>8.3}", "ASAP", baseline, 1.0)?;
    for v in Variant::CAWOSCHED {
        let _s = cawo_obs::span("cli", "variant");
        let sched = v.run_with(&inst, &profile, run_params(o));
        let cost = carbon_cost(&inst, &sched, &profile);
        writeln!(
            out,
            "{:<14} {:>12} {:>8.3}",
            v.name(),
            cost,
            cost as f64 / baseline.max(1) as f64
        )?;
    }
    for &kind in &o.solvers {
        let _s = cawo_obs::span("cli", "solver");
        match kind.solve_with(
            o.engine,
            &inst,
            &profile,
            o.solver_budget,
            &WarmStart::default(),
        ) {
            Ok(res) => writeln!(
                out,
                "{:<14} {:>12} {:>8.3} {:>12}",
                kind.name(),
                res.cost,
                res.cost as f64 / baseline.max(1) as f64,
                res.status.name(),
            )?,
            Err(e) => {
                let label = match e {
                    cawosched::exact::SolveError::Unsupported(_) => "unsupported",
                    cawosched::exact::SolveError::Infeasible(_) => "infeasible",
                };
                writeln!(
                    out,
                    "{:<14} {:>12} {:>8} {:>12}",
                    kind.name(),
                    "-",
                    "-",
                    label
                )?;
            }
        }
    }
    out.flush()
}
