//! Dumps the raw experiment grid as CSV (one row per instance ×
//! algorithm) for downstream analysis, mirroring the paper's
//! reproducibility artifacts.
//!
//! ```text
//! experiments [--scale quick|medium|full] [--seed N]
//!             [--engine dense|interval|fenwick]
//!             [--solver NAME[,NAME...]] [--solver-budget SPEC]
//!             [--trace CSV] [--cache] [--serial-timing] [--threads N]
//!             [--log-level off|summary|trace] [--profile]
//!             [--obs-out trace.jsonl]
//! ```
//!
//! Heuristic rows carry `kind = variant` and an empty status; exact
//! solvers (opted in with `--solver`) emit `kind = solver` rows with a
//! per-row status (`optimal`, `feasible`, `timeout`, `unsupported`,
//! `infeasible`), node counts and, where available, a proven lower
//! bound. `--trace` adds a measured carbon-intensity trace as a fifth
//! scenario column next to S1–S4; `--serial-timing` times algorithms
//! one at a time so per-algorithm wall-clocks are contention-free.
//! `--threads N` runs the grid on a dedicated N-thread pool (`1` =
//! sequential, `0` = all cores — the default; above 256 exits 2); every
//! row records the effective worker count in the trailing `threads`
//! column, and results are bit-identical at every setting
//! (docs/CONCURRENCY.md).
//! `--cache` shares one warm-path solve cache across all solver rows:
//! repeated (workflow, solver) queries across the grid's profiles
//! re-solve from cached warm state, and each solver row reports the
//! outcome in the `cache_hit`/`cache_warm` columns. Costs are
//! unaffected (a warm start reaches the same optimum); node counts
//! and timings shrink.

#![expect(clippy::print_stderr, reason = "a CLI binary")]

use std::io::{self, Write};
use std::sync::Arc;

use cawo_cache::{CacheOutcome, SolveCache};
use cawo_core::EngineKind;
use cawo_exact::{Budget, SolverKind};
use cawo_platform::TraceSource;
use cawo_sim::cli::{die, stdout_failed, with_threads, ObsArgs};
use cawo_sim::experiment::{
    run_grid, size_class, ExperimentConfig, GridScale, SpecResult, TraceScenario,
};

/// Writes the grid as CSV, one row per instance × algorithm; `threads`
/// fills the trailing column.
fn write_csv(results: &[SpecResult], threads: usize) -> io::Result<()> {
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "instance,family,size,size_class,cluster,scenario,deadline,\
         n_tasks,gc_nodes,asap_makespan,kind,algorithm,cost,millis,status,nodes,lower_bound,\
         lp_iters,cuts,cache_hit,cache_warm,threads"
    )?;
    for r in results {
        let prefix = format!(
            "{},{},{},{},{},{},{},{},{},{}",
            r.spec.id(),
            r.spec.family.name(),
            r.spec
                .scaled_to
                .map_or_else(|| "real".to_string(), |n| n.to_string()),
            size_class(r.n_tasks),
            r.spec.cluster.name(),
            r.spec.scenario.label(),
            r.spec.deadline.as_f64(),
            r.n_tasks,
            r.gc_nodes,
            r.asap_makespan,
        );
        for (i, &v) in r.variants.iter().enumerate() {
            writeln!(
                out,
                "{prefix},variant,{},{},{:.4},,,,,,,,{threads}",
                v.name(),
                r.cost[i],
                r.millis[i],
            )?;
        }
        for row in &r.solver_rows {
            writeln!(
                out,
                "{prefix},solver,{},{},{:.4},{},{},{},{},{},{},{},{threads}",
                row.kind.name(),
                row.cost.map_or_else(String::new, |c| c.to_string()),
                row.millis,
                row.status.name(),
                row.nodes,
                row.lower_bound.map_or_else(String::new, |c| c.to_string()),
                row.lp_iters,
                row.cuts,
                (row.cache == CacheOutcome::Hit) as u8,
                (row.cache == CacheOutcome::Warm) as u8,
            )?;
        }
    }
    out.flush()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ExperimentConfig::new(GridScale::Quick, 42);
    let mut obs_args = ObsArgs::default();
    let mut threads = 0;
    let mut i = 0;
    let next = |args: &[String], i: &mut usize| -> String {
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| die(&format!("missing value for {}", args[*i - 1])))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cfg.scale = GridScale::parse(&next(&args, &mut i))
                    .unwrap_or_else(|| die("expected --scale quick|medium|full"));
            }
            "--seed" => {
                cfg.seed = next(&args, &mut i)
                    .parse()
                    .unwrap_or_else(|_| die("expected --seed <u64>"));
            }
            "--engine" => {
                cfg.engine = EngineKind::parse(&next(&args, &mut i))
                    .unwrap_or_else(|| die("expected --engine dense|interval|fenwick"));
            }
            "--solver" => {
                for name in next(&args, &mut i).split(',') {
                    let kind = SolverKind::parse(name.trim()).unwrap_or_else(|| {
                        die(&format!(
                            "unknown solver `{name}` (known: {})",
                            SolverKind::ALL.map(|k| k.name()).join(", ")
                        ))
                    });
                    cfg.solvers.push(kind);
                }
            }
            "--solver-budget" => {
                cfg.solver_budget = Budget::parse(&next(&args, &mut i)).unwrap_or_else(|| {
                    die("expected --solver-budget <nodes>|<ms>ms|<s>s (e.g. 500000,250ms)")
                });
            }
            "--trace" => {
                let path = next(&args, &mut i);
                cfg.trace = Some(TraceScenario {
                    name: path.clone(),
                    source: TraceSource::CsvFile(path.into()),
                });
            }
            "--cache" => cfg.cache = Some(Arc::new(SolveCache::new())),
            "--log-level" => obs_args.log_level = Some(next(&args, &mut i)),
            "--profile" => obs_args.profile = true,
            "--obs-out" => obs_args.obs_out = Some(next(&args, &mut i)),
            "--serial-timing" => cfg.serial_timing = true,
            "--threads" => {
                threads = next(&args, &mut i)
                    .parse()
                    .unwrap_or_else(|_| die("expected --threads <N> (0 = all cores)"));
            }
            a => die(&format!("unexpected argument {a}")),
        }
        i += 1;
    }
    obs_args.init();

    eprintln!(
        "running grid (scale {:?}, seed {}, engine {}, {} solver(s){}{}{}) ...",
        cfg.scale,
        cfg.seed,
        cfg.engine,
        cfg.solvers.len(),
        if cfg.trace.is_some() {
            ", trace column"
        } else {
            ""
        },
        if cfg.cache.is_some() { ", cache" } else { "" },
        if cfg.serial_timing {
            ", serial timing"
        } else {
            ""
        },
    );
    // The worker count recorded per row is the size of the pool the
    // grid ran on.
    let (results, threads) =
        with_threads(threads, || (run_grid(&cfg), rayon::current_num_threads()));
    let skipped = cfg.grid().len() - results.len();
    eprintln!("{} instances done on {threads} thread(s)", results.len());
    if let Some(cache) = &cfg.cache {
        let s = cache.stats();
        eprintln!(
            "cache: {} hit / {} warm / {} cold / {} rejected",
            s.hits, s.warm, s.cold, s.rejected
        );
    }

    write_csv(&results, threads).unwrap_or_else(|e| stdout_failed(&e));
    obs_args.finish();
    // A partial grid (instances skipped over unloadable traces) still
    // emits its rows above, but must not read as a clean run to
    // scripted consumers.
    if skipped > 0 {
        eprintln!("error: {skipped} instance(s) skipped (see warnings above)");
        std::process::exit(3);
    }
}
