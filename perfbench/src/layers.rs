//! The per-layer split: heuristic operations decomposed into their
//! layer calls, the extra single-layer probes, and the metrics drained
//! from the traced pass.
//!
//! Every span is opened here, in the benchmark, around a call into one
//! layer's public functions (category `bench`); the program itself is
//! not instrumented further. Spans never nest, so a layer's self time
//! is its span total, and the traced pass's wall time is the sum of the
//! span totals plus `unattributed_ms` (loop glue between the spans).

use cawo_cache::instance_fingerprint;
use cawo_core::{
    carbon_cost, greedy_schedule, local_search_on_engine, Cost, CostEngine, DenseGrid, EngineKind,
    FenwickEngine, GreedyConfig, Instance, IntervalEngine, LocalSearchStats, LsPolicy, RunParams,
    Schedule, Variant,
};
use cawo_exact::{SolverKind, SparseA4Model};
use cawo_lp::SimplexOptions;
use cawo_obs::{Ctr, Snapshot};
use cawo_platform::PowerProfile;
use rayon::prelude::*;

use crate::measure::{median, timed, Metric};
use crate::workloads::{self, Answer, PassLog, Prepared, Workload};

/// One variant run, as the plain and traced passes see it.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// The schedule.
    pub schedule: Schedule,
    /// Its carbon cost.
    pub cost: Cost,
    /// Local-search statistics (traced `-LS` runs).
    pub ls: Option<LocalSearchStats>,
    /// The local-search engine's own running total after the search
    /// (traced `-LS` runs) — must equal `cost`.
    pub engine_cost: Option<Cost>,
}

/// [`Variant::run_with`] split into its layer calls — greedy, engine
/// build, local search — each in its own span, followed by the cost
/// evaluation. Produces bit-identically the schedule `run_with` does.
pub fn traced_variant(
    v: Variant,
    inst: &Instance,
    profile: &PowerProfile,
    params: RunParams,
) -> VariantRun {
    let (mut schedule, ls) = match v.components() {
        None => {
            let _s = cawo_obs::span("bench", "asap");
            (inst.asap_schedule(), false)
        }
        Some((score, weighted, refined, ls)) => {
            let cfg = GreedyConfig {
                score,
                weighted,
                refined,
                block_k: params.block_k,
                refine_cap: params.refine_cap,
            };
            let _s = cawo_obs::span("bench", if refined { "greedy.refined" } else { "greedy" });
            (greedy_schedule(inst, profile, cfg), ls)
        }
    };
    let (ls, engine_cost) = if ls {
        let mu = params.mu;
        let (stats, total) = match params.engine {
            EngineKind::Dense => local_search::<DenseGrid>(inst, profile, &mut schedule, mu),
            EngineKind::Interval => {
                local_search::<IntervalEngine>(inst, profile, &mut schedule, mu)
            }
            EngineKind::Fenwick => local_search::<FenwickEngine>(inst, profile, &mut schedule, mu),
        };
        (Some(stats), Some(total))
    } else {
        (None, None)
    };
    let cost = {
        let _s = cawo_obs::span("bench", "cost.eval");
        carbon_cost(inst, &schedule, profile)
    };
    VariantRun {
        schedule,
        cost,
        ls,
        engine_cost,
    }
}

fn local_search<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    schedule: &mut Schedule,
    mu: u64,
) -> (LocalSearchStats, Cost) {
    let mut engine = {
        let _s = cawo_obs::span("bench", "engine.build");
        E::build(inst, schedule, profile)
    };
    let _s = cawo_obs::span("bench", "ls");
    let stats = local_search_on_engine(
        inst,
        profile,
        schedule,
        mu,
        LsPolicy::FirstImprovement,
        &mut engine,
    );
    (stats, engine.total_cost())
}

/// Single-layer probes run after the traced pass, with tracing off.
/// Zero where a workload does not exercise the layer.
#[derive(Debug, Default)]
pub(crate) struct Probes {
    /// `SparseA4Model::build` on the 100-task chain, seconds.
    pub model_build_s: f64,
    /// Raw `cawo_lp::solve` on that model: seconds per pivot.
    pub lp_s_per_pivot: f64,
    /// Pivot-capped raw LP solve: 1-thread over 2-thread time.
    pub lp_pricing_speedup: f64,
    /// Cold over warm solve time for the two chain forecast revisions.
    pub warm_solve_speedup: [f64; 2],
    /// Human-readable warm/cold pairs.
    pub warm_solve_notes: Vec<String>,
    /// `instance_fingerprint`, seconds per call.
    pub fingerprint_s: f64,
    /// A slice of the paper grid: 1-thread over 2-thread time.
    pub grid_speedup: f64,
    /// Failed probe checks (parallel results must match sequential).
    pub failures: Vec<String>,
}

/// Threads of the parallel probes: the multi-core evidence of
/// `par.*_speedup`, capped at two.
fn par_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn with_threads<R: Send>(n: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool builds")
        .install(op)
}

/// Pivot cap of the raw LP probe.
const LP_PROBE_PIVOTS: u64 = 2_000;

/// Runs the workload's single-layer probes.
pub(crate) fn probes(workload: Workload, prepared: &Prepared) -> Probes {
    let mut p = Probes::default();
    match (workload, prepared) {
        (Workload::PaperGrid, Prepared::Heuristic(h)) => {
            // The first workflow's 16 profiles × 17 variants, run as
            // the grid runs them: one parallel iterator over variants.
            let per_case = h.variants.len();
            let ops: Vec<(usize, Variant)> = (0..16 * per_case)
                .map(|i| (i / per_case, h.variants[i % per_case]))
                .collect();
            let run = |&(c, v): &(usize, Variant)| {
                let case = &h.cases[c];
                let inst = &h.instances[case.inst];
                let s = v.run_with(inst, &case.profile, RunParams::default());
                carbon_cost(inst, &s, &case.profile)
            };
            let (seq, t1): (Vec<Cost>, f64) = timed(|| ops.iter().map(run).collect());
            let (par, tn) = timed(|| {
                with_threads(par_threads(), || {
                    ops.par_iter().map(run).collect::<Vec<Cost>>()
                })
            });
            if seq != par {
                p.failures
                    .push("parallel grid slice differs from sequential".into());
            }
            p.grid_speedup = t1 / tn;
        }
        (Workload::Exact, Prepared::Exact(e)) => {
            let (inst, profile) = workloads::chain(100, &workloads::CHAIN_BUDGETS);
            let builds: Vec<f64> = (0..5)
                .map(|_| timed(|| SparseA4Model::build(&inst, &profile)).1)
                .collect();
            p.model_build_s = median(&builds);
            let model = SparseA4Model::build(&inst, &profile);
            let opts = SimplexOptions {
                max_iters: LP_PROBE_PIVOTS,
                ..SimplexOptions::default()
            };
            let (seq, t1) = timed(|| cawo_lp::solve(&model.lp, &opts));
            p.lp_s_per_pivot = t1 / seq.iterations.max(1) as f64;
            let (par, tn) =
                timed(|| with_threads(par_threads(), || cawo_lp::solve(&model.lp, &opts)));
            if (par.iterations, par.objective.to_bits())
                != (seq.iterations, seq.objective.to_bits())
            {
                p.failures
                    .push("parallel LP pricing diverged from sequential".into());
            }
            p.lp_pricing_speedup = t1 / tn;
            // Warm vs cold to the node cap the workload uses: the cache
            // re-solves each revision from the base query's answer.
            let base = &e.queries[0];
            let c25 = &e.instances[base.inst];
            for (k, budgets) in [workloads::CHAIN_REVISION, workloads::CHAIN_REVISION_B]
                .iter()
                .enumerate()
            {
                let (_, revised) = workloads::chain(25, budgets);
                let cache = cawo_cache::SolveCache::new();
                let solve = |c: &cawo_cache::SolveCache, prof: &PowerProfile| {
                    c.solve(
                        SolverKind::Milp,
                        EngineKind::default(),
                        c25,
                        prof,
                        base.budget,
                    )
                };
                let warm = solve(&cache, &base.profile).and_then(|_| {
                    let (r, t) = timed(|| solve(&cache, &revised));
                    r.map(|(r, _)| (r, t))
                });
                let (cold, t_cold) = timed(|| solve(&cawo_cache::SolveCache::new(), &revised));
                match (warm, cold) {
                    (Ok((w, t_warm)), Ok((c, _))) => {
                        p.warm_solve_speedup[k] = t_cold / t_warm;
                        p.warm_solve_notes.push(format!(
                            "revision {}: warm {} cost {} in {:.3}s, cold {} cost {} in {t_cold:.3}s",
                            k + 1,
                            w.status,
                            w.cost,
                            t_warm,
                            c.status,
                            c.cost
                        ));
                    }
                    (w, c) => p.failures.push(format!(
                        "warm/cold probe failed: {:?} / {:?}",
                        w.err(),
                        c.err()
                    )),
                }
            }
        }
        (Workload::Requery, Prepared::Requery(r)) => {
            let reps = 200;
            let (_, t) = timed(|| {
                for _ in 0..reps {
                    for inst in &r.instances {
                        std::hint::black_box(instance_fingerprint(inst));
                    }
                }
            });
            p.fingerprint_s = t / (reps * r.instances.len()) as f64;
        }
        _ => {}
    }
    p
}

/// Inputs of [`per_layer`].
pub(crate) struct TraceRun<'a> {
    /// The workload's inputs.
    pub prepared: &'a Prepared,
    /// Drained after the traced set-ups.
    pub setup: &'a Snapshot,
    /// Drained after the traced pass: its spans and counters.
    pub snap: &'a Snapshot,
    /// Traced set-ups the set-up spans cover.
    pub setup_reps: usize,
    /// The untraced reference pass.
    pub reference: &'a PassLog,
    /// The traced pass.
    pub traced: &'a PassLog,
    /// Raw wall seconds of the traced pass.
    pub traced_wall_s: f64,
    /// The single-layer probes.
    pub probes: &'a Probes,
    /// Traced over untraced operation time, each against its own
    /// pass's calibration.
    pub overhead: f64,
    /// Raw-to-reference-host time factor.
    pub factor: f64,
    /// Mean raw calibration kernel time, ms.
    pub cal_ms: f64,
}

/// Span totals of the traced pass, raw seconds, in name order.
pub(crate) fn pass_spans(snap: &Snapshot) -> Vec<(&'static str, f64)> {
    snap.spans
        .iter()
        .filter(|a| a.cat == "bench")
        .map(|a| (a.name, a.total_us as f64 * 1e-6))
        .collect()
}

fn span_s(snap: &Snapshot, name: &str) -> f64 {
    snap.span("bench", name)
        .map_or(0.0, |a| a.total_us as f64 * 1e-6)
}

fn gap(a: &Answer) -> f64 {
    match a.lower_bound {
        Some(lb) if a.cost > 0 => (a.cost - lb.min(a.cost)) as f64 / a.cost as f64,
        Some(_) => 0.0,
        None => 1.0,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub(crate) fn per_layer(t: &TraceRun<'_>) -> Vec<Metric> {
    let f = t.factor;
    let snap = t.snap;
    let ms = |secs: f64| secs * f * 1e3;
    let us = |secs: f64| secs * f * 1e6;
    let ctr = |c: Ctr| snap.counter(c) as f64;
    let per_setup = |name: &str| ms(span_s(t.setup, name)) / t.setup_reps.max(1) as f64;
    let mut m = vec![
        Metric::new("graph.instantiate_ms", "ms", per_setup("graph.instantiate")),
        Metric::new("heft.map_ms", "ms", per_setup("heft.map")),
        Metric::new("enhanced.build_ms", "ms", per_setup("enhanced.build")),
        Metric::new("enhanced.gc_nodes", "count", t.prepared.gc_nodes() as f64),
        Metric::new("platform.profile_ms", "ms", per_setup("platform.profile")),
        Metric::new("greedy.ms", "ms", ms(span_s(snap, "greedy"))),
        Metric::new(
            "greedy.refined_ms",
            "ms",
            ms(span_s(snap, "greedy.refined")),
        ),
        Metric::new("engine.build_ms", "ms", ms(span_s(snap, "engine.build"))),
        Metric::new("ls.ms", "ms", ms(span_s(snap, "ls"))),
        Metric::new("ls.rounds", "count", t.traced.ls_rounds as f64),
        Metric::new("ls.moves", "count", t.traced.ls_moves as f64),
        Metric::new(
            "engine.price_calls",
            "count",
            ctr(Ctr::EnginePriceDense)
                + ctr(Ctr::EnginePriceInterval)
                + ctr(Ctr::EnginePriceFenwick),
        ),
        Metric::new("cost.eval_ms", "ms", ms(span_s(snap, "cost.eval"))),
    ];

    let is_exact = matches!(t.prepared, Prepared::Exact(_));
    for i in 0..9 {
        let secs = if is_exact {
            t.traced.secs.get(i).copied()
        } else {
            None
        };
        m.push(Metric::new(
            format!("exact.query_ms.E{}", i + 1),
            "ms",
            secs.map_or(0.0, ms),
        ));
    }
    let answers = &t.reference.answers;
    let (gap_mean, optimal_share) = if is_exact && !answers.is_empty() {
        let n = answers.len() as f64;
        (
            answers.iter().map(gap).sum::<f64>() / n,
            answers.iter().filter(|a| a.optimal).count() as f64 / n,
        )
    } else {
        (0.0, 0.0)
    };
    let milp_nodes = ctr(Ctr::MilpNodes);
    let bnb_nodes = ctr(Ctr::BnbNodes);
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    m.extend([
        Metric::new("quality.cost_ratio", "ratio", t.reference.cost_ratio()),
        Metric::new("exact.model_build_ms", "ms", ms(t.probes.model_build_s)),
        Metric::new("exact.gap_mean", "ratio", gap_mean),
        Metric::new("exact.optimal_share", "ratio", optimal_share),
        Metric::new("milp.nodes", "count", milp_nodes),
        Metric::new(
            "milp.ms_per_node",
            "ms",
            per(ms(span_s(snap, "solve.milp")), milp_nodes),
        ),
        Metric::new("bnb.nodes", "count", bnb_nodes),
        Metric::new(
            "bnb.us_per_node",
            "us",
            per(us(span_s(snap, "solve.bnb")), bnb_nodes),
        ),
        Metric::new("cuts.rounds", "count", ctr(Ctr::CutRounds)),
        Metric::new(
            "cuts.added",
            "count",
            ctr(Ctr::CutsPrecedence) + ctr(Ctr::CutsCover) + ctr(Ctr::CutsMir),
        ),
        Metric::new(
            "lp.pivots",
            "count",
            ctr(Ctr::LpPivotsPhase1) + ctr(Ctr::LpPivotsPhase2) + ctr(Ctr::LpPivotsDual),
        ),
        Metric::new("lp.dual_pivots", "count", ctr(Ctr::LpPivotsDual)),
        Metric::new("lp.refactors", "count", ctr(Ctr::LpRefactors)),
        Metric::new("lp.bound_flips", "count", ctr(Ctr::LpBoundFlips)),
        Metric::new("lp.us_per_pivot", "us", us(t.probes.lp_s_per_pivot)),
    ]);

    let (hit, warm, cold) = (ctr(Ctr::CacheHit), ctr(Ctr::CacheWarm), ctr(Ctr::CacheCold));
    let by = &t.traced.by_outcome;
    m.extend([
        Metric::new("cache.hit", "count", hit),
        Metric::new("cache.warm", "count", warm),
        Metric::new("cache.cold", "count", cold),
        Metric::new(
            "cache.useful_ratio",
            "ratio",
            per(hit + warm, hit + warm + cold),
        ),
        Metric::new("cache.fingerprint_us", "us", us(t.probes.fingerprint_s)),
        Metric::new("cache.hit_p50_us", "us", us(median(&by[0]))),
        Metric::new("cache.warm_p50_us", "us", us(median(&by[1]))),
        Metric::new("cache.cold_p50_ms", "ms", ms(median(&by[2]))),
        Metric::new(
            "cache.warm_solve_speedup",
            "x",
            t.probes.warm_solve_speedup[0],
        ),
        Metric::new(
            "cache.warm_solve_speedup_b",
            "x",
            t.probes.warm_solve_speedup[1],
        ),
        Metric::new("par.grid_speedup", "x", t.probes.grid_speedup),
        Metric::new("par.lp_pricing_speedup", "x", t.probes.lp_pricing_speedup),
        Metric::new("obs.overhead_ratio", "x", t.overhead),
        Metric::new(
            "unattributed_ms",
            "ms",
            ms(unattributed_s(snap, t.traced_wall_s)),
        ),
        Metric::new("host.cal_ms", "ms", t.cal_ms),
    ]);
    m
}

/// Traced wall time not covered by any pass span, raw seconds.
pub(crate) fn unattributed_s(snap: &Snapshot, traced_wall_s: f64) -> f64 {
    traced_wall_s - pass_spans(snap).iter().map(|&(_, s)| s).sum::<f64>()
}

/// The self-time table of the traced pass: one row per span plus the
/// unattributed remainder; the rows sum to the traced wall time.
pub(crate) fn self_time_table(snap: &Snapshot, traced_wall_s: f64, factor: f64) -> String {
    let mut rows = pass_spans(snap);
    rows.push(("(unattributed)", unattributed_s(snap, traced_wall_s)));
    let mut out = format!("{:<18} {:>12} {:>7}\n", "layer", "self ms", "share");
    for (name, s) in &rows {
        out += &format!(
            "{name:<18} {:>12.3} {:>6.1}%\n",
            s * factor * 1e3,
            100.0 * s / traced_wall_s
        );
    }
    out += &format!(
        "{:<18} {:>12.3} {:>6.1}%\n",
        "traced wall",
        traced_wall_s * factor * 1e3,
        100.0
    );
    out
}
