//! `exact` — the exact solvers across horizon lengths on each cost
//! engine, and the parallel branch-and-bound on a threads ladder.
//!
//! [`DenseGrid`] pays `O(task length)` per candidate placement, i.e.
//! `O(horizon)` on the scaling fixture; [`IntervalEngine`] and
//! [`FenwickEngine`] price a candidate by the structure inside the
//! touched window. The branch-and-bound explores an identical node
//! sequence on every engine (the deltas are exact everywhere), so the
//! time ratio isolates the costing layer. The headline is
//! `bnb_speedup` (dense / interval) at the longest horizon.
//!
//! The threads ladder times the parallel branch-and-bound
//! (`BnbConfig::parallel`) under a fixed node budget on dedicated
//! `cawo_par` pools of 1/2/4/8 workers; `bnb_threads_speedup` is the
//! 1-thread time over each. Speedups saturate at the host's physical
//! core count.

use cawo_bench::fixtures::{exact_chain_fixture, misaligned_chain_schedule, EXACT_HORIZONS};
use cawo_bench::obj;
use cawo_bench::report::{min_interleaved, Artifact, Probe, Val};
use cawo_core::{CostEngine, DenseGrid, FenwickEngine, Instance, IntervalEngine, Schedule};
use cawo_exact::{
    dp_polynomial, dp_pseudo_polynomial, solve_exact_on, to_e_schedule_on, BnbConfig, Budget,
};
use cawo_graph::generator::{generate, Family, GeneratorConfig};
use cawo_heft::heft_schedule;
use cawo_platform::{Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario, Time};

/// Search-node budget for the branch-and-bound runs: every engine
/// explores exactly this many nodes, so timings compare per-node cost.
const BNB_NODES: u64 = 60;

/// Chain length of the scaling fixture.
const BNB_TASKS: usize = 4;

/// Chain length of the E-schedule / DP fixture (more, shorter tasks —
/// the transformation's work grows with the block count).
const CHAIN_TASKS: usize = 24;

/// Profile intervals of the branch-and-bound fixture (paper-style).
const BNB_INTERVALS: usize = 48;

/// Profile intervals of the E-schedule fixture: few, long intervals so
/// Lemma 4.2's block shifts travel `O(horizon)` distances — the regime
/// where per-time-unit costing degrades.
const CHAIN_INTERVALS: usize = 6;

/// Node budget of the threads ladder: the shared atomic counter stops
/// every worker at the same total, so per-thread timings compare equal
/// amounts of search work.
const PAR_NODES: u64 = 200_000;

/// Pool sizes of the threads ladder.
const THREAD_LADDER: [usize; 4] = [1, 2, 4, 8];

const ROUNDS: usize = 3;

/// What one solver run returned.
#[derive(Clone, Copy, Default)]
struct Outcome {
    nodes: u64,
    cost: u64,
    status: &'static str,
}

impl Outcome {
    /// Checksum for [`min_interleaved`].
    fn sum(&self) -> u64 {
        self.nodes.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.cost ^ self.status.len() as u64
    }
}

fn bnb_probe<'a, E: CostEngine + Clone + Send + Sync>(
    inst: &'a Instance,
    profile: &'a PowerProfile,
    out: &'a mut Outcome,
) -> Probe<'a> {
    Box::new(move || {
        let res = solve_exact_on::<E>(inst, profile, BnbConfig::with_node_limit(BNB_NODES));
        *out = Outcome {
            nodes: res.nodes,
            cost: res.cost,
            status: if res.optimal { "optimal" } else { "timeout" },
        };
        out.sum()
    })
}

fn eschedule_probe<'a, E: CostEngine>(
    inst: &'a Instance,
    profile: &'a PowerProfile,
    seed: &'a Schedule,
    out: &'a mut Outcome,
) -> Probe<'a> {
    Box::new(move || {
        out.cost = to_e_schedule_on::<E>(inst, profile, seed).1;
        out.status = "feasible";
        out.sum()
    })
}

fn row(section: &str, solver: &str, engine: &str, horizon: Time, secs: f64, o: Outcome) -> Val {
    obj! {
        "section" => section,
        "solver" => solver,
        "engine" => engine,
        "horizon" => horizon,
        "seconds" => secs,
        "nodes" => o.nodes,
        "cost" => o.cost,
        "status" => o.status,
    }
}

pub fn run() {
    let mut results = Vec::new();
    let (mut bnb_speedup, mut eschedule_speedup) = (Vec::new(), Vec::new());
    let engines = [DenseGrid::NAME, IntervalEngine::NAME, FenwickEngine::NAME];

    for horizon in EXACT_HORIZONS {
        // Branch-and-bound: identical node-limited search per engine.
        let (inst, profile) = exact_chain_fixture(horizon, BNB_TASKS, BNB_INTERVALS);
        let mut o = [Outcome::default(); 3];
        let [o0, o1, o2] = &mut o;
        let secs = min_interleaved(
            ROUNDS,
            &mut [
                bnb_probe::<DenseGrid>(&inst, &profile, o0),
                bnb_probe::<IntervalEngine>(&inst, &profile, o1),
                bnb_probe::<FenwickEngine>(&inst, &profile, o2),
            ],
        );
        assert!(
            o.iter()
                .all(|x| (x.nodes, x.cost) == (o[0].nodes, o[0].cost)),
            "engines explored different trees at horizon {horizon}"
        );
        for k in 0..3 {
            results.push(row("engine", "bnb", engines[k], horizon, secs[k], o[k]));
        }
        bnb_speedup.push((horizon.to_string(), Val::Num(secs[0] / secs[1].max(1e-12))));

        // E-schedule normalisation of a misaligned schedule.
        let (chain, chain_profile) = exact_chain_fixture(horizon, CHAIN_TASKS, CHAIN_INTERVALS);
        let seed = misaligned_chain_schedule(&chain, horizon);
        let mut o = [Outcome::default(); 3];
        let [o0, o1, o2] = &mut o;
        let secs = min_interleaved(
            ROUNDS,
            &mut [
                eschedule_probe::<DenseGrid>(&chain, &chain_profile, &seed, o0),
                eschedule_probe::<IntervalEngine>(&chain, &chain_profile, &seed, o1),
                eschedule_probe::<FenwickEngine>(&chain, &chain_profile, &seed, o2),
            ],
        );
        for k in 0..3 {
            results.push(row(
                "engine",
                "eschedule",
                engines[k],
                horizon,
                secs[k],
                o[k],
            ));
        }
        eschedule_speedup.push((horizon.to_string(), Val::Num(secs[0] / secs[1].max(1e-12))));

        // The two DPs (engine "prefix": both query PrefixCost oracles,
        // the pseudo variant over every time unit, the polynomial one
        // over E-schedule candidates).
        let (mut pseudo, mut poly) = (0, 0);
        let secs = min_interleaved(
            ROUNDS,
            &mut [
                Box::new(|| {
                    pseudo = dp_pseudo_polynomial(&chain, &chain_profile).cost;
                    pseudo
                }),
                Box::new(|| {
                    poly = dp_polynomial(&chain, &chain_profile).cost;
                    poly
                }),
            ],
        );
        assert_eq!(pseudo, poly, "DPs disagree at horizon {horizon}");
        for (k, solver) in ["dp-pseudo", "dp"].into_iter().enumerate() {
            let o = Outcome {
                nodes: 0,
                cost: poly,
                status: "optimal",
            };
            results.push(row("engine", solver, "prefix", horizon, secs[k], o));
        }
    }

    // Threads ladder: parallel B&B, fixed node budget per run, on a
    // branching multi-unit instance so the leftmost-spine decomposition
    // yields independent slices.
    let wf = generate(&GeneratorConfig::new(Family::Eager, 10, 7));
    let cluster = Cluster::tiny(&[3, 4], 2);
    let mapping = heft_schedule(&wf, &cluster);
    let inst = Instance::build(&wf, &cluster, &mapping);
    let profile = ProfileConfig::new(Scenario::SolarMorning, DeadlineFactor::X15, 7)
        .build(&cluster, inst.asap_makespan());
    let pools: Vec<_> = THREAD_LADDER
        .iter()
        .map(|&n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("pool construction cannot fail")
        })
        .collect();
    let mut outs = [Outcome::default(); THREAD_LADDER.len()];
    let (inst, profile) = (&inst, &profile);
    let mut probes: Vec<Probe> = pools
        .iter()
        .zip(outs.iter_mut())
        .map(|(pool, out)| -> Probe {
            Box::new(move || {
                let res = pool.install(|| {
                    let cfg = BnbConfig {
                        budget: Budget::nodes(PAR_NODES),
                        parallel: true,
                        ..BnbConfig::default()
                    };
                    solve_exact_on::<IntervalEngine>(inst, profile, cfg)
                });
                *out = Outcome {
                    nodes: res.nodes,
                    cost: res.cost,
                    status: if res.optimal { "optimal" } else { "timeout" },
                };
                // Costs under a node budget can differ between parallel
                // runs (docs/CONCURRENCY.md), so nothing is checked here.
                0
            })
        })
        .collect();
    let secs = min_interleaved(ROUNDS, &mut probes);
    drop(probes);
    let horizon = profile.deadline();
    for (k, &threads) in THREAD_LADDER.iter().enumerate() {
        let o = outs[k];
        let r = row(
            "threads",
            "bnb-par",
            IntervalEngine::NAME,
            horizon,
            secs[k],
            o,
        );
        results.push(r.with("threads", threads));
    }
    let threads_speedup = THREAD_LADDER
        .iter()
        .zip(&secs)
        .map(|(t, s)| (t.to_string(), Val::Num(secs[0] / s.max(1e-12))))
        .collect();

    crate::emit(&Artifact {
        bench: "exact",
        timing: format!(
            "seconds per solve: min of {ROUNDS} interleaved rounds (after one warm-up); the \
             engines of one horizon, the two DPs and the pool sizes each interleave"
        ),
        params: obj! {
            "bnb_tasks" => BNB_TASKS,
            "bnb_nodes" => BNB_NODES,
            "chain_tasks" => CHAIN_TASKS,
            "par_nodes" => PAR_NODES,
        },
        results,
        summary: obj! {
            "bnb_speedup" => Val::Obj(bnb_speedup),
            "eschedule_speedup" => Val::Obj(eschedule_speedup),
            "bnb_threads_speedup" => Val::Obj(threads_speedup),
        },
        note: "engine rows: exact_chain_fixture chains per horizon; speedups are dense / \
               interval seconds per horizon. bnb candidate pricing is the headline (grows \
               ~linearly with the horizon), while the E-schedule pass performs only O(n + J) \
               narrow shifts, so its engines stay within noise of each other at these sizes. \
               threads rows: bnb_threads_speedup is 1-thread over N-thread seconds for the \
               node-budgeted parallel search; it saturates at the host's physical core count",
    });
}
