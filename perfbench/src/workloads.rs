//! The four workloads: inputs built from the seed, the operations one
//! pass runs, and the checks on every answer.
//!
//! Every operation is a call into the program's public API, timed from
//! outside. A pass runs the workload's fixed operation list once; the
//! stateful workloads (`exact`, `requery`) start each pass from an empty
//! [`SolveCache`], so every pass does the same work.
//!
//! Workflows and the platform are fixtures, generated at one fixed seed
//! (`FIXTURE_SEED`), as in the paper, whose workflows are fixed traces.
//! The run's seed drives what varies between a user's submissions:
//! power profiles, forecasts and their revisions, the query stream, and
//! the seeded chain of `exact`. Random workflows would make the spread
//! between seeds measure the workflow generator, not the program.

use cawo_bench::fixtures::lp_chain_fixture;
use cawo_cache::{CacheOutcome, SolveCache};
use cawo_core::{carbon_cost, Cost, EngineKind, Instance, RunParams, Schedule, Variant};
use cawo_exact::{Budget, SolveStatus, SolverKind};
use cawo_graph::generator::{instantiate, Family, PaperInstance};
use cawo_heft::heft_schedule;
use cawo_platform::{
    Cluster, DeadlineFactor, PowerProfile, ProfileConfig, Scenario, Time, TraceConfig, TraceSource,
};
use cawo_sim::experiment::{build_profile, ExperimentConfig, GridScale};

use crate::layers;
use crate::measure::{timed, Calibrator};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §6 quick grid: 112 instances × 17 variants.
    PaperGrid,
    /// Fig. 12's regime, scaled to fit a run: ASAP + the 8 greedy-only
    /// variants on three 8 000–10 000-task workflows.
    LargeGreedy,
    /// Nine exact-solver queries served through one solve cache.
    Exact,
    /// Heuristic evaluations re-queried through the cache under rolling
    /// forecast revisions.
    Requery,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::LargeGreedy,
        Workload::Exact,
        Workload::Requery,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::LargeGreedy => "large-greedy",
            Workload::Exact => "exact",
            Workload::Requery => "requery",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Builds the workload's inputs from `seed` (the timed set-up).
    pub fn prepare(self, seed: u64) -> Result<Prepared, String> {
        match self {
            Workload::PaperGrid => Ok(Prepared::Heuristic(paper_grid(seed))),
            Workload::LargeGreedy => Ok(Prepared::Heuristic(large_greedy(seed))),
            Workload::Exact => Ok(Prepared::Exact(exact(seed))),
            Workload::Requery => requery(seed).map(Prepared::Requery),
        }
    }
}

/// Seed of the fixture workflows and platform.
const FIXTURE_SEED: u64 = 1;

/// The fixture platform: the paper's small cluster.
fn fixture_cluster() -> Cluster {
    Cluster::paper_small(FIXTURE_SEED)
}

/// splitmix64: the benchmark's own seeded stream for generated choices.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one operation answered: what the checks and the cross-pass
/// comparison need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Carbon cost of the returned schedule.
    pub cost: Cost,
    /// ASAP cost on the same instance and profile — the base of
    /// [`PassLog::cost_ratio`]; `None` for ASAP itself.
    pub asap_cost: Option<Cost>,
    /// Proven lower bound, when the operation produced one.
    pub lower_bound: Option<Cost>,
    /// The operation claims a proven optimum.
    pub optimal: bool,
    /// Deterministic route token compared across passes: search nodes
    /// and cache temperature.
    pub token: u64,
}

/// How a pass runs its operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Operations only.
    Plain,
    /// Operations, each followed (untimed) by its full correctness check.
    Checked,
    /// Checked, with heuristic operations split into their layer calls
    /// (greedy → engine build → local search), each in a span.
    Traced,
}

/// Where a pass stops early.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Run the whole pass.
    Whole,
    /// Stop once this much operation time is spent (the warm-up).
    Seconds(f64),
    /// Stop after this many operations (smoke tests).
    Ops(usize),
}

impl Limit {
    fn reached(self, ops: usize, spent_s: f64) -> bool {
        match self {
            Limit::Whole => false,
            Limit::Seconds(s) => spent_s >= s,
            Limit::Ops(n) => ops >= n,
        }
    }
}

/// Everything one pass recorded.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Raw wall seconds per operation, in operation order.
    pub secs: Vec<f64>,
    /// Calibration mark taken after each operation (see
    /// [`Calibrator::scale`]).
    pub marks: Vec<usize>,
    /// Answer per operation.
    pub answers: Vec<Answer>,
    /// Failed checks: operation index and what failed.
    pub failures: Vec<(usize, String)>,
    /// Local-search rounds (traced heuristic passes).
    pub ls_rounds: u64,
    /// Local-search moves (traced heuristic passes).
    pub ls_moves: u64,
    /// Seconds per cache query by temperature: hit, warm, cold.
    pub by_outcome: [Vec<f64>; 3],
}

impl PassLog {
    /// Records a failed check of operation `op`.
    pub fn fail(&mut self, op: usize, what: impl std::fmt::Display) {
        self.failures.push((op, what.to_string()));
    }

    /// Seconds of measured operation time.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Mean over the answers of cost / ASAP cost on the same instance and
    /// profile (ASAP itself, and answers whose ASAP cost is 0, left out).
    pub fn cost_ratio(&self) -> f64 {
        let ratios: Vec<f64> = self
            .answers
            .iter()
            .filter_map(|a| match a.asap_cost {
                Some(b) if b > 0 => Some(a.cost as f64 / b as f64),
                _ => None,
            })
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    }

    /// Accounts one operation's time with the calibrator, then records
    /// it with its answer.
    fn record(&mut self, cal: &mut Calibrator, secs: f64, answer: Answer) {
        self.marks.push(cal.mark());
        cal.after(secs);
        self.secs.push(secs);
        self.answers.push(answer);
    }
}

/// Checks a returned schedule and its reported cost against a fresh
/// re-pricing.
pub fn check_schedule(
    log: &mut PassLog,
    op: usize,
    inst: &Instance,
    profile: &PowerProfile,
    sched: &Schedule,
    cost: Cost,
) {
    if let Err(e) = sched.validate(inst, profile.deadline()) {
        log.fail(op, format!("invalid schedule: {e:?}"));
    }
    let fresh = carbon_cost(inst, sched, profile);
    if fresh != cost {
        log.fail(op, format!("reported cost {cost} != carbon_cost {fresh}"));
    }
}

fn outcome_index(o: CacheOutcome) -> usize {
    match o {
        CacheOutcome::Hit => 0,
        CacheOutcome::Warm => 1,
        CacheOutcome::Cold => 2,
    }
}

/// A workload's inputs, ready to run.
#[derive(Debug)]
pub enum Prepared {
    /// `paper-grid` and `large-greedy`.
    Heuristic(HeuristicSet),
    /// `exact`.
    Exact(ExactSet),
    /// `requery`.
    Requery(RequerySet),
}

impl Prepared {
    /// Operations in one pass.
    pub fn op_count(&self) -> usize {
        match self {
            Prepared::Heuristic(h) => h.cases.len() * h.variants.len(),
            Prepared::Exact(e) => e.queries.len(),
            Prepared::Requery(r) => r.stream.len(),
        }
    }

    /// Total enhanced-DAG (`Gc`) nodes over the distinct instances.
    pub fn gc_nodes(&self) -> usize {
        let insts = match self {
            Prepared::Heuristic(h) => &h.instances,
            Prepared::Exact(e) => &e.instances,
            Prepared::Requery(r) => &r.instances,
        };
        insts.iter().map(Instance::node_count).sum()
    }

    /// Runs one pass, or its start up to `limit`, appending to `log`
    /// and interleaving calibration samples.
    pub fn pass(&self, mode: Mode, limit: Limit, cal: &mut Calibrator, log: &mut PassLog) {
        match self {
            Prepared::Heuristic(h) => h.pass(mode, limit, cal, log),
            Prepared::Exact(e) => e.pass(mode, limit, cal, log),
            Prepared::Requery(r) => r.pass(mode, limit, cal, log),
        }
    }
}

// ---------------------------------------------------------------------
// Heuristic workloads
// ---------------------------------------------------------------------

/// One (instance, profile) pair all variants run on.
#[derive(Debug)]
pub struct Case {
    /// Index into [`HeuristicSet::instances`].
    pub inst: usize,
    /// The power profile.
    pub profile: PowerProfile,
    /// Carbon cost of the ASAP schedule under `profile`.
    pub asap_cost: Cost,
}

/// Variants × cases: the heuristic workloads' operation list.
#[derive(Debug)]
pub struct HeuristicSet {
    /// Distinct enhanced instances.
    pub instances: Vec<Instance>,
    /// Instance/profile pairs, in run order.
    pub cases: Vec<Case>,
    /// Variants run on every case, in [`Variant::ALL`] order.
    pub variants: Vec<Variant>,
}

/// Builds the fixture enhanced instance of a paper workflow, one span
/// per layer.
fn paper_instance(pi: PaperInstance, cluster: &Cluster) -> Instance {
    let wf = {
        let _s = cawo_obs::span("bench", "graph.instantiate");
        instantiate(&pi, FIXTURE_SEED)
    };
    let mapping = {
        let _s = cawo_obs::span("bench", "heft.map");
        heft_schedule(&wf, cluster)
    };
    let _s = cawo_obs::span("bench", "enhanced.build");
    Instance::build(&wf, cluster, &mapping)
}

fn asap_cost(inst: &Instance, profile: &PowerProfile) -> Cost {
    carbon_cost(inst, &inst.asap_schedule(), profile)
}

/// The quick grid of `experiments --scale quick`: 7 workflows on the
/// small cluster × 4 scenarios × 4 deadline factors, all 17 variants.
/// The profiles are the grid's own at `seed`.
fn paper_grid(seed: u64) -> HeuristicSet {
    let cfg = ExperimentConfig::new(GridScale::Quick, seed);
    let cluster = fixture_cluster();
    let workflows = cfg.workflows();
    let instances: Vec<Instance> = workflows
        .iter()
        .map(|&pi| paper_instance(pi, &cluster))
        .collect();
    let cases = cfg
        .grid()
        .iter()
        .map(|spec| {
            let inst = workflows
                .iter()
                .position(|w| w.family == spec.family && w.scaled_to == spec.scaled_to)
                .expect("every grid spec names one of the grid's workflows");
            let profile = {
                let _s = cawo_obs::span("bench", "platform.profile");
                build_profile(&cfg, spec, &cluster, instances[inst].asap_makespan())
                    .expect("synthetic profiles always build")
            };
            let asap_cost = asap_cost(&instances[inst], &profile);
            Case {
                inst,
                profile,
                asap_cost,
            }
        })
        .collect();
    HeuristicSet {
        instances,
        cases,
        variants: Variant::ALL.to_vec(),
    }
}

/// Workflows of `large-greedy`: Fig. 12's three families, each under
/// its own scenario, on the small cluster at ×1.5.
const LARGE_WORKFLOWS: [(Family, usize, Scenario); 3] = [
    (Family::Atacseq, 10_000, Scenario::SolarMorning),
    (Family::Methylseq, 10_000, Scenario::SolarMidday),
    (Family::Eager, 8_000, Scenario::Sinusoidal),
];

fn large_greedy(seed: u64) -> HeuristicSet {
    let cluster = fixture_cluster();
    let mut instances = Vec::new();
    let mut cases = Vec::new();
    for (k, &(family, tasks, scenario)) in LARGE_WORKFLOWS.iter().enumerate() {
        let inst = paper_instance(
            PaperInstance {
                family,
                scaled_to: Some(tasks),
            },
            &cluster,
        );
        let profile = {
            let _s = cawo_obs::span("bench", "platform.profile");
            ProfileConfig::new(scenario, DeadlineFactor::X15, mix(seed ^ k as u64))
                .build(&cluster, inst.asap_makespan())
        };
        cases.push(Case {
            inst: k,
            asap_cost: asap_cost(&inst, &profile),
            profile,
        });
        instances.push(inst);
    }
    HeuristicSet {
        instances,
        cases,
        // ASAP plus the eight greedy-only variants: no local search.
        variants: Variant::ALL[..9].to_vec(),
    }
}

impl HeuristicSet {
    fn pass(&self, mode: Mode, limit: Limit, cal: &mut Calibrator, log: &mut PassLog) {
        let (start, mut spent) = (log.answers.len(), 0.0);
        let params = RunParams::default();
        for case in &self.cases {
            let inst = &self.instances[case.inst];
            let profile = &case.profile;
            let first_of_case = log.answers.len();
            for &v in &self.variants {
                if limit.reached(log.answers.len() - start, spent) {
                    return;
                }
                let op = log.answers.len();
                let (run, secs) = match mode {
                    Mode::Traced => timed(|| layers::traced_variant(v, inst, profile, params)),
                    Mode::Plain | Mode::Checked => timed(|| {
                        let schedule = v.run_with(inst, profile, params);
                        let cost = carbon_cost(inst, &schedule, profile);
                        layers::VariantRun {
                            schedule,
                            cost,
                            ls: None,
                            engine_cost: None,
                        }
                    }),
                };
                spent += secs;
                if mode != Mode::Plain {
                    let _s = cawo_obs::span("bench", "check");
                    check_schedule(log, op, inst, profile, &run.schedule, run.cost);
                    if let Some(engine_cost) = run.engine_cost {
                        if engine_cost != run.cost {
                            log.fail(op, format!("LS engine total {engine_cost} != {}", run.cost));
                        }
                    }
                    // Local search only ever improves its greedy start.
                    let greedy = v.without_local_search();
                    if greedy != v {
                        if let Some(g) = self.variants.iter().position(|&x| x == greedy) {
                            let g_cost = log.answers[first_of_case + g].cost;
                            if run.cost > g_cost {
                                log.fail(op, format!("{v} cost {} > {greedy} {g_cost}", run.cost));
                            }
                        }
                    }
                }
                if let Some(ls) = run.ls {
                    log.ls_rounds += u64::from(ls.rounds);
                    log.ls_moves += ls.moves;
                }
                let answer = Answer {
                    cost: run.cost,
                    asap_cost: (v != Variant::Asap).then_some(case.asap_cost),
                    lower_bound: None,
                    optimal: false,
                    token: 0,
                };
                log.record(cal, secs, answer);
            }
        }
    }
}

// ---------------------------------------------------------------------
// exact
// ---------------------------------------------------------------------

/// One exact-solver query.
#[derive(Debug)]
pub struct Query {
    /// Report label, `E1`…`E9`.
    pub name: &'static str,
    /// Index into [`ExactSet::instances`].
    pub inst: usize,
    /// The power profile.
    pub profile: PowerProfile,
    /// The solver.
    pub kind: SolverKind,
    /// Its node budget (never a wall-clock budget: the work is fixed).
    pub budget: Budget,
    /// Carbon cost of the ASAP schedule under `profile`.
    pub asap_cost: Cost,
}

/// The `exact` workload's queries.
#[derive(Debug)]
pub struct ExactSet {
    /// Distinct instances.
    pub instances: Vec<Instance>,
    /// Queries, in serving order.
    pub queries: Vec<Query>,
}

/// Budget cycle of the seed-free chain fixtures.
pub(crate) const CHAIN_BUDGETS: [u64; 6] = [0, 4, 0, 4, 0, 4];
/// A forecast revision of [`CHAIN_BUDGETS`]: the last three intervals
/// change, so a cached `milp` answer re-solves warm.
pub(crate) const CHAIN_REVISION: [u64; 6] = [0, 4, 0, 3, 0, 3];
/// A second revision, used only for the traced warm-vs-cold pair.
pub(crate) const CHAIN_REVISION_B: [u64; 6] = [0, 4, 0, 4, 1, 4];

/// Node cap of the chain `milp` queries (reaches the known 264 vs 246
/// gap on the 25-task chain).
const MILP_NODES: u64 = 100;
/// Node cap of the `bnb` query on the seeded paper instance.
const BNB_NODES: u64 = 2_000;

/// The uniprocessor chain of `bench_lp`/`bench_obs` (`lp_chain_fixture`
/// with slack `2n` over 6 intervals) under a budget cycle.
pub(crate) fn chain(tasks: usize, budgets: &[u64]) -> (Instance, PowerProfile) {
    lp_chain_fixture(tasks, 2 * tasks as Time, 6, budgets)
}

/// Budgets of the seeded chain: [`CHAIN_BUDGETS`] with each interval
/// moved by -1, 0 or +1 (the chain-scale counterpart of a profile
/// perturbation).
fn seeded_budgets(seed: u64) -> Vec<u64> {
    CHAIN_BUDGETS
        .iter()
        .zip(0u64..)
        .map(|(&b, k)| (b + mix(seed ^ (k + 1) << 32) % 3).saturating_sub(1))
        .collect()
}

/// Solver-heavy queries run on seed-free chains: branch-and-bound and
/// cutting-plane run times swing by orders of magnitude between
/// instances of one size, which would drown any code change. The seed
/// perturbs a 20-task chain's budgets, whose dp and lp work barely
/// varies, and the profile of a node-capped `bnb` on a paper instance.
/// Sorted by time, the queries keep a seed-free one (E6) in the middle
/// and another (E1) at the top, so the median and tail read a fixed
/// query.
fn exact(seed: u64) -> ExactSet {
    let (c25, p25) = chain(25, &CHAIN_BUDGETS);
    let (_, p25_rev) = chain(25, &CHAIN_REVISION);
    let (c100, p100) = chain(100, &CHAIN_BUDGETS);
    // 20 tasks: a different instance from chain-25, so the cache serves
    // its queries cold rather than warm from E3/E4's answers.
    let (cs, ps) = chain(20, &seeded_budgets(seed));
    let cluster = fixture_cluster();
    let atac = paper_instance(
        PaperInstance {
            family: Family::Atacseq,
            scaled_to: Some(200),
        },
        &cluster,
    );
    let pa = {
        let _s = cawo_obs::span("bench", "platform.profile");
        ProfileConfig::new(Scenario::SolarMidday, DeadlineFactor::X15, mix(seed))
            .build(&cluster, atac.asap_makespan())
    };
    let instances = vec![c25, c100, cs, atac];
    let q = |name, inst: usize, profile: &PowerProfile, kind, budget| Query {
        name,
        inst,
        profile: profile.clone(),
        kind,
        budget,
        asap_cost: asap_cost(&instances[inst], profile),
    };
    let full = Budget::default();
    let queries = vec![
        q("E1", 0, &p25, SolverKind::Milp, Budget::nodes(MILP_NODES)),
        q(
            "E2",
            0,
            &p25_rev,
            SolverKind::Milp,
            Budget::nodes(MILP_NODES),
        ),
        q("E3", 0, &p25, SolverKind::Lp, full),
        q("E4", 0, &p25, SolverKind::Dp, full),
        q("E5", 1, &p100, SolverKind::Lp, full),
        q("E6", 1, &p100, SolverKind::Dp, full),
        q("E7", 2, &ps, SolverKind::Dp, full),
        q("E8", 3, &pa, SolverKind::Bnb, Budget::nodes(BNB_NODES)),
        q("E9", 2, &ps, SolverKind::Lp, full),
    ];
    ExactSet { instances, queries }
}

/// Span name of a solver query.
fn solve_span(kind: SolverKind) -> &'static str {
    match kind {
        SolverKind::Milp => "solve.milp",
        SolverKind::Lp => "solve.lp",
        SolverKind::Dp => "solve.dp",
        SolverKind::Bnb => "solve.bnb",
        _ => "solve.other",
    }
}

impl ExactSet {
    fn pass(&self, _mode: Mode, limit: Limit, cal: &mut Calibrator, log: &mut PassLog) {
        let cache = SolveCache::new();
        let (first, mut spent) = (log.answers.len(), 0.0);
        for q in &self.queries {
            if limit.reached(log.answers.len() - first, spent) {
                break;
            }
            let op = log.answers.len();
            let inst = &self.instances[q.inst];
            let (res, secs) = timed(|| {
                let _s = cawo_obs::span("bench", solve_span(q.kind));
                cache.solve(q.kind, EngineKind::default(), inst, &q.profile, q.budget)
            });
            spent += secs;
            let (res, outcome) = match res {
                Ok(r) => r,
                Err(e) => {
                    log.fail(op, format!("{} {}: {e}", q.name, q.kind));
                    let answer = Answer {
                        cost: 0,
                        asap_cost: None,
                        lower_bound: None,
                        optimal: false,
                        token: u64::MAX,
                    };
                    log.record(cal, secs, answer);
                    continue;
                }
            };
            log.by_outcome[outcome_index(outcome)].push(secs);
            // The checks cost microseconds against millisecond solves,
            // so every pass runs them.
            let optimal = res.status == SolveStatus::Optimal;
            {
                let _s = cawo_obs::span("bench", "check");
                check_schedule(log, op, inst, &q.profile, &res.schedule, res.cost);
                if res.lower_bound.is_some_and(|lb| lb > res.cost) {
                    log.fail(
                        op,
                        format!(
                            "{}: bound {:?} > cost {}",
                            q.name, res.lower_bound, res.cost
                        ),
                    );
                }
                if optimal && res.lower_bound != Some(res.cost) {
                    log.fail(
                        op,
                        format!(
                            "{}: optimal with bound {:?} != cost {}",
                            q.name, res.lower_bound, res.cost
                        ),
                    );
                }
            }
            let answer = Answer {
                cost: res.cost,
                asap_cost: Some(q.asap_cost),
                lower_bound: res.lower_bound,
                optimal,
                token: res.nodes << 2 | outcome_index(outcome) as u64,
            };
            log.record(cal, secs, answer);
        }
        self.cross_check(first, log);
    }

    /// A dp optimum bounds every other answer on the same instance and
    /// profile: no solver's cost may beat it, no bound may exceed it.
    fn cross_check(&self, first: usize, log: &mut PassLog) {
        let answers = &log.answers[first..];
        let mut failures = Vec::new();
        for (i, d) in self.queries.iter().enumerate() {
            if d.kind != SolverKind::Dp || i >= answers.len() {
                continue;
            }
            let opt = answers[i].cost;
            for (j, q) in self.queries.iter().enumerate() {
                if j == i || j >= answers.len() || q.inst != d.inst || q.profile != d.profile {
                    continue;
                }
                let a = &answers[j];
                if a.cost < opt || a.lower_bound.is_some_and(|lb| lb > opt) {
                    failures.push((
                        first + j,
                        format!(
                            "{} cost {} / bound {:?} inconsistent with {} optimum {opt}",
                            q.name, a.cost, a.lower_bound, d.name
                        ),
                    ));
                }
            }
        }
        for (op, msg) in failures {
            log.fail(op, msg);
        }
    }
}

// ---------------------------------------------------------------------
// requery
// ---------------------------------------------------------------------

/// Queries in one `requery` pass.
const REQUERY_QUERIES: usize = 60_000;
/// Forecast revisions per workflow after the base forecast.
const REVISIONS: usize = 8;
/// Hourly samples in a forecast.
const FORECAST_HOURS: usize = 48;

/// The `requery` workload: a seeded stream of heuristic evaluations.
#[derive(Debug)]
pub struct RequerySet {
    /// The quick grid's workflows on the small cluster.
    pub instances: Vec<Instance>,
    /// `profiles[w][r]`: workflow `w` under forecast revision `r`
    /// (`r = 0` is the base forecast).
    pub profiles: Vec<Vec<PowerProfile>>,
    /// ASAP cost per `[w][r]`.
    pub asap: Vec<Vec<Cost>>,
    /// Queries as (workflow, variant index into
    /// [`Variant::CAWOSCHED`], revision).
    pub stream: Vec<(u16, u16, u16)>,
}

/// The base forecast and its revisions: 48 hourly carbon intensities
/// on a daily cycle (lowest at 13:00, highest at 01:00) with ±15 %
/// seeded noise. Revision `r` keeps the first `8 + 4r` hours and redraws
/// the noise of the rest. Hours 0 and 1 hold the trace's extremes (450
/// and 40, beyond every drawn value), so every revision maps intensities
/// onto budgets identically and differs from the base only in its tail.
fn forecasts(seed: u64) -> Vec<Vec<(Time, f64)>> {
    let draw = |salt: u64, h: usize| {
        let daily = 250.0 - 140.0 * (std::f64::consts::TAU * (h as f64 - 13.0) / 24.0).cos();
        let noise = (mix(salt ^ (h as u64) << 20) % 3_001) as f64 / 10_000.0 - 0.15;
        daily * (1.0 + noise)
    };
    let base: Vec<(Time, f64)> = (0..FORECAST_HOURS)
        .map(|h| {
            let v = match h {
                0 => 450.0,
                1 => 40.0,
                _ => draw(seed, h),
            };
            (h as Time, v)
        })
        .collect();
    let mut out = vec![base.clone()];
    for r in 1..=REVISIONS {
        let cut = 8 + 4 * r;
        let salt = mix(seed ^ (r as u64) << 40);
        out.push(
            base.iter()
                .map(|&(t, v)| {
                    (
                        t,
                        if (t as usize) < cut {
                            v
                        } else {
                            draw(salt, t as usize)
                        },
                    )
                })
                .collect(),
        );
    }
    out
}

fn requery(seed: u64) -> Result<RequerySet, String> {
    let cluster = fixture_cluster();
    let instances: Vec<Instance> = ExperimentConfig::new(GridScale::Quick, seed)
        .workflows()
        .into_iter()
        .map(|pi| paper_instance(pi, &cluster))
        .collect();
    let forecasts = forecasts(seed);
    let mut profiles = Vec::new();
    let mut asap = Vec::new();
    for inst in &instances {
        let mut row = Vec::new();
        for points in &forecasts {
            let _s = cawo_obs::span("bench", "platform.profile");
            let profile =
                TraceConfig::new(TraceSource::Points(points.clone()), DeadlineFactor::X15)
                    .build(&cluster, inst.asap_makespan())
                    .map_err(|e| format!("forecast profile: {e}"))?;
            row.push(profile);
        }
        asap.push(row.iter().map(|p| asap_cost(inst, p)).collect());
        profiles.push(row);
    }
    // A query repeats the base forecast (an exact hit once cached) or,
    // three times in ten, asks under the forecast revision current at
    // its position in the stream (a warm re-answer). Each (workflow,
    // variant) pair is first asked under the base forecast.
    let n_variants = Variant::CAWOSCHED.len();
    let mut seen = vec![false; instances.len() * n_variants];
    let stream = (0..REQUERY_QUERIES)
        .map(|i| {
            let r = mix(seed.rotate_left(17) ^ i as u64);
            let w = (r % instances.len() as u64) as usize;
            let v = ((r >> 8) % n_variants as u64) as usize;
            let pair = &mut seen[w * n_variants + v];
            let rev = if !*pair || (r >> 16) % 10 >= 3 {
                0
            } else {
                1 + i * REVISIONS / REQUERY_QUERIES
            };
            *pair = true;
            (w as u16, v as u16, rev as u16)
        })
        .collect();
    Ok(RequerySet {
        instances,
        profiles,
        asap,
        stream,
    })
}

impl RequerySet {
    fn pass(&self, mode: Mode, limit: Limit, cal: &mut Calibrator, log: &mut PassLog) {
        let cache = SolveCache::new();
        let (start, mut spent) = (log.answers.len(), 0.0);
        for &(w, v, r) in &self.stream {
            if limit.reached(log.answers.len() - start, spent) {
                return;
            }
            let op = log.answers.len();
            let (w, r) = (w as usize, r as usize);
            let (inst, profile) = (&self.instances[w], &self.profiles[w][r]);
            let variant = Variant::CAWOSCHED[v as usize];
            let ((ans, outcome), secs) = timed(|| {
                let _s = cawo_obs::span("bench", "cache.evaluate");
                cache.evaluate(variant, EngineKind::default(), inst, profile)
            });
            spent += secs;
            log.by_outcome[outcome_index(outcome)].push(secs);
            if mode != Mode::Plain {
                let _s = cawo_obs::span("bench", "check");
                check_schedule(log, op, inst, profile, &ans.schedule, ans.cost);
            }
            let answer = Answer {
                cost: ans.cost,
                asap_cost: Some(self.asap[w][r]),
                lower_bound: None,
                optimal: false,
                token: outcome_index(outcome) as u64,
            };
            log.record(cal, secs, answer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn revisions_change_only_the_tail() {
        let f = forecasts(7);
        for (r, rev) in f.iter().enumerate().skip(1) {
            let cut = 8 + 4 * r;
            assert_eq!(rev[..cut], f[0][..cut]);
            assert_ne!(rev[cut..], f[0][cut..]);
        }
    }

    #[test]
    fn requery_stream_mixes_repeats_and_revisions() {
        let set = requery(3).expect("profiles build");
        let revised = set.stream.iter().filter(|q| q.2 > 0).count();
        assert!((16_000..20_000).contains(&revised), "{revised} revised");
    }
}
