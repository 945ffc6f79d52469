//! Carbon-aware HEFT — the paper's §7 *future work*, implemented as the
//! envisioned two-pass approach:
//!
//! 1. a first pass produces a mapping and ordering that already favours
//!    green intervals and frugal processors (this module),
//! 2. a second pass optimises the start times with CaWoSched (the core
//!    crate), exactly "the approach followed in this paper".
//!
//! The first pass is list scheduling with HEFT's upward ranks, but the
//! processor-selection objective blends earliest finish time with an
//! estimated *brown energy* of the candidate slot:
//!
//! `score = (1 - λ) · EFT/maxEFT + λ · brown/maxBrown`
//!
//! where `λ = carbon_weight ∈ [0, 1]` (0 recovers plain HEFT exactly).
//! Brown energy of a candidate slot `[st, ft)` on processor `q` is
//! estimated against the green budget *remaining* after the power of all
//! previously placed tasks was committed, mirroring the greedy budget
//! bookkeeping of CaWoSched (§5.2).
//!
//! Because the profile's horizon is only known once a mapping exists
//! (deadline = factor × ASAP makespan), [`two_pass_carbon_heft`] first
//! runs plain HEFT to estimate the horizon, builds the profile, and then
//! re-maps carbon-aware under it.

use cawo_graph::Workflow;
use cawo_platform::{
    Cluster, DeadlineFactor, Power, PowerProfile, ProcId, ProfileConfig, Scenario, Time,
};

use crate::{heft_schedule, list_schedule, Mapping, Slot};

/// Parameters of the carbon-aware first pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonHeftConfig {
    /// Blend factor `λ`: 0 = plain HEFT, 1 = pure brown-energy greedy.
    pub carbon_weight: f64,
    /// Per-task makespan guard: candidate slots finishing later than
    /// `(1 + makespan_slack) ×` the best EFT are discarded before the
    /// carbon blend, keeping the mapping's makespan close to HEFT's so
    /// the second pass still fits the deadline. `f64::INFINITY` disables
    /// the guard.
    pub makespan_slack: f64,
}

impl Default for CarbonHeftConfig {
    fn default() -> Self {
        CarbonHeftConfig {
            carbon_weight: 0.5,
            makespan_slack: 0.5,
        }
    }
}

/// Remaining-budget tracker over the profile intervals (the same
/// split-and-decrement bookkeeping as the CaWoSched greedy).
struct BudgetTrack {
    begin: Vec<Time>,
    end: Vec<Time>,
    remaining: Vec<i64>,
}

impl BudgetTrack {
    fn new(profile: &PowerProfile, committed_idle: Power) -> Self {
        let mut begin = Vec::new();
        let mut end = Vec::new();
        let mut remaining = Vec::new();
        for j in 0..profile.interval_count() {
            let (b, e) = profile.interval_span(j);
            begin.push(b);
            end.push(e);
            remaining.push(profile.budget(j) as i64 - committed_idle as i64);
        }
        BudgetTrack {
            begin,
            end,
            remaining,
        }
    }

    /// Estimated brown energy of drawing `power` over `[st, ft)` given
    /// the remaining budgets. Time beyond the horizon is all brown.
    fn brown_energy(&self, st: Time, ft: Time, power: i64) -> i64 {
        let horizon = *self.end.last().expect("intervals are non-empty");
        let mut brown = 0i64;
        if ft > horizon {
            brown += power * (ft - ft.min(horizon).max(st)) as i64;
        }
        let (mut t, stop) = (st.min(horizon), ft.min(horizon));
        if t >= stop {
            return brown;
        }
        let mut i = self.begin.partition_point(|&b| b <= t) - 1;
        while t < stop {
            let seg_end = self.end[i].min(stop);
            let over = (power - self.remaining[i].max(0)).max(0);
            brown += over * (seg_end - t) as i64;
            t = seg_end;
            i += 1;
        }
        brown
    }

    /// Commits `power` over `[st, ft)`: splits boundary intervals and
    /// decrements the covered remainders.
    fn commit(&mut self, st: Time, ft: Time, power: i64) {
        let horizon = *self.end.last().expect("intervals are non-empty");
        let (st, ft) = (st.min(horizon), ft.min(horizon));
        if st >= ft {
            return;
        }
        self.split(st);
        if ft < horizon {
            self.split(ft);
        }
        let mut i = self.begin.partition_point(|&b| b <= st) - 1;
        while i < self.begin.len() && self.begin[i] < ft {
            self.remaining[i] -= power;
            i += 1;
        }
    }

    fn split(&mut self, t: Time) {
        let i = self.begin.partition_point(|&b| b <= t) - 1;
        if self.begin[i] == t {
            return;
        }
        let e = self.end[i];
        let r = self.remaining[i];
        self.end[i] = t;
        self.begin.insert(i + 1, t);
        self.end.insert(i + 1, e);
        self.remaining.insert(i + 1, r);
    }
}

/// Carbon-aware list scheduling under a given power profile: HEFT ranks,
/// blended EFT/brown-energy processor selection.
pub fn carbon_heft_schedule(
    wf: &Workflow,
    cluster: &Cluster,
    profile: &PowerProfile,
    config: CarbonHeftConfig,
) -> Mapping {
    if config.carbon_weight <= 0.0 {
        return heft_schedule(wf, cluster);
    }
    let lambda = config.carbon_weight.clamp(0.0, 1.0);
    let power = |q: ProcId| {
        let cp = cluster.proc(q);
        (cp.p_idle + cp.p_work) as i64
    };
    let mut budget = BudgetTrack::new(profile, cluster.total_idle_power());
    // Every processor's slot with its estimated brown energy.
    let mut cands: Vec<(Slot, i64)> = Vec::with_capacity(cluster.proc_count());
    list_schedule(wf, cluster, |slots| {
        cands.clear();
        cands.extend(slots.map(|s| (s, 0)));
        // Makespan guard: keep only candidates close to the best EFT.
        let min_ft = cands.iter().fold(Time::MAX, |m, c| m.min(c.0.finish));
        let ft_cap = if config.makespan_slack.is_finite() {
            (min_ft as f64 * (1.0 + config.makespan_slack.max(0.0))).ceil() as Time
        } else {
            Time::MAX
        };
        cands.retain(|c| c.0.finish <= ft_cap);
        for (s, brown) in &mut cands {
            *brown = budget.brown_energy(s.start, s.finish, power(s.proc));
        }
        let max_ft = cands.iter().fold(1, |m, c| m.max(c.0.finish)) as f64;
        let max_brown = cands.iter().fold(1, |m, c| m.max(c.1)) as f64;
        let score = |c: &(Slot, i64)| {
            (1.0 - lambda) * c.0.finish as f64 / max_ft + lambda * c.1 as f64 / max_brown
        };
        // `min_by` keeps the first minimum: the lowest processor.
        let &(s, _) = cands
            .iter()
            .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("scores are finite"))
            .expect("the guard keeps the best EFT");
        budget.commit(s.start, s.finish, power(s.proc));
        s
    })
}

/// The full two-pass pipeline of §7: plain HEFT estimates the horizon,
/// the profile is generated, and the carbon-aware pass re-maps under it.
/// Returns the carbon-aware mapping and the profile (whose horizon is
/// based on the *plain* mapping so both pipelines compete under the same
/// deadline).
pub fn two_pass_carbon_heft(
    wf: &Workflow,
    cluster: &Cluster,
    scenario: Scenario,
    deadline: DeadlineFactor,
    seed: u64,
    config: CarbonHeftConfig,
) -> (Mapping, PowerProfile) {
    let plain = heft_schedule(wf, cluster);
    // Conservative horizon estimate: the ASAP makespan of the plain
    // mapping is bounded by its HEFT makespan plus communication chains;
    // the HEFT finish times already include communication delays, so
    // `seed_makespan` is a faithful estimate of D.
    let profile =
        ProfileConfig::new(scenario, deadline, seed).build(cluster, plain.seed_makespan());
    let mapping = carbon_heft_schedule(wf, cluster, &profile, config);
    (mapping, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_graph::generator::{generate, Family, GeneratorConfig};
    use cawo_graph::WorkflowBuilder;

    #[test]
    fn zero_weight_is_plain_heft() {
        let wf = generate(&GeneratorConfig::new(Family::Eager, 80, 3));
        let cluster = Cluster::tiny(&[0, 2, 5], 3);
        let profile = PowerProfile::uniform(10_000, 100);
        let plain = heft_schedule(&wf, &cluster);
        let carbon = carbon_heft_schedule(
            &wf,
            &cluster,
            &profile,
            CarbonHeftConfig {
                carbon_weight: 0.0,
                makespan_slack: 0.5,
            },
        );
        assert_eq!(plain, carbon);
    }

    #[test]
    fn budget_track_brown_energy() {
        let profile = PowerProfile::from_parts(vec![0, 10, 20], vec![5, 15]);
        let track = BudgetTrack::new(&profile, 0);
        // Power 10 in [0,10): budget 5 ⇒ brown 5/unit ⇒ 50.
        assert_eq!(track.brown_energy(0, 10, 10), 50);
        // Power 10 in [10,20): budget 15 ⇒ 0.
        assert_eq!(track.brown_energy(10, 20, 10), 0);
        // Straddling: [5,15) ⇒ 5×5 + 0 = 25.
        assert_eq!(track.brown_energy(5, 15, 10), 25);
        // Beyond horizon is all brown: 2 in-horizon units are green
        // (budget 15 covers them), the 5 beyond-horizon units cost 10
        // each.
        assert_eq!(track.brown_energy(18, 25, 10), 50);
    }

    #[test]
    fn budget_track_commit_reduces_greenness() {
        let profile = PowerProfile::from_parts(vec![0, 10], vec![10]);
        let mut track = BudgetTrack::new(&profile, 0);
        assert_eq!(track.brown_energy(0, 10, 10), 0);
        track.commit(0, 5, 8);
        // First half only has 2 budget left: power 10 ⇒ 8 brown/unit.
        assert_eq!(track.brown_energy(0, 5, 10), 40);
        assert_eq!(track.brown_energy(5, 10, 10), 0);
    }

    #[test]
    fn carbon_pass_produces_valid_mapping() {
        let wf = generate(&GeneratorConfig::new(Family::Atacseq, 120, 5));
        let cluster = Cluster::from_type_counts("mini", &[1, 1, 1, 1, 1, 1], 5);
        let (mapping, profile) = two_pass_carbon_heft(
            &wf,
            &cluster,
            Scenario::SolarMorning,
            DeadlineFactor::X20,
            5,
            CarbonHeftConfig::default(),
        );
        // All tasks mapped; orders respect precedences (validated inside
        // Mapping::from_parts), seed times respect edges.
        for (u, v) in wf.dag().edges() {
            let mut ready = mapping.seed_finish(u);
            if mapping.proc_of(u) != mapping.proc_of(v) {
                ready += cluster.comm_time(wf.edge_weight_between(u, v).unwrap());
            }
            assert!(mapping.seed_start(v) >= ready);
        }
        assert!(profile.deadline() > 0);
    }

    #[test]
    fn carbon_pass_prefers_frugal_processor_under_scarcity() {
        // One task; two equal-speed processors where only power differs:
        // the hungry one first (so plain HEFT's lowest-id tie-break picks
        // it), the frugal one second. With zero green budget, the carbon
        // pass must pick the frugal processor instead.
        use cawo_platform::ProcessorType;
        let mut b = WorkflowBuilder::new("single");
        b.add_task(64);
        let wf = b.build().unwrap();
        let hungry = ProcessorType {
            name: "HUNGRY",
            speed: 8,
            p_idle: 100,
            p_work: 100,
        };
        let frugal = ProcessorType {
            name: "FRUGAL",
            speed: 8,
            p_idle: 10,
            p_work: 10,
        };
        let cluster = Cluster::from_types("duo", &[(hungry, 1), (frugal, 1)], 1);
        let profile = PowerProfile::uniform(1_000, 0);
        let plain = heft_schedule(&wf, &cluster);
        assert_eq!(plain.proc_of(0), 0, "plain HEFT breaks the EFT tie by id");
        let carbon = carbon_heft_schedule(
            &wf,
            &cluster,
            &profile,
            CarbonHeftConfig {
                carbon_weight: 1.0,
                makespan_slack: f64::INFINITY,
            },
        );
        assert_eq!(
            carbon.proc_of(0),
            1,
            "carbon-HEFT picks the frugal processor"
        );
    }

    #[test]
    fn two_pass_is_deterministic() {
        let wf = generate(&GeneratorConfig::new(Family::Methylseq, 60, 9));
        let cluster = Cluster::tiny(&[1, 4], 9);
        let run = || {
            two_pass_carbon_heft(
                &wf,
                &cluster,
                Scenario::Sinusoidal,
                DeadlineFactor::X15,
                9,
                CarbonHeftConfig::default(),
            )
        };
        let (m1, p1) = run();
        let (m2, p2) = run();
        assert_eq!(m1, m2);
        assert_eq!(p1, p2);
    }
}
