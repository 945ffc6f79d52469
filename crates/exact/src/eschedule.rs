//! The E-schedule transformation — Lemma 4.2 as executable code.
//!
//! Lemma 4.2 (Appendix A.2): *with a single processor there always
//! exists an optimal E-schedule*, i.e. one where every **block** of
//! back-to-back tasks starts or ends at an interval boundary. The proof
//! is constructive: pick a non-aligned block, shift it towards the
//! neighbouring interval with the higher green budget until it aligns or
//! merges, and repeat; the cost never increases.
//!
//! [`to_e_schedule`] implements exactly that proof. Besides being a nice
//! executable-theory artifact, it doubles as a *schedule polisher*: any
//! uniprocessor schedule can be normalised without cost regression, and
//! property tests use it to confirm the DP's E-schedule restriction is
//! lossless.
//!
//! Candidate block shifts are priced through the incremental
//! [`CostEngine`] shift API — one candidate costs
//! `O(block size · breakpoints touched)` on the interval backend,
//! instead of a full-schedule re-evaluation per candidate.

use cawo_core::{Cost, CostEngine, Instance, IntervalEngine, Schedule};
use cawo_graph::NodeId;
use cawo_platform::{PowerProfile, Time};

/// One maximal block of back-to-back tasks: positions `[first, last]`
/// in the chain plus its start time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    first: usize,
    last: usize,
    start: Time,
    end: Time,
}

/// Decomposes a uniprocessor schedule into its blocks.
fn blocks(chain: &[NodeId], inst: &Instance, sched: &Schedule) -> Vec<Block> {
    let mut out: Vec<Block> = Vec::new();
    for (i, &v) in chain.iter().enumerate() {
        let s = sched.start(v);
        let e = sched.finish(v, inst);
        match out.last_mut() {
            Some(b) if b.end == s => {
                b.last = i;
                b.end = e;
            }
            _ => out.push(Block {
                first: i,
                last: i,
                start: s,
                end: e,
            }),
        }
    }
    out
}

/// Whether a time is an interval boundary (member of the set `E`).
fn is_boundary(profile: &PowerProfile, t: Time) -> bool {
    profile.boundaries().binary_search(&t).is_ok()
}

/// Transforms a valid uniprocessor schedule into an E-schedule of equal
/// or lower carbon cost (Lemma 4.2's constructive argument) on the
/// default (interval-sparse) cost engine. Returns the transformed
/// schedule and its cost.
///
/// Panics if the instance uses more than one execution unit.
pub fn to_e_schedule(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &Schedule,
) -> (Schedule, Cost) {
    to_e_schedule_on::<IntervalEngine>(inst, profile, sched)
}

/// [`to_e_schedule`] on an explicit cost-engine backend. Every backend
/// prices shifts exactly, so the trajectory — and the result — is
/// identical; only the speed differs.
pub fn to_e_schedule_on<E: CostEngine>(
    inst: &Instance,
    profile: &PowerProfile,
    sched: &Schedule,
) -> (Schedule, Cost) {
    #[expect(
        clippy::panic,
        reason = "documented panic: E-schedule canonicalisation is defined for uniprocessor chains only."
    )]
    let (chain, _) = crate::solver::single_chain(inst).unwrap_or_else(|e| panic!("{e}"));
    let horizon = profile.deadline();

    let mut cur = sched.clone();
    let mut engine = E::build(inst, &cur, profile);
    let mut cur_cost = engine.total_cost() as i64;

    // Shifts the target block by `delta` on the engine, returning the
    // exact cost change. Tasks are moved one at a time; the deltas are
    // exact because each is evaluated against the already-updated
    // state, so their sum telescopes to the block move's true cost.
    let block_shift = |engine: &mut E, cur: &mut Schedule, range: (usize, usize), delta: i64| {
        let mut total = 0i64;
        for &v in &chain[range.0..=range.1] {
            let s = cur.start(v);
            let len = inst.exec(v);
            let w = inst.work_power(v) as i64;
            let ns = (s as i64 + delta) as Time;
            total += engine.shift_delta(s, len, w, ns);
            engine.apply_shift(s, len, w, ns);
            cur.set_start(v, ns);
        }
        total
    };

    // Each iteration aligns or merges at least one block; both events
    // can happen O(n + J) times, so this terminates.
    loop {
        let bs = blocks(&chain, inst, &cur);
        let target = bs
            .iter()
            .enumerate()
            .find(|(_, b)| !is_boundary(profile, b.start) && !is_boundary(profile, b.end));
        let Some((bi, b)) = target else {
            debug_assert_eq!(
                cur_cost as Cost,
                cawo_core::carbon_cost(inst, &cur, profile),
                "engine-tracked cost diverged from the oracle"
            );
            return (cur, cur_cost as Cost);
        };

        // Candidate shifts, exactly as in the proof: moving left stops
        // at the first of (a) the block *start* reaching the boundary
        // below it, (b) the block *end* reaching the boundary below it,
        // or (c) merging with the previous block — `δ = min(α-γ, β)` in
        // the paper's notation. Moving right is symmetric. Stopping at
        // the *nearest* alignment event is what makes the shift
        // cost-monotone: the vacated and entered time units stay within
        // the same two budget intervals.
        let prev_end = if bi > 0 { bs[bi - 1].end } else { 0 };
        let next_start = if bi + 1 < bs.len() {
            bs[bi + 1].start
        } else {
            horizon
        };
        let delta_left = (b.start - prev_boundary(profile, b.start))
            .min(b.end - prev_boundary(profile, b.end))
            .min(b.start - prev_end);
        let delta_right = (next_boundary(profile, b.start) - b.start)
            .min(next_boundary(profile, b.end) - b.end)
            .min(next_start - b.end);

        // The proof shifts towards the greener side; evaluating both on
        // the engine (shift, read the delta, shift back) and keeping
        // the cheaper result subsumes that and is still monotone,
        // because shifting a whole block within its free gap towards a
        // boundary can always be done in the non-increasing direction
        // (Lemma 4.2).
        let range = (b.first, b.last);
        let mut best: Option<(i64, i64)> = None; // (cost delta, shift)
        if delta_left > 0 {
            let d = block_shift(&mut engine, &mut cur, range, -(delta_left as i64));
            block_shift(&mut engine, &mut cur, range, delta_left as i64);
            best = Some((d, -(delta_left as i64)));
        }
        if delta_right > 0 {
            let d = block_shift(&mut engine, &mut cur, range, delta_right as i64);
            block_shift(&mut engine, &mut cur, range, -(delta_right as i64));
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, delta_right as i64));
            }
        }
        match best {
            Some((d, shift)) => {
                // Lemma 4.2: the greener direction never increases the
                // cost, and `best` is the cheaper of the two.
                debug_assert!(d <= 0, "Lemma 4.2 violated — bug");
                block_shift(&mut engine, &mut cur, range, shift);
                cur_cost += d;
            }
            // Unreachable in practice: a block with zero room on both
            // sides would have been fused with its neighbours by the
            // block decomposition. Kept as a safe exit.
            None => return (cur, cur_cost as Cost),
        }
    }
}

/// Largest boundary `<= t`.
fn prev_boundary(profile: &PowerProfile, t: Time) -> Time {
    let b = profile.boundaries();
    match b.binary_search(&t) {
        Ok(i) => b[i],
        Err(i) => b[i - 1],
    }
}

/// Smallest boundary `>= t`.
fn next_boundary(profile: &PowerProfile, t: Time) -> Time {
    let b = profile.boundaries();
    match b.binary_search(&t) {
        Ok(i) => b[i],
        Err(i) => b[i.min(b.len() - 1)],
    }
}

/// Checks the E-schedule property: every block starts or ends on an
/// interval boundary (or is wedged between neighbouring blocks that are).
pub fn is_e_schedule(inst: &Instance, profile: &PowerProfile, sched: &Schedule) -> bool {
    let mut chain: Vec<NodeId> = Vec::new();
    for u in 0..inst.unit_count() as u32 {
        chain.extend_from_slice(inst.unit_order(u));
    }
    blocks(&chain, inst, sched)
        .iter()
        .all(|b| is_boundary(profile, b.start) || is_boundary(profile, b.end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cawo_core::carbon_cost;
    use cawo_core::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

    fn chain_instance(exec: Vec<Time>, p_work: u64) -> Instance {
        let n = exec.len();
        let mut b = DagBuilder::new(n);
        for i in 1..n {
            b.add_edge(i as u32 - 1, i as u32);
        }
        Instance::from_raw(
            b.build().unwrap(),
            exec,
            vec![0; n],
            vec![UnitInfo {
                p_idle: 0,
                p_work,
                is_link: false,
            }],
            0,
        )
    }

    #[test]
    fn block_decomposition() {
        let inst = chain_instance(vec![2, 3, 1], 1);
        // Tasks at 0..2, 2..5 (merged block), 7..8 (own block).
        let sched = Schedule::new(vec![0, 2, 7]);
        let bs = blocks(&[0, 1, 2], &inst, &sched);
        assert_eq!(bs.len(), 2);
        assert_eq!(
            (bs[0].first, bs[0].last, bs[0].start, bs[0].end),
            (0, 1, 0, 5)
        );
        assert_eq!(
            (bs[1].first, bs[1].last, bs[1].start, bs[1].end),
            (2, 2, 7, 8)
        );
    }

    #[test]
    fn aligns_a_floating_block() {
        let inst = chain_instance(vec![2], 5);
        let profile = PowerProfile::from_parts(vec![0, 10, 20], vec![3, 7]);
        // Task floats at 4..6 — neither end aligned.
        let sched = Schedule::new(vec![4]);
        let before = carbon_cost(&inst, &sched, &profile);
        let (e, cost) = to_e_schedule(&inst, &profile, &sched);
        assert!(cost <= before);
        assert!(is_e_schedule(&inst, &profile, &e));
        assert!(e.validate(&inst, 20).is_ok());
    }

    #[test]
    fn straddling_block_still_improves_or_holds() {
        let inst = chain_instance(vec![4], 10);
        let profile = PowerProfile::from_parts(vec![0, 10, 20], vec![0, 10]);
        let sched = Schedule::new(vec![7]);
        let before = carbon_cost(&inst, &sched, &profile);
        let (e, cost) = to_e_schedule(&inst, &profile, &sched);
        assert!(cost <= before);
        assert!(is_e_schedule(&inst, &profile, &e));
    }

    #[test]
    fn already_aligned_schedule_is_untouched() {
        let inst = chain_instance(vec![3, 2], 2);
        let profile = PowerProfile::from_parts(vec![0, 5, 12], vec![4, 4]);
        let sched = Schedule::new(vec![0, 3]); // block [0,5) starts at 0
        let (e, cost) = to_e_schedule(&inst, &profile, &sched);
        assert_eq!(e, sched);
        assert_eq!(cost, carbon_cost(&inst, &sched, &profile));
    }

    #[test]
    fn transformation_never_increases_cost_randomly() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(88);
        for trial in 0..40 {
            let n = rng.gen_range(1..5);
            let exec: Vec<Time> = (0..n).map(|_| rng.gen_range(1..4)).collect();
            let total: Time = exec.iter().sum();
            let inst = chain_instance(exec.clone(), rng.gen_range(1..8));
            let horizon = total + rng.gen_range(2..10);
            let mid = rng.gen_range(1..horizon);
            let profile = PowerProfile::from_parts(
                vec![0, mid, horizon],
                vec![rng.gen_range(0..10), rng.gen_range(0..10)],
            );
            // Random valid schedule: sequential with random gaps.
            let mut t = 0;
            let mut starts = Vec::new();
            let mut slack_left = horizon - total;
            for w in &exec {
                let gap = if slack_left > 0 {
                    rng.gen_range(0..=slack_left)
                } else {
                    0
                };
                slack_left -= gap;
                t += gap;
                starts.push(t);
                t += w;
            }
            let sched = Schedule::new(starts);
            assert!(sched.validate(&inst, horizon).is_ok());
            let before = carbon_cost(&inst, &sched, &profile);
            let (e, cost) = to_e_schedule(&inst, &profile, &sched);
            assert!(cost <= before, "trial {trial}: {cost} > {before}");
            assert!(e.validate(&inst, horizon).is_ok(), "trial {trial}");
            assert!(is_e_schedule(&inst, &profile, &e), "trial {trial}");
            assert_eq!(cost, carbon_cost(&inst, &e, &profile));
        }
    }

    #[test]
    fn green_island_shifts_minimally() {
        // Adversarial case: a block straddling a green island between
        // two brown intervals. Full-width shifts in either direction
        // WORSEN the cost; the lemma's minimal shift (end aligns to the
        // island's right edge) keeps it equal.
        let inst = chain_instance(vec![4], 10);
        let profile = PowerProfile::from_parts(vec![0, 4, 6, 10], vec![0, 10, 0]);
        let sched = Schedule::new(vec![3]); // covers [3,7): 1+0+1... bad 3 units
        let before = carbon_cost(&inst, &sched, &profile);
        let (e, cost) = to_e_schedule(&inst, &profile, &sched);
        assert!(cost <= before, "{cost} > {before}");
        assert!(is_e_schedule(&inst, &profile, &e));
        assert!(e.validate(&inst, 10).is_ok());
    }

    #[test]
    fn dp_optimum_is_already_an_e_schedule() {
        // The polynomial DP restricts to E-schedule end times, so its
        // output must satisfy the property.
        let inst = chain_instance(vec![2, 3], 4);
        let profile = PowerProfile::from_parts(vec![0, 4, 9, 14], vec![1, 6, 2]);
        let res = crate::dp::dp_polynomial(&inst, &profile);
        assert!(is_e_schedule(&inst, &profile, &res.schedule));
        // And transforming it changes nothing cost-wise.
        let (_, cost) = to_e_schedule(&inst, &profile, &res.schedule);
        assert_eq!(cost, res.cost);
    }
}
