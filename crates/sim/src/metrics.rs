//! Evaluation metrics of §6.2.

use cawo_core::Cost;

/// Median of a sample (mean of the two central elements for even sizes).
/// Returns `None` on an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Competition ("1224") ranks used by Figure 1: equal costs share a
/// rank; the next distinct cost skips the tied positions.
///
/// Input: cost of every algorithm on one instance. Output: 1-based rank
/// per algorithm.
pub fn competition_ranks(costs: &[Cost]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| costs[i]);
    let mut ranks = vec![0usize; costs.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j < order.len() && costs[order[j]] == costs[order[i]] {
            j += 1;
        }
        for &a in &order[i..j] {
            ranks[a] = i + 1;
        }
        i = j;
    }
    ranks
}

/// Rank-frequency matrix for Figure 1: `out[a][r]` is the fraction of
/// instances on which algorithm `a` obtained rank `r + 1`.
/// `per_instance_costs[i][a]` is the cost of algorithm `a` on instance
/// `i`.
pub fn rank_distribution(per_instance_costs: &[Vec<Cost>]) -> Vec<Vec<f64>> {
    assert!(!per_instance_costs.is_empty());
    let a = per_instance_costs[0].len();
    let mut freq = vec![vec![0usize; a]; a];
    for costs in per_instance_costs {
        assert_eq!(costs.len(), a);
        for (alg, &rank) in competition_ranks(costs).iter().enumerate() {
            freq[alg][rank - 1] += 1;
        }
    }
    let total = per_instance_costs.len() as f64;
    freq.into_iter()
        .map(|row| row.into_iter().map(|c| c as f64 / total).collect())
        .collect()
}

/// Performance-profile ratios for one algorithm (Figure 2): per
/// instance, `best cost / own cost`, with the conventions of §6.2 —
/// `1` if the algorithm achieves the best cost (including both-zero),
/// `0` if the best is zero but the algorithm's cost is not.
pub fn performance_ratios(per_instance_costs: &[Vec<Cost>], alg: usize) -> Vec<f64> {
    per_instance_costs
        .iter()
        .map(|costs| {
            #[expect(
                clippy::expect_used,
                reason = "a grid row always carries at least one algorithm column."
            )]
            let best = *costs.iter().min().expect("at least one algorithm");
            let own = costs[alg];
            if own == best {
                1.0
            } else if best == 0 {
                0.0
            } else {
                best as f64 / own as f64
            }
        })
        .collect()
}

/// Performance profile curve: for each `τ` in `taus`, the fraction of
/// instances whose ratio is `≥ τ`. A higher curve is better.
pub fn performance_profile(per_instance_costs: &[Vec<Cost>], alg: usize, taus: &[f64]) -> Vec<f64> {
    let ratios = performance_ratios(per_instance_costs, alg);
    let n = ratios.len() as f64;
    taus.iter()
        .map(|&tau| ratios.iter().filter(|&&r| r >= tau).count() as f64 / n)
        .collect()
}

/// Cost ratios of algorithm `alg` versus a reference algorithm
/// (Figures 4–6: heuristic cost / baseline cost). Convention: both zero
/// → 1; reference zero, own positive → skipped (`None` entries removed)
/// because the ratio is unbounded — the paper's medians are unaffected
/// since ASAP is virtually never strictly better at zero.
pub fn cost_ratios_vs(per_instance_costs: &[Vec<Cost>], alg: usize, reference: usize) -> Vec<f64> {
    per_instance_costs
        .iter()
        .filter_map(|costs| {
            let own = costs[alg];
            let base = costs[reference];
            match (own, base) {
                (0, 0) => Some(1.0),
                (_, 0) => None,
                (o, b) => Some(o as f64 / b as f64),
            }
        })
        .collect()
}

/// Five-number summary plus outliers (Tukey fences), as in Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxplotStats {
    /// Lower whisker (smallest value ≥ Q1 − 1.5·IQR).
    pub lo_whisker: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (largest value ≤ Q3 + 1.5·IQR).
    pub hi_whisker: f64,
    /// Values outside the whiskers.
    pub outliers: Vec<f64>,
}

/// Computes boxplot statistics (linear-interpolation quartiles).
/// Returns `None` on an empty sample.
pub fn boxplot(values: &[f64]) -> Option<BoxplotStats> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let idx = p * (v.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            v[lo]
        } else {
            v[lo] + (idx - lo as f64) * (v[hi] - v[lo])
        }
    };
    let (q1, med, q3) = (q(0.25), q(0.5), q(0.75));
    let iqr = q3 - q1;
    let lo_fence = q1 - 1.5 * iqr;
    let hi_fence = q3 + 1.5 * iqr;
    let lo_found = v.iter().find(|&&x| x >= lo_fence);
    let hi_found = v.iter().rev().find(|&&x| x <= hi_fence);
    #[expect(
        clippy::expect_used,
        reason = "lo_fence <= q1 and q1 is itself a sample, so a qualifying element exists."
    )]
    let lo_whisker = *lo_found.expect("fence brackets q1");
    #[expect(
        clippy::expect_used,
        reason = "hi_fence >= q3 and q3 is itself a sample, so a qualifying element exists."
    )]
    let hi_whisker = *hi_found.expect("fence brackets q3");
    let outliers = v
        .iter()
        .copied()
        .filter(|&x| x < lo_fence || x > hi_fence)
        .collect();
    Some(BoxplotStats {
        lo_whisker,
        q1,
        median: med,
        q3,
        hi_whisker,
        outliers,
    })
}

/// Arithmetic mean (used by Table 2, where the geometric mean is
/// inapplicable because ratios can be 0).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The default τ grid for performance profiles (0 to 1, step 0.05).
pub fn default_taus() -> Vec<f64> {
    (0..=20).map(|i| i as f64 / 20.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn competition_ranking_skips_after_ties() {
        // Costs 5, 1, 1, 7 ⇒ ranks 3, 1, 1, 4.
        assert_eq!(competition_ranks(&[5, 1, 1, 7]), vec![3, 1, 1, 4]);
        // All equal: everyone rank 1.
        assert_eq!(competition_ranks(&[2, 2, 2]), vec![1, 1, 1]);
        // Strictly increasing.
        assert_eq!(competition_ranks(&[1, 2, 3]), vec![1, 2, 3]);
    }

    #[test]
    fn rank_distribution_sums_to_one_per_algorithm() {
        let costs = vec![vec![5, 1, 1], vec![2, 3, 1], vec![0, 0, 4]];
        let dist = rank_distribution(&costs);
        for row in &dist {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        // Algorithm 2 is rank 1 on instances 0 and 1 ⇒ 2/3.
        assert!((dist[2][0] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn performance_ratio_conventions() {
        // Instance costs: alg0=4, alg1=2 (best), alg2=0? — no zero here.
        let costs = vec![vec![4, 2]];
        assert_eq!(performance_ratios(&costs, 0), vec![0.5]);
        assert_eq!(performance_ratios(&costs, 1), vec![1.0]);
        // Zero best with nonzero own ⇒ 0; both zero ⇒ 1.
        let costs = vec![vec![0, 3]];
        assert_eq!(performance_ratios(&costs, 1), vec![0.0]);
        assert_eq!(performance_ratios(&costs, 0), vec![1.0]);
    }

    #[test]
    fn performance_profile_is_monotone_decreasing() {
        let costs = vec![vec![4, 2], vec![3, 3], vec![0, 5], vec![10, 1]];
        let taus = default_taus();
        let curve = performance_profile(&costs, 0, &taus);
        for w in curve.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // At τ=0 every instance qualifies.
        assert_eq!(curve[0], 1.0);
    }

    #[test]
    fn cost_ratio_conventions() {
        let costs = vec![vec![3, 6], vec![0, 0], vec![4, 0], vec![1, 2]];
        // vs reference alg 1.
        let r = cost_ratios_vs(&costs, 0, 1);
        // Instance 2 skipped (reference 0, own 4).
        assert_eq!(r, vec![0.5, 1.0, 0.5]);
    }

    #[test]
    fn boxplot_basics() {
        let s = boxplot(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.lo_whisker, 1.0);
        assert_eq!(s.hi_whisker, 5.0);
        assert!(s.outliers.is_empty());
    }

    #[test]
    fn boxplot_detects_outliers() {
        let mut v = vec![10.0; 20];
        v.push(100.0);
        let s = boxplot(&v).unwrap();
        assert_eq!(s.outliers, vec![100.0]);
        assert_eq!(s.hi_whisker, 10.0);
    }

    #[test]
    fn boxplot_empty() {
        assert!(boxplot(&[]).is_none());
    }

    #[test]
    fn mean_and_empty() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn default_tau_grid() {
        let taus = default_taus();
        assert_eq!(taus.len(), 21);
        assert_eq!(taus[0], 0.0);
        assert_eq!(*taus.last().unwrap(), 1.0);
    }
}
