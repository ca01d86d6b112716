//! Order statistics and the error-rate bound.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How many samples lie strictly beyond the `q`-quantile of `n` samples:
/// the tail the percentile rests on.
pub fn tail_samples(n: usize, q: f64) -> usize {
    n - (q * n as f64).ceil() as usize
}

/// The smallest request count whose `q`-quantile has at least `tail`
/// samples beyond it (p99 with ten samples beyond it needs 1,000).
pub fn min_samples_for_tail(q: f64, tail: usize) -> usize {
    let mut n = tail.max(1);
    while tail_samples(n, q) < tail {
        n += 1;
    }
    n
}

/// One-sided 95% upper confidence bound on a failure probability after
/// `failed` failures in `attempted` trials (Clopper–Pearson): the largest
/// `p` under which seeing at most `failed` failures still has probability
/// at least 5%. With no failures this is `1 − 0.05^(1/n)` ≈ `3/n` (the
/// "rule of three"), so the bound is never zero and any failure raises it.
pub fn error_rate_upper_bound(failed: usize, attempted: usize) -> f64 {
    assert!(attempted > 0, "no requests attempted");
    if failed >= attempted {
        return 1.0;
    }
    let (mut lo, mut hi) = (failed as f64 / attempted as f64, 1.0f64);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if binomial_cdf(failed, attempted, mid) > 0.05 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// `P[X ≤ k]` for `X ~ Binomial(n, p)`, summed in log space.
fn binomial_cdf(k: usize, n: usize, p: f64) -> f64 {
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return if k >= n { 1.0 } else { 0.0 };
    }
    let (lp, lq) = (p.ln(), (1.0 - p).ln());
    let mut log_choose = 0.0f64; // ln C(n, 0)
    let mut total = 0.0;
    for j in 0..=k {
        if j > 0 {
            log_choose += ((n - j + 1) as f64).ln() - (j as f64).ln();
        }
        total += (log_choose + j as f64 * lp + (n - j) as f64 * lq).exp();
    }
    total.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond_it() {
        assert_eq!(tail_samples(1000, 0.99), 10);
        assert_eq!(tail_samples(999, 0.99), 9);
        assert_eq!(min_samples_for_tail(0.99, 10), 1000);
        assert_eq!(min_samples_for_tail(0.5, 10), 20);
        // The p99 of 1,000 samples has exactly the ten largest beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = quantile(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn error_bound_follows_the_rule_of_three_and_grows_with_failures() {
        let zero = error_rate_upper_bound(0, 1000);
        assert!((zero - (1.0 - 0.05f64.powf(1.0 / 1000.0))).abs() < 1e-9);
        assert!((zero * 1000.0 - 3.0).abs() < 0.01);
        let one = error_rate_upper_bound(1, 1000);
        assert!(
            one > zero * 1.5,
            "one failure raises the bound: {one} vs {zero}"
        );
        assert!(error_rate_upper_bound(2, 1000) > one);
        assert_eq!(error_rate_upper_bound(5, 5), 1.0);
        assert!(error_rate_upper_bound(0, 100) > zero);
    }
}
