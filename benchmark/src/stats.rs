//! Order statistics for timings: medians, nearest-rank percentiles and
//! the "ten samples beyond" rule for tail percentiles.

/// Samples a tail percentile must leave beyond itself to be reported.
pub const TAIL_GUARD: usize = 10;

/// Sorts samples ascending (timings are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples; 0 for an empty set.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank index of quantile `q` (0..=1) among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of ascending `sorted` samples; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q)]
}

/// A tail percentile as actually reported.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// The quantile it stands at (`<= want`).
    pub quantile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile not above `want` that still has
/// [`TAIL_GUARD`] samples beyond it. With fewer than `TAIL_GUARD + 1`
/// samples no tail is supported and the median stands in.
pub fn tail(sorted: &[f64], want: f64) -> Tail {
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            quantile: 0.0,
            beyond: 0,
        };
    }
    let idx = if n > TAIL_GUARD {
        rank(n, want).min(n - 1 - TAIL_GUARD)
    } else {
        rank(n, 0.5)
    };
    Tail {
        value: sorted[idx],
        quantile: (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
    }
}

/// Splits a time budget into shares that are clamped to sum to at most
/// one: `est` are estimated shares of a whole, possibly overlapping or
/// overshooting. Returns the clamped shares and the residual
/// (`1 - sum`, never negative), so what the estimates do not explain is
/// reported instead of hidden.
pub fn clamp_shares(est: &[f64]) -> (Vec<f64>, f64) {
    let est: Vec<f64> = est
        .iter()
        .map(|s| if s.is_finite() { s.max(0.0) } else { 0.0 })
        .collect();
    let sum: f64 = est.iter().sum();
    if sum > 1.0 {
        (est.iter().map(|s| s / sum).collect(), 0.0)
    } else {
        (est, 1.0 - sum)
    }
}

/// Relative difference `|a - b| / min(|a|, |b|)`, 0 when both are 0.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond it, so it stands.
        let t = tail(&ramp(1000), 0.99);
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert!((t.quantile - 0.99).abs() < 1e-12);
        // 5000 samples: p99 has fifty beyond it; the rule does not bite.
        assert_eq!(tail(&ramp(5000), 0.99).value, 4950.0);
        // 300 samples: p99 would leave three beyond; step down to the
        // 290th, which leaves ten.
        let t = tail(&ramp(300), 0.99);
        assert_eq!((t.value, t.beyond), (290.0, 10));
        assert!(t.quantile < 0.99);
        // 27 samples: the 17th is the highest with ten beyond it.
        assert_eq!(tail(&ramp(27), 0.99).value, 17.0);
        // Too few for any tail: the median stands in.
        let t = tail(&ramp(9), 0.99);
        assert_eq!((t.value, t.quantile), (5.0, 5.0 / 9.0));
    }

    #[test]
    fn shares_never_exceed_one_and_residual_is_reported() {
        let (s, r) = clamp_shares(&[0.2, 0.3]);
        assert_eq!(s, vec![0.2, 0.3]);
        assert!((r - 0.5).abs() < 1e-12);
        let (s, r) = clamp_shares(&[0.9, 0.6, f64::NAN, -1.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s.iter().all(|x| (0.0..=1.0).contains(x)));
        assert_eq!(r, 0.0);
        assert!((s[0] / s[1] - 1.5).abs() < 1e-12, "proportions kept");
    }

    #[test]
    fn rel_diff_uses_the_smaller_base() {
        assert!((rel_diff(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
