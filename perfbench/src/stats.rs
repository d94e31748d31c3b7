//! Summary statistics for latency samples.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Arithmetic mean; 0 for an empty slice (a layer that did no work).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile value (nearest-rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile of `xs`, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond its rank — a tail read off fewer
/// samples than that is noise, not a percentile.
pub fn tail(xs: &[f64], pct: f64) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Tail {
        value: s[rank - 1],
        samples: n,
        beyond,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order: the rule must not depend on input order.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(99), 90.0), None, "99 samples leave 9 beyond");
        let t = tail(&ramp(100), 90.0).expect("100 samples leave 10 beyond");
        assert_eq!(
            t,
            Tail {
                value: 90.0,
                samples: 100,
                beyond: 10
            }
        );
        let t = tail(&ramp(250), 90.0).unwrap();
        assert_eq!((t.value, t.samples, t.beyond), (225.0, 250, 25));
        assert_eq!(tail(&[], 90.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail(&ramp(999), 99.0), None);
        let t = tail(&ramp(1000), 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
