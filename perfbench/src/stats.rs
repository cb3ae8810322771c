//! Order statistics over timing samples.

/// The median of `xs` (mean of the two middle values for an even
/// count); 0 for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A tail latency: the highest whole percentile that still has at least
/// [`Tail::MIN_BEYOND`] samples above its nearest-rank position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50..=99).
    pub pct: u32,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

impl Tail {
    /// Samples that must lie beyond the reported percentile.
    pub const MIN_BEYOND: usize = 10;
}

/// The tail of `xs`: the highest percentile `p` whose nearest rank
/// `k = ceil(p * n / 100)` leaves `n - k >= 10` samples beyond it. With
/// fewer than 20 samples no percentile from 50 up qualifies, and the
/// median (p50) is reported with however many samples lie beyond it.
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = |p: u32| (u64::from(p) * n as u64).div_ceil(100).max(1) as usize;
    let pct = (50..=99)
        .rev()
        .find(|&p| n - rank(p).min(n) >= Tail::MIN_BEYOND)
        .unwrap_or(50);
    let k = rank(pct).min(n);
    Tail {
        pct,
        value: if n == 0 { 0.0 } else { v[k - 1] },
        beyond: n - k,
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_uses_highest_percentile_with_ten_samples_beyond() {
        // 100 samples 1..=100: p90 has rank 90 and exactly 10 beyond;
        // p91 would leave only 9.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 100);

        // 1000 samples: p99 qualifies (rank 990, 10 beyond).
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.beyond), (99, 10));

        // 37 samples: p72 -> rank ceil(26.64) = 27, 10 beyond; p73 ->
        // rank 28, 9 beyond.
        let xs: Vec<f64> = (1..=37).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (72, 27.0, 10));
        for p in (t.pct + 1)..=99 {
            let k = (u64::from(p) * 37).div_ceil(100) as usize;
            assert!(37 - k < Tail::MIN_BEYOND, "p{p} should not qualify");
        }
    }

    #[test]
    fn tail_falls_back_to_median_when_too_few_samples() {
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50, 6.0, 6, 12));
        assert_eq!(tail(&[]).samples, 0);
    }
}
