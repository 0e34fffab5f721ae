//! Order statistics over timing samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by linear interpolation between
/// closest ranks. Panics on an empty slice: every caller has at least one op.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }
}
