//! Order statistics over latency samples.
//!
//! Percentiles use the nearest-rank rule on a sorted slice. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it; below that it is refused, because one or two stragglers
//! would set it.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in a slice of `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    debug_assert!(n > 0 && (0.0..=1.0).contains(&q));
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Quantile `q` of `sorted` (nearest rank); `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank_index(sorted.len(), q)])
}

/// A tail percentile that was not reported, and why.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refused {
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// Quantile `q` of `sorted`, refused unless at least [`MIN_BEYOND`]
/// samples rank beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Result<f64, Refused> {
    if sorted.is_empty() {
        return Err(Refused {
            beyond: 0,
            samples: 0,
        });
    }
    let idx = rank_index(sorted.len(), q);
    let beyond = sorted.len() - 1 - idx;
    if beyond < MIN_BEYOND {
        return Err(Refused {
            beyond,
            samples: sorted.len(),
        });
    }
    Ok(sorted[idx])
}

/// Median of an unsorted list (sorts a copy); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Sort in place by total order.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_is_refused_below_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond — reported.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), Ok(990.0));
        // 999 samples: p99 is rank 990 (index 989), 9 beyond — refused.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            tail(&v, 0.99),
            Err(Refused {
                beyond: 9,
                samples: 999
            })
        );
        // Small runs are always refused, never silently the maximum.
        assert!(tail(&[1.0, 2.0, 3.0], 0.99).is_err());
        assert_eq!(
            tail(&[], 0.99),
            Err(Refused {
                beyond: 0,
                samples: 0
            })
        );
        // The median of 21 samples has exactly 10 beyond it.
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v, 0.5), Ok(11.0));
    }
}
