//! Sample arithmetic: nearest-rank percentiles and means.
//!
//! Percentiles use the nearest-rank definition (the `⌈p·n/100⌉`-th
//! smallest sample), so every reported percentile is a wall time that
//! was actually measured, never an interpolation between two calls.

/// A percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond its rank (`samples − rank`).
    pub beyond: usize,
}

/// Samples a reported tail percentile needs beyond its rank, so the
/// tail is set by a group of calls rather than by one slow call.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `pct`-th percentile of `samples` (any order);
/// `None` for an empty slice.
pub fn nearest_rank(samples: &[f64], pct: usize) -> Option<Percentile> {
    assert!((1..=100).contains(&pct), "percentile must be in 1..=100");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median (nearest rank: the lower middle sample of an even count).
pub fn p50(samples: &[f64]) -> Option<Percentile> {
    nearest_rank(samples, 50)
}

/// The nearest-rank p90, refused when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn p90(samples: &[f64]) -> Result<Percentile, String> {
    let p = nearest_rank(samples, 90).ok_or("p90 of no samples")?;
    if p.beyond < MIN_BEYOND {
        return Err(format!(
            "p90 over {} samples has {} beyond it; at least {MIN_BEYOND} are needed",
            p.samples, p.beyond
        ));
    }
    Ok(p)
}

/// Smallest sample count whose p90 has [`MIN_BEYOND`] samples beyond it.
pub const MIN_P90_SAMPLES: usize = 10 * MIN_BEYOND;

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 50).unwrap().value, 5.0);
        assert_eq!(nearest_rank(&xs, 90).unwrap().value, 9.0);
        assert_eq!(nearest_rank(&xs, 100).unwrap().value, 10.0);
        assert_eq!(nearest_rank(&xs, 1).unwrap().value, 1.0);
        // Odd count: the true middle.
        assert_eq!(p50(&[3.0, 1.0, 2.0]).unwrap().value, 2.0);
        assert!(p50(&[]).is_none());
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let enough: Vec<f64> = (0..MIN_P90_SAMPLES).map(|i| i as f64).collect();
        let p = p90(&enough).unwrap();
        assert_eq!(p.beyond, MIN_BEYOND);
        assert_eq!(p.value, 89.0);
        let short = &enough[..MIN_P90_SAMPLES - 1];
        let err = p90(short).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(p90(&[]).is_err());
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
