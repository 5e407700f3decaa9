//! Mergeable streaming estimators.
//!
//! [`MeanVar`] implements Welford's algorithm for numerically stable
//! streaming mean/variance. It supports `merge` (Chan et al.'s parallel
//! combination), which is what lets the Monte Carlo engine in
//! `diversim-sim` accumulate per-block results and combine them
//! deterministically.

/// Streaming (Welford) estimator of mean and variance.
///
/// # Examples
///
/// ```
/// use diversim_stats::online::MeanVar;
///
/// let acc: MeanVar = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(acc.mean(), 5.0);
/// assert_eq!(acc.population_variance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanVar {
    count: u64,
    mean: f64,
    m2: f64,
}

impl MeanVar {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations; `0.0` for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (divides by `n - 1`); `0.0` when fewer than
    /// two observations have been pushed.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (divides by `n`); `0.0` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_sd(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `sd / sqrt(n)`; `0.0` when empty.
    pub fn standard_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_sd() / (self.count as f64).sqrt()
        }
    }

    /// Combines two accumulators as if all observations had been pushed into
    /// one (Chan et al. parallel update). The result is independent of the
    /// split, up to floating-point rounding.
    pub fn merge(&self, other: &Self) -> Self {
        if self.count == 0 {
            return *other;
        }
        if other.count == 0 {
            return *self;
        }
        let count = self.count + other.count;
        let delta = other.mean - self.mean;
        let n = count as f64;
        let mean = self.mean + delta * (other.count as f64 / n);
        let m2 = self.m2 + other.m2 + delta * delta * (self.count as f64 * other.count as f64 / n);
        Self { count, mean, m2 }
    }
}

impl FromIterator<f64> for MeanVar {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = Self::new();
        for x in iter {
            acc.push(x);
        }
        acc
    }
}

impl Extend<f64> for MeanVar {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn empty_accumulator_is_zeroed() {
        let acc = MeanVar::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.standard_error(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let mut acc = MeanVar::new();
        acc.push(42.0);
        assert_eq!(acc.mean(), 42.0);
        assert_eq!(acc.sample_variance(), 0.0);
        assert_eq!(acc.population_variance(), 0.0);
    }

    #[test]
    fn matches_naive_formulas() {
        let xs = [1.5, -2.25, 3.0, 0.0, 9.75, -1.0, 4.5];
        let acc: MeanVar = xs.iter().copied().collect();
        let (mean, var) = naive_mean_var(&xs);
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let full: MeanVar = xs.iter().copied().collect();
        let left: MeanVar = xs[..37].iter().copied().collect();
        let right: MeanVar = xs[37..].iter().copied().collect();
        let merged = left.merge(&right);
        assert_eq!(merged.count(), full.count());
        assert!((merged.mean() - full.mean()).abs() < 1e-12);
        assert!((merged.sample_variance() - full.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let acc: MeanVar = [1.0, 2.0, 3.0].iter().copied().collect();
        let empty = MeanVar::new();
        assert_eq!(acc.merge(&empty), acc);
        assert_eq!(empty.merge(&acc), acc);
    }

    #[test]
    fn numerical_stability_with_large_offset() {
        // Welford must not lose the variance of small deviations riding on a
        // huge offset, unlike the naive sum-of-squares formula.
        let offset = 1e9;
        let acc: MeanVar = [offset + 1.0, offset + 2.0, offset + 3.0]
            .iter()
            .copied()
            .collect();
        assert!((acc.sample_variance() - 1.0).abs() < 1e-6);
    }
}
