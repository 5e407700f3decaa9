//! Confidence intervals for proportions and means.
//!
//! The Monte Carlo experiments estimate probabilities of failure on demand
//! (pfd): means of per-campaign pfds, reported with [`normal_mean`], and
//! proportions of Bernoulli trials (operational failures), reported with
//! the conservative [`clopper_pearson`] interval.

use crate::error::StatsError;
use crate::special::{inv_reg_inc_beta, normal_quantile};

/// A two-sided confidence interval `[lo, hi]` with its nominal level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
    /// Nominal confidence level, e.g. `0.95`.
    pub level: f64,
}

impl Interval {
    /// Returns `true` if `value` lies inside the interval (inclusive).
    pub fn contains(&self, value: f64) -> bool {
        self.lo <= value && value <= self.hi
    }

    /// Width of the interval, `hi − lo`.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:.6}, {:.6}] @{:.0}%",
            self.lo,
            self.hi,
            self.level * 100.0
        )
    }
}

fn check_level(level: f64) -> Result<f64, StatsError> {
    if level.is_finite() && level > 0.0 && level < 1.0 {
        Ok(level)
    } else {
        Err(StatsError::InvalidProbability {
            name: "level",
            value: level,
        })
    }
}

/// Clopper–Pearson ("exact") interval for a binomial proportion, via beta
/// quantiles.
///
/// Guaranteed coverage at least `level`, at the price of conservatism.
///
/// # Errors
///
/// Returns an error if `trials == 0` or `level ∉ (0, 1)` or
/// `successes > trials`.
///
/// # Examples
///
/// ```
/// // Zero failures in 100 demands: upper bound near the rule of three, 3/n.
/// let iv = diversim_stats::ci::clopper_pearson(0, 100, 0.95).unwrap();
/// assert_eq!(iv.lo, 0.0);
/// assert!((iv.hi - 0.036).abs() < 0.002);
/// ```
pub fn clopper_pearson(successes: u64, trials: u64, level: f64) -> Result<Interval, StatsError> {
    let level = check_level(level)?;
    if trials == 0 {
        return Err(StatsError::EmptySample);
    }
    if successes > trials {
        return Err(StatsError::InvalidInterval {
            lo: successes as f64,
            hi: trials as f64,
        });
    }
    let alpha = 1.0 - level;
    let k = successes as f64;
    let n = trials as f64;
    let lo = if successes == 0 {
        0.0
    } else {
        inv_reg_inc_beta(k, n - k + 1.0, alpha / 2.0)?
    };
    let hi = if successes == trials {
        1.0
    } else {
        inv_reg_inc_beta(k + 1.0, n - k, 1.0 - alpha / 2.0)?
    };
    Ok(Interval { lo, hi, level })
}

/// Normal-approximation interval for a mean, from the point estimate and its
/// standard error.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] for a bad `level` and
/// [`StatsError::NonPositive`] for a negative or non-finite standard error.
pub fn normal_mean(mean: f64, standard_error: f64, level: f64) -> Result<Interval, StatsError> {
    let level = check_level(level)?;
    if standard_error < 0.0 || !standard_error.is_finite() {
        return Err(StatsError::NonPositive {
            name: "standard_error",
            value: standard_error,
        });
    }
    let z = normal_quantile(0.5 + level / 2.0)?;
    Ok(Interval {
        lo: mean - z * standard_error,
        hi: mean + z * standard_error,
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clopper_pearson_known_value() {
        // k = 1, n = 20, 95%: standard reference values.
        let iv = clopper_pearson(1, 20, 0.95).unwrap();
        assert!((iv.lo - 0.00126588).abs() < 1e-5);
        assert!((iv.hi - 0.24873).abs() < 1e-4);
    }

    #[test]
    fn clopper_pearson_contains_point_estimate_and_narrows() {
        for &(k, n) in &[(2u64, 30u64), (15, 40), (999, 1000)] {
            let iv = clopper_pearson(k, n, 0.99).unwrap();
            assert!(iv.lo >= 0.0 && iv.hi <= 1.0);
            assert!(iv.contains(k as f64 / n as f64));
        }
        let small = clopper_pearson(5, 10, 0.95).unwrap();
        let large = clopper_pearson(500, 1000, 0.95).unwrap();
        assert!(large.width() < small.width());
    }

    #[test]
    fn clopper_pearson_boundary_cases() {
        let zero = clopper_pearson(0, 50, 0.95).unwrap();
        assert_eq!(zero.lo, 0.0);
        assert!(zero.hi > 0.0);
        let all = clopper_pearson(50, 50, 0.95).unwrap();
        assert_eq!(all.hi, 1.0);
        assert!(all.lo < 1.0);
    }

    #[test]
    fn zero_trials_is_an_error() {
        assert!(clopper_pearson(0, 0, 0.95).is_err());
    }

    #[test]
    fn successes_beyond_trials_is_an_error() {
        assert!(clopper_pearson(11, 10, 0.95).is_err());
    }

    #[test]
    fn bad_level_is_an_error() {
        assert!(clopper_pearson(1, 10, 0.0).is_err());
        assert!(clopper_pearson(1, 10, 1.0).is_err());
        assert!(normal_mean(0.0, 1.0, 1.5).is_err());
    }

    #[test]
    fn normal_mean_symmetric_about_estimate() {
        let iv = normal_mean(10.0, 2.0, 0.95).unwrap();
        assert!((0.5 * (iv.lo + iv.hi) - 10.0).abs() < 1e-12);
        assert!((iv.width() - 2.0 * 1.959_963_984_540_054 * 2.0).abs() < 1e-6);
    }

    #[test]
    fn interval_display_mentions_level() {
        let iv = Interval {
            lo: 0.1,
            hi: 0.2,
            level: 0.95,
        };
        assert!(iv.to_string().contains("95"));
    }
}
