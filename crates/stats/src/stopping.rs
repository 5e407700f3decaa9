//! Test-campaign stopping rules.
//!
//! Section 2 of Popov & Littlewood notes that "the size of the test suite
//! ... is determined with respect to some stopping rule which gives the
//! tester sufficiently high confidence that the goal (e.g. targeted
//! reliability) has been achieved", citing Littlewood & Wright's
//! conservative stopping rules (the paper's reference \[3\]). This module
//! implements the standard rules so that suite sizes in the simulator can
//! be chosen the way the paper assumes:
//!
//! * [`StoppingRule::FixedSize`] — a budgeted number of demands;
//! * [`StoppingRule::FailureFree`] — the frequentist reliability-
//!   demonstration rule: enough failure-free demands that
//!   `1 − (1 − p₀)ⁿ ≥ c`;
//! * [`StoppingRule::BayesianBeta`] — a Beta-prior Bayesian rule: stop
//!   when the posterior probability that pfd < p₀ reaches the target
//!   confidence, assuming failure-free execution (conservative in the
//!   Littlewood–Wright sense when the prior is chosen pessimistically,
//!   e.g. uniform `Beta(1, 1)`).

use crate::error::StatsError;
use crate::special::reg_inc_beta;

/// Number of failure-free demands required to demonstrate `pfd < target`
/// with the given `confidence`, under the classical binomial argument:
/// the smallest `n` with `1 − (1 − target)ⁿ ≥ confidence`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] unless both arguments are in
/// `(0, 1)`.
///
/// # Examples
///
/// ```
/// use diversim_stats::stopping::failure_free_tests_required;
/// // The classic "4605 tests for 10⁻³ at 99%" figure.
/// let n = failure_free_tests_required(1e-3, 0.99).unwrap();
/// assert_eq!(n, 4603);
/// ```
pub fn failure_free_tests_required(target: f64, confidence: f64) -> Result<u64, StatsError> {
    if !target.is_finite() || target <= 0.0 || target >= 1.0 {
        return Err(StatsError::InvalidProbability {
            name: "target",
            value: target,
        });
    }
    if !confidence.is_finite() || confidence <= 0.0 || confidence >= 1.0 {
        return Err(StatsError::InvalidProbability {
            name: "confidence",
            value: confidence,
        });
    }
    // n >= ln(1 − c) / ln(1 − p). `ln_1p` keeps the denominator exact
    // for targets below 2⁻⁵³, where `1.0 - target` rounds to 1.0 and
    // the naive formula would divide by ln(1) = 0 — claiming that zero
    // tests demonstrate an arbitrarily small pfd.
    let denominator = (-target).ln_1p();
    if denominator == 0.0 {
        return Ok(u64::MAX);
    }
    // Saturating float-to-int cast: demands beyond u64::MAX mean "no
    // achievable campaign", which the state machine can never reach.
    let n = ((1.0 - confidence).ln() / denominator).ceil();
    Ok(n as u64)
}

/// Confidence that `pfd < target` after `n` failure-free demands under the
/// classical rule: `1 − (1 − target)ⁿ`.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] if `target ∉ (0, 1)`.
pub fn failure_free_confidence(target: f64, n: u64) -> Result<f64, StatsError> {
    if !target.is_finite() || target <= 0.0 || target >= 1.0 {
        return Err(StatsError::InvalidProbability {
            name: "target",
            value: target,
        });
    }
    // 1 − (1 − p)ⁿ as −expm1(n·ln1p(−p)): exact for subnormal targets
    // and demand counts beyond `powi`'s i32 range alike.
    Ok(-(n as f64 * (-target).ln_1p()).exp_m1())
}

/// Posterior probability that `pfd < target` after observing `failures`
/// failures in `n` demands, under a `Beta(a, b)` prior: `I_target(a + k,
/// b + n − k)`.
///
/// # Errors
///
/// Propagates errors from [`reg_inc_beta`]; also rejects `failures > n`.
pub fn bayesian_confidence(
    a: f64,
    b: f64,
    n: u64,
    failures: u64,
    target: f64,
) -> Result<f64, StatsError> {
    if failures > n {
        return Err(StatsError::InvalidInterval {
            lo: failures as f64,
            hi: n as f64,
        });
    }
    reg_inc_beta(a + failures as f64, b + (n - failures) as f64, target)
}

/// A rule deciding when a test campaign may stop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StoppingRule {
    /// Stop after exactly this many demands.
    FixedSize(u64),
    /// Stop once enough failure-free demands have been run to claim
    /// `pfd < target` with `confidence` (classical rule). Any failure
    /// resets the failure-free counter.
    FailureFree {
        /// Target probability of failure per demand.
        target: f64,
        /// Required confidence level, e.g. `0.99`.
        confidence: f64,
    },
    /// Stop once the Beta-posterior probability that `pfd < target`
    /// reaches `confidence`.
    BayesianBeta {
        /// Prior alpha (pseudo-failures). `1.0` gives the uniform prior.
        a: f64,
        /// Prior beta (pseudo-successes). `1.0` gives the uniform prior.
        b: f64,
        /// Target probability of failure per demand.
        target: f64,
        /// Required posterior confidence.
        confidence: f64,
    },
}

/// Streaming evaluation state for a [`StoppingRule`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingState {
    rule: StoppingRule,
    /// [`failure_free_tests_required`] of a [`StoppingRule::FailureFree`]
    /// rule, computed once; `Ok(0)` and unread for the other rules.
    failure_free_needed: Result<u64, StatsError>,
    demands: u64,
    failures: u64,
    failure_free_run: u64,
}

impl StoppingState {
    /// Creates a fresh state for `rule`.
    pub fn new(rule: StoppingRule) -> Self {
        let failure_free_needed = match rule {
            StoppingRule::FailureFree { target, confidence } => {
                failure_free_tests_required(target, confidence)
            }
            StoppingRule::FixedSize(_) | StoppingRule::BayesianBeta { .. } => Ok(0),
        };
        Self {
            rule,
            failure_free_needed,
            demands: 0,
            failures: 0,
            failure_free_run: 0,
        }
    }

    /// Records the outcome of one demand (`failed = true` for a failure).
    pub fn record(&mut self, failed: bool) {
        self.demands += 1;
        if failed {
            self.failures += 1;
            self.failure_free_run = 0;
        } else {
            self.failure_free_run += 1;
        }
    }

    /// Total demands recorded.
    pub fn demands(&self) -> u64 {
        self.demands
    }

    /// Total failures recorded.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Whether the rule allows stopping now.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors from the underlying rule.
    pub fn should_stop(&self) -> Result<bool, StatsError> {
        match self.rule {
            StoppingRule::FixedSize(n) => Ok(self.demands >= n),
            StoppingRule::FailureFree { .. } => {
                let needed = self.failure_free_needed.clone()?;
                Ok(self.failure_free_run >= needed)
            }
            StoppingRule::BayesianBeta {
                a,
                b,
                target,
                confidence,
            } => {
                let post = bayesian_confidence(a, b, self.demands, self.failures, target)?;
                Ok(post >= confidence)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_matches_closed_form() {
        // For target p and confidence c: n = ceil(ln(1-c)/ln(1-p)).
        let n = failure_free_tests_required(0.01, 0.95).unwrap();
        assert_eq!(n, 299); // ln(0.05)/ln(0.99) = 298.07...
        let n = failure_free_tests_required(0.1, 0.9).unwrap();
        assert_eq!(n, 22); // ln(0.1)/ln(0.9) = 21.85...
    }

    #[test]
    fn confidence_is_monotone_in_n() {
        let c10 = failure_free_confidence(0.01, 10).unwrap();
        let c100 = failure_free_confidence(0.01, 100).unwrap();
        let c1000 = failure_free_confidence(0.01, 1000).unwrap();
        assert!(c10 < c100 && c100 < c1000);
        assert!(c1000 < 1.0);
    }

    #[test]
    fn required_n_achieves_confidence() {
        for &(p, c) in &[(1e-3, 0.99), (0.05, 0.9), (0.5, 0.99)] {
            let n = failure_free_tests_required(p, c).unwrap();
            assert!(failure_free_confidence(p, n).unwrap() >= c);
            if n > 1 {
                assert!(failure_free_confidence(p, n - 1).unwrap() < c);
            }
        }
    }

    #[test]
    fn bayesian_uniform_prior_failure_free() {
        // Uniform prior, k = 0: posterior P(pfd < p) = 1 − (1 − p)^{n+1}.
        let post = bayesian_confidence(1.0, 1.0, 100, 0, 0.05).unwrap();
        let expected = 1.0 - 0.95f64.powi(101);
        assert!((post - expected).abs() < 1e-10);
    }

    #[test]
    fn bayesian_confidence_decreases_with_failures() {
        let none = bayesian_confidence(1.0, 1.0, 50, 0, 0.1).unwrap();
        let some = bayesian_confidence(1.0, 1.0, 50, 5, 0.1).unwrap();
        assert!(some < none);
    }

    #[test]
    fn bayesian_rejects_failures_beyond_n() {
        assert!(bayesian_confidence(1.0, 1.0, 5, 6, 0.1).is_err());
    }

    #[test]
    fn fixed_size_state_machine() {
        let mut st = StoppingState::new(StoppingRule::FixedSize(3));
        assert!(!st.should_stop().unwrap());
        st.record(false);
        st.record(true);
        assert!(!st.should_stop().unwrap());
        st.record(false);
        assert!(st.should_stop().unwrap());
        assert_eq!(st.demands(), 3);
        assert_eq!(st.failures(), 1);
    }

    #[test]
    fn failure_resets_failure_free_run() {
        let rule = StoppingRule::FailureFree {
            target: 0.1,
            confidence: 0.9,
        };
        let needed = failure_free_tests_required(0.1, 0.9).unwrap();
        let mut st = StoppingState::new(rule);
        for _ in 0..needed - 1 {
            st.record(false);
        }
        assert!(!st.should_stop().unwrap());
        st.record(true); // failure resets the run
        for _ in 0..needed - 1 {
            st.record(false);
        }
        assert!(!st.should_stop().unwrap());
        st.record(false);
        assert!(st.should_stop().unwrap());
    }

    #[test]
    fn bayesian_state_machine_stops_eventually() {
        let rule = StoppingRule::BayesianBeta {
            a: 1.0,
            b: 1.0,
            target: 0.05,
            confidence: 0.95,
        };
        let mut st = StoppingState::new(rule);
        let mut steps = 0;
        while !st.should_stop().unwrap() {
            st.record(false);
            steps += 1;
            assert!(steps < 10_000, "rule failed to stop");
        }
        // Classical rule needs 59 tests at p=0.05, c=0.95; the uniform-prior
        // Bayesian rule stops one test earlier (posterior uses n + 1).
        assert_eq!(steps, 58);
    }

    #[test]
    fn invalid_parameters_error() {
        assert!(failure_free_tests_required(0.0, 0.9).is_err());
        assert!(failure_free_tests_required(0.5, 1.0).is_err());
        assert!(failure_free_confidence(1.0, 10).is_err());
    }

    #[test]
    fn target_boundaries_are_rejected_or_saturate() {
        // Exact boundaries of (0, 1) are invalid in both directions.
        for f in [
            failure_free_tests_required(0.0, 0.9),
            failure_free_tests_required(1.0, 0.9),
            failure_free_tests_required(-0.0, 0.9),
            failure_free_tests_required(f64::NAN, 0.9),
            failure_free_tests_required(0.5, 0.0),
        ] {
            assert!(f.is_err());
        }
        // Subnormal and sub-2⁻⁵³ targets are *valid* — and enormous.
        // The naive ln(1 − p) formula collapsed these to 0 required
        // tests, silently claiming any pfd is demonstrated for free.
        let tiny = failure_free_tests_required(1e-17, 0.99).unwrap();
        assert!(tiny > 1 << 57, "1e-17 needs ~4.6e17 tests, got {tiny}");
        let subnormal = failure_free_tests_required(5e-324, 0.99).unwrap();
        assert_eq!(subnormal, u64::MAX);
        // The matching confidence stays honest instead of rounding to 0.
        let c = failure_free_confidence(1e-17, 1 << 58).unwrap();
        assert!((0.9..1.0).contains(&c), "got {c}");
        // Even u64::MAX demands demonstrate (almost) nothing about a
        // subnormal target — the saturated requirement above is real.
        let c = failure_free_confidence(5e-324, u64::MAX).unwrap();
        assert!(c < 1e-300, "got {c}");
    }

    #[test]
    fn tiny_target_state_never_claims_success_early() {
        // Regression: with the required count collapsing to 0, this
        // state reported "stop" before the first demand was run.
        let st = StoppingState::new(StoppingRule::FailureFree {
            target: 1e-300,
            confidence: 0.99,
        });
        assert!(!st.should_stop().unwrap());
        let mut st = st;
        for _ in 0..1000 {
            st.record(false);
        }
        assert!(!st.should_stop().unwrap());
    }

    #[test]
    fn bayesian_prior_degeneracy() {
        // Posterior shape parameters that stay non-positive or
        // non-finite are rejected.
        assert!(bayesian_confidence(0.0, 1.0, 10, 0, 0.1).is_err());
        assert!(bayesian_confidence(1.0, 0.0, 10, 10, 0.1).is_err());
        assert!(bayesian_confidence(-1.0, 1.0, 10, 0, 0.1).is_err());
        assert!(bayesian_confidence(f64::INFINITY, 1.0, 10, 0, 0.1).is_err());
        assert!(bayesian_confidence(1.0, f64::NAN, 10, 0, 0.1).is_err());
        // Improper priors become proper the moment the data supplies
        // the missing pseudo-counts.
        assert!(bayesian_confidence(0.0, 1.0, 10, 2, 0.1).is_ok());
        assert!(bayesian_confidence(1.0, 0.0, 10, 2, 0.1).is_ok());
        // Target boundaries resolve to the exact CDF endpoints.
        assert_eq!(bayesian_confidence(1.0, 1.0, 10, 2, 0.0).unwrap(), 0.0);
        assert_eq!(bayesian_confidence(1.0, 1.0, 10, 2, 1.0).unwrap(), 1.0);
        // No data: the posterior is the prior; uniform prior → I_x(1,1) = x.
        let prior = bayesian_confidence(1.0, 1.0, 0, 0, 0.3).unwrap();
        assert!((prior - 0.3).abs() < 1e-13);
        // An overwhelmingly confident prior dominates a short campaign.
        let optimist = bayesian_confidence(1.0, 1e6, 10, 0, 0.05).unwrap();
        assert!(optimist > 0.999_999, "got {optimist}");
        let pessimist = bayesian_confidence(1e6, 1.0, 10, 0, 0.05).unwrap();
        assert!(pessimist < 1e-9, "got {pessimist}");
    }

    #[test]
    fn stopping_state_accumulates_across_should_stop_queries() {
        // should_stop is a pure observation: querying it never advances
        // the state.
        let mut st = StoppingState::new(StoppingRule::FixedSize(2));
        for _ in 0..5 {
            assert!(!st.should_stop().unwrap());
        }
        st.record(true);
        st.record(true);
        assert!(st.should_stop().unwrap());
        assert_eq!((st.demands(), st.failures()), (2, 2));
    }
}
