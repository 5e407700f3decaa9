//! Failure-detection oracles.
//!
//! §2: "a judging mechanism (for example oracle(s)) … Clearly, the judging
//! mechanism can itself be fallible." An [`Oracle`] decides whether an
//! observed failure (a demand on which the executed version's output is
//! wrong) is *detected*. Back-to-back comparison (§4.2) is not an
//! [`Oracle`] — its verdict depends on both versions' outcomes — and is
//! modelled separately by [`IdenticalFailureModel`] in
//! [`crate::process::back_to_back_step`].

use rand::{Rng, RngCore};

use diversim_universe::demand::DemandId;

use crate::error::TestingError;

/// Decides whether a failure on a demand is detected.
pub trait Oracle: std::fmt::Debug + Send + Sync {
    /// Returns `true` if a failure on `x` is detected. Called once per
    /// failing execution.
    fn detects(&self, rng: &mut dyn RngCore, x: DemandId) -> bool;
}

/// The perfect oracle of §3: every failure is detected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfectOracle;

impl PerfectOracle {
    /// Creates a perfect oracle.
    pub fn new() -> Self {
        PerfectOracle
    }
}

impl Oracle for PerfectOracle {
    fn detects(&self, _rng: &mut dyn RngCore, _x: DemandId) -> bool {
        true
    }
}

/// The imperfect oracle of §4.1: each failing execution is detected
/// independently with probability `detect_prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImperfectOracle {
    detect_prob: f64,
}

impl ImperfectOracle {
    /// Creates an oracle with the given per-failure detection probability.
    ///
    /// # Errors
    ///
    /// Returns [`TestingError::InvalidProbability`] unless
    /// `detect_prob ∈ [0, 1]`.
    pub fn new(detect_prob: f64) -> Result<Self, TestingError> {
        if !detect_prob.is_finite() || !(0.0..=1.0).contains(&detect_prob) {
            return Err(TestingError::InvalidProbability {
                name: "detect_prob",
                value: detect_prob,
            });
        }
        Ok(Self { detect_prob })
    }

    /// The per-failure detection probability.
    pub fn detect_prob(&self) -> f64 {
        self.detect_prob
    }
}

impl Oracle for ImperfectOracle {
    fn detects(&self, rng: &mut dyn RngCore, _x: DemandId) -> bool {
        rng.gen::<f64>() < self.detect_prob
    }
}

/// How coincident failures behave under back-to-back comparison (§4.2).
///
/// When exactly one version fails on a demand the outputs necessarily
/// mismatch and the failure is detected. When *both* fail, detection
/// succeeds only if the wrong outputs differ:
///
/// * [`IdenticalFailureModel::Never`] — the optimistic bound: coincident
///   failures are never identical, so back-to-back behaves like a perfect
///   oracle;
/// * [`IdenticalFailureModel::Always`] — the pessimistic bound: all
///   coincident failures are identical and undetectable;
/// * [`IdenticalFailureModel::Bernoulli`] — each coincident failure is
///   identical with probability `γ`, interpolating between the bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IdenticalFailureModel {
    /// Coincident failures always mismatch (optimistic).
    Never,
    /// Coincident failures are always identical (pessimistic).
    Always,
    /// Coincident failures are identical with probability `γ`.
    Bernoulli(f64),
}

impl IdenticalFailureModel {
    /// Validates the γ parameter of the Bernoulli variant.
    ///
    /// # Errors
    ///
    /// Returns [`TestingError::InvalidProbability`] if γ is out of range.
    pub fn validate(&self) -> Result<(), TestingError> {
        if let IdenticalFailureModel::Bernoulli(g) = *self {
            if !g.is_finite() || !(0.0..=1.0).contains(&g) {
                return Err(TestingError::InvalidProbability {
                    name: "gamma",
                    value: g,
                });
            }
        }
        Ok(())
    }

    /// Draws whether a coincident failure is identical (hence undetected).
    pub fn is_identical(&self, rng: &mut dyn RngCore) -> bool {
        match *self {
            IdenticalFailureModel::Never => false,
            IdenticalFailureModel::Always => true,
            IdenticalFailureModel::Bernoulli(g) => rng.gen::<f64>() < g,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    #[test]
    fn perfect_oracle_always_detects() {
        let o = PerfectOracle::new();
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..100 {
            assert!(o.detects(&mut rng, d(i)));
        }
    }

    #[test]
    fn imperfect_oracle_detection_rate() {
        let o = ImperfectOracle::new(0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..100_000).filter(|_| o.detects(&mut rng, d(0))).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn imperfect_oracle_extremes() {
        let zero = ImperfectOracle::new(0.0).unwrap();
        let one = ImperfectOracle::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(!zero.detects(&mut rng, d(0)));
        assert!(one.detects(&mut rng, d(0)));
    }

    #[test]
    fn imperfect_oracle_rejects_bad_probability() {
        assert!(ImperfectOracle::new(-0.1).is_err());
        assert!(ImperfectOracle::new(1.1).is_err());
        assert!(ImperfectOracle::new(f64::NAN).is_err());
    }

    #[test]
    fn identical_failure_model_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        assert!(!IdenticalFailureModel::Never.is_identical(&mut rng));
        assert!(IdenticalFailureModel::Always.is_identical(&mut rng));
    }

    #[test]
    fn identical_failure_model_bernoulli_rate() {
        let m = IdenticalFailureModel::Bernoulli(0.7);
        m.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let hits = (0..100_000).filter(|_| m.is_identical(&mut rng)).count();
        assert!((hits as f64 / 100_000.0 - 0.7).abs() < 0.01);
    }

    #[test]
    fn identical_failure_model_validation() {
        assert!(IdenticalFailureModel::Bernoulli(1.5).validate().is_err());
        assert!(IdenticalFailureModel::Never.validate().is_ok());
        assert!(IdenticalFailureModel::Always.validate().is_ok());
    }

    #[test]
    fn oracles_are_object_safe() {
        let oracles: Vec<Box<dyn Oracle>> = vec![
            Box::new(PerfectOracle::new()),
            Box::new(ImperfectOracle::new(0.5).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(6);
        for o in &oracles {
            let _ = o.detects(&mut rng, d(0));
        }
    }
}
