//! Usage profiles: the probability distribution `Q(·)` over demands.
//!
//! The paper's `Q(·)` "could be thought of as the usage distribution over
//! demands. It might vary from one user environment to another." A profile
//! is also what operational-profile test generation draws from (§2), so it
//! doubles as the demand sampler for both operation and testing.

use rand::Rng;

use diversim_stats::alias::AliasSampler;

use crate::demand::{DemandId, DemandSpace};
use crate::error::UniverseError;

/// A probability distribution over the demand space, with O(1) sampling.
///
/// # Examples
///
/// ```
/// use diversim_universe::demand::DemandSpace;
/// use diversim_universe::profile::UsageProfile;
///
/// let space = DemandSpace::new(4).unwrap();
/// let q = UsageProfile::uniform(space);
/// assert!((q.probability(diversim_universe::demand::DemandId::new(0)) - 0.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UsageProfile {
    space: DemandSpace,
    probabilities: Vec<f64>,
    sampler: Option<AliasSampler>,
}

impl UsageProfile {
    /// Uniform distribution over the space.
    pub fn uniform(space: DemandSpace) -> Self {
        let n = space.len();
        let probabilities = vec![1.0 / n as f64; n];
        let sampler = AliasSampler::new(&probabilities).ok();
        Self {
            space,
            probabilities,
            sampler,
        }
    }

    /// Zipf-like distribution: demand `i` gets weight `1 / (i + 1)^s`,
    /// normalised. `s = 0` degenerates to uniform; larger `s` concentrates
    /// usage on low-index demands (a skewed operational profile).
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::InvalidProbability`] if `s` is negative or
    /// non-finite.
    pub fn zipf(space: DemandSpace, s: f64) -> Result<Self, UniverseError> {
        if !s.is_finite() || s < 0.0 {
            return Err(UniverseError::InvalidProbability {
                name: "s",
                value: s,
            });
        }
        let weights: Vec<f64> = (0..space.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(s))
            .collect();
        Self::from_weights(space, weights)
    }

    /// Builds a profile from arbitrary non-negative weights (normalised
    /// internally).
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::InvalidPopulation`] if the weight count
    /// differs from the space size, or a wrapped statistics error for
    /// degenerate weights.
    pub fn from_weights(space: DemandSpace, weights: Vec<f64>) -> Result<Self, UniverseError> {
        if weights.len() != space.len() {
            return Err(UniverseError::InvalidPopulation {
                reason: "weight count must equal demand space size",
            });
        }
        let sampler = AliasSampler::new(&weights)?;
        let probabilities = sampler.probabilities().to_vec();
        Ok(Self {
            space,
            probabilities,
            sampler: Some(sampler),
        })
    }

    /// The demand space this profile is defined over.
    pub fn space(&self) -> DemandSpace {
        self.space
    }

    /// `Q(x)`, the probability of demand `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is outside the demand space.
    pub fn probability(&self, x: DemandId) -> f64 {
        self.probabilities[x.index()]
    }

    /// The full probability vector, indexed by demand.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Draws one demand `X ~ Q(·)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> DemandId {
        match &self.sampler {
            Some(s) => DemandId::new(s.sample(rng) as u32),
            // Deserialized profiles rebuild lazily through `ensure_sampler`;
            // this fallback does a linear CDF walk and cannot fail because
            // probabilities are normalised at construction.
            None => {
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for (i, &p) in self.probabilities.iter().enumerate() {
                    acc += p;
                    if u < acc {
                        return DemandId::new(i as u32);
                    }
                }
                DemandId::new((self.probabilities.len() - 1) as u32)
            }
        }
    }

    /// Draws `count` i.i.d. demands.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<DemandId> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Iterates `(demand, Q(demand))` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (DemandId, f64)> + '_ {
        self.probabilities
            .iter()
            .enumerate()
            .map(|(i, &p)| (DemandId::new(i as u32), p))
    }

    /// Expectation `E_Q[f(X)] = Σ f(x) Q(x)` of a function over demands.
    pub fn expect<F: FnMut(DemandId) -> f64>(&self, mut f: F) -> f64 {
        self.iter().map(|(x, q)| f(x) * q).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space(n: usize) -> DemandSpace {
        DemandSpace::new(n).unwrap()
    }

    #[test]
    fn uniform_probabilities() {
        let q = UsageProfile::uniform(space(8));
        for (_, p) in q.iter() {
            assert!((p - 0.125).abs() < 1e-12);
        }
        let total: f64 = q.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_decreasing_and_normalised() {
        let q = UsageProfile::zipf(space(10), 1.0).unwrap();
        let ps = q.probabilities();
        for w in ps.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert!((ps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // zipf(0) is uniform.
        let u = UsageProfile::zipf(space(10), 0.0).unwrap();
        for (_, p) in u.iter() {
            assert!((p - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_rejects_bad_exponent() {
        assert!(UsageProfile::zipf(space(3), -1.0).is_err());
        assert!(UsageProfile::zipf(space(3), f64::NAN).is_err());
    }

    #[test]
    fn from_weights_validates_length() {
        assert!(UsageProfile::from_weights(space(3), vec![1.0, 2.0]).is_err());
        assert!(UsageProfile::from_weights(space(2), vec![0.0, 0.0]).is_err());
    }

    #[test]
    fn from_weights_normalises() {
        let q = UsageProfile::from_weights(space(2), vec![1.0, 3.0]).unwrap();
        assert!((q.probability(DemandId::new(0)) - 0.25).abs() < 1e-12);
        assert!((q.probability(DemandId::new(1)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let q = UsageProfile::from_weights(space(3), vec![0.6, 0.3, 0.1]).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[q.sample(&mut rng).index()] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.6).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.3).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.1).abs() < 0.01);
    }

    #[test]
    fn expect_computes_weighted_sum() {
        let q = UsageProfile::from_weights(space(2), vec![0.25, 0.75]).unwrap();
        let e = q.expect(|x| if x.index() == 1 { 1.0 } else { 0.0 });
        assert!((e - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sample_many_length() {
        let q = UsageProfile::uniform(space(3));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(q.sample_many(&mut rng, 12).len(), 12);
    }
}
