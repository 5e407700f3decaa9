//! Random universe and population generators.
//!
//! The experiments sweep over many randomly generated universes; this
//! module centralises their construction so that every experiment states
//! its workload as a small, serialisable spec.

use std::sync::Arc;

use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::demand::{DemandId, DemandSpace};
use crate::error::UniverseError;
use crate::fault::{Fault, FaultModel, FaultModelBuilder};
use crate::population::BernoulliPopulation;
use crate::profile::UsageProfile;
use crate::universe::Universe;

/// Distribution of failure-region sizes for generated faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionSize {
    /// Every fault covers exactly this many demands.
    Fixed(usize),
    /// Region sizes drawn uniformly from `min..=max`.
    Uniform {
        /// Smallest region size (≥ 1).
        min: usize,
        /// Largest region size.
        max: usize,
    },
    /// Region sizes drawn from a geometric distribution with the given
    /// mean (≥ 1), truncated to the demand-space size.
    Geometric {
        /// Mean region size.
        mean: f64,
    },
}

impl RegionSize {
    fn draw<R: Rng + ?Sized>(&self, rng: &mut R, n_demands: usize) -> usize {
        let size = match *self {
            RegionSize::Fixed(k) => k,
            RegionSize::Uniform { min, max } => {
                let (lo, hi) = (min.max(1), max.max(min.max(1)));
                rng.gen_range(lo..=hi)
            }
            RegionSize::Geometric { mean } => {
                let mean = mean.max(1.0);
                let p = 1.0 / mean;
                // Inverse-CDF sample of Geometric(p) on {1, 2, ...}.
                let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                1 + (u.ln() / (1.0 - p).ln()).floor().max(0.0) as usize
            }
        };
        size.clamp(1, n_demands)
    }
}

/// Shape of the usage distribution for generated universes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProfileKind {
    /// Uniform usage over all demands.
    Uniform,
    /// Zipf-distributed usage with the given exponent.
    Zipf(f64),
}

/// Shape of per-fault propensities for generated Bernoulli populations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PropensityKind {
    /// Every fault equally likely.
    Constant(f64),
    /// Propensities drawn uniformly from `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Fault `i` gets `hi / (i + 1)` — a few likely faults and a long tail
    /// of unlikely ones, a common reliability-growth shape.
    Harmonic {
        /// Propensity of the most likely fault.
        hi: f64,
    },
}

impl PropensityKind {
    /// Checks every bound before anything is drawn: each is a
    /// probability in `[0, 1]`, and a uniform kind has `lo <= hi`.
    ///
    /// # Errors
    ///
    /// [`UniverseError::InvalidProbability`] naming the first bound
    /// outside `[0, 1]` (NaN included);
    /// [`UniverseError::InvalidPopulation`] if `lo > hi`.
    pub fn validate(&self) -> Result<(), UniverseError> {
        let probability = |name, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(UniverseError::InvalidProbability { name, value })
            }
        };
        match *self {
            PropensityKind::Constant(p) => probability("propensity", p),
            PropensityKind::Uniform { lo, hi } => {
                probability("lo", lo)?;
                probability("hi", hi)?;
                if lo > hi {
                    return Err(UniverseError::InvalidPopulation {
                        reason: "uniform propensity bounds need lo <= hi",
                    });
                }
                Ok(())
            }
            PropensityKind::Harmonic { hi } => probability("hi", hi),
        }
    }

    fn generate<R: Rng + ?Sized>(&self, rng: &mut R, n_faults: usize) -> Vec<f64> {
        match *self {
            PropensityKind::Constant(p) => vec![p; n_faults],
            PropensityKind::Uniform { lo, hi } => {
                (0..n_faults).map(|_| rng.gen_range(lo..=hi)).collect()
            }
            PropensityKind::Harmonic { hi } => (0..n_faults).map(|i| hi / (i + 1) as f64).collect(),
        }
    }
}

/// Specification of a random universe.
///
/// # Examples
///
/// ```
/// use diversim_universe::generator::{ProfileKind, RegionSize, UniverseSpec};
/// use rand::SeedableRng;
///
/// let spec = UniverseSpec {
///     n_demands: 20,
///     n_faults: 8,
///     region_size: RegionSize::Fixed(2),
///     profile: ProfileKind::Uniform,
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let universe = spec.generate(&mut rng).unwrap();
/// assert_eq!(universe.space().len(), 20);
/// assert_eq!(universe.model().fault_count(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniverseSpec {
    /// Number of demands in the space.
    pub n_demands: usize,
    /// Number of potential faults.
    pub n_faults: usize,
    /// Distribution of failure-region sizes.
    pub region_size: RegionSize,
    /// Shape of the usage distribution.
    pub profile: ProfileKind,
}

impl UniverseSpec {
    /// A pure Eckhardt–Lee universe: one singleton fault per demand,
    /// uniform usage. In this regime the mechanistic fault model coincides
    /// with the paper's abstract per-demand score model.
    pub fn singleton(n_demands: usize) -> Self {
        Self {
            n_demands,
            n_faults: n_demands,
            region_size: RegionSize::Fixed(1),
            profile: ProfileKind::Uniform,
        }
    }

    /// Generates a universe according to the spec.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (e.g. `n_demands == 0`).
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Universe, UniverseError> {
        let space = DemandSpace::new(self.n_demands)?;
        let model = if matches!(self.region_size, RegionSize::Fixed(1))
            && self.n_faults == self.n_demands
        {
            // Deterministic singleton layout: fault i covers demand i.
            FaultModelBuilder::new(space).singleton_faults().build()?
        } else {
            let mut faults = Vec::with_capacity(self.n_faults);
            for _ in 0..self.n_faults {
                let size = self.region_size.draw(rng, self.n_demands);
                let idx = index_sample(rng, self.n_demands, size);
                faults.push(Fault::new(idx.iter().map(|i| DemandId::new(i as u32))));
            }
            FaultModel::new(space, faults)?
        };
        let profile = match self.profile {
            ProfileKind::Uniform => UsageProfile::uniform(space),
            ProfileKind::Zipf(s) => UsageProfile::zipf(space, s)?,
        };
        Universe::new(profile, Arc::new(model))
    }

    /// Generates a universe together with one Bernoulli population.
    ///
    /// # Errors
    ///
    /// The [`PropensityKind::validate`] errors, before anything is drawn;
    /// otherwise propagates construction errors from either component.
    pub fn generate_with_population<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        propensity: PropensityKind,
    ) -> Result<(Universe, BernoulliPopulation), UniverseError> {
        propensity.validate()?;
        let universe = self.generate(rng)?;
        let props = propensity.generate(rng, self.n_faults);
        let pop = BernoulliPopulation::new(Arc::clone(universe.model()), props)?;
        Ok((universe, pop))
    }
}

/// Builds a forced-diversity pair of Bernoulli populations over one model:
/// methodology A finds the first half of the fault list hard (propensity
/// `hi`) and the second half easy (`lo`); methodology B is the mirror
/// image. With (near-)disjoint fault regions this induces *negative*
/// covariance between the two difficulty functions — the Littlewood–Miller
/// "better than independence" setting.
///
/// # Errors
///
/// Returns [`UniverseError::InvalidProbability`] for out-of-range
/// propensities.
pub fn mirrored_pair(
    model: &Arc<FaultModel>,
    hi: f64,
    lo: f64,
) -> Result<(BernoulliPopulation, BernoulliPopulation), UniverseError> {
    let n = model.fault_count();
    let half = n / 2;
    let mut pa = vec![lo; n];
    let mut pb = vec![hi; n];
    for i in 0..half {
        pa[i] = hi;
        pb[i] = lo;
    }
    Ok((
        BernoulliPopulation::new(Arc::clone(model), pa)?,
        BernoulliPopulation::new(Arc::clone(model), pb)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::Population;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_region_sizes() {
        let spec = UniverseSpec {
            n_demands: 30,
            n_faults: 10,
            region_size: RegionSize::Fixed(3),
            profile: ProfileKind::Uniform,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let u = spec.generate(&mut rng).unwrap();
        for f in u.model().fault_ids() {
            assert_eq!(u.model().fault(f).region_size(), 3);
        }
    }

    #[test]
    fn uniform_region_sizes_in_range() {
        let spec = UniverseSpec {
            n_demands: 50,
            n_faults: 40,
            region_size: RegionSize::Uniform { min: 2, max: 5 },
            profile: ProfileKind::Uniform,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let u = spec.generate(&mut rng).unwrap();
        for f in u.model().fault_ids() {
            let s = u.model().fault(f).region_size();
            assert!((2..=5).contains(&s), "region size {s} out of range");
        }
    }

    #[test]
    fn geometric_region_sizes_average_near_mean() {
        let spec = UniverseSpec {
            n_demands: 10_000,
            n_faults: 2_000,
            region_size: RegionSize::Geometric { mean: 4.0 },
            profile: ProfileKind::Uniform,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let u = spec.generate(&mut rng).unwrap();
        let avg: f64 = u
            .model()
            .fault_ids()
            .map(|f| u.model().fault(f).region_size() as f64)
            .sum::<f64>()
            / u.model().fault_count() as f64;
        assert!((avg - 4.0).abs() < 0.3, "mean region size {avg}");
    }

    #[test]
    fn singleton_spec_is_pure_score_model() {
        let mut rng = StdRng::seed_from_u64(3);
        let u = UniverseSpec::singleton(12).generate(&mut rng).unwrap();
        assert!(u.model().is_singleton());
        assert_eq!(u.model().fault_count(), 12);
        // Fault i covers exactly demand i.
        for (i, f) in u.model().fault_ids().enumerate() {
            assert_eq!(u.model().fault(f).region(), &[DemandId::new(i as u32)]);
        }
    }

    #[test]
    fn zipf_profile_applied() {
        let spec = UniverseSpec {
            n_demands: 10,
            n_faults: 2,
            region_size: RegionSize::Fixed(1),
            profile: ProfileKind::Zipf(1.5),
        };
        let mut rng = StdRng::seed_from_u64(4);
        let u = spec.generate(&mut rng).unwrap();
        assert!(
            u.profile().probability(DemandId::new(0)) > u.profile().probability(DemandId::new(9))
        );
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let spec = UniverseSpec {
            n_demands: 25,
            n_faults: 9,
            region_size: RegionSize::Uniform { min: 1, max: 4 },
            profile: ProfileKind::Uniform,
        };
        let u1 = spec.generate(&mut StdRng::seed_from_u64(7)).unwrap();
        let u2 = spec.generate(&mut StdRng::seed_from_u64(7)).unwrap();
        for (f1, f2) in u1.model().fault_ids().zip(u2.model().fault_ids()) {
            assert_eq!(u1.model().fault(f1).region(), u2.model().fault(f2).region());
        }
    }

    #[test]
    fn population_propensities_follow_kind() {
        let spec = UniverseSpec::singleton(6);
        let mut rng = StdRng::seed_from_u64(5);
        let (_, pop) = spec
            .generate_with_population(&mut rng, PropensityKind::Harmonic { hi: 0.4 })
            .unwrap();
        let props = pop.propensities();
        assert!((props[0] - 0.4).abs() < 1e-12);
        assert!((props[3] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn uniform_propensities_within_bounds() {
        let spec = UniverseSpec::singleton(40);
        let mut rng = StdRng::seed_from_u64(6);
        let (_, pop) = spec
            .generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.1, hi: 0.2 })
            .unwrap();
        for &p in pop.propensities() {
            assert!((0.1..=0.2).contains(&p));
        }
    }

    #[test]
    fn bad_propensity_bounds_are_refused_before_any_draw() {
        let spec = UniverseSpec::singleton(12);
        for kind in [
            PropensityKind::Uniform { lo: 0.6, hi: 0.2 },
            PropensityKind::Uniform {
                lo: f64::NAN,
                hi: 0.5,
            },
            PropensityKind::Uniform { lo: 0.2, hi: 1.5 },
            PropensityKind::Uniform { lo: -0.5, hi: 0.1 },
        ] {
            assert!(kind.validate().is_err(), "{kind:?}");
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                assert!(
                    spec.generate_with_population(&mut rng, kind).is_err(),
                    "{kind:?} accepted at seed {seed}"
                );
            }
        }
        assert_eq!(
            PropensityKind::Uniform { lo: 0.6, hi: 0.2 }.validate(),
            Err(UniverseError::InvalidPopulation {
                reason: "uniform propensity bounds need lo <= hi"
            })
        );
        assert_eq!(
            PropensityKind::Harmonic { hi: 1.5 }.validate(),
            Err(UniverseError::InvalidProbability {
                name: "hi",
                value: 1.5
            })
        );
        assert!(PropensityKind::Uniform { lo: 0.0, hi: 1.0 }
            .validate()
            .is_ok());
        assert!(PropensityKind::Constant(1.0).validate().is_ok());
    }

    #[test]
    fn mirrored_pair_has_opposed_difficulty() {
        let mut rng = StdRng::seed_from_u64(8);
        let u = UniverseSpec::singleton(10).generate(&mut rng).unwrap();
        let (a, b) = mirrored_pair(u.model(), 0.8, 0.1).unwrap();
        // On demand 0 (fault 0, first half) A is weak, B is strong.
        assert!(a.theta(DemandId::new(0)) > b.theta(DemandId::new(0)));
        // On demand 9 (fault 9, second half) the roles reverse.
        assert!(a.theta(DemandId::new(9)) < b.theta(DemandId::new(9)));
    }
}
