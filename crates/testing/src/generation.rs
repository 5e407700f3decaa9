//! Test-suite generation procedures.
//!
//! §2: "Test suites are drawn in accord with the testing goal. If
//! operational reliability is targeted the test suites are generated using
//! the expected operational profile … If debugging is targeted the test
//! suite is generated according to what the debugger believes maximises
//! the chances of finding faults." A [`SuiteGenerator`] together with a
//! requested size is one *generation procedure* — the thing the measure
//! `M(·)` is defined over. Forced *testing* diversity (§3.2) is modelled
//! with two suite measures, one per version
//! ([`ExplicitSuitePopulation`](crate::suite_population::ExplicitSuitePopulation)s):
//! the `measure_a`/`measure_b` pair of
//! `diversim_core::marginal::SuiteAssignment::Independent`, which e03's
//! eq-18 arm builds from the operational and a debug-skewed profile.

use rand::RngCore;

use diversim_universe::demand::DemandSpace;
use diversim_universe::profile::UsageProfile;

use crate::suite::TestSuite;

/// A randomized procedure producing test suites of a requested size.
///
/// The trait is object-safe. A scenario's procedure is always a
/// [`ProfileGenerator`] over its operational profile; worlds expose
/// theirs for callers that draw suites directly.
pub trait SuiteGenerator: std::fmt::Debug + Send + Sync {
    /// The demand space suites are generated over.
    fn space(&self) -> DemandSpace;

    /// Draws one random suite `T ~ M(·)` of `size` demands.
    fn generate(&self, rng: &mut dyn RngCore, size: usize) -> TestSuite;
}

/// Operational-profile testing: demands drawn i.i.d. from a usage
/// distribution (either the operational `Q(·)` itself, or a *debug*
/// profile believed to maximise fault finding).
#[derive(Debug, Clone)]
pub struct ProfileGenerator {
    profile: UsageProfile,
}

impl ProfileGenerator {
    /// Creates a generator drawing i.i.d. demands from `profile`.
    pub fn new(profile: UsageProfile) -> Self {
        Self { profile }
    }

    /// The profile demands are drawn from.
    pub fn profile(&self) -> &UsageProfile {
        &self.profile
    }
}

impl SuiteGenerator for ProfileGenerator {
    fn space(&self) -> DemandSpace {
        self.profile.space()
    }

    fn generate(&self, rng: &mut dyn RngCore, size: usize) -> TestSuite {
        let demands = self.profile.sample_many(rng, size);
        TestSuite::from_demands(self.space(), demands)
            .expect("profile samples lie in the space by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_universe::demand::DemandId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn space(n: usize) -> DemandSpace {
        DemandSpace::new(n).unwrap()
    }

    #[test]
    fn profile_generator_draws_from_profile() {
        let q = UsageProfile::from_weights(space(3), vec![0.0, 1.0, 0.0]).unwrap();
        let g = ProfileGenerator::new(q);
        let mut rng = StdRng::seed_from_u64(0);
        let t = g.generate(&mut rng, 10);
        assert_eq!(t.len(), 10);
        assert!(t.demands().iter().all(|&x| x == d(1)));
    }

    #[test]
    fn profile_generator_empirical_distribution() {
        let q = UsageProfile::from_weights(space(2), vec![0.8, 0.2]).unwrap();
        let g = ProfileGenerator::new(q);
        let mut rng = StdRng::seed_from_u64(1);
        let t = g.generate(&mut rng, 50_000);
        let zeros = t.demands().iter().filter(|&&x| x == d(0)).count();
        assert!((zeros as f64 / 50_000.0 - 0.8).abs() < 0.01);
    }

    #[test]
    fn generators_are_object_safe() {
        let g: Box<dyn SuiteGenerator> =
            Box::new(ProfileGenerator::new(UsageProfile::uniform(space(3))));
        let mut rng = StdRng::seed_from_u64(5);
        let t = g.generate(&mut rng, 2);
        assert_eq!(t.space().len(), 3);
    }
}
