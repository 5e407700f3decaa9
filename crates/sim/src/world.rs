//! The canonical simulation world: populations, usage profile and suite
//! generator under one name.
//!
//! Experiments, examples and benchmarks all need the same bundle —
//! methodology measures `S_A`/`S_B`, the operational profile `Q(·)` and a
//! test-generation procedure `M(·)` — so the bundle is a first-class type
//! here in `sim` (it used to live in the bench crate). A [`World`] is the
//! immutable "physics" a [`crate::scenario::Scenario`] runs in; the
//! scenario adds the process knobs (regime, suite size, oracle, fixer,
//! seeds) on top.
//!
//! Labels are *derived* from the world's parameters (demand count, fault
//! structure, usage shape) instead of hand-written, so reports can never
//! drift from the actual workload.

use std::sync::Arc;

use diversim_testing::generation::ProfileGenerator;
use diversim_universe::demand::DemandSpace;
use diversim_universe::error::UniverseError;
use diversim_universe::fault::{FaultModel, FaultModelBuilder};
use diversim_universe::population::{BernoulliPopulation, Population};
use diversim_universe::profile::UsageProfile;
use diversim_universe::universe::Universe;

/// A ready-to-run world: population(s), usage profile and suite generator.
#[derive(Debug, Clone)]
pub struct World {
    /// Methodology A.
    pub pop_a: BernoulliPopulation,
    /// Methodology B (equal to A for unforced worlds).
    pub pop_b: BernoulliPopulation,
    /// The operational profile `Q(·)`.
    pub profile: UsageProfile,
    /// Operational-profile suite generator.
    pub generator: ProfileGenerator,
    /// Derived description for reports.
    label: String,
}

/// Renders the parameter-derived part of a world label.
fn describe(tag: &str, model: &FaultModel, profile: &UsageProfile) -> String {
    let n = model.space().len();
    let faults = model.fault_count();
    let regions = if model.is_singleton() {
        "singleton".to_string()
    } else {
        format!("regions ≤{}", model.max_region_size())
    };
    let uniform = profile
        .probabilities()
        .iter()
        .all(|&p| (p - 1.0 / n as f64).abs() < 1e-12);
    let usage = if uniform { "uniform Q" } else { "skewed Q" };
    format!("{tag} ({n} demands, {faults} faults, {regions}, {usage})")
}

impl World {
    /// A world where both versions come from the same methodology. The
    /// suite generator draws i.i.d. demands from `profile`.
    ///
    /// # Panics
    ///
    /// Panics if the population and profile disagree on the demand space
    /// (worlds are hand-authored fixtures; a [`crate::scenario::ScenarioBuilder`]
    /// re-validates with typed errors).
    pub fn symmetric(tag: &str, pop: BernoulliPopulation, profile: UsageProfile) -> Self {
        Self::forced(tag, pop.clone(), pop, profile)
    }

    /// A forced-diversity world: two different methodologies over one
    /// fault model.
    ///
    /// # Panics
    ///
    /// Panics if the populations or the profile disagree on the demand
    /// space.
    pub fn forced(
        tag: &str,
        pop_a: BernoulliPopulation,
        pop_b: BernoulliPopulation,
        profile: UsageProfile,
    ) -> Self {
        assert_eq!(
            pop_a.model().space(),
            profile.space(),
            "population A and profile disagree on the demand space"
        );
        assert_eq!(
            pop_b.model().space(),
            profile.space(),
            "population B and profile disagree on the demand space"
        );
        let label = describe(tag, pop_a.model(), &profile);
        World {
            pop_a,
            pop_b,
            generator: ProfileGenerator::new(profile.clone()),
            profile,
            label,
        }
    }

    /// The common fixture in one call: `props.len()` demands with one
    /// singleton fault each (the paper's abstract score model), per-fault
    /// propensities `props`, uniform usage.
    ///
    /// # Errors
    ///
    /// Propagates invalid propensities from
    /// [`BernoulliPopulation::new`].
    pub fn singleton_uniform(tag: &str, props: Vec<f64>) -> Result<Self, UniverseError> {
        let space = DemandSpace::new(props.len())?;
        let model = Arc::new(FaultModelBuilder::new(space).singleton_faults().build()?);
        let pop = BernoulliPopulation::new(model, props)?;
        let profile = UsageProfile::uniform(space);
        Ok(Self::symmetric(tag, pop, profile))
    }

    /// Wraps a generated [`Universe`] and its population (the
    /// `UniverseSpec::generate_with_population` output) as a world.
    pub fn from_universe(tag: &str, universe: &Universe, pop: BernoulliPopulation) -> Self {
        Self::symmetric(tag, pop, universe.profile().clone())
    }

    /// The parameter-derived description (for reports and tables).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The shared fault model.
    pub fn model(&self) -> &Arc<FaultModel> {
        self.pop_a.model()
    }

    /// A [`crate::scenario::ScenarioBuilder`] pre-loaded with this
    /// world's populations and profile.
    pub fn scenario(&self) -> crate::scenario::ScenarioBuilder {
        crate::scenario::ScenarioBuilder::new().world(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_uniform_derives_its_label() {
        let w = World::singleton_uniform("tiny", vec![0.2, 0.4, 0.6]).unwrap();
        assert_eq!(
            w.label(),
            "tiny (3 demands, 3 faults, singleton, uniform Q)"
        );
        assert_eq!(w.model().fault_count(), 3);
        assert_eq!(w.pop_a.propensities(), w.pop_b.propensities());
    }

    #[test]
    fn skewed_and_cascading_worlds_report_structure() {
        use diversim_universe::demand::DemandId;
        let space = DemandSpace::new(4).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .fault([DemandId::new(0), DemandId::new(1)])
                .fault([DemandId::new(2)])
                .build()
                .unwrap(),
        );
        let pop = BernoulliPopulation::constant(model, 0.5).unwrap();
        let profile = UsageProfile::zipf(space, 1.0).unwrap();
        let w = World::symmetric("cascade", pop, profile);
        assert_eq!(
            w.label(),
            "cascade (4 demands, 2 faults, regions ≤2, skewed Q)"
        );
    }

    #[test]
    fn forced_world_keeps_both_populations() {
        let space = DemandSpace::new(2).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        let a = BernoulliPopulation::new(Arc::clone(&model), vec![0.9, 0.1]).unwrap();
        let b = BernoulliPopulation::new(Arc::clone(&model), vec![0.1, 0.9]).unwrap();
        let w = World::forced("mirror", a, b, UsageProfile::uniform(space));
        assert_ne!(w.pop_a.propensities(), w.pop_b.propensities());
        assert!(w.label().starts_with("mirror ("));
    }

    #[test]
    #[should_panic(expected = "disagree on the demand space")]
    fn mismatched_profile_panics() {
        let w = World::singleton_uniform("t", vec![0.5, 0.5]).unwrap();
        let other = UsageProfile::uniform(DemandSpace::new(3).unwrap());
        let _ = World::symmetric("bad", w.pop_a, other);
    }
}
