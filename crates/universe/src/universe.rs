//! The bundled model universe: demand space, usage profile and fault model.
//!
//! A [`Universe`] is the fixed backdrop against which populations are
//! defined, test suites are generated and the paper's quantities are
//! computed. It intentionally does *not* include populations: several
//! methodologies (measures `S_A`, `S_B`, …) typically share one universe,
//! which is exactly the forced-diversity setting of Littlewood–Miller.

use std::sync::Arc;

use crate::demand::DemandSpace;
use crate::error::UniverseError;
use crate::fault::FaultModel;
use crate::profile::UsageProfile;

/// A demand space, its usage distribution and the potential-fault model.
#[derive(Debug, Clone)]
pub struct Universe {
    profile: UsageProfile,
    model: Arc<FaultModel>,
}

impl Universe {
    /// Bundles a usage profile and fault model defined over the same
    /// demand space.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::InvalidPopulation`] if profile and model
    /// disagree on the demand space.
    pub fn new(profile: UsageProfile, model: Arc<FaultModel>) -> Result<Self, UniverseError> {
        if profile.space() != model.space() {
            return Err(UniverseError::InvalidPopulation {
                reason: "usage profile and fault model must share a demand space",
            });
        }
        Ok(Self { profile, model })
    }

    /// The demand space.
    pub fn space(&self) -> DemandSpace {
        self.model.space()
    }

    /// The usage distribution `Q(·)`.
    pub fn profile(&self) -> &UsageProfile {
        &self.profile
    }

    /// The potential-fault model (shared).
    pub fn model(&self) -> &Arc<FaultModel> {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandId;
    use crate::fault::Fault;

    #[test]
    fn bundles_matching_spaces() {
        let space = DemandSpace::new(3).unwrap();
        let model = FaultModel::new(space, vec![Fault::new([DemandId::new(0)])]).unwrap();
        let u = Universe::new(UsageProfile::uniform(space), Arc::new(model)).unwrap();
        assert_eq!(u.space().len(), 3);
        assert_eq!(u.model().fault_count(), 1);
        assert!((u.profile().probability(DemandId::new(1)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_spaces() {
        let space_a = DemandSpace::new(3).unwrap();
        let space_b = DemandSpace::new(4).unwrap();
        let profile = UsageProfile::uniform(space_a);
        let model = Arc::new(FaultModel::new(space_b, vec![]).unwrap());
        assert!(Universe::new(profile, model).is_err());
    }
}
