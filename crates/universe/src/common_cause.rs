//! Common-cause events: the §5 extensions of the paper.
//!
//! The conclusion of Popov & Littlewood sketches two further sources of
//! inter-version dependence that "can conceptually be modelled as running
//! the same 'test suite' against all versions":
//!
//! * a **common clarification** — an ambiguity discovered by one team is
//!   clarified for *all* teams, removing the associated faults from every
//!   version ("the common test suite is not generated to cover the whole
//!   demand space … but instead will affect a (possibly small) sub-set");
//! * a **common mistake** — incorrect instructions sent to all teams,
//!   which "will result in setting the scores of all demands affected to 1
//!   (i.e. make versions produce incorrect results) instead of fixing the
//!   mistakes".
//!
//! Both are modelled as events applied simultaneously to a set of
//! versions, and both reduce diversity: after the event the versions agree
//! (correctly or incorrectly) on the affected demands.

use crate::error::UniverseError;
use crate::fault::{FaultId, FaultModel};
use crate::version::Version;

/// A common-cause event applied to every version of a development effort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommonCauseEvent {
    /// A clarification propagated to all teams: the listed faults are
    /// removed from every version (those that contain them).
    Clarification {
        /// Faults resolved by the clarification.
        faults: Vec<FaultId>,
    },
    /// A shared mistake: the listed faults are *introduced into* every
    /// version, making all versions fail identically on the affected
    /// demands.
    Mistake {
        /// Faults introduced by the mistake.
        faults: Vec<FaultId>,
    },
}

impl CommonCauseEvent {
    /// Validates the event's fault references against a model.
    ///
    /// # Errors
    ///
    /// Returns [`UniverseError::FaultOutOfRange`] for unknown faults.
    pub fn validate(&self, model: &FaultModel) -> Result<(), UniverseError> {
        let faults = match self {
            CommonCauseEvent::Clarification { faults } => faults,
            CommonCauseEvent::Mistake { faults } => faults,
        };
        for &f in faults {
            model.check(f)?;
        }
        Ok(())
    }

    /// Applies the event to one version, returning how many faults were
    /// actually removed (clarification) or added (mistake).
    pub fn apply(&self, version: &mut Version) -> usize {
        match self {
            CommonCauseEvent::Clarification { faults } => {
                version.remove_faults(faults.iter().copied())
            }
            CommonCauseEvent::Mistake { faults } => version.add_faults(faults.iter().copied()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandId, DemandSpace};
    use crate::fault::FaultModelBuilder;

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    fn model() -> FaultModel {
        FaultModelBuilder::new(DemandSpace::new(3).unwrap())
            .fault([d(0)])
            .fault([d(1)])
            .fault([d(2)])
            .build()
            .unwrap()
    }

    #[test]
    fn clarification_removes_from_all_versions() {
        let m = model();
        let mut versions = vec![
            Version::from_faults(&m, [f(0), f(1)]),
            Version::from_faults(&m, [f(1), f(2)]),
            Version::correct(&m),
        ];
        let ev = CommonCauseEvent::Clarification { faults: vec![f(1)] };
        let removed: usize = versions.iter_mut().map(|v| ev.apply(v)).sum();
        assert_eq!(removed, 2);
        for v in &versions {
            assert!(!v.has_fault(f(1)));
        }
        // Unrelated faults untouched.
        assert!(versions[0].has_fault(f(0)));
        assert!(versions[1].has_fault(f(2)));
    }

    #[test]
    fn mistake_introduces_everywhere() {
        let m = model();
        let mut versions = vec![Version::correct(&m), Version::from_faults(&m, [f(2)])];
        let ev = CommonCauseEvent::Mistake { faults: vec![f(2)] };
        // Version 1 already has the fault, so only one addition.
        let added: usize = versions.iter_mut().map(|v| ev.apply(v)).sum();
        assert_eq!(added, 1);
        for v in &versions {
            assert!(v.has_fault(f(2)));
            assert!(v.fails_on(&m, d(2)), "all versions now fail identically");
        }
    }

    #[test]
    fn mistake_destroys_diversity_on_affected_demand() {
        let m = model();
        let mut a = Version::correct(&m);
        let mut b = Version::from_faults(&m, [f(0)]);
        // Before: versions disagree on demand 0.
        assert_ne!(a.fails_on(&m, d(0)), b.fails_on(&m, d(0)));
        let ev = CommonCauseEvent::Mistake { faults: vec![f(0)] };
        ev.apply(&mut a);
        ev.apply(&mut b);
        // After: both fail on demand 0 — a coincident failure by design.
        assert!(a.fails_on(&m, d(0)) && b.fails_on(&m, d(0)));
    }

    #[test]
    fn validate_rejects_unknown_faults() {
        let m = model();
        let ev = CommonCauseEvent::Clarification { faults: vec![f(9)] };
        assert!(ev.validate(&m).is_err());
        let ok = CommonCauseEvent::Mistake { faults: vec![f(0)] };
        assert!(ok.validate(&m).is_ok());
    }
}
