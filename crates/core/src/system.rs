//! System-level reliability of *concrete* version tuples.
//!
//! > **Which path is this?** This module is the **concrete-version** path:
//! > it evaluates actual [`Version`]s (as produced by a simulated debugging
//! > campaign) through failure-set algebra on the packed bitset kernel.
//! > The **population-expectation** path — marginal pfds of version
//! > *distributions* under the testing regimes — lives in
//! > [`crate::structure`]. The two paths agree in expectation and are
//! > checked against each other by `exact::brute` downstream.
//!
//! The paper's 1-out-of-N adjudicated system — a system failure needs
//! *every* version to fail (perfect adjudication, as assumed throughout
//! the paper) — is [`Structure::one_out_of_n`]; the pair is
//! `Structure::one_out_of_n(2)`.

use diversim_universe::bitset::BitSet;
use diversim_universe::demand::DemandId;
use diversim_universe::fault::FaultModel;
use diversim_universe::profile::UsageProfile;
use diversim_universe::version::Version;

use crate::error::CoreError;
use crate::structure::Structure;

/// The demands on which a structured system of the given versions fails:
/// the structure's failure-set algebra (intersection per AND gate, union
/// per OR gate, ≥t dynamic programme per k-of-n gate) applied to each
/// version's failure set. `versions[i]` plays component `i`.
///
/// # Errors
///
/// [`CoreError::EmptyInput`] if `versions` is empty;
/// [`CoreError::InvalidStructure`] if the tree references a component
/// index `≥ versions.len()` or is malformed.
pub fn structure_failure_set(
    structure: &Structure,
    versions: &[&Version],
    model: &FaultModel,
) -> Result<BitSet, CoreError> {
    if versions.is_empty() {
        return Err(CoreError::EmptyInput { what: "versions" });
    }
    let sets: Vec<BitSet> = versions.iter().map(|v| v.failure_set(model)).collect();
    structure.failure_set(&sets)
}

/// Probability that a structured system of concrete versions fails on a
/// random demand: the usage-profile mass of
/// [`structure_failure_set`], accumulated in ascending demand order
/// from `+0.0`, as the kernel's masses are.
pub fn structure_system_pfd(
    structure: &Structure,
    versions: &[&Version],
    model: &FaultModel,
    profile: &UsageProfile,
) -> Result<f64, CoreError> {
    Ok(structure_failure_set(structure, versions, model)?
        .iter()
        .fold(0.0, |acc, i| {
            acc + profile.probability(DemandId::new(i as u32))
        }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::{FaultId, FaultModelBuilder};

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    /// Singleton model over 4 demands.
    fn model() -> FaultModel {
        FaultModelBuilder::new(DemandSpace::new(4).unwrap())
            .singleton_faults()
            .build()
            .unwrap()
    }

    /// The demands `structure` fails on, and its pfd under `q`.
    fn evaluate(
        structure: &Structure,
        versions: &[&Version],
        m: &FaultModel,
        q: &UsageProfile,
    ) -> (Vec<usize>, f64) {
        let set = structure_failure_set(structure, versions, m).unwrap();
        let pfd = structure_system_pfd(structure, versions, m, q).unwrap();
        (set.iter().collect(), pfd)
    }

    #[test]
    fn one_out_of_n_fails_only_where_every_version_fails() {
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let v1 = Version::from_faults(&m, [f(0), f(1)]);
        let v2 = Version::from_faults(&m, [f(1), f(2)]);
        let v3 = Version::from_faults(&m, [f(1), f(3)]);
        let pair = Structure::one_out_of_n(2);
        // The pair shares only x1 → pair pfd = 0.25.
        assert_eq!(evaluate(&pair, &[&v1, &v2], &m, &q), (vec![1], 0.25));
        // All three share only x1 too.
        let three = Structure::one_out_of_n(3);
        assert_eq!(evaluate(&three, &[&v1, &v2, &v3], &m, &q), (vec![1], 0.25));
        // Adding a version can only help (the intersection shrinks).
        let four = Structure::one_out_of_n(4);
        let correct = Version::correct(&m);
        let (set, pfd) = evaluate(&four, &[&v1, &v2, &v3, &correct], &m, &q);
        assert!(set.is_empty() && pfd == 0.0);
        // Disjoint versions never fail together.
        let a = Version::from_faults(&m, [f(0)]);
        let b = Version::from_faults(&m, [f(3)]);
        assert_eq!(evaluate(&pair, &[&a, &b], &m, &q).1, 0.0);
        // Identical versions give no diversity.
        let (_, same) = evaluate(&pair, &[&v1, &v1], &m, &q);
        assert!((same - v1.pfd(&m, &q)).abs() < 1e-12);
    }

    #[test]
    fn single_version_system_is_the_version() {
        let m = model();
        let q = UsageProfile::from_weights(m.space(), vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let v = Version::from_faults(&m, [f(1), f(3)]);
        let (_, pfd) = evaluate(&Structure::one_out_of_n(1), &[&v], &m, &q);
        assert!((pfd - v.pfd(&m, &q)).abs() < 1e-12);
    }

    #[test]
    fn empty_system_is_a_typed_error() {
        let m = model();
        let none = Structure::one_out_of_n(0);
        assert!(matches!(
            structure_failure_set(&none, &[], &m),
            Err(CoreError::EmptyInput { .. })
        ));
        let q = UsageProfile::uniform(m.space());
        assert!(matches!(
            structure_system_pfd(&none, &[], &m, &q),
            Err(CoreError::EmptyInput { .. })
        ));
    }

    #[test]
    fn series_system_fails_when_any_version_fails() {
        let m = model();
        let q = UsageProfile::uniform(m.space());
        let v1 = Version::from_faults(&m, [f(0)]);
        let v2 = Version::from_faults(&m, [f(2)]);
        let s = Structure::series(2);
        let fs = structure_failure_set(&s, &[&v1, &v2], &m).unwrap();
        assert_eq!(fs.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert!((structure_system_pfd(&s, &[&v1, &v2], &m, &q).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_of_three_failure_set() {
        let m = model();
        let v1 = Version::from_faults(&m, [f(0), f(1)]);
        let v2 = Version::from_faults(&m, [f(1), f(2)]);
        let v3 = Version::from_faults(&m, [f(1), f(3)]);
        // 2-of-3 fails where ≥2 versions fail: x1 (all three), plus none
        // of x0/x2/x3 (single failures each).
        let s = Structure::k_of_n(2, 3);
        let fs = structure_failure_set(&s, &[&v1, &v2, &v3], &m).unwrap();
        assert_eq!(fs.iter().collect::<Vec<_>>(), vec![1]);
    }
}
