//! Debugging campaigns: executing a suite, judging failures, fixing
//! faults.
//!
//! The central semantics of §3: under a perfect oracle and perfect fixing,
//! running suite `t` against version `π` leaves exactly the faults whose
//! failure regions are disjoint from `t` ("it is sufficient for such a
//! change that x belong to the test suite … The inclusion of x in the test
//! suite, however, is not necessary for the score on x to change from 1 to
//! 0"). [`perfect_debug`] implements that closed form.
//!
//! The general process is written once per test demand: [`debug_step`]
//! is the §4.1 rule (the oracle judges a failure, the fixer repairs a
//! detected one) and [`back_to_back_step`] the §4.2 rule (the two
//! versions' outputs are compared instead). [`debug_in_place`] and
//! [`debug_version`] run a suite through `debug_step`;
//! [`back_to_back_debug`] runs a shared suite through
//! `back_to_back_step`.

use rand::RngCore;

use diversim_universe::demand::DemandId;
use diversim_universe::fault::FaultModel;
use diversim_universe::version::Version;

use crate::fixing::Fixer;
use crate::oracle::{IdenticalFailureModel, Oracle};
use crate::suite::TestSuite;

/// Result of debugging one version.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugOutcome {
    /// The version after testing.
    pub version: Version,
}

/// The closed form for perfect oracle + perfect fixing: the tested version
/// keeps exactly the faults whose failure regions are disjoint from the
/// suite's covered demands. Deterministic; no randomness is involved.
///
/// # Examples
///
/// ```
/// use diversim_testing::process::perfect_debug;
/// use diversim_testing::suite::TestSuite;
/// use diversim_universe::demand::{DemandId, DemandSpace};
/// use diversim_universe::fault::{FaultId, FaultModelBuilder};
/// use diversim_universe::version::Version;
///
/// let space = DemandSpace::new(3).unwrap();
/// let model = FaultModelBuilder::new(space)
///     .fault([DemandId::new(0), DemandId::new(1)])
///     .fault([DemandId::new(2)])
///     .build()
///     .unwrap();
/// let v = Version::from_faults(&model, [FaultId::new(0), FaultId::new(1)]);
/// let t = TestSuite::from_demands(space, vec![DemandId::new(1)]).unwrap();
/// let tested = perfect_debug(&v, &t, &model);
/// // Fault 0 (region {0,1}) is triggered and removed — including demand 0,
/// // which was never tested. Fault 1 (region {2}) survives.
/// assert!(!tested.fails_on(&model, DemandId::new(0)));
/// assert!(tested.fails_on(&model, DemandId::new(2)));
/// ```
pub fn perfect_debug(version: &Version, suite: &TestSuite, model: &FaultModel) -> Version {
    let covered = suite.demand_set();
    let doomed: Vec<_> = version
        .faults()
        .filter(|&f| model.triggered_by(f, covered))
        .collect();
    let mut tested = version.clone();
    tested.remove_faults(doomed);
    tested
}

/// One §4.1 test demand: executes `x` on `version`; `oracle` judges a
/// failure, and `fixer` repairs a detected one. Returns whether a
/// failure was detected.
///
/// The oracle is asked only on a failure and the fixer only on a
/// detection, so a passing demand draws nothing from `rng`.
pub fn debug_step(
    version: &mut Version,
    x: DemandId,
    model: &FaultModel,
    oracle: &dyn Oracle,
    fixer: &dyn Fixer,
    rng: &mut dyn RngCore,
) -> bool {
    let detected = version.fails_on(model, x) && oracle.detects(rng, x);
    if detected {
        fixer.fix(rng, model, version, x);
    }
    detected
}

/// Runs the sequential debugging process on `version` in place: the
/// demands of `suite` are executed in suite order, each through
/// [`debug_step`].
///
/// With a perfect oracle and perfect fixer the result equals
/// [`perfect_debug`] (order is immaterial in that case); with imperfect
/// components the outcome is random and order-dependent, which is exactly
/// the §4.1 setting.
pub fn debug_in_place(
    version: &mut Version,
    suite: &TestSuite,
    model: &FaultModel,
    oracle: &dyn Oracle,
    fixer: &dyn Fixer,
    rng: &mut dyn RngCore,
) {
    for &x in suite.demands() {
        debug_step(version, x, model, oracle, fixer, rng);
    }
}

/// [`debug_in_place`] on a copy of `version`.
pub fn debug_version(
    version: &Version,
    suite: &TestSuite,
    model: &FaultModel,
    oracle: &dyn Oracle,
    fixer: &dyn Fixer,
    rng: &mut dyn RngCore,
) -> DebugOutcome {
    let mut version = version.clone();
    debug_in_place(&mut version, suite, model, oracle, fixer, rng);
    DebugOutcome { version }
}

/// One §4.2 back-to-back demand: both versions execute `x`, and a
/// failure is detected by output mismatch, so no external oracle is
/// needed.
///
/// * exactly one version fails → mismatch, the failure is detected and the
///   failing version is fixed;
/// * both fail → detected only if the wrong outputs differ, governed by
///   `identical`; when detected, *both* versions are fixed.
pub fn back_to_back_step(
    first: &mut Version,
    second: &mut Version,
    x: DemandId,
    model: &FaultModel,
    identical: IdenticalFailureModel,
    fixer: &dyn Fixer,
    rng: &mut dyn RngCore,
) {
    let first_fails = first.fails_on(model, x);
    let second_fails = second.fails_on(model, x);
    if first_fails && second_fails && identical.is_identical(rng) {
        return;
    }
    if first_fails {
        fixer.fix(rng, model, first, x);
    }
    if second_fails {
        fixer.fix(rng, model, second, x);
    }
}

/// Back-to-back testing (§4.2) on the pair in place: both versions
/// execute every demand of the shared suite, in suite order, through
/// [`back_to_back_step`].
///
/// With [`IdenticalFailureModel::Never`] the procedure is equivalent to
/// debugging both versions on the shared suite with a perfect oracle
/// (the paper's optimistic bound); with [`IdenticalFailureModel::Always`]
/// coincident failures are never repaired (the pessimistic bound).
pub fn back_to_back_debug(
    first: &mut Version,
    second: &mut Version,
    suite: &TestSuite,
    model: &FaultModel,
    identical: IdenticalFailureModel,
    fixer: &dyn Fixer,
    rng: &mut dyn RngCore,
) {
    for &x in suite.demands() {
        back_to_back_step(first, second, x, model, identical, fixer, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixing::{ImperfectFixer, PerfectFixer};
    use crate::oracle::{ImperfectOracle, PerfectOracle};
    use diversim_universe::demand::{DemandId, DemandSpace};
    use diversim_universe::fault::{FaultId, FaultModelBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn d(i: u32) -> DemandId {
        DemandId::new(i)
    }

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    fn space(n: usize) -> DemandSpace {
        DemandSpace::new(n).unwrap()
    }

    /// 4 demands; fault 0 → {0,1}, fault 1 → {1,2}, fault 2 → {3}.
    fn model() -> FaultModel {
        FaultModelBuilder::new(space(4))
            .fault([d(0), d(1)])
            .fault([d(1), d(2)])
            .fault([d(3)])
            .build()
            .unwrap()
    }

    #[test]
    fn perfect_debug_removes_triggered_faults_only() {
        let m = model();
        let v = Version::from_faults(&m, [f(0), f(1), f(2)]);
        let t = TestSuite::from_demands(m.space(), vec![d(2)]).unwrap();
        let tested = perfect_debug(&v, &t, &m);
        // Demand 2 triggers fault 1 only.
        assert!(!tested.has_fault(f(1)));
        assert!(tested.has_fault(f(0)));
        assert!(tested.has_fault(f(2)));
    }

    #[test]
    fn perfect_debug_with_empty_suite_is_identity() {
        let m = model();
        let v = Version::from_faults(&m, [f(0), f(2)]);
        let tested = perfect_debug(&v, &TestSuite::empty(m.space()), &m);
        assert_eq!(tested, v);
    }

    #[test]
    fn perfect_debug_with_exhaustive_suite_fixes_everything() {
        let m = model();
        let v = Version::from_faults(&m, [f(0), f(1), f(2)]);
        let tested = perfect_debug(&v, &TestSuite::exhaustive(m.space()), &m);
        assert!(tested.is_correct());
    }

    #[test]
    fn sequential_perfect_equals_closed_form() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(0);
        // Every subset of faults × a few suites.
        let suites = [
            TestSuite::empty(m.space()),
            TestSuite::from_demands(m.space(), vec![d(1)]).unwrap(),
            TestSuite::from_demands(m.space(), vec![d(3), d(0)]).unwrap(),
            TestSuite::exhaustive(m.space()),
        ];
        for mask in 0u32..8 {
            let faults: Vec<FaultId> = (0..3)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| f(i as u32))
                .collect();
            let v = Version::from_faults(&m, faults);
            for t in &suites {
                let closed = perfect_debug(&v, t, &m);
                let seq = debug_version(
                    &v,
                    t,
                    &m,
                    &PerfectOracle::new(),
                    &PerfectFixer::new(),
                    &mut rng,
                );
                assert_eq!(seq.version, closed, "mismatch for mask {mask} suite {t}");
            }
        }
    }

    #[test]
    fn sequential_debugging_fixes_each_failing_demand() {
        let m = model();
        let v = Version::from_faults(&m, [f(0), f(1)]);
        let t = TestSuite::from_demands(m.space(), vec![d(0), d(1), d(3)]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = debug_version(
            &v,
            &t,
            &m,
            &PerfectOracle::new(),
            &PerfectFixer::new(),
            &mut rng,
        );
        // Demand 0 fails (fault 0) → removes fault 0; demand 1 still fails
        // (fault 1) → removes fault 1; demand 3 passes.
        assert!(out.version.is_correct());
    }

    #[test]
    fn blind_oracle_never_fixes() {
        let m = model();
        let v = Version::from_faults(&m, [f(0)]);
        let t = TestSuite::exhaustive(m.space());
        let mut rng = StdRng::seed_from_u64(2);
        let out = debug_version(
            &v,
            &t,
            &m,
            &ImperfectOracle::new(0.0).unwrap(),
            &PerfectFixer::new(),
            &mut rng,
        );
        assert_eq!(out.version, v);
    }

    #[test]
    fn imperfect_outcome_bounded_by_perfect_and_untested() {
        // §4.1: tested scores are no better than perfect testing and no
        // worse than no testing. In fault terms: perfect ⊆ imperfect ⊆
        // original.
        let m = model();
        let v = Version::from_faults(&m, [f(0), f(1), f(2)]);
        let t = TestSuite::from_demands(m.space(), vec![d(1), d(3)]).unwrap();
        let perfect = perfect_debug(&v, &t, &m);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let out = debug_version(
                &v,
                &t,
                &m,
                &ImperfectOracle::new(0.5).unwrap(),
                &ImperfectFixer::new(0.5).unwrap(),
                &mut rng,
            );
            assert!(
                perfect.fault_set().is_subset(out.version.fault_set()),
                "imperfect testing removed a fault perfect testing kept"
            );
            assert!(
                out.version.fault_set().is_subset(v.fault_set()),
                "imperfect testing added a fault"
            );
        }
    }

    #[test]
    fn back_to_back_never_identical_equals_perfect_oracle() {
        let m = model();
        let v1 = Version::from_faults(&m, [f(0), f(2)]);
        let v2 = Version::from_faults(&m, [f(1), f(2)]);
        let t = TestSuite::exhaustive(m.space());
        let mut rng = StdRng::seed_from_u64(4);
        let (mut first, mut second) = (v1.clone(), v2.clone());
        back_to_back_debug(
            &mut first,
            &mut second,
            &t,
            &m,
            IdenticalFailureModel::Never,
            &PerfectFixer::new(),
            &mut rng,
        );
        assert_eq!(first, perfect_debug(&v1, &t, &m));
        assert_eq!(second, perfect_debug(&v2, &t, &m));
    }

    #[test]
    fn back_to_back_always_identical_skips_coincident_failures() {
        let m = model();
        // Both versions share fault 2 (region {3}) — a coincident failure
        // on demand 3 that pessimistic b2b can never see.
        let mut first = Version::from_faults(&m, [f(0), f(2)]);
        let mut second = Version::from_faults(&m, [f(2)]);
        let t = TestSuite::exhaustive(m.space());
        let mut rng = StdRng::seed_from_u64(5);
        back_to_back_debug(
            &mut first,
            &mut second,
            &t,
            &m,
            IdenticalFailureModel::Always,
            &PerfectFixer::new(),
            &mut rng,
        );
        // The shared fault survives in both versions.
        assert!(first.has_fault(f(2)));
        assert!(second.has_fault(f(2)));
        // The non-shared fault of v1 is caught via mismatch.
        assert!(!first.has_fault(f(0)));
    }

    #[test]
    fn back_to_back_pessimistic_system_failures_survive_singleton() {
        // With singleton regions (the paper's pure score model), the
        // pessimistic bound is exact: the system's failure set is
        // untouched by back-to-back testing.
        let m = FaultModelBuilder::new(space(3))
            .singleton_faults()
            .build()
            .unwrap();
        let mut first = Version::from_faults(&m, [f(0), f(1)]);
        let mut second = Version::from_faults(&m, [f(1), f(2)]);
        let t = TestSuite::exhaustive(m.space());
        let mut rng = StdRng::seed_from_u64(6);
        back_to_back_debug(
            &mut first,
            &mut second,
            &t,
            &m,
            IdenticalFailureModel::Always,
            &PerfectFixer::new(),
            &mut rng,
        );
        // Coincident failure on demand 1 remains in both versions.
        assert!(first.fails_on(&m, d(1)));
        assert!(second.fails_on(&m, d(1)));
        // All single failures were repaired.
        assert!(!first.fails_on(&m, d(0)));
        assert!(!second.fails_on(&m, d(2)));
    }

    #[test]
    fn back_to_back_fixes_single_failures_in_order() {
        let m = model();
        let mut first = Version::from_faults(&m, [f(0)]); // fails on 0, 1
        let mut second = Version::from_faults(&m, [f(1)]); // fails on 1, 2
        let t = TestSuite::exhaustive(m.space()); // demands 0..4 in order
        let mut rng = StdRng::seed_from_u64(7);
        back_to_back_debug(
            &mut first,
            &mut second,
            &t,
            &m,
            IdenticalFailureModel::Never,
            &PerfectFixer::new(),
            &mut rng,
        );
        // Demand 0: only v1 fails → single failure, fault 0 fixed.
        // Demand 1: v1 already fixed, v2 fails → single failure, fault 1
        // fixed. Demand 2, 3: no failures.
        assert!(first.is_correct() && second.is_correct());
    }
}
