//! Operational exposure of a deployed (tested) system, and assessment
//! from observed behaviour.
//!
//! After debugging, the 1-out-of-2 system goes into operation: demands
//! arrive from `Q(·)`, and the system fails when both versions fail
//! simultaneously. An assessor only sees the failure record, so the
//! system pfd must be *estimated* — here with the Clopper–Pearson
//! interval from `diversim-stats` — and the experiments can measure how
//! well such assessment works (coverage of the true, known pfd).
//! Operation is launched through [`crate::scenario::Scenario::operate`]
//! and [`crate::scenario::Scenario::coverage`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_stats::ci::{clopper_pearson, Interval};
use diversim_stats::reduce::{Count, Sum};
use diversim_universe::version::Version;

use crate::scenario::Scenario;

/// What operation of a version pair produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperationLog {
    /// Demands executed.
    pub demands: u64,
    /// Demands on which version A failed.
    pub failures_a: u64,
    /// Demands on which version B failed.
    pub failures_b: u64,
    /// Demands on which both failed — system failures.
    pub system_failures: u64,
}

impl OperationLog {
    /// Clopper–Pearson interval for the system pfd at `level`.
    ///
    /// # Panics
    ///
    /// Panics if no demands were run (an assessment needs exposure).
    pub fn system_pfd_interval(&self, level: f64) -> Interval {
        clopper_pearson(self.system_failures, self.demands, level)
            .expect("demands > 0 and level validated upstream")
    }
}

/// The body behind [`Scenario::operate`]: exposes a version pair to
/// `demands` operational demands drawn from the scenario's profile,
/// recording version and system failures.
pub(crate) fn operate(
    scenario: &Scenario,
    a: &Version,
    b: &Version,
    demands: u64,
    seed: u64,
) -> OperationLog {
    let mut rng = StdRng::seed_from_u64(seed);
    let prepared = scenario.prepared();
    let model = prepared.model();
    let profile = prepared.profile();
    let fa = a.failure_set(model);
    let fb = b.failure_set(model);
    let mut log = OperationLog {
        demands,
        failures_a: 0,
        failures_b: 0,
        system_failures: 0,
    };
    for _ in 0..demands {
        let x = profile.sample(&mut rng);
        let ia = fa.contains(x.index());
        let ib = fb.contains(x.index());
        if ia {
            log.failures_a += 1;
        }
        if ib {
            log.failures_b += 1;
        }
        if ia && ib {
            log.system_failures += 1;
        }
    }
    log
}

/// Result of a coverage study: how often the assessment interval covered
/// the true pfd.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageStudy {
    /// Fraction of replications whose interval contained the true value.
    pub coverage: f64,
    /// Mean interval width.
    pub mean_width: f64,
    /// Replications run.
    pub replications: u64,
}

/// The body behind [`Scenario::coverage`]: empirical coverage of the
/// Clopper–Pearson assessment of a *fixed* pair's system pfd across
/// replicated operational exposures. `level` is validated by the
/// scenario.
pub(crate) fn coverage(
    scenario: &Scenario,
    a: &Version,
    b: &Version,
    demands: u64,
    level: f64,
    replications: u64,
    threads: usize,
) -> CoverageStudy {
    let truth = scenario.prepared().pair_pfd(a, b);
    let (hits, width_sum) = scenario.reduce(replications, threads, &(Count, Sum), |seed| {
        let log = operate(scenario, a, b, demands, seed);
        let iv = log.system_pfd_interval(level);
        (iv.contains(truth), iv.width())
    });
    let n = replications.max(1) as f64;
    CoverageStudy {
        coverage: hits as f64 / n,
        mean_width: width_sum / n,
        replications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use diversim_core::structure::Structure;
    use diversim_core::system::structure_system_pfd;
    use diversim_universe::fault::FaultId;

    fn f(i: u32) -> FaultId {
        FaultId::new(i)
    }

    fn scenario(seed: u64) -> Scenario {
        World::singleton_uniform("operation-test", vec![0.0; 8])
            .unwrap()
            .scenario()
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn operation_counts_are_consistent() {
        let s = scenario(0);
        let m = s.model().clone();
        let a = Version::from_faults(&m, [f(0), f(1), f(2)]);
        let b = Version::from_faults(&m, [f(2), f(3)]);
        let log = s.operate(&a, &b, 10_000, 1);
        assert_eq!(log.demands, 10_000);
        assert!(log.system_failures <= log.failures_a.min(log.failures_b));
        // Empirical rates near the exact values.
        let pair = Structure::one_out_of_n(2);
        let truth = structure_system_pfd(&pair, &[&a, &b], &m, s.profile()).unwrap();
        let rate = log.system_failures as f64 / log.demands as f64;
        assert!((rate - truth).abs() < 0.02);
    }

    #[test]
    fn correct_pair_never_fails_in_operation() {
        let s = scenario(0);
        let v = Version::correct(s.model());
        let log = s.operate(&v, &v, 5_000, 2);
        assert_eq!(log.system_failures, 0);
        assert_eq!(log.failures_a, 0);
        let iv = log.system_pfd_interval(0.95);
        assert_eq!(iv.lo, 0.0);
        assert!(iv.hi < 0.002, "failure-free bound should be ~3/n");
    }

    #[test]
    fn operation_is_seed_deterministic() {
        let s = scenario(0);
        let m = s.model().clone();
        let a = Version::from_faults(&m, [f(0)]);
        let b = Version::from_faults(&m, [f(0), f(5)]);
        assert_eq!(s.operate(&a, &b, 1000, 9), s.operate(&a, &b, 1000, 9));
    }

    #[test]
    fn clopper_pearson_coverage_is_at_least_nominal() {
        let s = scenario(11);
        let m = s.model().clone();
        let a = Version::from_faults(&m, [f(0), f(1)]);
        let b = Version::from_faults(&m, [f(1), f(2)]);
        // True system pfd = 1/8.
        let study = s.coverage(&a, &b, 400, 0.95, 2_000, 4).unwrap();
        assert!(
            study.coverage >= 0.95 - 0.02,
            "CP coverage {} below nominal",
            study.coverage
        );
        assert!(study.mean_width > 0.0);
    }

    #[test]
    fn more_exposure_narrows_the_assessment() {
        let s = scenario(12);
        let m = s.model().clone();
        let a = Version::from_faults(&m, [f(0), f(1)]);
        let b = Version::from_faults(&m, [f(1), f(2)]);
        let short = s.coverage(&a, &b, 100, 0.95, 400, 4).unwrap();
        let long = s.coverage(&a, &b, 10_000, 0.95, 400, 4).unwrap();
        assert!(long.mean_width < short.mean_width / 3.0);
    }
}
