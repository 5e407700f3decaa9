//! Monte Carlo vs. exact cross-validation across the whole pipeline.
//!
//! The simulator (`diversim-sim`) must agree — within its own confidence
//! intervals — with the exact computations (`diversim-core`) on universes
//! small enough to enumerate. Imperfect regimes must land inside the §4
//! analytical bounds.

use diversim::core::bounds::{BackToBackBounds, ImperfectTestingBounds};
use diversim::core::marginal::{MarginalAnalysis, SuiteAssignment};
use diversim::prelude::*;
use diversim::sim::campaign::CampaignRegime;

fn setup(props: Vec<f64>) -> SimWorld {
    SimWorld::singleton_uniform("mc-vs-exact", props).unwrap()
}

#[test]
fn simulation_matches_exact_for_both_regimes() {
    let w = setup(vec![0.1, 0.3, 0.5, 0.7]);
    let suite_size = 3;
    let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 12).unwrap();
    // Seed 3 sits well inside the band for both regimes under the
    // vendored RNG (z ≈ -0.4 / +0.03 over a 30-seed probe of the
    // unbiased estimator); the 4σ tolerance below keeps the
    // deterministic assertion robust if the stream ever changes.
    let scenario = w.scenario().suite_size(suite_size).seed(3).build().unwrap();
    for (regime, assignment) in [
        (
            CampaignRegime::IndependentSuites,
            SuiteAssignment::independent(&m),
        ),
        (CampaignRegime::SharedSuite, SuiteAssignment::Shared(&m)),
    ] {
        let exact = MarginalAnalysis::compute(&w.pop_a, &w.pop_a, assignment, &w.profile);
        let est = scenario.with_regime(regime).unwrap().estimate(40_000, 4);
        assert!(
            (est.system_pfd.mean - exact.system_pfd()).abs()
                < 4.0 * est.system_pfd.standard_error + 1e-9,
            "MC {} vs exact {} under {regime:?}",
            est.system_pfd.mean,
            exact.system_pfd()
        );
        // Version pfds estimate E[Θ_T] = mean ζ.
        let mean_zeta = w
            .profile
            .expect(|x| diversim::core::difficulty::zeta(&w.pop_a, x, &m));
        assert!(
            (est.version_a_pfd.mean - mean_zeta).abs()
                < 5.0 * est.version_a_pfd.standard_error + 1e-9,
            "version pfd off: {} vs {}",
            est.version_a_pfd.mean,
            mean_zeta
        );
    }
}

#[test]
fn imperfect_oracle_lands_between_the_bounds() {
    let w = setup(vec![0.2, 0.4, 0.6, 0.8]);
    let suite_size = 4;
    let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 12).unwrap();
    let bounds = ImperfectTestingBounds::compute(
        &w.pop_a,
        &w.pop_a,
        SuiteAssignment::Shared(&m),
        &w.profile,
    );
    let scenario = w
        .scenario()
        .suite_size(suite_size)
        .seed(55)
        .build()
        .unwrap();
    for detect_prob in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let est = scenario
            .with_oracle(ImperfectOracle::new(detect_prob).unwrap())
            .estimate(30_000, 4);
        // Allow three standard errors of slack at the boundary cases.
        let slack = 3.0 * est.system_pfd.standard_error;
        assert!(
            est.system_pfd.mean >= bounds.lower - slack
                && est.system_pfd.mean <= bounds.upper + slack,
            "detect_prob {detect_prob}: {} outside [{}, {}]",
            est.system_pfd.mean,
            bounds.lower,
            bounds.upper
        );
    }
}

#[test]
fn imperfect_fixing_lands_between_the_bounds() {
    let w = setup(vec![0.3, 0.5, 0.7]);
    let suite_size = 3;
    let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 12).unwrap();
    let bounds = ImperfectTestingBounds::compute(
        &w.pop_a,
        &w.pop_a,
        SuiteAssignment::independent(&m),
        &w.profile,
    );
    let scenario = w
        .scenario()
        .suite_size(suite_size)
        .regime(CampaignRegime::IndependentSuites)
        .seed(66)
        .build()
        .unwrap();
    for fix_prob in [0.0, 0.3, 0.7, 1.0] {
        let est = scenario
            .with_fixer(ImperfectFixer::new(fix_prob).unwrap())
            .estimate(30_000, 4);
        let slack = 3.0 * est.system_pfd.standard_error;
        assert!(
            est.system_pfd.mean >= bounds.lower - slack
                && est.system_pfd.mean <= bounds.upper + slack,
            "fix_prob {fix_prob}: {} outside [{}, {}]",
            est.system_pfd.mean,
            bounds.lower,
            bounds.upper
        );
    }
}

#[test]
fn back_to_back_endpoints_hit_the_bounds_exactly() {
    // Singleton universe: γ=0 equals the optimistic (eq 23) value and γ=1
    // equals the pessimistic (untested) value, in expectation.
    let w = setup(vec![0.4, 0.8]);
    let suite_size = 2;
    let m = enumerate_iid_suites(&w.profile, suite_size, 1 << 10).unwrap();
    let bounds = BackToBackBounds::compute(&w.pop_a, &w.pop_a, &m, &w.profile);
    let scenario = w.scenario().suite_size(suite_size).build().unwrap();

    let optimistic = scenario
        .with_regime(CampaignRegime::BackToBack(IdenticalFailureModel::Never))
        .unwrap()
        .with_seed(77)
        .estimate(40_000, 4);
    assert!(
        (optimistic.system_pfd.mean - bounds.optimistic).abs()
            < 3.5 * optimistic.system_pfd.standard_error + 1e-9,
        "γ=0: {} vs optimistic bound {}",
        optimistic.system_pfd.mean,
        bounds.optimistic
    );

    let pessimistic = scenario
        .with_regime(CampaignRegime::BackToBack(IdenticalFailureModel::Always))
        .unwrap()
        .with_seed(78)
        .estimate(40_000, 4);
    assert!(
        (pessimistic.system_pfd.mean - bounds.pessimistic).abs()
            < 3.5 * pessimistic.system_pfd.standard_error + 1e-9,
        "γ=1: {} vs pessimistic bound {}",
        pessimistic.system_pfd.mean,
        bounds.pessimistic
    );

    // Intermediate γ strictly between the endpoints (statistically).
    let mid = scenario
        .with_regime(CampaignRegime::BackToBack(
            IdenticalFailureModel::Bernoulli(0.5),
        ))
        .unwrap()
        .with_seed(79)
        .estimate(40_000, 4);
    assert!(mid.system_pfd.mean > bounds.optimistic - 1e-9);
    assert!(mid.system_pfd.mean < bounds.pessimistic + 1e-9);
}

#[test]
fn growth_curves_converge_to_exact_marginals_at_each_checkpoint() {
    let w = setup(vec![0.3, 0.6, 0.9]);
    let checkpoints = [0usize, 1, 2, 3];
    let curve = w
        .scenario()
        .seed(88)
        .build()
        .unwrap()
        .growth(&checkpoints, 40_000, 4)
        .unwrap();
    for (i, &n) in checkpoints.iter().enumerate() {
        let m = enumerate_iid_suites(&w.profile, n, 1 << 10).unwrap();
        let exact =
            MarginalAnalysis::compute(&w.pop_a, &w.pop_a, SuiteAssignment::Shared(&m), &w.profile);
        let mean = curve.system[i].mean();
        let se = curve.system[i].standard_error();
        assert!(
            (mean - exact.system_pfd()).abs() < 4.0 * se + 1e-9,
            "checkpoint {n}: MC {mean} vs exact {}",
            exact.system_pfd()
        );
    }
}
