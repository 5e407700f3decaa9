//! Integration tests for the extension modules: exact imperfect-repair
//! closed forms vs the full simulation pipeline, diversity metrics on
//! tested pairs, adaptive stopping, and common-cause studies.

use diversim::core::imperfect::marginal_imperfect_iid;
use diversim::core::metrics::DiversityReport;
use diversim::core::testing_effect::TestingRegime;
use diversim::prelude::*;
use diversim::sim::campaign::CampaignRegime;
use diversim::sim::common_cause::MistakeMode;
use diversim::stats::stopping::StoppingRule;

fn singleton_setup(props: Vec<f64>) -> SimWorld {
    SimWorld::singleton_uniform("extensions", props).unwrap()
}

#[test]
fn imperfect_closed_form_matches_full_pipeline() {
    // ρ = d·r: any (detect, fix) split with the same product gives the
    // same closed-form value, and the full campaign simulation agrees.
    let w = singleton_setup(vec![0.2, 0.4, 0.6, 0.8]);
    let n = 6;
    let base = w.scenario().suite_size(n).build().unwrap();
    for (detect, fix) in [(0.8, 0.75), (0.75, 0.8), (0.6, 1.0), (1.0, 0.6)] {
        let rho: f64 = 0.6;
        assert!(
            (detect * fix - rho).abs() < 1e-12,
            "test setup: products differ"
        );
        for (regime, campaign) in [
            (
                TestingRegime::IndependentSuites,
                CampaignRegime::IndependentSuites,
            ),
            (TestingRegime::SharedSuite, CampaignRegime::SharedSuite),
        ] {
            let closed =
                marginal_imperfect_iid(&w.pop_a, &w.pop_a, &w.profile, &w.profile, n, rho, regime)
                    .unwrap();
            let est = base
                .with_regime(campaign)
                .unwrap()
                .with_oracle(ImperfectOracle::new(detect).unwrap())
                .with_fixer(ImperfectFixer::new(fix).unwrap())
                .with_seed((detect * 1000.0) as u64 + (fix * 100.0) as u64)
                .estimate(40_000, 4);
            assert!(
                (est.system_pfd.mean - closed).abs() < 4.0 * est.system_pfd.standard_error + 1e-9,
                "pipeline {} vs closed form {closed} at d={detect}, r={fix}, {regime}",
                est.system_pfd.mean
            );
        }
    }
}

#[test]
fn shared_suite_raises_measured_failure_correlation() {
    // The diversity metrics should *see* the eq-20 coupling: across many
    // campaigns, tested pairs from a shared suite have a higher mean
    // failure correlation than pairs tested independently.
    let w = singleton_setup(vec![0.3, 0.5, 0.7, 0.9]);
    let model = w.model().clone();
    let base = w.scenario().suite_size(3).build().unwrap();
    let indep = base.with_regime(CampaignRegime::IndependentSuites).unwrap();
    let mut corr_shared = diversim::stats::online::MeanVar::new();
    let mut corr_indep = diversim::stats::online::MeanVar::new();
    for seed in 0..4_000 {
        for (scenario, acc) in [(&base, &mut corr_shared), (&indep, &mut corr_indep)] {
            let out = scenario.run(seed);
            let r = DiversityReport::compute(&out.first, &out.second, &model, &w.profile);
            acc.push(r.correlation);
        }
    }
    assert!(
        corr_shared.mean() > corr_indep.mean() + 2.0 * corr_shared.standard_error(),
        "shared {} vs independent {}",
        corr_shared.mean(),
        corr_indep.mean()
    );
}

#[test]
fn adaptive_rule_beats_fixed_budget_of_equal_mean_size() {
    // Adaptivity concentrates effort on unlucky (buggy) draws: at equal
    // mean testing effort the adaptive campaign achieves a pfd no worse
    // than a fixed-size campaign (statistically).
    let w = singleton_setup(vec![0.5; 12]);
    let scenario = w.scenario().build().unwrap();
    let rule = StoppingRule::FailureFree {
        target: 0.05,
        confidence: 0.9,
    };
    let adaptive = scenario
        .with_seed(42)
        .adaptive_study(rule, 100_000, 0.05, 1_500, 4);
    let budget = adaptive.demands.mean().round() as u64;
    let fixed = scenario.with_seed(43).adaptive_study(
        StoppingRule::FixedSize(budget),
        100_000,
        0.05,
        1_500,
        4,
    );
    assert!(
        adaptive.target_met_rate >= fixed.target_met_rate - 0.05,
        "adaptive {} vs fixed {} at equal mean budget {budget}",
        adaptive.target_met_rate,
        fixed.target_met_rate
    );
}

#[test]
fn common_mistakes_on_clean_versions_collide_always() {
    // On a fault-free population a single common mistake forces a
    // coincident failure with probability 1; independent mistakes collide
    // with probability 1/faults.
    let scenario = singleton_setup(vec![0.0; 8])
        .scenario()
        .seed(7)
        .build()
        .unwrap();
    let common = scenario.mistakes(1, MistakeMode::Common, 2_000, 4);
    let indep = scenario.mistakes(1, MistakeMode::Independent, 2_000, 4);
    // Every common-mistake pair fails together on 1 of 8 demands.
    assert!((common.system_pfd.mean() - 0.125).abs() < 1e-12);
    // Independent mistakes collide 1/8 of the time → mean 0.125/8.
    assert!((indep.system_pfd.mean() - 0.125 / 8.0).abs() < 0.01);
}

#[test]
fn serde_feature_types_roundtrip_via_debug() {
    // Compile-level check that the extension types expose the standard
    // traits (Debug/Clone/PartialEq) the guidelines require.
    fn assert_traits<T: std::fmt::Debug + Clone + PartialEq>() {}
    assert_traits::<diversim::core::metrics::DiversityReport>();
    assert_traits::<diversim::sim::adaptive::AdaptiveOutcome>();
    assert_traits::<diversim::sim::common_cause::MistakeStudy>();
}
