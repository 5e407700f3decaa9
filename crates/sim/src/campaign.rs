//! The paper's pair campaign, and the regime dispatch every campaign
//! shares.
//!
//! A campaign mirrors the paper's stochastic process end to end: draw
//! `Π_A ~ S_A`, `Π_B ~ S_B`, debug under the chosen regime, and evaluate
//! the resulting versions. The per-campaign pfds are computed *exactly*
//! over the demand space (no sampling of operational demands), which
//! Rao–Blackwellises the estimator: the only Monte Carlo noise left is
//! over versions and suites, exactly the uncertainty the paper's
//! expectations range over.
//!
//! The pair campaign is the system campaign of [`crate::system`] over
//! [`Structure::one_out_of_n`]`(2)`: [`crate::scenario::Scenario::run`]
//! returns that campaign's outcome as a [`PairOutcome`], components 0
//! and 1. `debug_in_regime` is the one place a regime becomes
//! debugging: the campaign and the policy studies ([`crate::policy`])
//! draw their versions and hand them to it.

use std::sync::LazyLock;

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_core::structure::Structure;
use diversim_testing::oracle::IdenticalFailureModel;
use diversim_testing::process::{back_to_back_debug, debug_in_place};
use diversim_testing::suite::TestSuite;
use diversim_universe::version::Version;

use crate::policy::{AllocationProfile, PolicySpec, PolicyStep};
use crate::scenario::Scenario;

/// The paper's 1-out-of-2 pair, built once for every pair campaign.
pub(crate) static PAIR: LazyLock<Structure> = LazyLock::new(|| Structure::one_out_of_n(2));

/// The testing regime a campaign runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignRegime {
    /// Each version debugged on its own independently generated suite.
    IndependentSuites,
    /// Both versions debugged on one shared suite, each judged by the
    /// external oracle.
    SharedSuite,
    /// Both versions executed back-to-back on one shared suite; detection
    /// by output comparison under the given identical-failure model.
    BackToBack(IdenticalFailureModel),
    /// The pair debugged demand by demand under a [`PolicySpec`]-driven
    /// allocation of a shared execution budget (the scenario's
    /// `suite_size`); see [`crate::policy`].
    Adaptive(PolicySpec),
}

/// Everything a pair campaign produced: the two-component view of a
/// system campaign over [`Structure::one_out_of_n`]`(2)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PairOutcome {
    /// Version A after debugging.
    pub first: Version,
    /// Version B after debugging.
    pub second: Version,
    /// pfd of version A after debugging (exact over the demand space).
    pub first_pfd: f64,
    /// pfd of version B after debugging.
    pub second_pfd: f64,
    /// 1-out-of-2 system pfd of the tested pair.
    pub system_pfd: f64,
    /// pfd of version A before debugging.
    pub first_pfd_before: f64,
    /// pfd of version B before debugging.
    pub second_pfd_before: f64,
    /// System pfd of the pair before debugging.
    pub system_pfd_before: f64,
}

/// Debugs freshly drawn `versions` in place under the scenario's regime,
/// continuing the campaign's `rng` stream:
///
/// * independent suites — one suite of `suite_size` demands per version,
///   generated in version order, then each version debugged on its own;
/// * shared suite — one suite, every version debugged on it in order;
/// * back-to-back — one suite, the pair compared demand by demand;
/// * adaptive — the pair under [`crate::policy::allocate`], which appends
///   each decision to `steps` when given.
///
/// Returns the realised allocation profile (empty for the suite
/// regimes). Pair-only regimes require exactly two versions, which
/// scenario validation guarantees.
pub(crate) fn debug_in_regime(
    scenario: &Scenario,
    versions: &mut [Version],
    rng: &mut StdRng,
    steps: Option<&mut Vec<PolicyStep>>,
) -> AllocationProfile {
    let model = scenario.model();
    let (oracle, fixer) = (scenario.oracle(), scenario.fixer());
    let generate = |rng: &mut StdRng| scenario.generator().generate(rng, scenario.suite_size());
    match (scenario.regime(), versions) {
        (CampaignRegime::IndependentSuites, versions) => {
            let suites: Vec<TestSuite> = versions.iter().map(|_| generate(rng)).collect();
            for (version, suite) in versions.iter_mut().zip(&suites) {
                debug_in_place(version, suite, model, oracle, fixer, rng);
            }
        }
        (CampaignRegime::SharedSuite, versions) => {
            let suite = generate(rng);
            for version in versions {
                debug_in_place(version, &suite, model, oracle, fixer, rng);
            }
        }
        (CampaignRegime::BackToBack(identical), [first, second]) => {
            let suite = generate(rng);
            back_to_back_debug(first, second, &suite, model, identical, fixer, rng);
        }
        (CampaignRegime::Adaptive(spec), [first, second]) => {
            return crate::policy::allocate(scenario, spec, first, second, rng, steps);
        }
        (_, versions) => unreachable!(
            "pair-only regime validated against two versions, got {}",
            versions.len()
        ),
    }
    AllocationProfile::default()
}

/// The allocation profile of one adaptive campaign (the body behind
/// [`Scenario::policy_trace`] and [`Scenario::policy_study`]), with the
/// debugged pair it was realised on: `Π_A ~ S_A`, then `Π_B ~ S_B`,
/// drawn and debugged exactly as in the pair campaign, with no pfd
/// evaluated.
pub(crate) fn allocation_profile(
    scenario: &Scenario,
    seed: u64,
    steps: Option<&mut Vec<PolicyStep>>,
) -> (AllocationProfile, [Version; 2]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pair = [0, 1].map(|i| scenario.component(i).sample(&mut rng));
    let profile = debug_in_regime(scenario, &mut pair, &mut rng, steps);
    (profile, pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn scenario(props: Vec<f64>, size: usize, regime: CampaignRegime) -> Scenario {
        World::singleton_uniform("campaign-test", props)
            .unwrap()
            .scenario()
            .suite_size(size)
            .regime(regime)
            .build()
            .unwrap()
    }

    #[test]
    fn campaign_is_seed_deterministic() {
        let s = scenario(vec![0.3, 0.6, 0.2], 4, CampaignRegime::SharedSuite);
        assert_eq!(s.run(99), s.run(99));
    }

    #[test]
    fn debugging_never_hurts_with_perfect_testing() {
        let s = scenario(vec![0.5; 4], 6, CampaignRegime::IndependentSuites);
        for seed in 0..50 {
            let out = s.run(seed);
            assert!(out.first_pfd <= out.first_pfd_before + 1e-15);
            assert!(out.second_pfd <= out.second_pfd_before + 1e-15);
            assert!(out.system_pfd <= out.system_pfd_before + 1e-15);
        }
    }

    #[test]
    fn zero_size_suite_changes_nothing() {
        let s = scenario(vec![0.7, 0.7], 0, CampaignRegime::SharedSuite);
        let out = s.run(5);
        assert_eq!(out.first_pfd, out.first_pfd_before);
        assert_eq!(out.system_pfd, out.system_pfd_before);
    }

    #[test]
    fn back_to_back_never_identical_matches_shared_perfect_oracle() {
        // With IdenticalFailureModel::Never and a perfect fixer, b2b on the
        // shared suite produces exactly the perfect-oracle shared outcome.
        let shared = scenario(vec![0.4, 0.6, 0.8], 5, CampaignRegime::SharedSuite);
        let b2b = shared
            .with_regime(CampaignRegime::BackToBack(IdenticalFailureModel::Never))
            .unwrap();
        for seed in 0..30 {
            let b = b2b.run(seed);
            let s = shared.run(seed);
            // Same seed → same versions and same shared suite; perfect
            // detection in both → identical end states.
            assert_eq!(b.first, s.first);
            assert_eq!(b.second, s.second);
        }
    }

    #[test]
    fn back_to_back_pessimistic_keeps_system_pfd_singleton() {
        // Singleton regions: the §4.2 worst case is exact — system pfd
        // after pessimistic b2b equals system pfd before.
        let s = scenario(
            vec![0.5; 5],
            10,
            CampaignRegime::BackToBack(IdenticalFailureModel::Always),
        );
        for seed in 0..50 {
            let out = s.run(seed);
            assert!(
                (out.system_pfd - out.system_pfd_before).abs() < 1e-15,
                "pessimistic b2b changed system pfd at seed {seed}"
            );
        }
    }

    #[test]
    fn independent_suites_actually_differ_from_shared() {
        // Statistical sanity: across many seeds the regimes should not
        // produce identical system pfds every time.
        let sh = scenario(vec![0.5; 3], 2, CampaignRegime::SharedSuite);
        let ind = sh.with_regime(CampaignRegime::IndependentSuites).unwrap();
        let differs =
            (0..40).any(|seed| (ind.run(seed).system_pfd - sh.run(seed).system_pfd).abs() > 1e-15);
        assert!(differs, "regimes never differed — suspicious");
    }
}
