//! One simulated development-and-debugging campaign for a version pair.
//!
//! A campaign mirrors the paper's stochastic process end to end: draw
//! `Π_A ~ S_A`, `Π_B ~ S_B`, draw suite(s) from the generation procedure,
//! debug under the chosen regime (independent suites, shared suite or
//! back-to-back), and evaluate the resulting versions. The per-campaign
//! pfds are computed *exactly* over the demand space (no sampling of
//! operational demands), which Rao–Blackwellises the estimator: the only
//! Monte Carlo noise left is over versions and suites, exactly the
//! uncertainty the paper's expectations range over.
//!
//! Campaigns are launched through [`crate::scenario::Scenario::run`]; the
//! scenario supplies the world, the process knobs and the per-world
//! [`crate::prepared::Prepared`] cache the evaluation runs on.

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_testing::oracle::IdenticalFailureModel;
use diversim_testing::process::{back_to_back_debug, debug_version};
use diversim_universe::version::Version;

use crate::policy::PolicySpec;
use crate::scenario::Scenario;

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

/// Everything a campaign produced.
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

/// Runs one campaign of `scenario` (the body behind
/// [`Scenario::run`]).
///
/// `suite_size` demands are drawn per suite (one suite per version under
/// [`CampaignRegime::IndependentSuites`], one shared suite otherwise).
/// The oracle is consulted only under [`CampaignRegime::SharedSuite`] and
/// [`CampaignRegime::IndependentSuites`]; back-to-back supplies its own
/// detection semantics.
pub(crate) fn run_campaign(scenario: &Scenario, seed: u64) -> PairOutcome {
    if let CampaignRegime::Adaptive(spec) = scenario.regime() {
        return crate::policy::run_adaptive_campaign(scenario, spec, seed, None).0;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prepared = scenario.prepared();
    let model = prepared.model();
    let generator = scenario.generator();
    let suite_size = scenario.suite_size();
    let va = scenario.pop_a().sample(&mut rng);
    let vb = scenario.pop_b().sample(&mut rng);
    let first_pfd_before = prepared.version_pfd(&va);
    let second_pfd_before = prepared.version_pfd(&vb);
    let system_pfd_before = prepared.pair_pfd(&va, &vb);

    // Version B's own suite exists only under independent suites; the
    // shared regimes borrow version A's.
    let ta = generator.generate(&mut rng, suite_size);
    let own_tb = match scenario.regime() {
        CampaignRegime::IndependentSuites => Some(generator.generate(&mut rng, suite_size)),
        CampaignRegime::SharedSuite | CampaignRegime::BackToBack(_) => None,
        CampaignRegime::Adaptive(_) => unreachable!("adaptive campaigns are delegated above"),
    };
    let tb = own_tb.as_ref().unwrap_or(&ta);

    let (first, second) = match scenario.regime() {
        CampaignRegime::IndependentSuites | CampaignRegime::SharedSuite => {
            let a = debug_version(
                &va,
                &ta,
                model,
                scenario.oracle(),
                scenario.fixer(),
                &mut rng,
            );
            let b = debug_version(
                &vb,
                tb,
                model,
                scenario.oracle(),
                scenario.fixer(),
                &mut rng,
            );
            (a.version, b.version)
        }
        CampaignRegime::BackToBack(identical) => {
            let out =
                back_to_back_debug(&va, &vb, &ta, model, identical, scenario.fixer(), &mut rng);
            (out.first, out.second)
        }
        CampaignRegime::Adaptive(_) => unreachable!("adaptive campaigns are delegated above"),
    };

    PairOutcome {
        first_pfd: prepared.version_pfd(&first),
        second_pfd: prepared.version_pfd(&second),
        system_pfd: prepared.pair_pfd(&first, &second),
        first,
        second,
        first_pfd_before,
        second_pfd_before,
        system_pfd_before,
    }
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
        let b2b = shared.with_regime(CampaignRegime::BackToBack(IdenticalFailureModel::Never));
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
        let ind = sh.with_regime(CampaignRegime::IndependentSuites);
        let differs =
            (0..40).any(|seed| (ind.run(seed).system_pfd - sh.run(seed).system_pfd).abs() > 1e-15);
        assert!(differs, "regimes never differed — suspicious");
    }
}
