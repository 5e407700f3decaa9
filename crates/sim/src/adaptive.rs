//! Adaptive test campaigns driven by stopping rules.
//!
//! §2 of the paper: "the size of the test suite … is determined with
//! respect to some stopping rule which gives the tester sufficiently high
//! confidence that the goal (e.g. targeted reliability) has been
//! achieved" (citing Littlewood & Wright, the paper's ref \[3\]). This
//! module debugs a version demand-by-demand until a
//! [`diversim_stats::stopping::StoppingRule`] fires, and measures what
//! the rule actually delivers: how many demands were spent and whether
//! the achieved pfd meets the target. Adaptive studies are launched
//! through [`crate::scenario::Scenario::adaptive`] and
//! [`crate::scenario::Scenario::adaptive_study`]; demands are drawn
//! i.i.d. from the scenario's operational profile, and each one is one
//! [`debug_step`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_stats::online::MeanVar;
use diversim_stats::reduce::{Count, Moments};
use diversim_stats::stopping::{StoppingRule, StoppingState};
use diversim_testing::process::debug_step;
use diversim_universe::version::Version;

use crate::scenario::Scenario;

/// Outcome of one adaptive campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// The version after debugging.
    pub version: Version,
    /// Demands executed before the rule fired (or the cap was hit).
    pub demands_used: u64,
    /// `true` if the stopping rule fired; `false` if `max_demands` was
    /// reached first.
    pub stopped_by_rule: bool,
    /// The version's true pfd after the campaign.
    pub achieved_pfd: f64,
}

/// The body behind [`Scenario::adaptive`]: debugs a freshly drawn version
/// (from population A) until `rule` fires or `max_demands` is reached.
///
/// The stopping rule observes the *oracle verdicts* — undetected failures
/// look like successes to the rule, exactly the fallibility the paper
/// warns about in §4.1.
pub(crate) fn adaptive_campaign(
    scenario: &Scenario,
    rule: StoppingRule,
    max_demands: u64,
    seed: u64,
) -> AdaptiveOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let prepared = scenario.prepared();
    let model = prepared.model();
    let profile = prepared.profile();
    let (oracle, fixer) = (scenario.oracle(), scenario.fixer());
    let mut version = scenario.component(0).sample(&mut rng);
    let mut state = StoppingState::new(rule);
    let mut stopped_by_rule = false;
    while state.demands() < max_demands {
        if state
            .should_stop()
            .expect("rule parameters validated by caller")
        {
            stopped_by_rule = true;
            break;
        }
        let x = profile.sample(&mut rng);
        // The rule sees the oracle's verdict, not the ground truth.
        state.record(debug_step(&mut version, x, model, oracle, fixer, &mut rng));
    }
    if !stopped_by_rule && state.should_stop().expect("validated") {
        stopped_by_rule = true;
    }
    AdaptiveOutcome {
        achieved_pfd: prepared.version_pfd(&version),
        demands_used: state.demands(),
        stopped_by_rule,
        version,
    }
}

/// Aggregate calibration results of a replicated adaptive study.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveStudy {
    /// Mean/variance of demands spent per campaign.
    pub demands: MeanVar,
    /// Mean/variance of the achieved pfd.
    pub achieved_pfd: MeanVar,
    /// Fraction of campaigns whose achieved pfd met the target (only
    /// meaningful for target-bearing rules).
    pub target_met_rate: f64,
    /// Fraction of campaigns stopped by the rule (vs the demand cap).
    pub rule_fired_rate: f64,
}

/// The body behind [`Scenario::adaptive_study`]: replicated adaptive
/// campaigns with the rule's delivered calibration against `target_pfd`.
pub(crate) fn adaptive_study(
    scenario: &Scenario,
    rule: StoppingRule,
    max_demands: u64,
    target_pfd: f64,
    replications: u64,
    threads: usize,
) -> AdaptiveStudy {
    let reducer = (Moments, Moments, Count, Count);
    let (demands, achieved_pfd, met, fired) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let o = adaptive_campaign(scenario, rule, max_demands, seed);
            (
                o.demands_used as f64,
                o.achieved_pfd,
                o.achieved_pfd < target_pfd,
                o.stopped_by_rule,
            )
        });
    let n = replications.max(1) as f64;
    AdaptiveStudy {
        demands,
        achieved_pfd,
        target_met_rate: met as f64 / n,
        rule_fired_rate: fired as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use diversim_testing::oracle::ImperfectOracle;

    fn scenario(n: usize, p: f64, seed: u64) -> Scenario {
        World::singleton_uniform("adaptive-test", vec![p; n])
            .unwrap()
            .scenario()
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn fixed_size_rule_uses_exact_budget() {
        let s = scenario(10, 0.5, 0);
        let out = s.adaptive(StoppingRule::FixedSize(25), 1000, 3);
        assert_eq!(out.demands_used, 25);
        assert!(out.stopped_by_rule);
    }

    #[test]
    fn cap_prevents_runaway_campaigns() {
        // A practically unreachable failure-free requirement.
        let s = scenario(4, 0.9, 0);
        let rule = StoppingRule::FailureFree {
            target: 1e-9,
            confidence: 0.999,
        };
        let out = s.adaptive(rule, 500, 4);
        assert_eq!(out.demands_used, 500);
        assert!(!out.stopped_by_rule);
    }

    #[test]
    fn failure_free_rule_keeps_testing_after_failures() {
        let s = scenario(6, 0.8, 0);
        let rule = StoppingRule::FailureFree {
            target: 0.2,
            confidence: 0.9,
        };
        let out = s.adaptive(rule, 10_000, 5);
        assert!(out.stopped_by_rule);
        // The rule demands ~11 consecutive detected-failure-free tests, so
        // failures must push the total beyond the minimum.
        let minimum = diversim_stats::stopping::failure_free_tests_required(0.2, 0.9).unwrap();
        assert!(out.demands_used >= minimum);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let s = scenario(8, 0.5, 0);
        let rule = StoppingRule::FailureFree {
            target: 0.1,
            confidence: 0.9,
        };
        assert_eq!(s.adaptive(rule, 5000, 77), s.adaptive(rule, 5000, 77));
    }

    #[test]
    fn blind_oracle_fools_the_rule() {
        // With detection probability 0 the rule sees only "successes" and
        // stops at the minimum count — while the version is untouched.
        let s = scenario(6, 0.9, 0).with_oracle(ImperfectOracle::new(0.0).unwrap());
        let rule = StoppingRule::FailureFree {
            target: 0.1,
            confidence: 0.9,
        };
        let minimum = diversim_stats::stopping::failure_free_tests_required(0.1, 0.9).unwrap();
        let out = s.adaptive(rule, 10_000, 6);
        assert!(out.stopped_by_rule);
        assert_eq!(out.demands_used, minimum);
        // Nothing was fixed: the achieved pfd is the untested pfd.
        assert!(out.achieved_pfd > 0.0 || out.version.is_correct());
    }

    #[test]
    fn study_aggregates_and_is_thread_invariant() {
        let s = scenario(10, 0.4, 12);
        let rule = StoppingRule::FailureFree {
            target: 0.05,
            confidence: 0.9,
        };
        let a = s.adaptive_study(rule, 5_000, 0.05, 300, 1);
        let b = s.adaptive_study(rule, 5_000, 0.05, 300, 4);
        assert_eq!(a, b);
        assert_eq!(a.demands.count(), 300);
        assert!(a.rule_fired_rate > 0.9, "rule should fire almost always");
        assert!(a.target_met_rate > 0.0);
    }
}
