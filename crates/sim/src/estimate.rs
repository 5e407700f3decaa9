//! Monte Carlo estimators for the paper's population quantities.
//!
//! These estimate by simulation exactly what `diversim-core` computes by
//! formula, so the two can be cross-validated on small universes (the
//! integration tests do this) and the simulation can then be trusted on
//! universes too large to enumerate. Estimation is launched through
//! [`crate::scenario::Scenario::estimate`].

use diversim_stats::ci::{normal_mean, Interval};
use diversim_stats::online::MeanVar;
use diversim_stats::reduce::Moments;
use diversim_universe::version::Version;

use crate::campaign::PAIR;
use crate::scenario::Scenario;
use crate::system::{campaign, Before};

/// A Monte Carlo point estimate with its uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean across replications.
    pub mean: f64,
    /// Standard error of the mean.
    pub standard_error: f64,
    /// Normal-approximation confidence interval at 95%.
    pub interval: Interval,
    /// Number of replications.
    pub replications: u64,
}

impl Estimate {
    /// Builds an estimate from an accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn from_accumulator(acc: &MeanVar) -> Self {
        assert!(acc.count() > 0, "estimate needs at least one replication");
        let interval = normal_mean(acc.mean(), acc.standard_error(), 0.95)
            .expect("valid level and finite standard error");
        Estimate {
            mean: acc.mean(),
            standard_error: acc.standard_error(),
            interval,
            replications: acc.count(),
        }
    }

    /// Whether the estimate is statistically consistent with `value`
    /// (inside the 95% interval).
    pub fn consistent_with(&self, value: f64) -> bool {
        self.interval.contains(value)
    }
}

/// Joint estimates from a batch of pair campaigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairEstimates {
    /// Mean post-testing pfd of version A (estimates `E[Θ_TA]`).
    pub version_a_pfd: Estimate,
    /// Mean post-testing pfd of version B (estimates `E[Θ_TB]`).
    pub version_b_pfd: Estimate,
    /// Mean 1-out-of-2 system pfd (estimates eqs (22)–(25), depending on
    /// the regime).
    pub system_pfd: Estimate,
}

/// The body behind [`Scenario::estimate`]: pair campaigns, without the
/// pfds before debugging that nothing here reads, folded into the three
/// moment accumulators. Deterministic in `(scenario.seeds(),
/// replications)` regardless of `threads`.
pub(crate) fn estimate(scenario: &Scenario, replications: u64, threads: usize) -> PairEstimates {
    let reducer = (Moments, Moments, Moments);
    let (acc_a, acc_b, acc_sys) = scenario.reduce(replications, threads, &reducer, |seed| {
        let (_, _, ([a, b], system)) =
            campaign::<[Version; 2]>(scenario, &PAIR, seed, Before::Nothing);
        (a, b, system)
    });
    PairEstimates {
        version_a_pfd: Estimate::from_accumulator(&acc_a),
        version_b_pfd: Estimate::from_accumulator(&acc_b),
        system_pfd: Estimate::from_accumulator(&acc_sys),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignRegime;
    use crate::world::World;
    use diversim_core::marginal::{MarginalAnalysis, SuiteAssignment};
    use diversim_testing::suite_population::enumerate_iid_suites;

    fn scenario(props: Vec<f64>, size: usize, regime: CampaignRegime, seed: u64) -> Scenario {
        World::singleton_uniform("estimate-test", props)
            .unwrap()
            .scenario()
            .suite_size(size)
            .regime(regime)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn estimate_matches_exact_marginal_shared() {
        let w = World::singleton_uniform("estimate-test", vec![0.4, 0.8]).unwrap();
        let s = w.scenario().suite_size(1).seed(42).build().unwrap();
        let est = s.estimate(20_000, 4);
        let m = enumerate_iid_suites(&w.profile, 1, 64).unwrap();
        let exact =
            MarginalAnalysis::compute(&w.pop_a, &w.pop_a, SuiteAssignment::Shared(&m), &w.profile);
        let (mc, ex) = (est.system_pfd.mean, exact.system_pfd());
        assert!(
            est.system_pfd.consistent_with(ex),
            "MC {mc} vs exact {ex} not consistent at 95%"
        );
        assert!((mc - 0.20).abs() < 0.02, "hand value 0.20, got {mc}");
    }

    #[test]
    fn estimate_matches_exact_marginal_independent() {
        let w = World::singleton_uniform("estimate-test", vec![0.4, 0.8]).unwrap();
        let s = w
            .scenario()
            .suite_size(1)
            .regime(CampaignRegime::IndependentSuites)
            .seed(43)
            .build()
            .unwrap();
        let est = s.estimate(20_000, 4);
        let m = enumerate_iid_suites(&w.profile, 1, 64).unwrap();
        let exact = MarginalAnalysis::compute(
            &w.pop_a,
            &w.pop_a,
            SuiteAssignment::independent(&m),
            &w.profile,
        );
        let (mc, ex) = (est.system_pfd.mean, exact.system_pfd());
        assert!(
            est.system_pfd.consistent_with(ex),
            "MC {mc} vs exact {ex} not consistent at 95%"
        );
        assert!((mc - 0.10).abs() < 0.02, "hand value 0.10, got {mc}");
    }

    #[test]
    fn version_pfd_estimates_match_zeta_mean() {
        // E[Θ_T] for p=(0.4,0.8), one draw: mean ζ = (0.2+0.4)/2 = 0.3.
        let s = scenario(vec![0.4, 0.8], 1, CampaignRegime::SharedSuite, 44);
        let est = s.estimate(20_000, 4);
        assert!((est.version_a_pfd.mean - 0.3).abs() < 0.02);
        assert!((est.version_b_pfd.mean - 0.3).abs() < 0.02);
    }

    #[test]
    fn estimate_folds_the_after_debugging_pfds_of_run() {
        // The estimate skips the pfds before debugging. A fold of `run`'s
        // three after-debugging pfds over the same seeds gives its bits
        // only if skipping them leaves the random stream as it is.
        use crate::policy::PolicySpec;
        use diversim_testing::oracle::IdenticalFailureModel;

        let small = World::singleton_uniform("estimate-fold", vec![0.1, 0.3, 0.5, 0.7]).unwrap();
        for regime in [
            CampaignRegime::SharedSuite,
            CampaignRegime::IndependentSuites,
            CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.5)),
            CampaignRegime::Adaptive(PolicySpec::RoundRobin),
            CampaignRegime::Adaptive(PolicySpec::GreedyOnFailures),
            CampaignRegime::Adaptive(PolicySpec::EpsilonGreedy { epsilon: 0.1 }),
            CampaignRegime::Adaptive(PolicySpec::UcbIndex { c: 0.5 }),
        ] {
            let s = small
                .scenario()
                .suite_size(6)
                .regime(regime)
                .seed(11)
                .build()
                .unwrap();
            let reducer = (Moments, Moments, Moments);
            let (a, b, sys) = s.reduce(300, 1, &reducer, |seed| {
                let o = s.run(seed);
                (o.first_pfd, o.second_pfd, o.system_pfd)
            });
            let bits = |e: &Estimate| [e.mean.to_bits(), e.standard_error.to_bits()];
            let est = s.estimate(300, 3);
            for (got, folded) in [
                (&est.version_a_pfd, &a),
                (&est.version_b_pfd, &b),
                (&est.system_pfd, &sys),
            ] {
                let folded = Estimate::from_accumulator(folded);
                assert_eq!(bits(got), bits(&folded), "{regime:?}");
            }
        }
    }

    #[test]
    fn estimates_are_thread_count_invariant() {
        let s = scenario(vec![0.3, 0.5], 2, CampaignRegime::SharedSuite, 7);
        assert_eq!(s.estimate(500, 1), s.estimate(500, 4));
    }

    #[test]
    fn offset_policy_changes_the_replication_stream() {
        use crate::scenario::SeedPolicy;
        let s = scenario(vec![0.5, 0.5], 1, CampaignRegime::SharedSuite, 3);
        let offset = s.with_seeds(SeedPolicy::offset(3));
        // Same root, different derivation: statistically equivalent but
        // not identical streams.
        assert_ne!(s.estimate(300, 2), offset.estimate(300, 2));
        // Offset runs are deterministic too.
        assert_eq!(offset.estimate(300, 1), offset.estimate(300, 4));
    }

    #[test]
    fn standard_error_shrinks_with_replications() {
        let s = scenario(vec![0.5, 0.5], 1, CampaignRegime::SharedSuite, 1);
        let small = s.estimate(200, 2);
        let large = s.estimate(20_000, 2);
        assert!(large.system_pfd.standard_error < small.system_pfd.standard_error);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn empty_accumulator_panics() {
        let _ = Estimate::from_accumulator(&MeanVar::new());
    }
}
