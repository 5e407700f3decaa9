//! Structure-function systems over the scenario's two methodologies.
//!
//! The paper's campaigns debug a *pair* and evaluate it 1-out-of-2. This
//! module generalises the simulated process to any coherent structure
//! over `n` components: every [`Scenario`] carries one AND/OR/k-out-of-n
//! fault tree from [`diversim_core::structure`] (the paper's pair unless
//! set otherwise), component `i` draws from `S_A` when `i` is even and
//! from `S_B` when it is odd, and [`Scenario::system_run`] /
//! [`Scenario::system_estimate`] run the pair's campaign per component:
//!
//! * **shared suite** — one generated suite debugs every component (the
//!   eq-20 coupling regime, now acting at every gate);
//! * **independent suites** — one suite per component, generated in
//!   component order (the conditional-independence regime);
//! * **back-to-back / adaptive** — pair-only semantics, accepted exactly
//!   when the structure has two components.
//!
//! The pair campaign and the system campaign share one regime dispatch
//! (`campaign::debug_in_regime`), so the flat path and the structure
//! path cannot drift. Replication rng order is fixed and
//! component-indexed — sample every version in index order, then
//! generate suite(s), then debug in index order — so the default
//! 1-out-of-2 structure reproduces [`Scenario::run`] bit for bit, and
//! every estimate is byte-identical for any worker-thread count.
//!
//! # Examples
//!
//! ```
//! use diversim_core::structure::Structure;
//! use diversim_sim::world::World;
//!
//! let world = World::singleton_uniform("triplex", vec![0.3; 8])?;
//! let scenario = world
//!     .scenario()
//!     .structure(Structure::k_of_n(2, 3))
//!     .suite_size(4)
//!     .seed(7)
//!     .build()?;
//! let out = scenario.system_run(11);
//! assert_eq!(out.versions.len(), 3);
//! assert!(out.system_pfd <= out.system_pfd_before + 1e-15);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_stats::reduce::{ElementWise, Moments};
use diversim_universe::version::Version;

use crate::campaign::{debug_in_regime, CampaignRegime};
use crate::estimate::Estimate;
use crate::scenario::{Scenario, ScenarioError};

/// Whether `regime` can run on `components` components: suite regimes
/// always can, pair-only regimes (back-to-back, adaptive) only on two.
pub(crate) fn require_regime(
    regime: CampaignRegime,
    components: usize,
) -> Result<(), ScenarioError> {
    match regime {
        CampaignRegime::IndependentSuites | CampaignRegime::SharedSuite => Ok(()),
        CampaignRegime::BackToBack(_) | CampaignRegime::Adaptive(_) if components == 2 => Ok(()),
        CampaignRegime::BackToBack(_) => Err(ScenarioError::PairRegimeRequired {
            regime: "back-to-back",
            components,
        }),
        CampaignRegime::Adaptive(_) => Err(ScenarioError::PairRegimeRequired {
            regime: "adaptive",
            components,
        }),
    }
}

/// Everything one system campaign produced, all component-indexed.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOutcome {
    /// Every component version after debugging.
    pub versions: Vec<Version>,
    /// Per-component pfds before debugging (exact over the demand space).
    pub component_pfds_before: Vec<f64>,
    /// Per-component pfds after debugging.
    pub component_pfds: Vec<f64>,
    /// System pfd of the undebugged components under the structure.
    pub system_pfd_before: f64,
    /// System pfd of the debugged components under the structure.
    pub system_pfd: f64,
}

/// Joint estimates from a batch of system campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEstimates {
    /// Mean post-debugging pfd of each component.
    pub component_pfds: Vec<Estimate>,
    /// Mean system pfd under the structure, before any debugging.
    pub system_pfd_before: Estimate,
    /// Mean system pfd under the structure, after debugging.
    pub system_pfd: Estimate,
}

/// One system campaign (the body behind [`Scenario::system_run`]), in
/// the rng order of the module docs. Scenario validation guarantees the
/// scenario's regime can run its structure.
pub(crate) fn run_system(scenario: &Scenario, seed: u64) -> SystemOutcome {
    let structure = scenario.structure();
    let prepared = scenario.prepared();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut versions: Vec<Version> = (0..structure.component_count())
        .map(|i| scenario.component(i).sample(&mut rng))
        .collect();
    let pfds = |versions: &[Version]| -> (Vec<f64>, f64) {
        let refs: Vec<&Version> = versions.iter().collect();
        let components = versions.iter().map(|v| prepared.version_pfd(v)).collect();
        (components, prepared.structure_pfd(&refs, structure))
    };
    let (component_pfds_before, system_pfd_before) = pfds(&versions);
    debug_in_regime(scenario, &mut versions, &mut rng, None);
    let (component_pfds, system_pfd) = pfds(&versions);
    SystemOutcome {
        versions,
        component_pfds_before,
        component_pfds,
        system_pfd_before,
        system_pfd,
    }
}

/// The body behind [`Scenario::system_estimate`]: replicated system
/// campaigns streamed through the deterministic runner into one
/// [`diversim_stats::online::MeanVar`] per observable.
pub(crate) fn estimate_system(
    scenario: &Scenario,
    replications: u64,
    threads: usize,
) -> SystemEstimates {
    let reducer = (
        Moments,
        Moments,
        ElementWise::new(Moments, scenario.structure().component_count()),
    );
    let (system, system_before, components) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let out = run_system(scenario, seed);
            (out.system_pfd, out.system_pfd_before, out.component_pfds)
        });
    SystemEstimates {
        component_pfds: components.iter().map(Estimate::from_accumulator).collect(),
        system_pfd_before: Estimate::from_accumulator(&system_before),
        system_pfd: Estimate::from_accumulator(&system),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use diversim_core::structure::Structure;
    use diversim_testing::oracle::IdenticalFailureModel;
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::FaultModelBuilder;
    use diversim_universe::population::BernoulliPopulation;
    use diversim_universe::profile::UsageProfile;
    use std::sync::Arc;

    fn system_scenario(
        world: &World,
        structure: Structure,
        regime: CampaignRegime,
        suite: usize,
    ) -> Scenario {
        world
            .scenario()
            .structure(structure)
            .regime(regime)
            .suite_size(suite)
            .build()
            .unwrap()
    }

    /// Asserts that the system campaign of `s` replays its pair campaign
    /// for seeds `0..seeds`.
    fn assert_replays_the_pair(s: &Scenario, seeds: u64) {
        for seed in 0..seeds {
            let pair = s.run(seed);
            let sys = s.system_run(seed);
            assert_eq!(sys.versions, vec![pair.first, pair.second]);
            assert_eq!(sys.component_pfds, vec![pair.first_pfd, pair.second_pfd]);
            assert_eq!(
                sys.component_pfds_before,
                vec![pair.first_pfd_before, pair.second_pfd_before]
            );
            assert_eq!(sys.system_pfd, pair.system_pfd);
            assert_eq!(sys.system_pfd_before, pair.system_pfd_before);
        }
    }

    #[test]
    fn one_out_of_two_system_replays_the_pair_campaign_bit_for_bit() {
        let world = World::singleton_uniform("sys-pair", vec![0.4, 0.6, 0.2, 0.8]).unwrap();
        for regime in [
            CampaignRegime::SharedSuite,
            CampaignRegime::IndependentSuites,
            CampaignRegime::BackToBack(IdenticalFailureModel::Never),
        ] {
            let explicit = system_scenario(&world, Structure::one_out_of_n(2), regime, 5);
            assert_replays_the_pair(&explicit, 20);
            // The default structure is the paper's pair.
            let default = world
                .scenario()
                .regime(regime)
                .suite_size(5)
                .build()
                .unwrap();
            assert_eq!(default.structure(), &Structure::one_out_of_n(2));
            assert_replays_the_pair(&default, 20);
        }
    }

    #[test]
    fn adaptive_system_matches_the_pair_adaptive_campaign() {
        use crate::policy::PolicySpec;

        let world = World::singleton_uniform("sys-adaptive", vec![0.5; 6]).unwrap();
        for policy in [
            PolicySpec::RoundRobin,
            PolicySpec::GreedyOnFailures,
            PolicySpec::EpsilonGreedy { epsilon: 0.2 },
            PolicySpec::UcbIndex { c: 0.5 },
        ] {
            let regime = CampaignRegime::Adaptive(policy);
            let s = system_scenario(&world, Structure::one_out_of_n(2), regime, 8);
            assert_replays_the_pair(&s, 10);
        }
    }

    #[test]
    fn components_alternate_between_the_two_methodologies() {
        // A can only draw faults 0..3 and B only faults 3..6, so every
        // fault of a drawn version names its methodology.
        let (n, k) = (6, 3);
        let space = DemandSpace::new(n).unwrap();
        let model = Arc::new(
            FaultModelBuilder::new(space)
                .singleton_faults()
                .build()
                .unwrap(),
        );
        let props = |support: std::ops::Range<usize>| {
            let props = (0..n).map(|f| if support.contains(&f) { 0.8 } else { 0.0 });
            BernoulliPopulation::new(Arc::clone(&model), props.collect()).unwrap()
        };
        let world = World::forced(
            "sys-alternate",
            props(0..k),
            props(k..n),
            UsageProfile::uniform(space),
        );
        let s = system_scenario(
            &world,
            Structure::k_of_n(2, 3),
            CampaignRegime::SharedSuite,
            2,
        );
        let mut drawn = [0; 3];
        for seed in 0..20 {
            let out = s.system_run(seed);
            assert_eq!(out.versions.len(), 3);
            for (i, version) in out.versions.iter().enumerate() {
                let support = if i % 2 == 0 { 0..k } else { k..n };
                assert!(
                    version.faults().all(|f| support.contains(&f.index())),
                    "component {i} holds a fault outside its methodology at seed {seed}"
                );
                drawn[i] += version.faults().count();
            }
        }
        assert!(drawn.iter().all(|&faults| faults > 0), "{drawn:?}");
    }

    #[test]
    fn series_is_riskier_than_two_of_three_is_riskier_than_parallel() {
        let world = World::singleton_uniform("sys-order", vec![0.5; 5]).unwrap();
        let shapes = [
            Structure::one_out_of_n(3),
            Structure::k_of_n(2, 3),
            Structure::series(3),
        ];
        let scenarios: Vec<Scenario> = shapes
            .iter()
            .map(|shape| system_scenario(&world, shape.clone(), CampaignRegime::SharedSuite, 3))
            .collect();
        for seed in 0..20 {
            let pfds: Vec<f64> = scenarios
                .iter()
                .map(|s| s.system_run(seed).system_pfd)
                .collect();
            assert!(
                pfds[0] <= pfds[1] + 1e-15 && pfds[1] <= pfds[2] + 1e-15,
                "parallel ≤ 2-of-3 ≤ series violated at seed {seed}: {pfds:?}"
            );
        }
    }

    #[test]
    fn debugging_never_hurts_any_component_or_the_system() {
        let world = World::singleton_uniform("sys-monotone", vec![0.6; 6]).unwrap();
        let s = system_scenario(&world, Structure::bridge(), CampaignRegime::SharedSuite, 6);
        for seed in 0..20 {
            let out = s.system_run(seed);
            for (after, before) in out.component_pfds.iter().zip(&out.component_pfds_before) {
                assert!(after <= before);
            }
            assert!(out.system_pfd <= out.system_pfd_before);
        }
    }

    #[test]
    fn system_estimate_is_thread_count_invariant() {
        let world = World::singleton_uniform("sys-threads", vec![0.3, 0.7, 0.5]).unwrap();
        let s = system_scenario(
            &world,
            Structure::k_of_n(2, 3),
            CampaignRegime::IndependentSuites,
            4,
        );
        let single = s.system_estimate(300, 1);
        let multi = s.system_estimate(300, 4);
        assert_eq!(single, multi);
        assert_eq!(single.component_pfds.len(), 3);
        assert!(single.system_pfd.mean <= single.system_pfd_before.mean + 1e-12);
    }

    #[test]
    fn pair_only_regimes_reject_wider_systems() {
        let world = World::singleton_uniform("sys-reject", vec![0.5; 4]).unwrap();
        let err = world
            .scenario()
            .structure(Structure::series(3))
            .regime(CampaignRegime::BackToBack(IdenticalFailureModel::Never))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::PairRegimeRequired {
                regime: "back-to-back",
                components: 3
            }
        );
    }

    #[test]
    fn malformed_structures_are_refused() {
        let world = World::singleton_uniform("sys-invalid", vec![0.5; 4]).unwrap();
        let pair = world.scenario().build().unwrap();
        for (structure, reason) in [
            (
                Structure::k_of_n(4, 3),
                "k out of range for k-out-of-n gate",
            ),
            (
                Structure::k_of_n(0, 3),
                "k out of range for k-out-of-n gate",
            ),
            (
                Structure::or(vec![Structure::and(vec![]), Structure::component(0)]),
                "gate with no children",
            ),
            (Structure::and(vec![]), "structure has no components"),
        ] {
            let refused = ScenarioError::InvalidStructure { reason };
            assert_eq!(
                world
                    .scenario()
                    .structure(structure.clone())
                    .build()
                    .unwrap_err(),
                refused
            );
            assert_eq!(pair.with_structure(structure).unwrap_err(), refused);
        }
    }
}
