//! Structure-function systems over many component populations.
//!
//! The paper's campaigns debug a *pair* and evaluate it 1-out-of-2. This
//! module generalises the simulated process to any coherent structure
//! over `n` components: a [`SystemSpec`] binds a
//! [`Structure`] (AND/OR/k-out-of-n fault tree from
//! [`diversim_core::structure`]) to one [`Population`] per component, a
//! scenario carries it via
//! [`ScenarioBuilder::system`](crate::scenario::ScenarioBuilder::system),
//! and [`Scenario::system_run`] /
//! [`Scenario::system_estimate`](crate::scenario::Scenario::system_estimate)
//! run the same draw-test-debug-evaluate campaign per component:
//!
//! * **shared suite** — one generated suite debugs every component (the
//!   eq-20 coupling regime, now acting at every gate);
//! * **independent suites** — one suite per component, generated in
//!   component order (the conditional-independence regime);
//! * **back-to-back / adaptive** — pair-only semantics, accepted exactly
//!   when the system has two components.
//!
//! The pair campaign and the system campaign share one regime dispatch
//! (`campaign::debug_in_regime`), so the flat path and the structure
//! path cannot drift. Replication rng order is fixed and
//! component-indexed — sample every version in index order, then
//! generate suite(s), then debug in index order — so a two-component
//! 1-out-of-2 system reproduces [`Scenario::run`] bit for bit, and every
//! estimate is byte-identical for any worker-thread count.
//!
//! # Examples
//!
//! ```
//! use diversim_core::structure::Structure;
//! use diversim_sim::scenario::Scenario;
//! use diversim_sim::system::SystemSpec;
//! use diversim_sim::world::World;
//!
//! let world = World::singleton_uniform("triplex", vec![0.3; 8])?;
//! let spec = SystemSpec::homogeneous(Structure::k_of_n(2, 3), world.pop_a.clone())?;
//! let scenario = Scenario::builder()
//!     .system(spec)
//!     .profile(world.profile.clone())
//!     .suite_size(4)
//!     .seed(7)
//!     .build()?;
//! let out = scenario.system_run(11)?;
//! assert_eq!(out.versions.len(), 3);
//! assert!(out.system_pfd <= out.system_pfd_before + 1e-15);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_core::error::CoreError;
use diversim_core::structure::Structure;
use diversim_stats::reduce::{ElementWise, Moments};
use diversim_universe::population::Population;
use diversim_universe::version::Version;

use crate::campaign::{debug_in_regime, CampaignRegime};
use crate::estimate::Estimate;
use crate::scenario::{Scenario, ScenarioError};

/// A structure function bound to one component population per leaf: the
/// system half of a scenario (the process half — regime, suite size,
/// oracle, fixer — stays on the scenario itself).
///
/// Validated at construction: every population shares one fault model,
/// and the structure references exactly the components `0..n`.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    structure: Structure,
    populations: Vec<Arc<dyn Population>>,
}

impl SystemSpec {
    /// Binds `structure` to `populations` (component `i` of the
    /// structure draws its versions from `populations[i]`).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Missing`] with no populations;
    /// [`ScenarioError::InvalidStructure`] if the structure is malformed
    /// or indexes a component without a population;
    /// [`ScenarioError::ModelMismatch`] if the populations' fault models
    /// differ.
    pub fn new(
        structure: Structure,
        populations: Vec<Arc<dyn Population>>,
    ) -> Result<Self, ScenarioError> {
        if populations.is_empty() {
            return Err(ScenarioError::Missing { what: "population" });
        }
        structure
            .validate(populations.len())
            .map_err(invalid_structure)?;
        let model = populations[0].model();
        for pop in &populations[1..] {
            if !Arc::ptr_eq(pop.model(), model) && pop.model() != model {
                return Err(ScenarioError::ModelMismatch);
            }
        }
        Ok(SystemSpec {
            structure,
            populations,
        })
    }

    /// One methodology for every component: clones one shared handle to
    /// `pop` per structure leaf.
    pub fn homogeneous<P: Population + 'static>(
        structure: Structure,
        pop: P,
    ) -> Result<Self, ScenarioError> {
        let n = structure.component_count();
        let pop: Arc<dyn Population> = Arc::new(pop);
        let populations = (0..n).map(|_| Arc::clone(&pop)).collect();
        SystemSpec::new(structure, populations)
    }

    /// The structure function.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// One population per component, indexed like the structure's leaves.
    pub fn populations(&self) -> &[Arc<dyn Population>] {
        &self.populations
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.populations.len()
    }

    /// Whether `regime` has semantics for this system: suite regimes
    /// always do, pair-only regimes (back-to-back, adaptive) only on a
    /// two-component system. Part of the scenario's one regime check.
    pub(crate) fn require_regime(&self, regime: CampaignRegime) -> Result<(), ScenarioError> {
        let components = self.component_count();
        match regime {
            CampaignRegime::IndependentSuites | CampaignRegime::SharedSuite => Ok(()),
            CampaignRegime::BackToBack(_) | CampaignRegime::Adaptive(_) if components == 2 => {
                Ok(())
            }
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
}

fn invalid_structure(err: CoreError) -> ScenarioError {
    match err {
        CoreError::InvalidStructure { reason } => ScenarioError::InvalidStructure { reason },
        _ => ScenarioError::InvalidStructure {
            reason: "structure has no components",
        },
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

/// The body behind [`Scenario::system_run`]. Scenario validation
/// guarantees the scenario's regime can run its system.
pub(crate) fn run_system(scenario: &Scenario, seed: u64) -> Result<SystemOutcome, ScenarioError> {
    let spec = scenario
        .system_spec()
        .ok_or(ScenarioError::Missing { what: "system" })?;
    Ok(run_system_campaign(scenario, spec, seed))
}

/// One system campaign, in the rng order of the module docs.
fn run_system_campaign(scenario: &Scenario, spec: &SystemSpec, seed: u64) -> SystemOutcome {
    let structure = spec.structure();
    let prepared = scenario.prepared();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut versions: Vec<Version> = spec
        .populations()
        .iter()
        .map(|pop| pop.sample(&mut rng))
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
) -> Result<SystemEstimates, ScenarioError> {
    let spec = scenario
        .system_spec()
        .ok_or(ScenarioError::Missing { what: "system" })?;
    let reducer = (
        Moments,
        Moments,
        ElementWise::new(Moments, spec.component_count()),
    );
    let (system, system_before, components) =
        scenario.reduce(replications, threads, &reducer, |seed| {
            let out = run_system_campaign(scenario, spec, seed);
            (out.system_pfd, out.system_pfd_before, out.component_pfds)
        });
    Ok(SystemEstimates {
        component_pfds: components.iter().map(Estimate::from_accumulator).collect(),
        system_pfd_before: Estimate::from_accumulator(&system_before),
        system_pfd: Estimate::from_accumulator(&system),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use diversim_testing::oracle::IdenticalFailureModel;

    fn pair_spec(world: &World, structure: Structure) -> SystemSpec {
        SystemSpec::new(
            structure,
            vec![Arc::new(world.pop_a.clone()), Arc::new(world.pop_b.clone())],
        )
        .unwrap()
    }

    fn system_scenario(
        world: &World,
        spec: SystemSpec,
        regime: CampaignRegime,
        suite: usize,
    ) -> Scenario {
        Scenario::builder()
            .system(spec)
            .profile(world.profile.clone())
            .generator(world.generator.clone())
            .regime(regime)
            .suite_size(suite)
            .build()
            .unwrap()
    }

    #[test]
    fn one_out_of_two_system_replays_the_pair_campaign_bit_for_bit() {
        let world = World::singleton_uniform("sys-pair", vec![0.4, 0.6, 0.2, 0.8]).unwrap();
        for regime in [
            CampaignRegime::SharedSuite,
            CampaignRegime::IndependentSuites,
            CampaignRegime::BackToBack(IdenticalFailureModel::Never),
        ] {
            let spec = pair_spec(&world, Structure::one_out_of_n(2));
            let s = system_scenario(&world, spec, regime, 5);
            for seed in 0..20 {
                let pair = s.run(seed);
                let sys = s.system_run(seed).unwrap();
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
            let spec = pair_spec(&world, Structure::one_out_of_n(2));
            let s = system_scenario(&world, spec, CampaignRegime::Adaptive(policy), 8);
            for seed in 0..10 {
                let pair = s.run(seed);
                let sys = s.system_run(seed).unwrap();
                assert_eq!(sys.versions, vec![pair.first, pair.second], "{policy}");
                assert_eq!(sys.component_pfds, vec![pair.first_pfd, pair.second_pfd]);
                assert_eq!(
                    sys.component_pfds_before,
                    vec![pair.first_pfd_before, pair.second_pfd_before]
                );
                assert_eq!(sys.system_pfd, pair.system_pfd);
                assert_eq!(sys.system_pfd_before, pair.system_pfd_before);
            }
        }
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
            .map(|shape| {
                let spec = SystemSpec::homogeneous(shape.clone(), world.pop_a.clone()).unwrap();
                system_scenario(&world, spec, CampaignRegime::SharedSuite, 3)
            })
            .collect();
        for seed in 0..20 {
            let pfds: Vec<f64> = scenarios
                .iter()
                .map(|s| s.system_run(seed).unwrap().system_pfd)
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
        let spec = SystemSpec::homogeneous(Structure::bridge(), world.pop_a.clone()).unwrap();
        let s = system_scenario(&world, spec, CampaignRegime::SharedSuite, 6);
        for seed in 0..20 {
            let out = s.system_run(seed).unwrap();
            for (after, before) in out.component_pfds.iter().zip(&out.component_pfds_before) {
                assert!(after <= before);
            }
            assert!(out.system_pfd <= out.system_pfd_before);
        }
    }

    #[test]
    fn system_estimate_is_thread_count_invariant() {
        let world = World::singleton_uniform("sys-threads", vec![0.3, 0.7, 0.5]).unwrap();
        let spec = SystemSpec::homogeneous(Structure::k_of_n(2, 3), world.pop_a.clone()).unwrap();
        let s = system_scenario(&world, spec, CampaignRegime::IndependentSuites, 4);
        let single = s.system_estimate(300, 1).unwrap();
        let multi = s.system_estimate(300, 4).unwrap();
        assert_eq!(single, multi);
        assert_eq!(single.component_pfds.len(), 3);
        assert!(single.system_pfd.mean <= single.system_pfd_before.mean + 1e-12);
    }

    #[test]
    fn pair_only_regimes_reject_wider_systems() {
        let world = World::singleton_uniform("sys-reject", vec![0.5; 4]).unwrap();
        let spec = SystemSpec::homogeneous(Structure::series(3), world.pop_a.clone()).unwrap();
        let err = Scenario::builder()
            .system(spec)
            .profile(world.profile.clone())
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
    fn system_studies_need_a_system_spec() {
        let world = World::singleton_uniform("sys-missing", vec![0.5; 4]).unwrap();
        let s = world.scenario().suite_size(2).build().unwrap();
        assert_eq!(
            s.system_run(0).unwrap_err(),
            ScenarioError::Missing { what: "system" }
        );
        assert_eq!(
            s.system_estimate(10, 1).unwrap_err(),
            ScenarioError::Missing { what: "system" }
        );
    }

    #[test]
    fn spec_validation_rejects_malformed_systems() {
        let world = World::singleton_uniform("sys-invalid", vec![0.5; 4]).unwrap();
        let pop: Arc<dyn Population> = Arc::new(world.pop_a.clone());
        // The structure references component 2, but only two populations
        // are supplied.
        let err = SystemSpec::new(Structure::series(3), vec![Arc::clone(&pop), pop]).unwrap_err();
        assert!(matches!(err, ScenarioError::InvalidStructure { .. }));
        assert_eq!(
            SystemSpec::new(Structure::series(1), Vec::new()).unwrap_err(),
            ScenarioError::Missing { what: "population" }
        );
    }
}
