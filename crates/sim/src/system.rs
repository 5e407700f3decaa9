//! The campaign: structure-function systems over the scenario's two
//! methodologies.
//!
//! Every [`Scenario`] carries one AND/OR/k-out-of-n fault tree from
//! [`diversim_core::structure`] (the paper's 1-out-of-2 pair unless set
//! otherwise), whose component `i` draws from `S_A` when `i` is even and
//! from `S_B` when it is odd. One campaign draws the components, debugs
//! them and evaluates them with [`crate::prepared::Prepared::structure_pfd`]:
//!
//! * **shared suite** — one generated suite debugs every component (the
//!   eq-20 coupling regime, now acting at every gate);
//! * **independent suites** — one suite per component, generated in
//!   component order (the conditional-independence regime);
//! * **back-to-back / adaptive** — pair-only semantics, accepted exactly
//!   when the structure has two components.
//!
//! [`Scenario::system_run`] and [`Scenario::system_estimate`] run it over
//! the scenario's structure, [`Scenario::run`] and [`Scenario::estimate`]
//! over the paper's pair. Its rng order — every version in index order,
//! then the suite(s), then debugging in index order — makes estimates
//! byte-identical for any worker-thread count.
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

use diversim_core::structure::Structure;
use diversim_stats::reduce::{ElementWise, Moments};
use diversim_universe::version::Version;

use crate::campaign::debug_in_regime;
use crate::estimate::Estimate;
use crate::scenario::Scenario;

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

/// A campaign's components: the paper's pair as an array, so that a pair
/// campaign allocates nothing of its own, or a vector for any structure.
pub(crate) trait Components: AsRef<[Version]> + AsMut<[Version]> {
    /// One pfd per component.
    type Pfds: AsMut<[f64]>;
    /// Components `0..n`, `draw(i)` called in index order.
    fn draw(n: usize, draw: impl FnMut(usize) -> Version) -> Self;
    /// One pfd slot per component, `0.0` until evaluated.
    fn pfd_slots(&self) -> Self::Pfds;
}

impl Components for [Version; 2] {
    type Pfds = [f64; 2];
    fn draw(n: usize, draw: impl FnMut(usize) -> Version) -> Self {
        assert_eq!(n, 2, "a pair has two components");
        std::array::from_fn(draw)
    }
    fn pfd_slots(&self) -> [f64; 2] {
        [0.0; 2]
    }
}

impl Components for Vec<Version> {
    type Pfds = Vec<f64>;
    fn draw(n: usize, draw: impl FnMut(usize) -> Version) -> Self {
        (0..n).map(draw).collect()
    }
    fn pfd_slots(&self) -> Vec<f64> {
        vec![0.0; self.len()]
    }
}

/// Which pfds a campaign evaluates before debugging (evaluating draws no
/// random number).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Before {
    /// None: [`Scenario::estimate`] reads none of them.
    Nothing,
    /// The system pfd alone: [`Scenario::system_estimate`] reports no
    /// component before debugging.
    System,
    /// Every component pfd and the system pfd.
    All,
}

/// The component pfds and the system pfd of one state of a campaign.
pub(crate) type Pfds<C> = (<C as Components>::Pfds, f64);

/// The pfds a campaign evaluated before debugging: the components' under
/// [`Before::All`] alone, and the system's.
pub(crate) type PfdsBefore<C> = (Option<<C as Components>::Pfds>, f64);

/// The campaign behind [`Scenario::run`], `estimate`, `system_run` and
/// `system_estimate`, in the rng order of the module docs: the debugged
/// components, what `before` asks for before debugging (the component
/// pfds only under [`Before::All`]) and every pfd after. Each state is
/// evaluated from one failure set per component
/// ([`crate::prepared::Prepared::evaluate`]).
pub(crate) fn campaign<C: Components>(
    scenario: &Scenario,
    structure: &Structure,
    seed: u64,
    before: Before,
) -> (C, Option<PfdsBefore<C>>, Pfds<C>) {
    let prepared = scenario.prepared();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut versions = C::draw(structure.component_count(), |i| {
        scenario.component(i).sample(&mut rng)
    });
    let evaluate = |versions: &C| {
        let mut pfds = versions.pfd_slots();
        let system = prepared.evaluate(versions.as_ref(), structure, pfds.as_mut());
        (pfds, system)
    };
    let before = match before {
        Before::Nothing => None,
        Before::System => Some((None, prepared.structure_pfd(versions.as_ref(), structure))),
        Before::All => {
            let (pfds, system) = evaluate(&versions);
            Some((Some(pfds), system))
        }
    };
    debug_in_regime(scenario, versions.as_mut(), &mut rng, None);
    let after = evaluate(&versions);
    (versions, before, after)
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
            let structure = scenario.structure();
            let (_, before, (component_pfds, system_pfd)) =
                campaign::<Vec<Version>>(scenario, structure, seed, Before::System);
            let (_, system_pfd_before) = before.expect("system evaluated before debugging");
            (system_pfd, system_pfd_before, component_pfds)
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
    use crate::campaign::{CampaignRegime, PairOutcome};
    use crate::prepared::Prepared;
    use crate::scenario::ScenarioError;
    use crate::world::World;
    use diversim_testing::fixing::PerfectFixer;
    use diversim_testing::generation::{ProfileGenerator, SuiteGenerator};
    use diversim_testing::oracle::{IdenticalFailureModel, PerfectOracle};
    use diversim_testing::process::{back_to_back_debug, debug_version};
    use diversim_universe::demand::{DemandId, DemandSpace};
    use diversim_universe::fault::FaultModelBuilder;
    use diversim_universe::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};
    use diversim_universe::population::{BernoulliPopulation, Population};
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

    /// The worlds the pair campaign is replayed on, with a suite size
    /// each: small-graded (singleton faults, the `Disjoint` strategy),
    /// asymmetric (A's broad blunders against B's narrow defects) and a
    /// 200-demand cascade of regions one to four demands wide.
    fn replay_worlds() -> [(World, usize); 3] {
        let small_graded =
            World::singleton_uniform("small-graded", vec![0.02, 0.05, 0.1, 0.2, 0.4, 0.6]).unwrap();
        let space = DemandSpace::new(6).unwrap();
        let regions: [&[u32]; 11] = [
            &[0, 1, 2],
            &[3, 4, 5],
            &[0, 3],
            &[1, 4],
            &[2, 5],
            &[0],
            &[1],
            &[2],
            &[3],
            &[4],
            &[5],
        ];
        let model = Arc::new(
            regions
                .iter()
                .fold(FaultModelBuilder::new(space), |b, r| {
                    b.fault(r.iter().map(|&x| DemandId::new(x)))
                })
                .build()
                .unwrap(),
        );
        let props = |a: f64, b: f64| {
            let props = [a, a, 0.7 * a, 0.7 * a, 0.7 * a].into_iter().chain([b; 6]);
            BernoulliPopulation::new(Arc::clone(&model), props.collect()).unwrap()
        };
        let asymmetric = World::forced(
            "asymmetric",
            props(0.5, 0.0),
            props(0.0, 0.06),
            UsageProfile::uniform(space),
        );
        let spec = UniverseSpec {
            n_demands: 200,
            n_faults: 60,
            region_size: RegionSize::Uniform { min: 1, max: 4 },
            profile: ProfileKind::Zipf(0.8),
        };
        let (universe, pop) = spec
            .generate_with_population(
                &mut StdRng::seed_from_u64(7),
                PropensityKind::Uniform { lo: 0.05, hi: 0.5 },
            )
            .unwrap();
        let cascade = World::from_universe("medium-cascade", &universe, pop);
        [(small_graded, 4), (asymmetric, 4), (cascade, 16)]
    }

    /// The paper's process by hand, with no campaign code: sample A, then
    /// B; generate the suite(s) from the world's profile; debug with the
    /// perfect oracle and fixer (or back to back); evaluate with the
    /// prepared world's version and pair pfds.
    fn replay(world: &World, regime: CampaignRegime, size: usize, seed: u64) -> PairOutcome {
        let prepared = Prepared::new(Arc::clone(world.model()), world.profile.clone());
        let generator = ProfileGenerator::new(world.profile.clone());
        let (model, oracle, fixer) = (prepared.model(), PerfectOracle::new(), PerfectFixer::new());
        let mut rng = StdRng::seed_from_u64(seed);
        let a = world.pop_a.sample(&mut rng);
        let b = world.pop_b.sample(&mut rng);
        let (first, second) = match regime {
            CampaignRegime::IndependentSuites => {
                let (ta, tb) = (
                    generator.generate(&mut rng, size),
                    generator.generate(&mut rng, size),
                );
                let first = debug_version(&a, &ta, model, &oracle, &fixer, &mut rng).version;
                (
                    first,
                    debug_version(&b, &tb, model, &oracle, &fixer, &mut rng).version,
                )
            }
            CampaignRegime::SharedSuite => {
                let t = generator.generate(&mut rng, size);
                let first = debug_version(&a, &t, model, &oracle, &fixer, &mut rng).version;
                (
                    first,
                    debug_version(&b, &t, model, &oracle, &fixer, &mut rng).version,
                )
            }
            CampaignRegime::BackToBack(identical) => {
                let t = generator.generate(&mut rng, size);
                let (mut first, mut second) = (a.clone(), b.clone());
                back_to_back_debug(
                    &mut first,
                    &mut second,
                    &t,
                    model,
                    identical,
                    &fixer,
                    &mut rng,
                );
                (first, second)
            }
            CampaignRegime::Adaptive(_) => unreachable!("replayed regimes are static"),
        };
        PairOutcome {
            first_pfd: prepared.version_pfd(&first),
            second_pfd: prepared.version_pfd(&second),
            system_pfd: prepared.pair_pfd(&first, &second),
            first_pfd_before: prepared.version_pfd(&a),
            second_pfd_before: prepared.version_pfd(&b),
            system_pfd_before: prepared.pair_pfd(&a, &b),
            first,
            second,
        }
    }

    /// The six pfds of a pair outcome, as bits.
    fn pfd_bits(o: &PairOutcome) -> [u64; 6] {
        [
            o.first_pfd,
            o.second_pfd,
            o.system_pfd,
            o.first_pfd_before,
            o.second_pfd_before,
            o.system_pfd_before,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn the_pair_campaign_replays_the_papers_process_bit_for_bit() {
        for (world, size) in replay_worlds() {
            for regime in [
                CampaignRegime::SharedSuite,
                CampaignRegime::IndependentSuites,
                CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.5)),
            ] {
                // The pair is run whatever the scenario's own structure.
                let s = system_scenario(&world, Structure::k_of_n(2, 2), regime, size);
                for seed in 0..200 {
                    let (run, hand) = (s.run(seed), replay(&world, regime, size, seed));
                    let at = format!("{} {regime:?} seed {seed}", world.label());
                    assert_eq!(
                        (&run.first, &run.second),
                        (&hand.first, &hand.second),
                        "{at}"
                    );
                    assert_eq!(pfd_bits(&run), pfd_bits(&hand), "{at}");
                }
            }
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
    fn system_estimate_folds_system_run_bit_for_bit() {
        // The estimate evaluates only the system pfd before debugging. A
        // fold of `system_run`'s pfds over the same seeds gives its bits
        // at 1 and 8 threads, on a singleton world and on a cascade.
        let [_, _, (cascade, _)] = replay_worlds();
        let singleton = World::singleton_uniform("sys-threads", vec![0.3, 0.7, 0.5]).unwrap();
        for (world, regime) in [
            (singleton, CampaignRegime::IndependentSuites),
            (cascade, CampaignRegime::SharedSuite),
        ] {
            let s = system_scenario(&world, Structure::k_of_n(2, 3), regime, 4);
            let reducer = (Moments, Moments, ElementWise::new(Moments, 3));
            let (system, before, components) = s.reduce(300, 1, &reducer, |seed| {
                let out = s.system_run(seed);
                (out.system_pfd, out.system_pfd_before, out.component_pfds)
            });
            let bits = |e: &Estimate| [e.mean.to_bits(), e.standard_error.to_bits()];
            for threads in [1, 8] {
                let est = s.system_estimate(300, threads);
                let at = format!("{} threads {threads}", world.label());
                assert_eq!(est.component_pfds.len(), 3, "{at}");
                for (got, folded) in est.component_pfds.iter().zip(&components).chain([
                    (&est.system_pfd_before, &before),
                    (&est.system_pfd, &system),
                ]) {
                    assert_eq!(bits(got), bits(&Estimate::from_accumulator(folded)), "{at}");
                }
                assert!(est.system_pfd.mean <= est.system_pfd_before.mean + 1e-12);
            }
        }
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
    fn component_indices_are_capped() {
        use diversim_core::structure::MAX_COMPONENTS;

        let world = World::singleton_uniform("sys-cap", vec![0.5; 4]).unwrap();
        let pair = world.scenario().build().unwrap();
        let tree = |i: usize| Structure::or(vec![Structure::component(0), Structure::component(i)]);
        let refused = ScenarioError::InvalidStructure {
            reason: "component index at or above the cap of 256 components",
        };
        let build = |i: usize| world.scenario().structure(tree(i)).build();
        assert_eq!(build(MAX_COMPONENTS).unwrap_err(), refused);
        assert_eq!(
            pair.with_structure(tree(MAX_COMPONENTS)).unwrap_err(),
            refused
        );
        assert_eq!(build(MAX_COMPONENTS - 1).unwrap().structure(), &tree(255));
        let widest = pair.with_structure(tree(MAX_COMPONENTS - 1)).unwrap();
        assert_eq!(widest.structure().component_count(), MAX_COMPONENTS);
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
