//! Standard universes used across the experiments, so that every
//! experiment states its workload in one line and the reports stay
//! comparable.
//!
//! The world *type* is `sim`'s canonical [`World`] (re-exported here);
//! this module only keeps the named fixtures. Labels are derived from
//! the world parameters by [`World`] itself, so they can never drift
//! from the actual workload. [`FIXTURES`] names the ones `diversim
//! serve` builds on request.

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_universe::generator::{
    mirrored_pair, ProfileKind, PropensityKind, RegionSize, UniverseSpec,
};
use diversim_universe::population::BernoulliPopulation;
use diversim_universe::profile::UsageProfile;

pub use diversim_sim::world::World;

/// A fixture's builder, as [`FIXTURES`] lists it.
pub type Fixture = fn() -> World;

/// The fixtures a serve request can name, in wire spelling, each with
/// its builder. The serve layer checks a name here and builds from here.
pub const FIXTURES: [(&str, Fixture); 5] = [
    ("small-graded", small_graded),
    ("mirrored", || mirrored(0.5, 0.05)),
    ("negative-coupling", negative_coupling),
    ("medium-cascade", || medium_cascade(1)),
    ("large", || large(2)),
];

/// The builder of the fixture called `name`, without building it.
pub fn fixture(name: &str) -> Option<Fixture> {
    FIXTURES
        .iter()
        .find(|&&(fixture, _)| fixture == name)
        .map(|&(_, build)| build)
}

/// The canonical small exact world: 6 demands, singleton faults, graded
/// difficulty 0.02–0.6, uniform usage. Fully enumerable.
pub fn small_graded() -> World {
    World::singleton_uniform("small-graded", vec![0.02, 0.05, 0.1, 0.2, 0.4, 0.6])
        .expect("valid propensities")
}

/// A graded singleton world with a constant-difficulty twin: used to show
/// the EL equality case. `spread` interpolates between constant difficulty
/// (0.0) and strongly varying difficulty (1.0) at fixed mean 0.3.
pub fn graded_with_spread(spread: f64) -> World {
    let mean = 0.3;
    // Difficulty points symmetric around the mean, scaled by `spread`.
    let offsets = [-0.25, -0.15, -0.05, 0.05, 0.15, 0.25];
    let props: Vec<f64> = offsets
        .iter()
        .map(|o| (mean + o * spread).clamp(0.0, 1.0))
        .collect();
    World::singleton_uniform("graded-spread", props).expect("valid propensities")
}

/// A forced-diversity world: mirrored methodologies over 8 singleton
/// faults (negative difficulty covariance).
pub fn mirrored(hi: f64, lo: f64) -> World {
    use diversim_universe::demand::DemandSpace;
    use diversim_universe::fault::FaultModelBuilder;
    use std::sync::Arc;
    let space = DemandSpace::new(8).expect("non-empty");
    let model = Arc::new(
        FaultModelBuilder::new(space)
            .singleton_faults()
            .build()
            .expect("valid"),
    );
    let (pop_a, pop_b) = mirrored_pair(&model, hi, lo).expect("valid propensities");
    World::forced("mirrored", pop_a, pop_b, UsageProfile::uniform(space))
}

/// The engineered negative-eq-25-coupling world: two faults with
/// overlapping regions, each prone for one methodology only.
pub fn negative_coupling() -> World {
    use diversim_universe::demand::{DemandId, DemandSpace};
    use diversim_universe::fault::FaultModelBuilder;
    use std::sync::Arc;
    let space = DemandSpace::new(3).expect("non-empty");
    let model = Arc::new(
        FaultModelBuilder::new(space)
            .fault([DemandId::new(0), DemandId::new(1)])
            .fault([DemandId::new(0), DemandId::new(2)])
            .build()
            .expect("valid"),
    );
    let pop_a = BernoulliPopulation::new(Arc::clone(&model), vec![0.9, 0.0]).expect("valid");
    let pop_b = BernoulliPopulation::new(Arc::clone(&model), vec![0.0, 0.9]).expect("valid");
    World::forced(
        "negative-coupling",
        pop_a,
        pop_b,
        UsageProfile::uniform(space),
    )
}

/// An asymmetric-quality world for the adaptive-allocation experiments
/// (e17/e18): the methodologies produce different fault *geometries*.
/// Version A is riddled with broad methodological blunders — likely
/// faults covering 2–3 demand regions, so each test clears them at a
/// high per-test rate. Version B carries only rare narrow defects —
/// unlikely singleton faults that a uniform test hits slowly.
///
/// The geometry is what makes test *allocation* matter. With a shared
/// fault model the per-demand joint survival decays at the same
/// per-test rate on both sides, so every private split of a fixed
/// budget delivers the same system pfd. Here the rates differ (≈1/2 per
/// test on A's region faults vs 1/6 on B's singletons), so
/// concentrating the budget on A is first-order better than the even
/// split of independent suites — an edge an adaptive policy can
/// discover from observed failures alone.
pub fn asymmetric() -> World {
    use diversim_universe::demand::{DemandId, DemandSpace};
    use diversim_universe::fault::FaultModelBuilder;
    use std::sync::Arc;
    let space = DemandSpace::new(6).expect("non-empty");
    let d = DemandId::new;
    let model = Arc::new(
        FaultModelBuilder::new(space)
            // A's broad blunders: multi-demand regions, quick to flush.
            .fault([d(0), d(1), d(2)])
            .fault([d(3), d(4), d(5)])
            .fault([d(0), d(3)])
            .fault([d(1), d(4)])
            .fault([d(2), d(5)])
            // B's narrow defects: singletons, slow to hit.
            .fault([d(0)])
            .fault([d(1)])
            .fault([d(2)])
            .fault([d(3)])
            .fault([d(4)])
            .fault([d(5)])
            .build()
            .expect("valid"),
    );
    let props_a = vec![0.5, 0.5, 0.35, 0.35, 0.35, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
    let props_b = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.06, 0.06, 0.06, 0.06, 0.06, 0.06];
    let pop_a = BernoulliPopulation::new(Arc::clone(&model), props_a).expect("valid");
    let pop_b = BernoulliPopulation::new(model, props_b).expect("valid");
    World::forced("asymmetric", pop_a, pop_b, UsageProfile::uniform(space))
}

/// A medium simulation world with fault-region cascades: 200 demands, 60
/// faults of region size 1–4, Zipf(0.8) usage, Bernoulli propensities in
/// [0.05, 0.5]. Too large to enumerate; exercised by Monte Carlo.
pub fn medium_cascade(seed: u64) -> World {
    let spec = UniverseSpec {
        n_demands: 200,
        n_faults: 60,
        region_size: RegionSize::Uniform { min: 1, max: 4 },
        profile: ProfileKind::Zipf(0.8),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (universe, pop) = spec
        .generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.05, hi: 0.5 })
        .expect("valid spec");
    World::from_universe("medium-cascade", &universe, pop)
}

/// A large simulation world for benchmarking throughput: 2000 demands,
/// 400 faults, geometric regions (mean 3), harmonic propensities.
pub fn large(seed: u64) -> World {
    let spec = UniverseSpec {
        n_demands: 2000,
        n_faults: 400,
        region_size: RegionSize::Geometric { mean: 3.0 },
        profile: ProfileKind::Zipf(1.0),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let (universe, pop) = spec
        .generate_with_population(&mut rng, PropensityKind::Harmonic { hi: 0.5 })
        .expect("valid spec");
    World::from_universe("large", &universe, pop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_universe::population::Population;

    #[test]
    fn worlds_construct_and_are_consistent() {
        for world in [
            small_graded(),
            graded_with_spread(0.5),
            mirrored(0.5, 0.05),
            negative_coupling(),
            asymmetric(),
            medium_cascade(1),
            large(2),
        ] {
            assert_eq!(world.pop_a.model().space(), world.profile.space());
            assert_eq!(world.pop_b.model().space(), world.profile.space());
            assert!(!world.label().is_empty());
        }
    }

    #[test]
    fn each_fixture_name_builds_its_world() {
        for (name, _) in FIXTURES {
            let world = fixture(name).expect("listed")();
            assert!(world.label().starts_with(name), "{name}: {}", world.label());
        }
        assert!(fixture("nope").is_none());
    }

    #[test]
    fn labels_are_derived_from_parameters() {
        assert_eq!(
            small_graded().label(),
            "small-graded (6 demands, 6 faults, singleton, uniform Q)"
        );
        assert_eq!(
            negative_coupling().label(),
            "negative-coupling (3 demands, 2 faults, regions ≤2, uniform Q)"
        );
        let medium = medium_cascade(1);
        assert!(medium
            .label()
            .starts_with("medium-cascade (200 demands, 60 faults,"));
        assert!(medium.label().ends_with("skewed Q)"));
    }

    #[test]
    fn asymmetric_world_makes_a_the_buggier_version() {
        let w = asymmetric();
        let a: f64 = w.pop_a.theta_vector().iter().sum();
        let b: f64 = w.pop_b.theta_vector().iter().sum();
        assert!(a > 4.0 * b, "A must be markedly buggier: {a} vs {b}");
    }

    #[test]
    fn spread_zero_gives_constant_difficulty() {
        let w = graded_with_spread(0.0);
        let thetas = w.pop_a.theta_vector();
        for t in &thetas {
            assert!((t - 0.3).abs() < 1e-12);
        }
    }

    #[test]
    fn spread_one_varies_difficulty() {
        let w = graded_with_spread(1.0);
        let thetas = w.pop_a.theta_vector();
        assert!(thetas.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 0.5);
        assert!(thetas.iter().cloned().fold(f64::INFINITY, f64::min) < 0.1);
    }
}
