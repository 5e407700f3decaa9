//! Campaign stage replay: one pair campaign rebuilt from the public
//! stage functions — `Population::sample`, `SuiteGenerator::generate`,
//! `testing::process::debug_version` and `Prepared::{version_pfd,
//! pair_pfd}` — with a span around each stage, so the traced run can
//! say where a campaign's time goes without touching `sim`.
//!
//! The replay consumes the random stream in the same order as
//! `Scenario::run`, so its outcome must be bit-identical; the traced run
//! checks that for every replayed seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_sim::campaign::{CampaignRegime, PairOutcome};
use diversim_sim::prepared::Prepared;
use diversim_sim::world::World;
use diversim_testing::fixing::PerfectFixer;
use diversim_testing::generation::SuiteGenerator;
use diversim_testing::oracle::PerfectOracle;
use diversim_testing::process::debug_version;
use diversim_universe::population::Population;

use crate::spans::Trace;

/// Replays the campaign `Scenario::run(seed)` runs for `world` under a
/// shared or independent suite regime of `suite_size` demands, with
/// the default perfect oracle and fixer. Each stage is a span under
/// `parent`.
///
/// # Panics
///
/// On the regimes the stage functions above do not cover
/// (back-to-back and adaptive campaigns).
pub fn replay(
    world: &World,
    prepared: &Prepared,
    regime: CampaignRegime,
    suite_size: usize,
    seed: u64,
    trace: &mut Trace,
    parent: usize,
) -> PairOutcome {
    let (oracle, fixer) = (PerfectOracle::new(), PerfectFixer::new());
    let model = prepared.model();
    let mut rng = StdRng::seed_from_u64(seed);
    let (p, op) = (Some(parent), seed);
    let va = trace.time("universe.sample", p, op, || world.pop_a.sample(&mut rng));
    let vb = trace.time("universe.sample", p, op, || world.pop_b.sample(&mut rng));
    let first_pfd_before = trace.time("sim.prepared.eval", p, op, || prepared.version_pfd(&va));
    let second_pfd_before = trace.time("sim.prepared.eval", p, op, || prepared.version_pfd(&vb));
    let system_pfd_before = trace.time("sim.prepared.eval", p, op, || prepared.pair_pfd(&va, &vb));
    let mut generate = |trace: &mut Trace| {
        trace.time("testing.generate", p, op, || {
            world.generator.generate(&mut rng, suite_size)
        })
    };
    let (ta, tb) = match regime {
        CampaignRegime::IndependentSuites => (generate(trace), generate(trace)),
        CampaignRegime::SharedSuite => {
            let t = generate(trace);
            (t.clone(), t)
        }
        other => panic!("stage replay covers shared and independent suites, not {other:?}"),
    };
    let first = trace.time("testing.debug", p, op, || {
        debug_version(&va, &ta, model, &oracle, &fixer, &mut rng).version
    });
    let second = trace.time("testing.debug", p, op, || {
        debug_version(&vb, &tb, model, &oracle, &fixer, &mut rng).version
    });
    PairOutcome {
        first_pfd: trace.time("sim.prepared.eval", p, op, || prepared.version_pfd(&first)),
        second_pfd: trace.time("sim.prepared.eval", p, op, || prepared.version_pfd(&second)),
        system_pfd: trace.time("sim.prepared.eval", p, op, || {
            prepared.pair_pfd(&first, &second)
        }),
        first,
        second,
        first_pfd_before,
        second_pfd_before,
        system_pfd_before,
    }
}

/// Whether two outcomes agree bit for bit (versions equal, every pfd
/// with the same `f64` bits).
pub fn bit_identical(a: &PairOutcome, b: &PairOutcome) -> bool {
    let bits = |o: &PairOutcome| {
        [
            o.first_pfd,
            o.second_pfd,
            o.system_pfd,
            o.first_pfd_before,
            o.second_pfd_before,
            o.system_pfd_before,
        ]
        .map(f64::to_bits)
    };
    a.first == b.first && a.second == b.second && bits(a) == bits(b)
}

/// The worlds the traced run replays, with the suite size used on each.
pub fn worlds() -> [(&'static str, World, usize); 3] {
    use diversim_bench::worlds;
    [
        ("small_graded", worlds::small_graded(), 4),
        ("medium_cascade", worlds::medium_cascade(1), 8),
        ("large", worlds::large(2), 16),
    ]
}

/// The regimes the stage replay covers.
pub const REGIMES: [CampaignRegime; 2] = [
    CampaignRegime::SharedSuite,
    CampaignRegime::IndependentSuites,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn replay_is_bit_identical_to_scenario_run_on_a_fixed_seed_set() {
        for (name, world, suite_size) in worlds() {
            let prepared = Prepared::new(Arc::clone(world.model()), world.profile.clone());
            for regime in REGIMES {
                let scenario = world
                    .scenario()
                    .suite_size(suite_size)
                    .regime(regime)
                    .build()
                    .unwrap();
                let mut trace = Trace::default();
                let root = trace.open("sim.campaign", None, 0);
                for seed in 0..200 {
                    let replayed = replay(
                        &world, &prepared, regime, suite_size, seed, &mut trace, root,
                    );
                    assert!(
                        bit_identical(&replayed, &scenario.run(seed)),
                        "{name} {regime:?} seed {seed}"
                    );
                }
                let stages = if regime == CampaignRegime::SharedSuite {
                    11
                } else {
                    12
                };
                assert_eq!(trace.spans().len(), 1 + 200 * stages);
            }
        }
    }

    #[test]
    fn bit_identity_notices_a_one_ulp_change() {
        let world = diversim_bench::worlds::small_graded();
        let scenario = world.scenario().suite_size(4).build().unwrap();
        let a = scenario.run(3);
        let mut b = a.clone();
        b.system_pfd = f64::from_bits(b.system_pfd.to_bits() + 1);
        assert!(bit_identical(&a, &a.clone()));
        assert!(!bit_identical(&a, &b));
    }
}
