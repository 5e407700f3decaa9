//! End-to-end determinism: every simulation result is a pure function of
//! its seed, independent of thread count and repeated invocation.

use diversim::prelude::*;
use diversim::sim::campaign::CampaignRegime;
use diversim::sim::policy::PolicySpec;
use diversim::universe::generator::{ProfileKind, PropensityKind, RegionSize, UniverseSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup() -> SimWorld {
    let spec = UniverseSpec {
        n_demands: 40,
        n_faults: 20,
        region_size: RegionSize::Uniform { min: 1, max: 3 },
        profile: ProfileKind::Zipf(0.5),
    };
    let mut rng = StdRng::seed_from_u64(5150);
    let (universe, pop) = spec
        .generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.05, hi: 0.4 })
        .unwrap();
    SimWorld::from_universe("determinism", &universe, pop)
}

/// Every regime the scenario API supports, for cross-regime sweeps.
fn all_regimes() -> [CampaignRegime; 8] {
    [
        CampaignRegime::IndependentSuites,
        CampaignRegime::SharedSuite,
        CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.3)),
        CampaignRegime::BackToBack(IdenticalFailureModel::Always),
        CampaignRegime::Adaptive(PolicySpec::RoundRobin),
        CampaignRegime::Adaptive(PolicySpec::GreedyOnFailures),
        CampaignRegime::Adaptive(PolicySpec::EpsilonGreedy { epsilon: 0.1 }),
        CampaignRegime::Adaptive(PolicySpec::UcbIndex { c: 0.5 }),
    ]
}

#[test]
fn every_regime_is_seed_deterministic_and_thread_invariant() {
    // The cross-regime determinism matrix: for each campaign regime,
    // (i) `run(seed)` twice produces identical outcomes, and (ii) the
    // replicated estimate is byte-identical between 1 and 8 worker
    // threads.
    let world = setup();
    let base = world.scenario().suite_size(10).seed(31337).build().unwrap();
    for regime in all_regimes() {
        let s = base.with_regime(regime).unwrap();
        assert_eq!(s.run(777), s.run(777), "{regime:?}: run(seed) not pure");
        let one = s.estimate(256, 1);
        let eight = s.estimate(256, 8);
        assert_eq!(one, eight, "{regime:?}: thread count changed the estimate");
    }
}

#[test]
fn adaptive_policy_traces_are_bit_identical_across_threads() {
    // Policy traces are pure functions of the campaign seed, and the
    // aggregated policy study is byte-identical between 1 and 8 worker
    // threads — adaptive regimes obey the same determinism contract as
    // the static ones above.
    let world = setup();
    for spec in [
        PolicySpec::RoundRobin,
        PolicySpec::GreedyOnFailures,
        PolicySpec::EpsilonGreedy { epsilon: 0.1 },
        PolicySpec::UcbIndex { c: 0.5 },
    ] {
        let s = world
            .scenario()
            .suite_size(12)
            .regime(CampaignRegime::Adaptive(spec))
            .seed(31337)
            .build()
            .unwrap();
        assert_eq!(
            s.policy_trace(777).unwrap(),
            s.policy_trace(777).unwrap(),
            "{spec:?}: policy_trace(seed) not pure"
        );
        assert_eq!(
            s.policy_study(128, 1).unwrap(),
            s.policy_study(128, 8).unwrap(),
            "{spec:?}: thread count changed the policy study"
        );
    }
}

#[test]
fn estimates_identical_across_thread_counts() {
    let s = setup()
        .scenario()
        .suite_size(10)
        .oracle(ImperfectOracle::new(0.8).unwrap())
        .fixer(ImperfectFixer::new(0.9).unwrap())
        .seed(31337)
        .build()
        .unwrap();
    let reference = s.estimate(512, 1);
    for threads in [2, 3, 5, 8] {
        assert_eq!(
            s.estimate(512, threads),
            reference,
            "thread count {threads} changed the estimate"
        );
    }
}

#[test]
fn growth_curves_identical_across_thread_counts() {
    let s = setup()
        .scenario()
        .regime(CampaignRegime::BackToBack(
            IdenticalFailureModel::Bernoulli(0.3),
        ))
        .seed(99)
        .build()
        .unwrap();
    let run = |threads: usize| s.growth(&[0, 5, 15, 30], 256, threads).unwrap();
    let reference = run(1);
    let parallel = run(6);
    assert_eq!(reference.system_means(), parallel.system_means());
    assert_eq!(reference.version_a_means(), parallel.version_a_means());
}

#[test]
fn different_seeds_give_different_results() {
    let s = setup()
        .scenario()
        .suite_size(10)
        .regime(CampaignRegime::IndependentSuites)
        .build()
        .unwrap();
    let run = |seed: u64| s.with_seed(seed).estimate(256, 4);
    assert_ne!(run(1).system_pfd, run(2).system_pfd);
}

#[test]
fn seed_policies_are_deterministic_but_distinct() {
    let s = setup().scenario().suite_size(5).build().unwrap();
    let sequence = s.with_seeds(SeedPolicy::sequence(7));
    let offset = s.with_seeds(SeedPolicy::offset(7));
    assert_eq!(sequence.estimate(128, 1), sequence.estimate(128, 8));
    assert_eq!(offset.estimate(128, 1), offset.estimate(128, 8));
    assert_ne!(
        sequence.estimate(128, 4),
        offset.estimate(128, 4),
        "the two derivation rules must generate different replication streams"
    );
}

#[test]
fn universe_generation_is_reproducible() {
    let spec = UniverseSpec {
        n_demands: 30,
        n_faults: 15,
        region_size: RegionSize::Geometric { mean: 2.5 },
        profile: ProfileKind::Uniform,
    };
    let build = || {
        let mut rng = StdRng::seed_from_u64(777);
        spec.generate_with_population(&mut rng, PropensityKind::Uniform { lo: 0.1, hi: 0.6 })
            .unwrap()
    };
    let (u1, p1) = build();
    let (u2, p2) = build();
    assert_eq!(p1.propensities(), p2.propensities());
    for (f1, f2) in u1.model().fault_ids().zip(u2.model().fault_ids()) {
        assert_eq!(u1.model().fault(f1).region(), u2.model().fault(f2).region());
    }
}

#[test]
fn serve_responses_are_pure_functions_of_the_request_line() {
    // The serve layer inherits the engine's determinism end to end: the
    // same wire line answered by services with different worker counts
    // and cache capacities — and answered twice by the same service, so
    // once as a cache miss and once as a hit — yields identical bytes.
    use diversim_bench::serve::EvaluationService;
    let line = r#"{"api":"diversim/v1","id":"root-determinism","seed":5150,"stream":3,
        "kind":"evaluate","world":{"kind":"fixture","name":"small-graded"},
        "regime":{"kind":"back_to_back","gamma":0.3},"suite_size":6,
        "replications":200,"study":"estimate"}"#
        .replace('\n', "");
    let reference = EvaluationService::new(1, 8).handle_line(&line);
    assert!(
        reference.contains("\"ok\":true"),
        "bad response: {reference}"
    );
    for (threads, capacity) in [(4usize, 8usize), (8, 1)] {
        let service = EvaluationService::new(threads, capacity);
        assert_eq!(service.handle_line(&line), reference);
        assert_eq!(service.handle_line(&line), reference, "cache hit differed");
    }
}

#[test]
fn campaigns_with_same_seed_share_version_draws() {
    // The campaign seed fully determines the sampled versions, so two
    // regimes at the same seed start from identical pairs — the paired
    // comparison the trade-off experiments rely on.
    let base = setup().scenario().suite_size(0).build().unwrap();
    let a = base.run(4242);
    let b = base
        .with_regime(CampaignRegime::IndependentSuites)
        .unwrap()
        .run(4242);
    // Zero-size suites: the outcome is exactly the drawn versions.
    assert_eq!(a.first, b.first);
    assert_eq!(a.second, b.second);
}
