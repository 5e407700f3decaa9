//! Criterion benchmarks for the paper-level computations: exact marginal
//! analyses, suite-measure enumeration, the brute-force eq-(15) kernel,
//! pair and system campaign simulation and growth curves.
//!
//! Campaign rows are named `group/<regime or structure>/<world>`, and a
//! world's pair and system rows run on the same world: small-graded
//! (singleton faults), asymmetric under ε-greedy allocation of a
//! 16-execution budget, and a medium cascade. The `*_estimate` rows
//! time one replication of the replicated study at one thread.
//!
//! Run measured (not `--test`) with
//! `DIVERSIM_BENCH_JSON=BENCH_regimes.json` to archive the trajectory,
//! as the CI `bench-measure` job does.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};

use diversim_bench::worlds::{asymmetric, medium_cascade, mirrored, small_graded};
use diversim_core::marginal::{MarginalAnalysis, SuiteAssignment};
use diversim_core::structure::Structure;
use diversim_exact::brute::TestedEnsemble;
use diversim_sim::campaign::CampaignRegime;
use diversim_sim::policy::PolicySpec;
use diversim_sim::scenario::ScenarioBuilder;
use diversim_testing::oracle::IdenticalFailureModel;
use diversim_testing::suite_population::enumerate_iid_suites;
use diversim_universe::population::Population;

fn bench_exact_marginal(c: &mut Criterion) {
    let w = small_graded();
    let mut group = c.benchmark_group("exact/marginal_analysis");
    for n in [2usize, 4, 8] {
        let m = enumerate_iid_suites(&w.profile, n, 1 << 16).expect("enumerable");
        group.bench_with_input(BenchmarkId::new("shared", n), &m, |b, m| {
            b.iter(|| {
                black_box(MarginalAnalysis::compute(
                    &w.pop_a,
                    &w.pop_a,
                    SuiteAssignment::Shared(m),
                    &w.profile,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("independent", n), &m, |b, m| {
            b.iter(|| {
                black_box(MarginalAnalysis::compute(
                    &w.pop_a,
                    &w.pop_a,
                    SuiteAssignment::independent(m),
                    &w.profile,
                ))
            })
        });
    }
    group.finish();
}

fn bench_suite_enumeration(c: &mut Criterion) {
    let w = small_graded();
    let mut group = c.benchmark_group("exact/enumerate_iid_suites");
    for n in [2usize, 6, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(enumerate_iid_suites(&w.profile, n, 1 << 16).expect("fits")))
        });
    }
    group.finish();
}

/// E3's heaviest call: the independent-suite joint of equation (15) on
/// every demand of mirrored(0.5, 0.05), both versions debugged on suites
/// of size 2 (the eq-(17) cell at n = 2), ensembles built once.
fn bench_joint_kernel(c: &mut Criterion) {
    let w = mirrored(0.5, 0.05);
    let m = enumerate_iid_suites(&w.profile, 2, 1 << 14).expect("enumerable");
    let ensemble = |pop: &dyn Population| {
        let support = pop.enumerate(1 << 12).expect("enumerable");
        TestedEnsemble::new(&support, &m, w.pop_a.model())
    };
    let (a, b) = (ensemble(&w.pop_a), ensemble(&w.pop_b));
    c.bench_function("exact/joint_vector_independent/mirrored", |bench| {
        bench.iter(|| black_box(a.joint_vector_independent(&b)))
    });
}

/// The campaign worlds, one per row of the campaign groups, each with
/// its suite size (the adaptive budget on asymmetric), its pair regimes
/// and the structures of its system rows. Static worlds run their
/// system rows under the shared suite; asymmetric runs its two-component
/// systems under its adaptive regime.
fn campaign_worlds() -> Vec<CampaignWorld> {
    let b2b = CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.5));
    let statics = vec![
        ("independent", CampaignRegime::IndependentSuites),
        ("shared", CampaignRegime::SharedSuite),
        ("back_to_back", b2b),
    ];
    let systems = vec![
        ("and-2", Structure::one_out_of_n(2)),
        ("2-of-3", Structure::k_of_n(2, 3)),
        (
            "nested-2x2",
            Structure::or(vec![
                Structure::and(vec![Structure::component(0), Structure::component(1)]),
                Structure::and(vec![Structure::component(2), Structure::component(3)]),
            ]),
        ),
    ];
    let epsilon = CampaignRegime::Adaptive(PolicySpec::EpsilonGreedy { epsilon: 0.1 });
    vec![
        CampaignWorld {
            name: "small-graded",
            base: small_graded().scenario().suite_size(4),
            regimes: statics.clone(),
            systems: systems.clone(),
        },
        CampaignWorld {
            name: "asymmetric",
            base: asymmetric().scenario().suite_size(16).regime(epsilon),
            regimes: vec![("epsilon_greedy", epsilon)],
            systems: vec![
                ("and-2", Structure::one_out_of_n(2)),
                ("or-2", Structure::series(2)),
            ],
        },
        CampaignWorld {
            name: "medium-cascade",
            base: medium_cascade(7).scenario().suite_size(64),
            regimes: statics,
            systems,
        },
    ]
}

/// One world of the campaign groups (see [`campaign_worlds`]).
struct CampaignWorld {
    name: &'static str,
    base: ScenarioBuilder,
    regimes: Vec<(&'static str, CampaignRegime)>,
    systems: Vec<(&'static str, Structure)>,
}

/// A campaign on successive seeds, one per iteration.
fn each_seed<T>(b: &mut Bencher, campaign: impl Fn(u64) -> T) {
    let mut seed = 0u64;
    b.iter(|| {
        seed = seed.wrapping_add(1);
        black_box(campaign(seed))
    })
}

/// A replicated study at one thread, timed per replication.
fn per_replication<T>(b: &mut Bencher, study: impl Fn(u64) -> T) {
    b.iter_custom(|replications| {
        let started = Instant::now();
        black_box(study(replications));
        started.elapsed()
    })
}

/// Pair campaigns (`Scenario::run`) and their estimate per replication
/// (`Scenario::estimate`, the path of e06, e08–e10, e16–e18 and serve's
/// estimate class), per regime and world.
fn bench_campaigns(c: &mut Criterion) {
    for world in campaign_worlds() {
        let base = world.base.build().expect("valid world");
        for (regime_name, regime) in &world.regimes {
            let scenario = base.with_regime(*regime).expect("valid regime");
            let id = format!("{regime_name}/{}", world.name);
            c.benchmark_group("sim/pair_campaign")
                .bench_function(id.as_str(), |b| each_seed(b, |seed| scenario.run(seed)));
            c.benchmark_group("sim/pair_estimate")
                .bench_function(id.as_str(), |b| {
                    per_replication(b, |n| scenario.estimate(n, 1))
                });
        }
    }
}

/// System campaigns (`Scenario::system_run`) and their estimate per
/// replication (`Scenario::system_estimate`), per structure and world.
fn bench_system_campaigns(c: &mut Criterion) {
    for world in campaign_worlds() {
        let base = world.base.build().expect("valid world");
        for (structure_name, structure) in &world.systems {
            let scenario = base
                .with_structure(structure.clone())
                .expect("valid structure");
            let id = format!("{structure_name}/{}", world.name);
            c.benchmark_group("sim/system_campaign")
                .bench_function(id.as_str(), |b| {
                    each_seed(b, |seed| scenario.system_run(seed))
                });
            c.benchmark_group("sim/system_estimate")
                .bench_function(id.as_str(), |b| {
                    per_replication(b, |n| scenario.system_estimate(n, 1))
                });
        }
    }
}

fn bench_growth(c: &mut Criterion) {
    let scenario = medium_cascade(8).scenario().build().expect("valid world");
    let checkpoints = [0usize, 16, 64, 256];
    c.bench_function("sim/growth_replication", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            black_box(
                scenario
                    .growth_sample(&checkpoints, seed)
                    .expect("valid checkpoints"),
            )
        })
    });
}

fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets =
    bench_exact_marginal,
    bench_suite_enumeration,
    bench_joint_kernel,
    bench_campaigns,
    bench_system_campaigns,
    bench_growth
);
criterion_main!(benches);
