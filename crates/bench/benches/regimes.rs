//! Criterion benchmarks for the paper-level computations: exact marginal
//! analyses, suite-measure enumeration, pair and system campaign
//! simulation and growth curves.
//!
//! Run measured (not `--test`) with
//! `DIVERSIM_BENCH_JSON=BENCH_regimes.json` to archive the trajectory,
//! as the CI `bench-measure` job does.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use diversim_bench::worlds::{medium_cascade, small_graded};
use diversim_core::marginal::{MarginalAnalysis, SuiteAssignment};
use diversim_core::structure::Structure;
use diversim_sim::campaign::CampaignRegime;
use diversim_testing::suite_population::enumerate_iid_suites;

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

fn bench_campaigns(c: &mut Criterion) {
    let base = medium_cascade(7)
        .scenario()
        .suite_size(64)
        .build()
        .expect("valid world");
    let mut group = c.benchmark_group("sim/pair_campaign");
    for (name, regime) in [
        ("independent", CampaignRegime::IndependentSuites),
        ("shared", CampaignRegime::SharedSuite),
        (
            "back_to_back",
            CampaignRegime::BackToBack(diversim_testing::oracle::IdenticalFailureModel::Bernoulli(
                0.5,
            )),
        ),
    ] {
        let scenario = base.with_regime(regime).unwrap();
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(scenario.run(seed))
            })
        });
    }
    group.finish();
}

fn bench_system_campaigns(c: &mut Criterion) {
    let base = medium_cascade(9)
        .scenario()
        .suite_size(64)
        .build()
        .expect("valid world");
    let mut group = c.benchmark_group("sim/system_campaign");
    for (name, structure) in [
        ("and-2", Structure::one_out_of_n(2)),
        ("2-of-3", Structure::k_of_n(2, 3)),
        (
            "nested-2x2",
            Structure::or(vec![
                Structure::and(vec![Structure::component(0), Structure::component(1)]),
                Structure::and(vec![Structure::component(2), Structure::component(3)]),
            ]),
        ),
    ] {
        let scenario = base.with_structure(structure).expect("valid structure");
        group.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(scenario.system_run(seed))
            })
        });
    }
    group.finish();
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
    bench_campaigns,
    bench_system_campaigns,
    bench_growth
);
criterion_main!(benches);
