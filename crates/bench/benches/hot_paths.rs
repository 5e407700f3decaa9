//! Criterion benchmarks for the hot paths of the substrate: score
//! evaluation, failure sets, pfd computation, sampling and debugging.
//! Scoring and debugging run on medium-cascade (60 faults: `O_x` is one
//! word per demand) and on large (400 faults: `O_x` lists), and version
//! sampling on asymmetric (11 faults, 6 of them never drawn) and on large.
//!
//! Run measured (not `--test`) with
//! `DIVERSIM_BENCH_JSON=BENCH_hot_paths.json` to archive the
//! trajectory, as the CI `bench-measure` job does.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use diversim_bench::worlds::{asymmetric, large, medium_cascade};
use diversim_sim::world::World;
use diversim_testing::fixing::PerfectFixer;
use diversim_testing::generation::SuiteGenerator;
use diversim_testing::oracle::PerfectOracle;
use diversim_testing::process::{debug_step, perfect_debug};
use diversim_universe::population::Population;

/// The worlds on either side of the one-word `O_x` index: medium-cascade
/// (60 faults, one word per demand) and large (400 faults, the lists).
fn word_and_list_worlds() -> [(&'static str, World); 2] {
    [("medium-cascade", medium_cascade(1)), ("large", large(2))]
}

fn bench_score_and_pfd(c: &mut Criterion) {
    // One iteration scores the version on every demand of the space, so
    // the row is long enough to resolve a few percent.
    for (name, w) in word_and_list_worlds() {
        let model = w.pop_a.model().clone();
        let version = w.pop_a.sample(&mut StdRng::seed_from_u64(0));
        c.bench_function(format!("score/fails_on/{name}"), |b| {
            b.iter(|| {
                let fails = model
                    .space()
                    .iter()
                    .filter(|&x| version.fails_on(&model, x));
                black_box(fails.count())
            })
        });
    }
    let w = medium_cascade(1);
    let model = w.pop_a.model().clone();
    let mut rng = StdRng::seed_from_u64(0);
    let version = w.pop_a.sample(&mut rng);
    c.bench_function("score/failure_set", |b| {
        b.iter(|| black_box(version.failure_set(black_box(&model))))
    });
    c.bench_function("score/pfd", |b| {
        b.iter(|| black_box(version.pfd(black_box(&model), black_box(&w.profile))))
    });
}

fn bench_sampling(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    for (name, w) in [("asymmetric", asymmetric()), ("large", large(2))] {
        c.bench_function(format!("sample/version_from_bernoulli/{name}"), |b| {
            b.iter(|| black_box(w.pop_a.sample(&mut rng)))
        });
    }
    let w = large(2);
    c.bench_function("sample/demand_from_profile", |b| {
        b.iter(|| black_box(w.profile.sample(&mut rng)))
    });
    let mut group = c.benchmark_group("sample/suite_generation");
    for size in [16usize, 128, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| black_box(w.generator.generate(&mut rng, size)))
        });
    }
    group.finish();
}

fn bench_debugging(c: &mut Criterion) {
    // One iteration debugs a copy of the version on a 64-demand suite, a
    // perfect-oracle, perfect-fixer step per demand.
    let (oracle, fixer) = (PerfectOracle::new(), PerfectFixer::new());
    for (name, w) in word_and_list_worlds() {
        let model = w.pop_a.model().clone();
        let mut rng = StdRng::seed_from_u64(2);
        let version = w.pop_a.sample(&mut rng);
        let suite = w.generator.generate(&mut rng, 64);
        c.bench_function(format!("debug/perfect_step/{name}"), |b| {
            b.iter(|| {
                let mut v = version.clone();
                for &x in suite.demands() {
                    debug_step(&mut v, x, &model, &oracle, &fixer, &mut rng);
                }
                v
            })
        });
    }
    let w = medium_cascade(3);
    let model = w.pop_a.model().clone();
    let mut rng = StdRng::seed_from_u64(2);
    let version = w.pop_a.sample(&mut rng);
    let mut group = c.benchmark_group("debug/perfect_debug");
    for size in [8usize, 64, 512] {
        let suite = w.generator.generate(&mut rng, size);
        group.bench_with_input(BenchmarkId::from_parameter(size), &suite, |b, suite| {
            b.iter(|| black_box(perfect_debug(black_box(&version), suite, &model)))
        });
    }
    group.finish();
}

fn bench_difficulty(c: &mut Criterion) {
    let w = medium_cascade(4);
    let mut covered = diversim_universe::bitset::BitSet::new(w.profile.space().len());
    for i in (0..200).step_by(3) {
        covered.insert(i);
    }
    c.bench_function("difficulty/theta_vector", |b| {
        b.iter(|| black_box(w.pop_a.theta_vector()))
    });
    c.bench_function("difficulty/xi_vector", |b| {
        b.iter(|| {
            black_box(diversim_core::difficulty::TestedDifficulty::xi_vector(
                &w.pop_a,
                black_box(&covered),
            ))
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
    bench_score_and_pfd,
    bench_sampling,
    bench_debugging,
    bench_difficulty
);
criterion_main!(benches);
