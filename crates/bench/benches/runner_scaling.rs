//! Scaling of the runner's one fold, `parallel_reduce`, across worker
//! threads — the path every Monte Carlo study runs.
//!
//! Two job granularities bracket what the studies fold:
//!
//! * **small** — 65,536 replications (64 blocks of 1024) of a few dozen
//!   nanoseconds of pure arithmetic each, folded into `Moments`. This is
//!   the regime where the runner's own cost shows: block claiming, the
//!   per-block fold and the block-order merge.
//! * **large** — 16,384 full campaign replications (`Scenario::run`,
//!   16 blocks of 1024), folding the system pfd into `Moments` as
//!   `Scenario::estimate` does. Sixteen blocks give every thread count
//!   work, so the bench measures genuine compute scaling (and motivates
//!   the 16-thread cap of `default_threads`).
//!
//! Thread counts sweep 1/2/4/8/16. Run measured (not `--test`) with
//! `DIVERSIM_BENCH_JSON=BENCH_runner_scaling.json` to archive the
//! trajectory, as the CI `bench-measure` job does.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use diversim_bench::worlds::medium_cascade;
use diversim_sim::runner::parallel_reduce;
use diversim_stats::reduce::Moments;
use diversim_stats::seed::SeedSequence;

/// A deliberately tiny job body: a short integer-mix loop, no
/// allocation, ~tens of nanoseconds.
fn small_job(i: u64, seed: u64) -> f64 {
    let mut z = seed ^ i.rotate_left(32);
    for _ in 0..8 {
        z = z.wrapping_mul(0x2545_F491_4F6C_DD1D);
        z ^= z >> 29;
    }
    z as f64
}

fn scaling_small_job(c: &mut Criterion) {
    let seeds = SeedSequence::new(7);
    let mut group = c.benchmark_group("runner_scaling/small_job");
    for threads in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("reduce", threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(parallel_reduce(65_536, seeds, threads, &Moments, small_job)))
            },
        );
    }
    group.finish();
}

fn scaling_large_job(c: &mut Criterion) {
    let scenario = medium_cascade(17)
        .scenario()
        .suite_size(64)
        .build()
        .expect("valid world");
    let seeds = SeedSequence::new(23);
    let job = |_i: u64, seed: u64| scenario.run(seed).system_pfd;
    let mut group = c.benchmark_group("runner_scaling/large_job");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("reduce", threads),
            &threads,
            |b, &threads| {
                b.iter(|| black_box(parallel_reduce(16_384, seeds, threads, &Moments, job)))
            },
        );
    }
    group.finish();
}

fn quick_config() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets = scaling_small_job, scaling_large_job
);
criterion_main!(benches);
