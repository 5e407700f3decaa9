//! Lock-free deterministic parallel replication runner.
//!
//! Monte Carlo experiments are embarrassingly parallel, but naive
//! parallelism destroys reproducibility (results depend on scheduling).
//! Here every replication `i` derives its seed purely from `(root seed,
//! i)` via [`SeedSequence`], so the *values* are schedule-independent by
//! construction; the runner's job is to fold them fast, in a fixed
//! order, without ever serialising the workers. [`parallel_reduce`] is
//! its one entry point: every replicated study streams its observables
//! through a [`Reducer`] (tuples of reducers fold several observables
//! in one pass).
//!
//! # Execution model
//!
//! * **Block claiming** — workers claim blocks of `ACCUMULATE_BLOCK`
//!   (1024) consecutive replications from one shared atomic counter
//!   (`fetch_add`), the only point of inter-thread communication on the
//!   hot path.
//! * **Workers return their folds** — each worker folds the blocks it
//!   claimed into its own `(block, accumulator)` list and hands the list
//!   back when it is joined; no state is shared but the job, the counter
//!   and an abort flag. One worker runs inline on the calling thread,
//!   which holds a unit of the caller's thread budget; the other
//!   `threads − 1` run as scoped threads, which the caller joins once its
//!   own worker finds no block left. The shared state sits on cache lines
//!   of its own, away from the stack the calling thread's worker writes.
//! * **Panic semantics** — each job runs under `catch_unwind`. A job
//!   panic sets the abort flag, which stops further block claiming, and
//!   its worker returns the panic instead of its folds (dropping them).
//!   Once every worker has drained, the panic with the lowest
//!   replication index among those observed is re-raised, carrying its
//!   index *and* the original message for `&str`/`String` payloads
//!   (other payload types are re-raised verbatim). Sibling workers never
//!   raise secondary panics, and every finished fold is dropped.
//!
//! # Determinism contract
//!
//! Each block is folded in index order and the block accumulators are
//! merged in block order, so the result — including floating-point
//! rounding — is bit-identical for any thread count, including 1. The
//! block size is therefore part of the output contract: changing it
//! changes low-order bits of every streamed estimate.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use diversim_stats::reduce::Reducer;
use diversim_stats::seed::SeedSequence;

/// Replications per accumulation block.
///
/// Blocks are the unit of work claiming *and* of floating-point
/// accumulation: each block is folded in index order and blocks are
/// merged in block order, so the result is bit-identical for any thread
/// count — but a function of this constant. Do not change it casually:
/// every recorded experiment result encodes it in its low-order bits.
const ACCUMULATE_BLOCK: u64 = 1024;

/// A captured job panic: the replication index it occurred at plus the
/// original payload.
struct JobPanic {
    index: u64,
    payload: Box<dyn Any + Send>,
}

/// What the workers of one [`parallel_reduce`] call share: the job and
/// the block claims. It sits on cache lines of its own: the calling
/// thread runs a worker too, and its stack writes must not share a line
/// with what the other workers read on every replication.
#[repr(align(128))]
struct Shared<F> {
    job: F,
    counter: AtomicU64,
    abort: AtomicBool,
}

/// Runs one job under `catch_unwind`, tagging any panic with its
/// replication index.
fn run_job<T>(index: u64, job: impl FnOnce() -> T) -> Result<T, JobPanic> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobPanic { index, payload })
}

/// Re-raises a captured job panic. String-ish payloads are re-wrapped
/// so the replication index and the original message both surface in
/// the propagated panic; other payloads are re-raised verbatim (the
/// index is then only visible in the worker's original report).
fn raise(p: JobPanic) -> ! {
    let JobPanic { index, payload } = p;
    if let Some(msg) = payload.downcast_ref::<&str>() {
        panic!("replication {index} panicked: {msg}");
    }
    if let Some(msg) = payload.downcast_ref::<String>() {
        panic!("replication {index} panicked: {msg}");
    }
    resume_unwind(payload)
}

/// Runs `replications` jobs and folds their observables through a
/// [`Reducer`] without materialising per-replication results.
///
/// Replications are processed in fixed-size blocks of
/// `ACCUMULATE_BLOCK` (1024); each block is folded in index order
/// ([`Reducer::push`]) by the worker that claimed it, and the block
/// accumulators are merged in block order ([`Reducer::merge`]), so the
/// result is a pure function of `(replications, seeds, reducer, job)` —
/// bit-identical for any `threads`, including 1 — while memory stays
/// `O(blocks)` instead of `O(replications)`.
///
/// Reducers compose (tuples, [`ElementWise`]), so one pass can stream
/// any mix of moments, sums and counts; see [`diversim_stats::reduce`].
///
/// [`ElementWise`]: diversim_stats::reduce::ElementWise
///
/// # Panics
///
/// Panics if `threads == 0`, or re-raises the first job panic with its
/// replication index.
///
/// # Examples
///
/// ```
/// use diversim_sim::runner::parallel_reduce;
/// use diversim_stats::reduce::{Count, Moments};
/// use diversim_stats::seed::SeedSequence;
///
/// let seeds = SeedSequence::new(3);
/// let reducer = (Moments, Count);
/// let job = |i: u64, _seed: u64| (i as f64, i % 2 == 0);
/// let one = parallel_reduce(5000, seeds, 1, &reducer, job);
/// let eight = parallel_reduce(5000, seeds, 8, &reducer, job);
/// assert_eq!(one, eight);
/// assert_eq!(one.0.mean(), 2499.5);
/// assert_eq!(one.1, 2500);
/// ```
pub fn parallel_reduce<R, F>(
    replications: u64,
    seeds: SeedSequence,
    threads: usize,
    reducer: &R,
    job: F,
) -> R::Acc
where
    R: Reducer + Sync,
    R::Acc: Send,
    F: Fn(u64, u64) -> R::Item + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    if replications == 0 {
        return reducer.empty();
    }
    let n_blocks = replications.div_ceil(ACCUMULATE_BLOCK);
    let shared = &Shared {
        job,
        counter: AtomicU64::new(0),
        abort: AtomicBool::new(false),
    };
    // One worker: claim blocks until none is left or a job has panicked,
    // and return the folds of the blocks claimed, or the first panic.
    // Each worker keeps its own copy of the closure, so it reads only
    // `shared` from the caller's frame.
    let work = move || -> Result<Vec<(u64, R::Acc)>, JobPanic> {
        let mut folds = Vec::new();
        while !shared.abort.load(Ordering::Relaxed) {
            let block = shared.counter.fetch_add(1, Ordering::Relaxed);
            if block >= n_blocks {
                break;
            }
            let mut acc = reducer.empty();
            let lo = block * ACCUMULATE_BLOCK;
            for i in lo..(lo + ACCUMULATE_BLOCK).min(replications) {
                match run_job(i, || (shared.job)(i, seeds.seed_for(0, i))) {
                    Ok(item) => reducer.push(&mut acc, item),
                    Err(panic) => {
                        shared.abort.store(true, Ordering::Relaxed);
                        return Err(panic);
                    }
                }
            }
            folds.push((block, acc));
        }
        Ok(folds)
    };
    let workers = threads.min(usize::try_from(n_blocks).unwrap_or(usize::MAX));
    // The caller is one of the workers: it holds a unit of the thread
    // budget, so it folds blocks instead of only joining the others.
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut results = vec![work()];
        results.extend(
            handles
                .into_iter()
                // A panic outside a job (runner bug): propagate as-is.
                .map(|handle| handle.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        results
    });
    let mut blocks = Vec::new();
    let mut panics = Vec::new();
    for result in results {
        match result {
            Ok(folds) => blocks.extend(folds),
            Err(panic) => panics.push(panic),
        }
    }
    if let Some(panic) = panics.into_iter().min_by_key(|p| p.index) {
        raise(panic);
    }
    // Merge in block order: the fold sequence is fixed, so rounding is
    // too.
    blocks.sort_unstable_by_key(|&(block, _)| block);
    blocks
        .into_iter()
        .map(|(_, acc)| acc)
        .reduce(|left, right| reducer.merge(left, right))
        .expect("at least one block")
}

/// A sensible default worker count: the number of available CPUs,
/// capped at 16.
///
/// The cap is empirical, not architectural: replication jobs stream
/// through shared per-world evaluation tables, so past roughly 16
/// workers the workloads here saturate memory bandwidth rather than
/// cores, and tiny job bodies peak earlier still. The `runner_scaling`
/// bench (1/2/4/8/16 threads, small vs large job bodies) records the
/// scaling curve on real hardware via CI's measured-bench trajectory,
/// so the cap can be revisited with data. Callers with unusual hardware can always
/// pass an explicit thread count; correctness never depends on it.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversim_stats::online::MeanVar;
    use diversim_stats::reduce::{Count, Moments, Sum};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert!(default_threads() <= 16);
    }

    #[test]
    fn reduce_is_thread_count_invariant_bitwise() {
        // More replications than one block so the merge path is exercised.
        let seeds = SeedSequence::new(11);
        let job = |_i: u64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (rng.gen::<f64>(), rng.gen::<f64>() * 3.0 - 1.5)
        };
        let serial = parallel_reduce(5000, seeds, 1, &(Moments, Moments), job);
        for threads in [2, 3, 8] {
            let parallel = parallel_reduce(5000, seeds, threads, &(Moments, Moments), job);
            assert_eq!(serial, parallel, "thread count {threads} changed moments");
        }
    }

    #[test]
    fn reduce_matches_sequential_push_statistics() {
        let seeds = SeedSequence::new(13);
        let job = |_i: u64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            rng.gen::<f64>()
        };
        let acc = parallel_reduce(3000, seeds, 4, &Moments, job);
        let mut reference = MeanVar::new();
        for i in 0..3000u64 {
            reference.push(job(i, seeds.seed_for(0, i)));
        }
        assert_eq!(acc.count(), reference.count());
        assert!((acc.mean() - reference.mean()).abs() < 1e-12);
        assert!((acc.sample_variance() - reference.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn reduce_zero_replications_is_empty() {
        let seeds = SeedSequence::new(0);
        let acc = parallel_reduce(0, seeds, 4, &Moments, |_, _| 1.0);
        assert_eq!(acc.count(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn reduce_zero_threads_panics() {
        let seeds = SeedSequence::new(0);
        let _ = parallel_reduce(1, seeds, 0, &Moments, |_, _| 1.0);
    }

    #[test]
    fn calling_thread_folds_blocks_of_a_parallel_reduce() {
        // Two blocks, two workers: each worker waits at its block's first
        // replication until the other arrives, so each folds one block,
        // and one of the two workers must be the calling thread.
        let caller = std::thread::current().id();
        let both_started = std::sync::Barrier::new(2);
        let job = |i: u64, _seed: u64| {
            if i.is_multiple_of(ACCUMULATE_BLOCK) {
                both_started.wait();
            }
            std::thread::current().id() == caller
        };
        let on_caller = parallel_reduce(2 * ACCUMULATE_BLOCK, SeedSequence::new(5), 2, &Count, job);
        assert_eq!(on_caller, ACCUMULATE_BLOCK);
    }

    #[test]
    fn reduce_streams_composite_observables() {
        let seeds = SeedSequence::new(21);
        let reducer = (Moments, Sum, Count);
        let acc = parallel_reduce(2500, seeds, 4, &reducer, |i, _| {
            (i as f64, i as f64, i % 3 == 0)
        });
        assert_eq!(acc.0.count(), 2500);
        assert_eq!(acc.1, 2499.0 * 2500.0 / 2.0);
        assert_eq!(acc.2, 834);
    }
}
