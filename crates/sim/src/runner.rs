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
//! * **Disjoint slot writes** — each block's accumulator lands in its
//!   own pre-allocated slot. Every slot is written by exactly one worker
//!   exactly once: plain unsynchronised stores through an `UnsafeCell`,
//!   no mutex, no per-item locking.
//! * **Panic semantics** — each job runs under `catch_unwind`. The
//!   first panic (lowest replication index among those observed) aborts
//!   further block claiming and is re-raised after all workers drain,
//!   carrying its replication index *and* the original message for
//!   `&str`/`String` payloads (other payload types are re-raised
//!   verbatim). Sibling workers never raise secondary panics.
//!
//! # Determinism contract
//!
//! Each block is folded in index order and the block accumulators are
//! merged in block order, so the result — including floating-point
//! rounding — is bit-identical for any thread count, including 1. The
//! block size is therefore part of the output contract: changing it
//! changes low-order bits of every streamed estimate.

use std::any::Any;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
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

/// Pre-allocated write-once result slots shared across workers.
///
/// Safety protocol: slot `i` is written at most once, by the worker
/// that claimed block `i`, and only read (`into_vec`) after all workers
/// have joined with no panic — i.e. after every slot has been written.
/// On the panic path the slots are dropped as raw `MaybeUninit`
/// storage, which leaks any already-written values; this is deliberate
/// (we cannot know which slots were written) and confined to a path
/// that unwinds with the original job panic.
struct Slots<T> {
    cells: Vec<UnsafeCell<MaybeUninit<T>>>,
}

// SAFETY: workers only perform disjoint writes (see the protocol on the
// type); sharing &Slots across threads is sound for T: Send because the
// values themselves move between threads exactly once.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        Slots {
            cells: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// # Safety
    ///
    /// `i` must be claimed by exactly one worker, which calls this at
    /// most once for it.
    unsafe fn write(&self, i: usize, value: T) {
        (*self.cells[i].get()).write(value);
    }

    /// # Safety
    ///
    /// Every slot must have been written (all blocks completed).
    unsafe fn into_vec(self) -> Vec<T> {
        self.cells
            .into_iter()
            .map(|cell| cell.into_inner().assume_init())
            .collect()
    }
}

/// A captured job panic: the replication index it occurred at plus the
/// original payload.
struct JobPanic {
    index: u64,
    payload: Box<dyn Any + Send>,
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

/// The worker loop: `threads` scoped workers claim block indices
/// `0..n_blocks` from an atomic counter and run `work` on each. If any
/// `work` reports a [`JobPanic`], further claiming stops and the panic
/// with the lowest replication index among those observed is re-raised
/// after every worker has drained — exactly one panic, never a
/// secondary one.
fn drive_workers<F>(n_blocks: u64, threads: usize, work: F)
where
    F: Fn(u64) -> Result<(), JobPanic> + Sync,
{
    let counter = AtomicU64::new(0);
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| -> Option<JobPanic> {
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            return None;
                        }
                        let block = counter.fetch_add(1, Ordering::Relaxed);
                        if block >= n_blocks {
                            return None;
                        }
                        if let Err(panic) = work(block) {
                            abort.store(true, Ordering::Relaxed);
                            return Some(panic);
                        }
                    }
                })
            })
            .collect();
        let mut first: Option<JobPanic> = None;
        for handle in handles {
            match handle.join() {
                Ok(Some(panic)) => {
                    if first.as_ref().is_none_or(|f| panic.index < f.index) {
                        first = Some(panic);
                    }
                }
                Ok(None) => {}
                // A panic outside a job (runner bug): propagate as-is.
                Err(payload) => resume_unwind(payload),
            }
        }
        if let Some(panic) = first {
            raise(panic);
        }
    });
}

/// Runs `replications` jobs and folds their observables through a
/// [`Reducer`] without materialising per-replication results.
///
/// Replications are processed in fixed-size blocks of
/// `ACCUMULATE_BLOCK` (1024); each block is folded in index order
/// ([`Reducer::push`]) into its own pre-allocated slot and the block
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
    let fold_block = |block: u64| -> Result<R::Acc, JobPanic> {
        let mut acc = reducer.empty();
        let lo = block * ACCUMULATE_BLOCK;
        let hi = (lo + ACCUMULATE_BLOCK).min(replications);
        for i in lo..hi {
            let item = run_job(i, || job(i, seeds.seed_for(0, i)))?;
            reducer.push(&mut acc, item);
        }
        Ok(acc)
    };
    let workers = threads.min(usize::try_from(n_blocks).unwrap_or(usize::MAX));
    let blocks: Vec<R::Acc> = if workers == 1 {
        (0..n_blocks)
            .map(|block| fold_block(block).unwrap_or_else(|p| raise(p)))
            .collect()
    } else {
        let slots: Slots<R::Acc> = Slots::new(n_blocks as usize);
        drive_workers(n_blocks, workers, |block| {
            let acc = fold_block(block)?;
            // SAFETY: one slot per block, each block claimed once.
            unsafe { slots.write(block as usize, acc) };
            Ok(())
        });
        // SAFETY: drive_workers returned normally ⇒ all blocks written.
        unsafe { slots.into_vec() }
    };
    // Merge in block order: the fold sequence is fixed, so rounding is
    // too.
    blocks
        .into_iter()
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
