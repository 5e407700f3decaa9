//! Stress tests for the lock-free execution layer on the path every
//! study runs, `parallel_reduce`: block-boundary shapes, degenerate
//! worker/block ratios, zero-width reducers, bitwise thread invariance
//! through composite reducers, and the panic propagation contract
//! (original payload + replication index, no secondary panics, no
//! leaked accumulators) on both the serial and the parallel path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use diversim_sim::runner::parallel_reduce;
use diversim_stats::reduce::{Count, ElementWise, Moments, Reducer, Sum};
use diversim_stats::seed::SeedSequence;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A job with real per-replication state, so reordering bugs cannot
/// cancel out.
fn noisy_job(i: u64, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    rng.gen::<f64>() * 2.0 - 1.0 + (i as f64).sin() * 1e-3
}

#[test]
fn block_boundaries_are_exact() {
    // 1024 is the accumulation block: cover exactly-at, one-below and
    // one-above several multiples of it.
    let seeds = SeedSequence::new(404);
    let reducer = (Moments, Sum);
    let job = |i: u64, s: u64| {
        let x = noisy_job(i, s);
        (x, x)
    };
    for replications in [1u64, 1023, 1024, 1025, 2047, 2048, 2049, 3071, 3072, 3073] {
        let serial = parallel_reduce(replications, seeds, 1, &reducer, job);
        assert_eq!(serial.0.count(), replications);
        for threads in [2, 7, 16] {
            let parallel = parallel_reduce(replications, seeds, threads, &reducer, job);
            assert_eq!(
                serial, parallel,
                "replications={replications}, threads={threads} changed results"
            );
        }
    }
}

#[test]
fn more_threads_than_replications_is_sound() {
    let seeds = SeedSequence::new(77);
    let reducer = (Moments, Sum);
    let acc = parallel_reduce(3, seeds, 16, &reducer, |i, _| (i as f64, 1.0));
    assert_eq!(acc.0.count(), 3);
    assert_eq!(acc.0.mean(), 1.0);
    assert_eq!(acc.1, 3.0);
    // Three blocks, sixteen threads: most workers find no block to claim.
    let acc = parallel_reduce(3000, seeds, 16, &reducer, |i, _| (i as f64, 1.0));
    assert_eq!(acc.0.count(), 3000);
    assert_eq!(acc.0.mean(), 1499.5);
    assert_eq!(acc.1, 3000.0);
}

#[test]
fn zero_width_reducer_is_sound() {
    // Zero elements: jobs still run (for their side-effect-free bodies),
    // the result is an empty bundle — on both the serial and parallel path.
    let seeds = SeedSequence::new(5);
    let none = ElementWise::new(Moments, 0);
    let none_serial = parallel_reduce(3000, seeds, 1, &none, |_, _| Vec::new());
    let none_parallel = parallel_reduce(3000, seeds, 8, &none, |_, _| Vec::new());
    assert!(none_serial.is_empty());
    assert!(none_parallel.is_empty());
    let empty = parallel_reduce(0, seeds, 8, &none, |_, _| Vec::new());
    assert!(empty.is_empty());
}

#[test]
fn reducer_path_is_bitwise_identical_threads_1_vs_16() {
    // A composite reducer spanning every building block: moments,
    // counts, an order-sensitive sum and a per-element vector lift.
    let seeds = SeedSequence::new(909);
    let reducer = ((Moments, Sum), (Count, Sum), ElementWise::new(Moments, 3));
    let job = |i: u64, seed: u64| {
        let x = noisy_job(i, seed);
        ((x, x), (x > 0.0, x * x), vec![x, x * x, -x])
    };
    let one = parallel_reduce(5000, seeds, 1, &reducer, job);
    let sixteen = parallel_reduce(5000, seeds, 16, &reducer, job);
    assert_eq!(one, sixteen, "Reducer path not bitwise thread-invariant");
    assert_eq!(one.0 .0.count(), 5000);
    assert!(one.1 .0 > 0 && one.1 .0 < 5000);
    assert_eq!(one.2[0].count(), 5000);
}

/// Extracts the propagated panic message, if it is string-like.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        panic!("panic payload is not string-like");
    }
}

#[test]
fn job_panic_surfaces_original_payload_and_index() {
    // Five blocks on four workers: the parallel path. Siblings must
    // drain quietly instead of raising secondary panics that would mask
    // the original message.
    let seeds = SeedSequence::new(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_reduce(5000, seeds, 4, &Moments, |i, _| {
            if i == 2137 {
                panic!("boom in job body");
            }
            i as f64
        })
    }));
    let msg = panic_message(result.expect_err("the job panic must propagate"));
    assert!(
        msg.contains("boom in job body"),
        "original payload lost: {msg}"
    );
    assert!(msg.contains("replication 2137"), "index lost: {msg}");
    assert!(
        !msg.contains("poisoned"),
        "secondary lock-poisoning panic resurfaced: {msg}"
    );
}

#[test]
fn tuple_reducer_panic_surfaces_original_payload_and_index() {
    let seeds = SeedSequence::new(2);
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_reduce(3000, seeds, 4, &(Moments, Count), |i, _| {
            assert!(i != 1500, "invariant violated at replication {i}");
            (0.0, true)
        })
    }));
    let msg = panic_message(result.expect_err("the job panic must propagate"));
    assert!(
        msg.contains("invariant violated"),
        "original payload lost: {msg}"
    );
    assert!(msg.contains("replication 1500"), "index lost: {msg}");
    assert!(
        !msg.contains("poisoned"),
        "secondary panic resurfaced: {msg}"
    );
}

#[test]
fn serial_path_annotates_panics_identically() {
    let seeds = SeedSequence::new(3);
    for threads in [1, 4] {
        // One block: the serial path whatever the thread count.
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_reduce(10, seeds, threads, &Moments, |i, _| {
                if i == 7 {
                    panic!("serial boom");
                }
                i as f64
            })
        }));
        let msg = panic_message(result.expect_err("the job panic must propagate"));
        assert!(msg.contains("serial boom"));
        assert!(msg.contains("replication 7"));
    }
}

#[test]
fn non_string_panic_payloads_are_reraised_verbatim() {
    let seeds = SeedSequence::new(4);
    for replications in [100, 3000] {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_reduce(replications, seeds, 4, &Moments, |i, _| {
                if i == 42 {
                    std::panic::panic_any(1234_i32);
                }
                i as f64
            })
        }));
        let payload = result.expect_err("the job panic must propagate");
        assert_eq!(
            payload.downcast_ref::<i32>(),
            Some(&1234),
            "non-string payload must be re-raised unchanged ({replications} replications)"
        );
    }
}

/// A reducer whose accumulators count how many were created and how many
/// were dropped.
#[derive(Default)]
struct DropCounting {
    created: AtomicUsize,
    dropped: Arc<AtomicUsize>,
}

#[derive(Debug)]
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Reducer for DropCounting {
    type Item = ();
    type Acc = Counted;

    fn empty(&self) -> Counted {
        self.created.fetch_add(1, Ordering::Relaxed);
        Counted(Arc::clone(&self.dropped))
    }

    fn push(&self, _acc: &mut Counted, _item: ()) {}

    fn merge(&self, left: Counted, _right: Counted) -> Counted {
        left
    }
}

#[test]
fn a_job_panic_drops_every_finished_fold() {
    // Six blocks; the job panics in block 3. Workers check the abort
    // flag only between blocks, so blocks 0–2 finish and their folds
    // must be dropped on the way out.
    let seeds = SeedSequence::new(6);
    for threads in [2, 4] {
        let reducer = DropCounting::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_reduce(6 * 1024, seeds, threads, &reducer, |i, _| {
                assert!(i != 3 * 1024 + 17, "boom in block 3");
            })
        }));
        let msg = panic_message(result.expect_err("the job panic must propagate"));
        assert!(msg.contains("replication 3089"), "index lost: {msg}");
        let created = reducer.created.load(Ordering::Relaxed);
        assert!(created >= 2, "{threads} threads created {created} folds");
        assert_eq!(
            reducer.dropped.load(Ordering::Relaxed),
            created,
            "{threads} threads leaked accumulators"
        );
    }
}
