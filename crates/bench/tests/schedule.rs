//! The experiment scheduler (`engine::schedule`) on demo specs: results
//! come back in request order, the units in use never exceed the
//! budget, cells lease the units of finished workers, and the budget is
//! whole again after a run — also after a cell that panics. The thread
//! counts stay small; the interleavings the tests need are forced with
//! condition variables, never with sleeps.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use diversim_bench::engine::{run_experiment_on, schedule, RunOutcome};
use diversim_bench::spec::{Budget, ExperimentSpec, Profile, RunContext};

/// How long a demo experiment waits for the interleaving it needs
/// before it gives up and records a failed check.
const PATIENCE: Duration = Duration::from_secs(30);

const fn demo(name: &'static str, run: fn(&mut RunContext)) -> ExperimentSpec {
    ExperimentSpec {
        id: 99,
        slug: name,
        name,
        title: "demo",
        paper_ref: "none",
        claim: "none",
        sweep: "none",
        full_replications: 0,
        figures: &[],
        run,
    }
}

/// Schedules `specs` on `budget` (non-quiet, so narration is kept) and
/// returns the outcomes in the order the scheduler handed them over.
fn run_all(specs: &[&'static ExperimentSpec], budget: &Arc<Budget>) -> Vec<RunOutcome> {
    let mut outcomes = Vec::new();
    let job =
        |spec, budget: &Arc<Budget>| run_experiment_on(spec, Profile::Smoke, budget, false, None);
    schedule(specs, budget, job, |outcome| outcomes.push(outcome));
    outcomes
}

// ---------------------------------------------------------------- order

/// How many of the experiments after `slow_first` have finished.
static OTHERS_DONE: Mutex<usize> = Mutex::new(0);
static OTHER_FINISHED: Condvar = Condvar::new();

fn slow_first(ctx: &mut RunContext) {
    let done = OTHERS_DONE.lock().expect("demo lock");
    let (done, wait) = OTHER_FINISHED
        .wait_timeout_while(done, PATIENCE, |done| *done < 2)
        .expect("demo lock");
    ctx.check(*done == 2 && !wait.timed_out(), "finished after the others");
    ctx.note("slow");
}

fn finish_other(ctx: &mut RunContext, name: &str) {
    ctx.note(name);
    *OTHERS_DONE.lock().expect("demo lock") += 1;
    OTHER_FINISHED.notify_all();
}

static SLOW_FIRST: ExperimentSpec = demo("slow_first", slow_first);
static QUICK: ExperimentSpec = demo("quick", |ctx| finish_other(ctx, "quick"));
static THIRD: ExperimentSpec = demo("third", |ctx| finish_other(ctx, "third"));

#[test]
fn results_come_back_in_request_order_when_the_first_finishes_last() {
    let outcomes = run_all(&[&SLOW_FIRST, &QUICK, &THIRD], &Arc::new(Budget::new(2)));
    let names: Vec<&str> = outcomes.iter().map(|o| o.spec.name).collect();
    assert_eq!(names, ["slow_first", "quick", "third"]);
    assert!(
        outcomes[0].checks[0].passed,
        "slow_first must have finished after both others"
    );
    let narration: Vec<&str> = outcomes.iter().map(|o| o.narration.as_str()).collect();
    assert_eq!(narration, ["slow\n", "quick\n", "third\n"]);
}

// ---------------------------------------------------------------- bound

/// Units the running demo experiments hold or lease, by their own
/// count: one per running experiment, plus its current cell's lease.
static IN_USE: AtomicUsize = AtomicUsize::new(0);
/// The largest `IN_USE` ever seen.
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The largest cell thread count ever seen.
static WIDEST: AtomicUsize = AtomicUsize::new(0);
/// The budget of the bound test's current run.
static BOUND_BUDGET: Mutex<Option<Arc<Budget>>> = Mutex::new(None);

fn take(units: usize) {
    let now = IN_USE.fetch_add(units, Ordering::SeqCst) + units;
    PEAK.fetch_max(now, Ordering::SeqCst);
}

fn counted_cells(ctx: &mut RunContext) {
    for k in 0..4 {
        ctx.cell(format!("k={k}"), |scope| {
            take(scope.threads() - 1);
            WIDEST.fetch_max(scope.threads(), Ordering::SeqCst);
            std::thread::yield_now();
            IN_USE.fetch_sub(scope.threads() - 1, Ordering::SeqCst);
            vec![]
        });
    }
}

fn counting(ctx: &mut RunContext) {
    take(1);
    counted_cells(ctx);
    IN_USE.fetch_sub(1, Ordering::SeqCst);
}

/// Waits until every other worker has given its unit back, then runs
/// its cells: they must lease the whole rest of the budget.
fn late(ctx: &mut RunContext) {
    take(1);
    let budget = BOUND_BUDGET
        .lock()
        .expect("demo lock")
        .clone()
        .expect("the test sets the budget");
    let started = Instant::now();
    while budget.spare() + 1 < budget.threads() && started.elapsed() < PATIENCE {
        std::thread::yield_now();
    }
    counted_cells(ctx);
    IN_USE.fetch_sub(1, Ordering::SeqCst);
}

static COUNTING: ExperimentSpec = demo("counting", counting);
static LATE: ExperimentSpec = demo("late", late);

#[test]
fn units_in_use_never_exceed_the_budget_and_finished_workers_lend_theirs() {
    for threads in [1, 2, 3] {
        let budget = Arc::new(Budget::new(threads));
        *BOUND_BUDGET.lock().expect("demo lock") = Some(Arc::clone(&budget));
        PEAK.store(0, Ordering::SeqCst);
        WIDEST.store(0, Ordering::SeqCst);
        let outcomes = run_all(&[&COUNTING, &COUNTING, &COUNTING, &LATE], &budget);
        assert_eq!(outcomes.len(), 4);
        let peak = PEAK.load(Ordering::SeqCst);
        assert!(
            (1..=threads).contains(&peak),
            "{peak} units in use on a budget of {threads}"
        );
        assert_eq!(
            WIDEST.load(Ordering::SeqCst),
            threads,
            "the last experiment's cells lease every unit the finished workers gave back"
        );
        assert_eq!(IN_USE.load(Ordering::SeqCst), 0);
        assert_eq!(budget.spare(), threads);
    }
}

// ---------------------------------------------------------------- panics

fn one_cell(ctx: &mut RunContext) {
    let threads = ctx.cell("k=0", |scope| vec![scope.threads() as f64]).get(0);
    ctx.check(threads >= 1.0, "a cell computes on at least its own unit");
}

fn panicking_cell(ctx: &mut RunContext) {
    ctx.cell("k=0", |_| panic!("demo cell fails"));
}

static ONE_CELL: ExperimentSpec = demo("one_cell", one_cell);
static PANICKING_CELL: ExperimentSpec = demo("panicking_cell", panicking_cell);

#[test]
fn the_budget_is_whole_after_a_run_and_after_a_panicking_cell() {
    for threads in [1, 2, 3] {
        let budget = Arc::new(Budget::new(threads));
        let outcomes = run_all(&[&ONE_CELL, &ONE_CELL, &ONE_CELL], &budget);
        assert!(outcomes.iter().all(|o| o.checks[0].passed));
        assert_eq!(budget.spare(), threads, "after a run");

        let specs = [&ONE_CELL, &PANICKING_CELL, &ONE_CELL, &ONE_CELL];
        let caught = catch_unwind(AssertUnwindSafe(|| run_all(&specs, &budget)));
        assert!(caught.is_err(), "the cell's panic must reach the caller");
        assert_eq!(budget.spare(), threads, "after a panicking cell");
    }
}
