//! The experiment engine: executes any [`ExperimentSpec`] and renders
//! machine-readable results.
//!
//! One run produces one JSON document and one long-format CSV, both
//! pure functions of `(spec, profile)` — no timestamps, hostnames or
//! thread counts leak into the output, so result files are
//! byte-identical across machines and worker counts and can be diffed
//! by regression tooling.
//!
//! Several experiments run side by side through [`schedule`], the one
//! path `diversim run`, `sweep` and `report --run` take: its workers
//! share one [`Budget`] of `--threads` units, each holding one unit while
//! it has experiments to take, and the cells of the experiments still
//! running lease the units of workers that found none left. A run's
//! narration is kept in its [`RunOutcome`], and the caller prints it when
//! the scheduler hands the outcome back, in request order. Result files
//! do not depend on the interleaving; only wall times do, and those of
//! experiments that ran side by side overlap.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::report::tables_to_long_csv;
use crate::spec::{Budget, Check, ExperimentSpec, Profile, RunContext};

/// Identifies the result-file schema emitted by this engine.
pub const RESULT_SCHEMA: &str = "diversim-result/v1";

/// Everything one experiment run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The spec that ran.
    pub spec: &'static ExperimentSpec,
    /// The profile it ran under.
    pub profile: Profile,
    /// Every reproduction-claim check, in execution order.
    pub checks: Vec<Check>,
    /// `false` iff a check failed *and* the profile enforces checks.
    pub passed: bool,
    /// The JSON result document (deterministic).
    pub json: String,
    /// The long-format CSV result (deterministic).
    pub csv: String,
    /// Wall-clock duration of the run (not part of the result files).
    pub wall: Duration,
    /// The narration and tables of a non-quiet run, as the caller
    /// prints them (empty when quiet; not part of the result files).
    pub narration: String,
}

/// Executes one experiment under a profile on `threads` threads of its
/// own and renders its results. Every cell the experiment declares
/// computes inline.
pub fn run_experiment(
    spec: &'static ExperimentSpec,
    profile: Profile,
    threads: usize,
    quiet: bool,
) -> RunOutcome {
    run_experiment_with_cells(spec, profile, threads, quiet, None)
}

/// [`run_experiment`] with an explicit cell-execution policy: `cells`
/// decides per declared cell whether to compute, serve from cache or
/// skip (the sweep engine's entry point).
pub fn run_experiment_with_cells(
    spec: &'static ExperimentSpec,
    profile: Profile,
    threads: usize,
    quiet: bool,
    cells: Option<Box<dyn crate::sweep::cell::CellExecutor>>,
) -> RunOutcome {
    run_experiment_on(spec, profile, &Budget::for_one_run(threads), quiet, cells)
}

/// [`run_experiment_with_cells`] on a budget shared with other runs:
/// the calling thread holds one unit of `budget` (a [`schedule`] worker
/// does), and each cell leases the spare ones.
pub fn run_experiment_on(
    spec: &'static ExperimentSpec,
    profile: Profile,
    budget: &Arc<Budget>,
    quiet: bool,
    cells: Option<Box<dyn crate::sweep::cell::CellExecutor>>,
) -> RunOutcome {
    let started = Instant::now();
    let mut ctx = RunContext::on_budget(spec.name, profile, Arc::clone(budget), quiet, cells);
    (spec.run)(&mut ctx);
    let wall = started.elapsed();
    let failed = ctx.failed_checks().len();
    let passed = failed == 0 || !profile.enforces_checks();
    let json = render_json(spec, profile, &ctx);
    let csv = tables_to_long_csv(ctx.tables());
    RunOutcome {
        spec,
        profile,
        checks: ctx.checks().to_vec(),
        passed,
        json,
        csv,
        wall,
        narration: ctx.narration().to_string(),
    }
}

/// Runs `specs` side by side under `budget` and hands `finished` each
/// result in request order.
///
/// `min(budget.threads(), specs.len())` workers take the experiments in
/// order, each holding one unit of the budget, and `job` runs each one
/// on the budget (through [`run_experiment_on`], as `diversim run`,
/// `sweep` and `report --run` do). A worker that finds no experiment
/// left gives its unit back, and the cells of the experiments still
/// running lease it, so at most `budget.threads()` threads compute at
/// once and the last experiments still run in parallel. `finished` runs
/// on the calling thread, which computes nothing: it gets each result as
/// soon as that one and every earlier one are done. One thread is one
/// worker, taking the experiments one after another.
///
/// # Panics
///
/// If the budget is not whole when called. A panic in `job` stops its
/// worker (whose unit goes back), and this call panics once every other
/// worker has run out of experiments.
pub fn schedule<T: Send>(
    specs: &[&'static ExperimentSpec],
    budget: &Arc<Budget>,
    job: impl Fn(&'static ExperimentSpec, &Arc<Budget>) -> T + Sync,
    mut finished: impl FnMut(T),
) {
    assert_eq!(
        budget.spare(),
        budget.threads(),
        "a scheduled budget starts whole"
    );
    // Every worker's unit is taken before the first worker starts, so no
    // cell can lease one of them first.
    let units: Vec<_> = (0..budget.threads().min(specs.len()))
        .map(|_| budget.lease(1))
        .collect();
    let next = AtomicUsize::new(0);
    let (done, results) = mpsc::channel();
    std::thread::scope(|scope| {
        for unit in units {
            let (done, next, job) = (done.clone(), &next, &job);
            scope.spawn(move || {
                // Given back when no experiment is left, or on a panic.
                let _unit = unit;
                loop {
                    let position = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = specs.get(position) else {
                        break;
                    };
                    if done.send((position, job(spec, budget))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done);
        let mut ready: Vec<Option<T>> = specs.iter().map(|_| None).collect();
        let mut handed = 0;
        for (position, result) in results {
            ready[position] = Some(result);
            while let Some(result) = ready.get_mut(handed).and_then(Option::take) {
                finished(result);
                handed += 1;
            }
        }
    });
}

fn render_json(spec: &ExperimentSpec, profile: Profile, ctx: &RunContext) -> String {
    let text = |s: &str| Value::String(s.to_string());
    let texts = |cells: &[String]| Value::Array(cells.iter().map(|c| text(c)).collect());
    let count = |n: u64| Value::Number(n as f64);
    let checks = ctx
        .checks()
        .iter()
        .map(|check| {
            Value::Object(vec![
                ("label".into(), text(&check.label)),
                ("passed".into(), Value::Bool(check.passed)),
            ])
        })
        .collect();
    let tables = ctx
        .tables()
        .iter()
        .zip(ctx.table_stems())
        .map(|(table, stem)| {
            Value::Object(vec![
                ("stem".into(), text(stem)),
                ("title".into(), text(table.title())),
                ("headers".into(), texts(table.headers())),
                (
                    "rows".into(),
                    Value::Array(table.rows().iter().map(|row| texts(row)).collect()),
                ),
            ])
        })
        .collect();
    Value::Object(vec![
        ("schema".into(), text(RESULT_SCHEMA)),
        ("id".into(), count(spec.id.into())),
        ("slug".into(), text(spec.slug)),
        ("name".into(), text(spec.name)),
        ("title".into(), text(spec.title)),
        ("paper_ref".into(), text(spec.paper_ref)),
        ("claim".into(), text(spec.claim)),
        ("sweep".into(), text(spec.sweep)),
        ("profile".into(), text(profile.name())),
        ("full_replications".into(), count(spec.full_replications)),
        (
            "replication_budget".into(),
            count(profile.replications(spec.full_replications)),
        ),
        (
            "checks_passed".into(),
            Value::Bool(ctx.failed_checks().is_empty()),
        ),
        ("checks".into(), Value::Array(checks)),
        ("tables".into(), Value::Array(tables)),
    ])
    .to_json()
}

/// Writes `<dir>/<name>.json` and `<dir>/<name>.csv`, creating `dir`
/// if needed. Returns the two paths.
///
/// # Errors
///
/// Propagates any filesystem error.
pub fn write_outcome(dir: &Path, outcome: &RunOutcome) -> io::Result<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("{}.json", outcome.spec.name));
    let csv_path = dir.join(format!("{}.csv", outcome.spec.name));
    std::fs::write(&json_path, &outcome.json)?;
    std::fs::write(&csv_path, &outcome.csv)?;
    Ok((json_path, csv_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Table;

    fn demo_run(ctx: &mut RunContext) {
        let mut t = Table::new("demo \"table\"", &["k", "v"]);
        t.row(&["a,b".into(), "1".into()]);
        ctx.emit(t, "demo_stem");
        ctx.check(true, "identity holds");
        ctx.check(false, "this one fails");
    }

    static DEMO: ExperimentSpec = ExperimentSpec {
        id: 99,
        slug: "e99",
        name: "e99_demo",
        title: "demo",
        paper_ref: "none",
        claim: "none",
        sweep: "none",
        full_replications: 1000,
        figures: &[],
        run: demo_run,
    };

    #[test]
    fn outcome_is_deterministic_and_structured() {
        let a = run_experiment(&DEMO, Profile::Smoke, 1, true);
        let b = run_experiment(&DEMO, Profile::Smoke, 8, true);
        assert_eq!(a.json, b.json);
        assert_eq!(a.csv, b.csv);
        assert!(a.json.starts_with("{\"schema\":\"diversim-result/v1\""));
        assert!(a.json.contains("\"replication_budget\":50"));
        assert!(a.json.contains("\"checks_passed\":false"));
        assert!(a.json.contains(
            r#"{"stem":"demo_stem","title":"demo \"table\"","headers":["k","v"],"rows":[["a,b","1"]]}"#
        ));
        assert!(a.csv.starts_with("table,row,column,value\n"));
        assert!(a.csv.contains("\"a,b\""));
    }

    #[test]
    fn smoke_profile_tolerates_failed_checks_but_fast_does_not() {
        let smoke = run_experiment(&DEMO, Profile::Smoke, 1, true);
        assert!(smoke.passed, "smoke must not enforce checks");
        let fast = run_experiment(&DEMO, Profile::Fast, 1, true);
        assert!(!fast.passed, "fast must enforce checks");
        assert_eq!(fast.checks.len(), 2);
    }

    #[test]
    fn write_outcome_creates_both_files() {
        let outcome = run_experiment(&DEMO, Profile::Smoke, 1, true);
        let dir = std::env::temp_dir().join(format!("diversim-engine-test-{}", std::process::id()));
        let (json_path, csv_path) = write_outcome(&dir, &outcome).unwrap();
        assert_eq!(std::fs::read_to_string(&json_path).unwrap(), outcome.json);
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), outcome.csv);
        std::fs::remove_dir_all(&dir).ok();
    }
}
