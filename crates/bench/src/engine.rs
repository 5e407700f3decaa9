//! The experiment engine: executes any [`ExperimentSpec`] and renders
//! machine-readable results.
//!
//! One run produces one JSON document and one long-format CSV, both
//! pure functions of `(spec, profile)` — no timestamps, hostnames or
//! thread counts leak into the output, so result files are
//! byte-identical across machines and worker counts and can be diffed
//! by regression tooling.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::report::tables_to_long_csv;
use crate::spec::{Check, ExperimentSpec, Profile, RunContext};

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
}

/// Executes one experiment under a profile and renders its results.
/// Every cell the experiment declares computes inline.
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
    let started = Instant::now();
    let mut ctx = RunContext::for_experiment(spec.name, profile, threads, quiet, cells);
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
    }
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
