//! Integration tests for the experiment engine: thread-count
//! determinism of the rendered result files, a full-registry smoke run
//! through the scheduler, and the generated-docs drift guard.

use std::sync::Arc;

use diversim_bench::engine::{run_experiment, run_experiment_on, schedule, RESULT_SCHEMA};
use diversim_bench::registry;
use diversim_bench::spec::{Budget, Profile};

/// The engine's rendered JSON and CSV must be byte-identical whether
/// the Monte Carlo replications run on 1 thread or 8 — the ISSUE-2
/// acceptance criterion for deterministic parallelism. `e06` covers
/// `Scenario::estimate` and `e08` additionally `merged_estimate`, both
/// folding tuples of `Moments` through `parallel_reduce`.
#[test]
fn engine_output_is_byte_identical_for_1_and_8_threads() {
    for key in ["e06", "e08"] {
        let spec = registry::find(key).expect("registered");
        let one = run_experiment(spec, Profile::Smoke, 1, true);
        let eight = run_experiment(spec, Profile::Smoke, 8, true);
        assert_eq!(
            one.json, eight.json,
            "{key}: JSON differs between 1 and 8 threads"
        );
        assert_eq!(
            one.csv, eight.csv,
            "{key}: CSV differs between 1 and 8 threads"
        );
    }
}

/// Every registered spec must run to completion under the smoke
/// profile and produce non-empty, well-formed results — side by side
/// through the scheduler, with the same JSON, CSV and narration on 1, 2
/// and 8 threads.
#[test]
fn all_twenty_specs_run_under_smoke_profile() {
    let specs = registry::all();
    assert_eq!(specs.len(), 20);
    let scheduled = |threads: usize| {
        let mut outcomes = Vec::new();
        let job = |spec, budget: &Arc<Budget>| {
            run_experiment_on(spec, Profile::Smoke, budget, false, None)
        };
        schedule(&specs, &Arc::new(Budget::new(threads)), job, |outcome| {
            outcomes.push(outcome)
        });
        outcomes
    };
    let one = scheduled(1);
    for threads in [2, 8] {
        for (a, b) in one.iter().zip(scheduled(threads)) {
            let name = a.spec.name;
            assert_eq!(a.json, b.json, "{name}: JSON differs at {threads} threads");
            assert_eq!(a.csv, b.csv, "{name}: CSV differs at {threads} threads");
            assert_eq!(
                a.narration, b.narration,
                "{name}: narration differs at {threads} threads"
            );
        }
    }
    for (spec, outcome) in specs.iter().zip(&one) {
        assert_eq!(outcome.spec.name, spec.name, "request order");
        assert!(
            !outcome.narration.is_empty(),
            "{} narrated nothing",
            spec.name
        );
        assert!(
            outcome.passed,
            "{} failed under smoke (checks must not be enforced there)",
            spec.name
        );
        assert!(
            !outcome.checks.is_empty(),
            "{} recorded no reproduction checks",
            spec.name
        );
        assert!(
            outcome
                .json
                .starts_with(&format!("{{\"schema\":\"{RESULT_SCHEMA}\"")),
            "{} JSON missing schema header",
            spec.name
        );
        assert!(
            outcome.json.contains("\"tables\":[{"),
            "{} produced no tables",
            spec.name
        );
        assert!(
            outcome.csv.lines().count() > 1,
            "{} produced an empty CSV",
            spec.name
        );
    }
}

/// `EXPERIMENTS.md` at the workspace root is generated from the
/// registry; this guard makes drift a test failure. Regenerate with
/// `diversim docs --write`.
#[test]
fn experiments_md_matches_registry() {
    let on_disk = include_str!("../../../EXPERIMENTS.md");
    assert_eq!(
        on_disk,
        registry::experiments_md(),
        "EXPERIMENTS.md is stale; run `cargo run -p diversim-bench --bin diversim -- docs --write`"
    );
}
