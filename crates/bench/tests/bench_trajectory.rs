//! Drift guard for the committed benchmark trajectories.
//!
//! The workspace root archives measured benchmark results as
//! `BENCH_*.json` files. The microbenchmark files are written by the
//! vendored criterion harness when `DIVERSIM_BENCH_JSON` is set; the
//! README's *Perf trajectory* section quotes them, so a file that
//! stops parsing as the engine's bench schema — an array of
//! `{"id", "min_ns", "median_ns", "max_ns"}` objects — would silently
//! rot the documentation. `BENCH_e2e.json` holds the end-to-end
//! benchmark's own run records (`perfbench/run.py`), guarded against
//! the metric names `BENCHMARK.json` declares. These tests pin the
//! schemas and the invariants every real measurement satisfies.

use std::path::Path;

use diversim_bench::json::{self, Value};

/// Every trajectory file the repository commits to the workspace root.
const COMMITTED: &[&str] = &[
    "BENCH_hot_paths.json",
    "BENCH_kernel_scaling.json",
    "BENCH_regimes.json",
    "BENCH_runner_scaling.json",
    "BENCH_scenario_overhead.json",
];

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Reads and parses one JSON file at the workspace root.
fn read_json(name: &str) -> Value {
    let path = workspace_root().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} unreadable: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"))
}

/// Parses one trajectory file and checks every record against the
/// harness's output schema.
fn check_trajectory(name: &str) {
    let value = read_json(name);
    let records = value
        .as_array()
        .unwrap_or_else(|| panic!("{name}: top level must be an array"));
    assert!(
        !records.is_empty(),
        "{name}: an empty trajectory guards nothing"
    );
    for (i, rec) in records.iter().enumerate() {
        let id = rec
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{name}[{i}]: missing string field \"id\""));
        assert!(!id.is_empty(), "{name}[{i}]: empty benchmark id");
        let field = |key: &str| -> f64 {
            rec.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{name}[{i}] ({id}): missing numeric field {key:?}"))
        };
        let (min, median, max) = (field("min_ns"), field("median_ns"), field("max_ns"));
        assert!(
            min > 0.0 && min <= median && median <= max,
            "{name}[{i}] ({id}): expected 0 < min ≤ median ≤ max, got {min}/{median}/{max}"
        );
    }
}

#[test]
fn committed_trajectories_parse_as_the_bench_schema() {
    for name in COMMITTED {
        check_trajectory(name);
    }
}

/// The string member `key` of a `BENCHMARK.json` entry.
fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: entry without string {key:?}"))
}

/// The entries of one `BENCHMARK.json` list.
fn declared<'a>(spec: &'a Value, list: &str) -> &'a [Value] {
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing array {list:?}"))
}

/// Checks that `record` carries every `wanted` metric in its declared
/// unit with a finite value, positive when `positive`.
fn check_metrics(record: &Value, what: &str, wanted: &[Value], positive: bool) {
    let metrics = record
        .get("metrics")
        .unwrap_or_else(|| panic!("{what}: missing \"metrics\""));
    for entry in wanted {
        let name = text(entry, "name");
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what}: metric {name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Value::as_str),
            Some(text(entry, "unit")),
            "{what}: {name} has the wrong unit"
        );
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{what}: {name} has no numeric value"));
        assert!(
            value.is_finite() && (!positive || value > 0.0),
            "{what}: {name} = {value}"
        );
    }
}

/// The committed end-to-end record: the run records `perfbench/run.py`
/// wrote, left as written — one untraced run of every workload
/// `BENCHMARK.json` declares plus one traced run, all at one seed, every
/// one without a failed operation. The untraced runs carry every
/// end-to-end metric, finite and positive; the traced run carries
/// every per-layer metric.
#[test]
fn e2e_record_covers_every_workload_and_declared_metric() {
    let spec = read_json("BENCHMARK.json");
    let workloads = declared(&spec, "workloads");
    let doc = read_json("BENCH_e2e.json");
    let records = doc
        .as_array()
        .expect("BENCH_e2e.json: top level must be an array");
    assert_eq!(
        records.len(),
        workloads.len() + 1,
        "one untraced run per workload plus one traced run"
    );
    let number = |record: &Value, key: &str| {
        record
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("BENCH_e2e.json: record without numeric {key:?}"))
    };
    let seed = number(&records[0], "seed");
    for record in records {
        assert_eq!(number(record, "seed"), seed, "records mix seeds");
        assert_eq!(number(record, "failed"), 0.0, "a recorded run failed");
    }
    for workload in workloads.iter().map(|w| text(w, "name")) {
        let runs: Vec<&Value> = records
            .iter()
            .filter(|r| {
                number(r, "trace") == 0.0
                    && r.get("workload").and_then(Value::as_str) == Some(workload)
            })
            .collect();
        assert_eq!(runs.len(), 1, "{workload}: want one untraced run");
        check_metrics(runs[0], workload, declared(&spec, "end_to_end"), true);
    }
    let traced: Vec<&Value> = records
        .iter()
        .filter(|r| number(r, "trace") == 1.0)
        .collect();
    assert_eq!(traced.len(), 1, "want one traced run");
    check_metrics(traced[0], "traced run", declared(&spec, "per_layer"), false);
}

/// Loads a committed trajectory and returns its benchmark ids.
fn trajectory_ids(name: &str) -> Vec<String> {
    read_json(name)
        .as_array()
        .expect("array")
        .iter()
        .map(|r| r.get("id").and_then(Value::as_str).expect("id").to_string())
        .collect()
}

/// The hot_paths trajectory must keep every substrate hot path on the
/// record: scoring, sampling, debugging and the difficulty vectors, with
/// scoring and debugging on both sides of the one-word `O_x` index.
#[test]
fn hot_paths_trajectory_covers_every_substrate_path() {
    let ids = trajectory_ids("BENCH_hot_paths.json");
    for wanted in [
        "score/fails_on/medium-cascade",
        "score/fails_on/large",
        "score/failure_set",
        "score/pfd",
        "sample/version_from_bernoulli/asymmetric",
        "sample/version_from_bernoulli/large",
        "sample/suite_generation",
        "debug/perfect_step/medium-cascade",
        "debug/perfect_step/large",
        "debug/perfect_debug",
        "difficulty/theta_vector",
        "difficulty/xi_vector",
    ] {
        assert!(
            ids.iter().any(|id| id.contains(wanted)),
            "trajectory lost the {wanted} measurements"
        );
    }
}

/// The regimes trajectory must cover the paper-level computations:
/// exact marginals under both suite assignments, every campaign regime,
/// the structure-function system campaigns and the growth path.
#[test]
fn regimes_trajectory_covers_campaigns_and_systems() {
    let ids = trajectory_ids("BENCH_regimes.json");
    for wanted in [
        "exact/marginal_analysis/shared",
        "exact/marginal_analysis/independent",
        "exact/enumerate_iid_suites",
        "exact/joint_vector_independent/mirrored",
        "sim/pair_campaign/independent",
        "sim/pair_campaign/shared",
        "sim/pair_campaign/back_to_back",
        "sim/system_campaign/and-2",
        "sim/system_campaign/2-of-3",
        "sim/system_campaign/nested-2x2",
        "sim/growth_replication",
    ] {
        assert!(
            ids.iter().any(|id| id.contains(wanted)),
            "trajectory lost the {wanted} measurements"
        );
    }
}

/// The scenario_overhead trajectory must keep both sides of the
/// prepared-scenario comparison for every fixture world it quotes.
#[test]
fn scenario_overhead_trajectory_covers_both_sides() {
    let ids = trajectory_ids("BENCH_scenario_overhead.json");
    for world in ["small_graded", "medium_cascade", "large"] {
        for side in ["prepared", "rebuild_per_replication"] {
            assert!(
                ids.iter().any(|id| id.contains(world) && id.contains(side)),
                "trajectory lost the {world}/{side} measurements"
            );
        }
    }
}

/// The runner_scaling trajectory must keep both job sizes of the
/// `parallel_reduce` fold at every thread count the scaling curve (and
/// `default_threads`' 16-thread cap) is read from.
#[test]
fn runner_scaling_trajectory_covers_both_jobs_at_every_thread_count() {
    let ids = trajectory_ids("BENCH_runner_scaling.json");
    for job in ["small_job", "large_job"] {
        for threads in [1, 2, 4, 8, 16] {
            let wanted = format!("runner_scaling/{job}/reduce/{threads}");
            assert!(
                ids.contains(&wanted),
                "trajectory lost the {wanted} measurement"
            );
        }
    }
}

/// The kernel_scaling trajectory must carry both sides of the
/// comparison the README quotes: the packed-kernel path and the retired
/// per-demand baseline, for every region profile.
#[test]
fn kernel_trajectory_covers_both_paths_and_all_profiles() {
    let value = read_json("BENCH_kernel_scaling.json");
    let ids = trajectory_ids("BENCH_kernel_scaling.json");
    for profile in ["dense", "sparse", "skewed"] {
        for side in ["kernel", "per_demand"] {
            assert!(
                ids.iter()
                    .any(|id| id.contains(profile) && id.contains(side)),
                "trajectory lost the {side} measurements for the {profile} profile"
            );
        }
    }
    // The headline claim: at 10⁵+ demands on the dense profile the
    // kernel must hold a ≥5× lead over the retired per-demand path.
    for n in ["100000", "1000000"] {
        let median = |side: &str| -> f64 {
            let id = format!("kernel_scaling/dense/{side}/{n}");
            value
                .as_array()
                .unwrap()
                .iter()
                .find(|r| r.get("id").and_then(Value::as_str) == Some(id.as_str()))
                .unwrap_or_else(|| panic!("missing {id}"))
                .get("median_ns")
                .and_then(Value::as_f64)
                .expect("median_ns")
        };
        let speedup = median("per_demand") / median("kernel");
        assert!(
            speedup >= 5.0,
            "dense/{n}: committed trajectory shows only {speedup:.1}x kernel speedup"
        );
    }
}
