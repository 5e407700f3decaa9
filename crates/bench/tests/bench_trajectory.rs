//! Drift guard for the committed benchmark trajectories.
//!
//! The workspace root archives measured benchmark results as
//! `BENCH_*.json` files (written by the vendored criterion harness when
//! `DIVERSIM_BENCH_JSON` is set, as the CI `bench-measure` job does).
//! The README's *Perf trajectory* section quotes them, so a file that
//! stops parsing as the engine's bench schema — an array of
//! `{"id", "min_ns", "median_ns", "max_ns"}` objects — would silently
//! rot the documentation. This test pins the schema and the invariants
//! every real measurement satisfies.

use std::path::Path;

use diversim_bench::json::{self, Value};
use diversim_bench::serve::loadgen::LOADGEN_SCHEMA;
use diversim_bench::sweep::SWEEP_SCALING_SCHEMA;

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

/// Parses one trajectory file and checks every record against the
/// harness's output schema.
fn check_trajectory(name: &str) {
    let path = workspace_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed trajectory {name} unreadable: {e}"));
    let value = json::parse(&text).unwrap_or_else(|e| panic!("{name} is not valid JSON: {e}"));
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

/// Drift guard for the committed serve-loadgen trajectory, and the
/// check the CI soak job replays against fresh loadgen output (set
/// `DIVERSIM_LOADGEN_JSON` to point it at another file). The report
/// must carry zero protocol errors, positive throughput, both cache-hot
/// and cache-cold workloads, and ordered latency percentiles.
#[test]
fn serve_loadgen_trajectory_parses_and_shows_a_clean_run() {
    let path = match std::env::var("DIVERSIM_LOADGEN_JSON") {
        Ok(p) => Path::new(&p).to_path_buf(),
        Err(_) => workspace_root().join("BENCH_serve_loadgen.json"),
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("loadgen trajectory {} unreadable: {e}", path.display()));
    let doc = json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(LOADGEN_SCHEMA),
        "schema string drifted"
    );
    let num = |key: &str| -> f64 {
        doc.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
    };
    assert_eq!(num("errors"), 0.0, "committed run must be protocol-clean");
    assert!(num("requests") > 0.0 && num("clients") > 0.0);
    assert!(num("throughput_rps") > 0.0);
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads array");
    for wanted in ["cache_hot/estimate", "cache_hot/growth", "cache_cold"] {
        assert!(
            workloads.iter().any(|w| w
                .get("id")
                .and_then(Value::as_str)
                .is_some_and(|id| id.contains(wanted))),
            "trajectory lost the {wanted} workload"
        );
    }
    for w in workloads {
        let id = w.get("id").and_then(Value::as_str).expect("workload id");
        let field = |key: &str| -> f64 {
            w.get(key)
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{id}: missing numeric field {key:?}"))
        };
        assert!(field("requests") > 0.0, "{id}: empty workload");
        let (min, p50, p99, max) = (
            field("min_ns"),
            field("p50_ns"),
            field("p99_ns"),
            field("max_ns"),
        );
        assert!(
            min > 0.0 && min <= p50 && p50 <= p99 && p99 <= max,
            "{id}: expected 0 < min ≤ p50 ≤ p99 ≤ max, got {min}/{p50}/{p99}/{max}"
        );
    }
}

/// Drift guard for the committed sweep-scaling trajectory, and the
/// check the CI shard jobs replay against a freshly generated file (set
/// `DIVERSIM_SWEEP_JSON` to point it elsewhere). The document records
/// one cold `diversim sweep` pass and one fully cached `--resume` pass
/// over the same experiments; a resume that recomputes anything, or a
/// cache that fails to deliver a clear win, is a regression. The ≥5×
/// headline is asserted for the committed file only — a CI-fresh file
/// on loaded shared runners still must be warm-faster-than-cold, but
/// with a relaxed margin.
#[test]
fn sweep_scaling_trajectory_shows_the_cache_working() {
    let (path, committed) = match std::env::var("DIVERSIM_SWEEP_JSON") {
        Ok(p) => (Path::new(&p).to_path_buf(), false),
        Err(_) => (workspace_root().join("BENCH_sweep_scaling.json"), true),
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("sweep trajectory {} unreadable: {e}", path.display()));
    let doc = json::parse(&text).expect("valid JSON");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(SWEEP_SCALING_SCHEMA),
        "schema string drifted"
    );
    let num = |key: &str| -> f64 {
        doc.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
    };
    assert!(
        doc.get("profile").and_then(Value::as_str).is_some(),
        "missing profile string"
    );
    assert!(num("threads") >= 1.0 && num("experiments") >= 1.0);
    let cells = num("cells");
    assert!(cells > 0.0, "a sweep with no cells measures nothing");
    // The cold pass computes every cell; the warm pass serves every one
    // of them from the store without recomputing.
    assert_eq!(num("cold_computed"), cells, "cold pass must compute all");
    assert_eq!(num("warm_hits"), cells, "warm pass must hit on all");
    assert_eq!(num("warm_computed"), 0.0, "warm pass recomputed cells");
    let (cold, warm) = (num("cold_ns"), num("warm_ns"));
    assert!(cold > 0.0 && warm > 0.0);
    let speedup = num("speedup");
    assert!(
        (speedup - cold / warm).abs() <= 0.01 * speedup.abs().max(1.0),
        "speedup field disagrees with cold_ns/warm_ns"
    );
    let floor = if committed { 5.0 } else { 1.0 };
    assert!(
        speedup >= floor,
        "warm sweep is only {speedup:.1}x faster than cold (floor {floor}x)"
    );
}

/// Loads a committed trajectory and returns its benchmark ids.
fn trajectory_ids(name: &str) -> Vec<String> {
    let path = workspace_root().join(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name} unreadable: {e}"));
    json::parse(&text)
        .expect("valid JSON")
        .as_array()
        .expect("array")
        .iter()
        .map(|r| r.get("id").and_then(Value::as_str).expect("id").to_string())
        .collect()
}

/// The hot_paths trajectory must keep every substrate hot path on the
/// record: scoring, sampling, debugging and the difficulty vectors.
#[test]
fn hot_paths_trajectory_covers_every_substrate_path() {
    let ids = trajectory_ids("BENCH_hot_paths.json");
    for wanted in [
        "score/fails_on",
        "score/failure_set",
        "score/pfd",
        "sample/version_from_bernoulli",
        "sample/suite_generation",
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
    let path = workspace_root().join("BENCH_kernel_scaling.json");
    let text = std::fs::read_to_string(&path).expect("BENCH_kernel_scaling.json unreadable");
    let value = json::parse(&text).expect("valid JSON");
    let ids: Vec<String> = value
        .as_array()
        .expect("array")
        .iter()
        .map(|r| r.get("id").and_then(Value::as_str).expect("id").to_string())
        .collect();
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
