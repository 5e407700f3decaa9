//! Request execution: one validated entry into the engine for the
//! server, the CLI and the experiment binaries.
//!
//! [`EvaluationService::handle`] maps one [`EvaluationRequest`] to one
//! [`EvaluationResponse`] as a *pure function of the request* (plus the
//! immutable experiment registry): cache state, arrival order,
//! connection interleaving and the service's thread count never change
//! a response byte. [`execute_experiment`] is the experiment arm of the
//! same surface. It resolves keys through `registry::find`, as
//! `diversim run` does, so a key rejected over the wire is rejected on
//! the command line too; unlike the CLI, it runs one experiment on
//! threads of its own, never through the engine's scheduler.

use diversim_stats::online::MeanVar;
use diversim_stats::seed::SeedSequence;

use diversim_sim::estimate::Estimate;
use diversim_sim::scenario::SeedPolicy;

use crate::engine::{run_experiment, RunOutcome};
use crate::json::{self, Value};
use crate::registry;

use super::cache::{CacheStats, WorldCache};
use super::error::ServeError;
use super::request::{
    EvaluateRequest, EvaluationRequest, EvaluationResponse, ExperimentRequest, RequestKind,
    StudySpec,
};

/// The effective seed root of a request: the module-documented
/// derivation `SeedSequence::new(seed).child(stream).root()`, exposed
/// so clients and tests can state the contract in one place.
pub fn derive_root_seed(seed: u64, stream: u64) -> u64 {
    SeedSequence::new(seed).child(stream).root()
}

/// Resolves and runs one registered experiment on `threads` threads of
/// its own: the server's experiment requests.
///
/// # Errors
///
/// [`ServeError::UnknownExperiment`] if `request.key` is not a
/// registered slug, name or id.
pub fn execute_experiment(
    request: &ExperimentRequest,
    threads: usize,
    quiet: bool,
) -> Result<RunOutcome, ServeError> {
    let spec = registry::find(&request.key).ok_or_else(|| ServeError::UnknownExperiment {
        key: request.key.clone(),
    })?;
    Ok(run_experiment(spec, request.profile, threads, quiet))
}

/// A long-running evaluation service: a world cache plus a worker
/// budget. Shared across connections behind an `Arc`; all methods take
/// `&self`.
#[derive(Debug)]
pub struct EvaluationService {
    cache: WorldCache,
    threads: usize,
}

impl EvaluationService {
    /// A service answering requests with `threads` workers and caching
    /// at most `cache_capacity` prepared worlds.
    pub fn new(threads: usize, cache_capacity: usize) -> Self {
        EvaluationService {
            cache: WorldCache::new(cache_capacity),
            threads: threads.max(1),
        }
    }

    /// World-cache counters (server-side observability; never part of
    /// a response).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Answers one request. Infallible by construction: failures
    /// become protocol error responses.
    pub fn handle(&self, request: &EvaluationRequest) -> EvaluationResponse {
        let answer = match &request.kind {
            RequestKind::Ping => Ok(result("pong", [])),
            RequestKind::Evaluate(e) => self.evaluate(e, request.seed, request.stream),
            RequestKind::Experiment(x) => execute_experiment(x, self.threads, true).map(|run| {
                let checks = run.checks.iter().map(|check| {
                    Value::Object(vec![
                        ("label".into(), Value::String(check.label.clone())),
                        ("passed".into(), Value::Bool(check.passed)),
                    ])
                });
                result(
                    "experiment",
                    [
                        ("experiment", Value::String(run.spec.name.into())),
                        ("profile", Value::String(run.profile.name().into())),
                        ("passed", Value::Bool(run.passed)),
                        ("checks", Value::Array(checks.collect())),
                    ],
                )
            }),
        };
        match answer {
            Ok(answer) => EvaluationResponse::answer(request.id.clone(), answer),
            Err(e) => EvaluationResponse::error(request.id.clone(), &e),
        }
    }

    /// Answers one raw request line with one response line (without
    /// the trailing newline). Unparseable lines get an error response
    /// carrying whatever `id` can be salvaged from the line.
    pub fn handle_line(&self, line: &str) -> String {
        match EvaluationRequest::parse(line) {
            Ok(request) => self.handle(&request).to_json(),
            Err(e) => EvaluationResponse::error(salvage_id(line), &e).to_json(),
        }
    }

    /// Runs one evaluation and builds its `result` object.
    fn evaluate(
        &self,
        request: &EvaluateRequest,
        seed: u64,
        stream: u64,
    ) -> Result<Value, ServeError> {
        let cached = self.cache.get(&request.world)?;
        let root = derive_root_seed(seed, stream);
        let scenario = cached
            .scenario
            .with_regime(request.regime.to_regime())?
            .with_suite_size(request.suite_size)?
            .with_seeds(SeedPolicy::Sequence(root));
        let head = [
            ("world", Value::String(cached.label.clone())),
            (
                "world_hash",
                Value::String(format!("{:016x}", request.world.content_hash())),
            ),
            ("root_seed", Value::String(root.to_string())),
            ("replications", Value::Number(request.replications as f64)),
        ];
        let pfd = |e: &Estimate| mean_se(e.mean, e.standard_error);
        if let Some(system) = &request.system {
            // Validation pinned the study to `estimate`; the scenario
            // rejects regimes the structure cannot run under.
            let scenario = scenario.with_structure(system.to_structure())?;
            let est = scenario.system_estimate(request.replications, self.threads);
            let tail = [
                ("structure", system.to_value()),
                ("system_pfd", pfd(&est.system_pfd)),
                ("system_pfd_before", pfd(&est.system_pfd_before)),
                (
                    "component_pfds",
                    Value::Array(est.component_pfds.iter().map(pfd).collect()),
                ),
            ];
            return Ok(result("system", head.into_iter().chain(tail)));
        }
        match &request.study {
            StudySpec::Estimate => {
                let est = scenario.estimate(request.replications, self.threads);
                let tail = [
                    ("system_pfd", pfd(&est.system_pfd)),
                    ("version_a_pfd", pfd(&est.version_a_pfd)),
                    ("version_b_pfd", pfd(&est.version_b_pfd)),
                ];
                Ok(result("estimate", head.into_iter().chain(tail)))
            }
            StudySpec::Growth { checkpoints } => {
                let curve = scenario.growth(checkpoints, request.replications, self.threads)?;
                let series = |accs: &[MeanVar]| {
                    let points = accs.iter().map(|a| mean_se(a.mean(), a.standard_error()));
                    Value::Array(points.collect())
                };
                let efforts = curve.checkpoints.iter().map(|&c| Value::Number(c as f64));
                let tail = [
                    ("checkpoints", Value::Array(efforts.collect())),
                    ("system", series(&curve.system)),
                    ("version_a", series(&curve.version_a)),
                    ("version_b", series(&curve.version_b)),
                ];
                Ok(result("growth", head.into_iter().chain(tail)))
            }
        }
    }
}

/// A `result` object: `kind` first, then `members` in wire order.
fn result(kind: &str, members: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
    let members = members.into_iter();
    let mut object = Vec::with_capacity(1 + members.size_hint().0);
    object.push(("kind".to_string(), Value::String(kind.to_string())));
    object.extend(members.map(|(key, value)| (key.to_string(), value)));
    Value::Object(object)
}

/// One estimated quantity on the wire: `{"mean","se"}`.
fn mean_se(mean: f64, se: f64) -> Value {
    Value::Object(vec![
        ("mean".into(), Value::Number(mean)),
        ("se".into(), Value::Number(se)),
    ])
}

/// Best-effort `id` extraction from a line that failed request
/// parsing, so even malformed-request errors stay correlatable.
fn salvage_id(line: &str) -> String {
    json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(Value::as_str).map(str::to_string))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Profile;

    fn estimate_line(id: &str, seed: u64, stream: u64) -> String {
        format!(
            concat!(
                r#"{{"api":"diversim/v1","id":"{}","kind":"evaluate","seed":{},"stream":{},"#,
                r#""world":{{"kind":"singleton","props":[0.1,0.3,0.5]}},"#,
                r#""regime":"shared","suite_size":4,"replications":64,"study":"estimate"}}"#
            ),
            id, seed, stream
        )
    }

    #[test]
    fn ping_pongs() {
        let service = EvaluationService::new(1, 4);
        let line = service.handle_line(r#"{"api":"diversim/v1","id":"p","kind":"ping"}"#);
        assert_eq!(
            line,
            r#"{"api":"diversim/v1","id":"p","ok":true,"result":{"kind":"pong"}}"#
        );
    }

    #[test]
    fn responses_are_pure_functions_of_the_request() {
        let service = EvaluationService::new(2, 4);
        let first = service.handle_line(&estimate_line("a", 42, 7));
        // Different id: everything but the echoed id is identical.
        let other_id = service.handle_line(&estimate_line("b", 42, 7));
        assert_eq!(first.replace(r#""id":"a""#, r#""id":"b""#), other_id);
        // Same request again (now a cache hit): byte-identical.
        assert_eq!(service.handle_line(&estimate_line("a", 42, 7)), first);
        assert!(service.cache_stats().hits >= 2);
        // Different stream: a different replication stream.
        assert_ne!(
            service.handle_line(&estimate_line("a", 42, 8)),
            first,
            "streams must decorrelate"
        );
    }

    #[test]
    fn thread_count_does_not_change_bytes() {
        let line = estimate_line("t", 9, 1);
        let base = EvaluationService::new(1, 2).handle_line(&line);
        for threads in [2, 4, 8] {
            assert_eq!(
                EvaluationService::new(threads, 2).handle_line(&line),
                base,
                "{threads} threads must match 1 thread"
            );
        }
    }

    #[test]
    fn responses_document_the_derived_root_seed() {
        let service = EvaluationService::new(1, 2);
        let response = service.handle_line(&estimate_line("r", 42, 7));
        let expected = derive_root_seed(42, 7);
        assert!(
            response.contains(&format!(r#""root_seed":"{expected}""#)),
            "response must expose the documented derivation: {response}"
        );
    }

    #[test]
    fn growth_studies_answer_per_checkpoint_series() {
        let service = EvaluationService::new(2, 2);
        let line = concat!(
            r#"{"api":"diversim/v1","id":"g","kind":"evaluate","seed":1,"#,
            r#""world":{"kind":"fixture","name":"small-graded"},"regime":"independent","#,
            r#""suite_size":8,"replications":32,"#,
            r#""study":{"kind":"growth","checkpoints":[0,4,8]}}"#
        );
        let response = service.handle_line(line);
        let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
        assert_eq!((id.as_str(), ok), ("g", true));
        let doc = json::parse(&response).unwrap();
        let result = doc.get("result").unwrap();
        assert_eq!(result.get("kind").and_then(Value::as_str), Some("growth"));
        assert_eq!(
            result
                .get("system")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(3)
        );
    }

    #[test]
    fn adaptive_regimes_are_served_deterministically() {
        let line = |id: &str| {
            format!(
                concat!(
                    r#"{{"api":"diversim/v1","id":"{}","kind":"evaluate","seed":5,"stream":2,"#,
                    r#""world":{{"kind":"fixture","name":"small-graded"}},"#,
                    r#""regime":{{"kind":"adaptive","policy":{{"kind":"epsilon_greedy","epsilon":0.1}}}},"#,
                    r#""suite_size":8,"replications":32,"study":"estimate"}}"#
                ),
                id
            )
        };
        let base = EvaluationService::new(1, 2).handle_line(&line("a"));
        let (id, ok) = EvaluationResponse::parse_status(&base).unwrap();
        assert_eq!((id.as_str(), ok), ("a", true), "{base}");
        assert_eq!(
            EvaluationService::new(8, 2).handle_line(&line("a")),
            base,
            "8 threads must match 1 thread"
        );
        // Growth studies replay fixed demand streams, so adaptive
        // requests get a stable error, not a silent regime fallback.
        let growth = line("g").replace(
            r#""study":"estimate""#,
            r#""study":{"kind":"growth","checkpoints":[0,4]}"#,
        );
        let response = EvaluationService::new(1, 2).handle_line(&growth);
        let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
        assert_eq!((id.as_str(), ok), ("g", false));
        assert!(
            response.contains("studies require a static suite regime"),
            "{response}"
        );
    }

    #[test]
    fn system_requests_replay_the_pair_and_serve_deterministically() {
        let and2 = concat!(
            r#","system":{"kind":"and","children":[{"kind":"component","index":0},"#,
            r#"{"kind":"component","index":1}]}"#
        );
        // The generated world's disjoint regions span several demands
        // each: the pair path must still add in ascending demand order.
        for setup in [
            r#""world":{"kind":"fixture","name":"small-graded"},"regime":"shared","suite_size":4"#,
            concat!(
                r#""world":{"kind":"generated","demands":64,"faults":4,"region_max":4,"#,
                r#""zipf":0.8,"prop_lo":0.3,"prop_hi":0.9,"seed":0},"#,
                r#""regime":"independent","suite_size":0"#
            ),
        ] {
            let line = |system: &str| {
                format!(
                    concat!(
                        r#"{{"api":"diversim/v1","id":"s","kind":"evaluate","seed":11,"stream":3,"#,
                        r#"{},"replications":64,"study":"estimate"{}}}"#
                    ),
                    setup, system
                )
            };
            let service = EvaluationService::new(1, 2);
            let base = service.handle_line(&line(and2));
            let (id, ok) = EvaluationResponse::parse_status(&base).unwrap();
            assert_eq!((id.as_str(), ok), ("s", true), "{base}");
            let doc = json::parse(&base).unwrap();
            let result = doc.get("result").unwrap();
            assert_eq!(result.get("kind").and_then(Value::as_str), Some("system"));
            assert_eq!(
                result
                    .get("component_pfds")
                    .and_then(Value::as_array)
                    .map(<[Value]>::len),
                Some(2)
            );
            // The two-component AND structure *is* the classic pair: its
            // system pfd estimate matches the plain estimate study's bytes.
            let pair = json::parse(&service.handle_line(&line(""))).unwrap();
            assert_eq!(
                result.get("system_pfd"),
                pair.get("result").unwrap().get("system_pfd"),
                "and-2 must replay the pair estimate bit-for-bit: {setup}"
            );
            // Thread count never changes a byte.
            assert_eq!(EvaluationService::new(8, 2).handle_line(&line(and2)), base);
        }
    }

    #[test]
    fn incompatible_system_requests_get_stable_errors() {
        let service = EvaluationService::new(1, 2);
        // An adaptive regime needs exactly two components.
        let line = concat!(
            r#"{"api":"diversim/v1","id":"w","kind":"evaluate","#,
            r#""world":{"kind":"fixture","name":"small-graded"},"#,
            r#""regime":{"kind":"adaptive","policy":"greedy"},"#,
            r#""suite_size":4,"replications":32,"study":"estimate","#,
            r#""system":{"kind":"or","children":[{"kind":"component","index":0},"#,
            r#"{"kind":"component","index":1},{"kind":"component","index":2}]}}"#
        );
        let response = service.handle_line(line);
        let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
        assert_eq!((id.as_str(), ok), ("w", false));
        assert!(
            response.contains("require exactly two components"),
            "{response}"
        );
        // Growth studies do not compose with structures.
        let growth = line.replace(
            r#""study":"estimate""#,
            r#""study":{"kind":"growth","checkpoints":[0,4]}"#,
        );
        let response = service.handle_line(&growth);
        let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
        assert_eq!((id.as_str(), ok), ("w", false));
        assert!(
            response.contains("growth studies do not support system structures"),
            "{response}"
        );
        // Malformed structures name the offending field.
        let bad = line.replace(r#""regime":{"kind":"adaptive","policy":"greedy"},"#, "");
        let bad = bad.replace(r#""kind":"or""#, r#""kind":"k_of_n","k":9"#);
        let response = service.handle_line(&bad);
        let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
        assert_eq!((id.as_str(), ok), ("w", false), "{response}");
        assert!(
            response.contains(concat!(
                r#""error":"invalid request field `system`: "#,
                r#"invalid structure: k out of range for k-out-of-n gate"}"#
            )),
            "{response}"
        );
    }

    #[test]
    fn component_indices_at_the_cap_are_refused_before_any_draw() {
        // A scenario draws, debugs and reports every component up to the
        // largest index, so `or` over components 0 and N costs N + 1
        // versions per campaign; at or above the cap it costs a refusal.
        let service = EvaluationService::new(1, 2);
        let line = |n: usize| {
            concat!(
                r#"{"api":"diversim/v1","id":"cap","kind":"evaluate","#,
                r#""world":{"kind":"fixture","name":"small-graded"},"#,
                r#""suite_size":4,"replications":10,"study":"estimate","#,
                r#""system":{"kind":"or","children":[{"kind":"component","index":0},"#,
                r#"{"kind":"component","index":N}]}}"#
            )
            .replace('N', &n.to_string())
        };
        for n in [256, 100_000] {
            let started = std::time::Instant::now();
            let response = service.handle_line(&line(n));
            let elapsed = started.elapsed();
            let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
            assert_eq!((id.as_str(), ok), ("cap", false), "{response}");
            assert!(
                response.contains(concat!(
                    r#""error":"invalid request field `system`: invalid structure: "#,
                    r#"component index at or above the cap of 256 components"}"#
                )),
                "{response}"
            );
            // The request is refused as it is parsed, before any world is
            // built or campaign run.
            assert!(
                elapsed < std::time::Duration::from_millis(100),
                "{elapsed:?}"
            );
        }
        let response = service.handle_line(&line(255));
        let (id, ok) = EvaluationResponse::parse_status(&response).unwrap();
        assert_eq!((id.as_str(), ok), ("cap", true), "{response}");
    }

    #[test]
    fn failures_become_error_responses_with_salvaged_ids() {
        let service = EvaluationService::new(1, 2);
        let line = service.handle_line(r#"{"id":"broken","world":7}"#);
        let (id, ok) = EvaluationResponse::parse_status(&line).unwrap();
        assert_eq!((id.as_str(), ok), ("broken", false));
        assert!(line.contains(r#""error":"protocol error:"#), "{line}");
        // Wholly unparseable input still answers (with an empty id).
        let (id, ok) = EvaluationResponse::parse_status(&service.handle_line("garbage")).unwrap();
        assert_eq!((id.as_str(), ok), ("", false));
    }

    #[test]
    fn experiment_requests_run_the_registry() {
        let outcome = execute_experiment(
            &ExperimentRequest {
                key: "e01".into(),
                profile: Profile::Smoke,
            },
            1,
            true,
        )
        .unwrap();
        assert_eq!(outcome.spec.slug, "e01");
        assert!(matches!(
            execute_experiment(
                &ExperimentRequest {
                    key: "e99".into(),
                    profile: Profile::Smoke,
                },
                1,
                true,
            )
            .unwrap_err(),
            ServeError::UnknownExperiment { .. }
        ));

        let service = EvaluationService::new(1, 2);
        let line = service.handle_line(
            r#"{"api":"diversim/v1","id":"x","kind":"experiment","experiment":"e01","profile":"smoke"}"#,
        );
        let (id, ok) = EvaluationResponse::parse_status(&line).unwrap();
        assert_eq!((id.as_str(), ok), ("x", true));
        let doc = json::parse(&line).unwrap();
        let result = doc.get("result").unwrap();
        assert_eq!(
            result.get("experiment").and_then(Value::as_str),
            Some("e01_el_model")
        );
        assert_eq!(result.get("passed").and_then(Value::as_bool), Some(true));
    }
}
