//! Property tests of the JSON module's parse/emit pair and of the
//! serve wire types built on it: whatever the strict writer emits, the
//! tolerant reader must recover exactly.

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use diversim_bench::json::{self, Value};
use diversim_bench::serve::request::{
    EvaluateRequest, EvaluationRequest, ExperimentRequest, RegimeSpec, RequestKind, StudySpec,
    SystemSpec, WorldSpec,
};
use diversim_bench::spec::Profile;
use diversim_bench::worlds::small_graded;
use diversim_sim::policy::PolicySpec;
use diversim_testing::oracle::IdenticalFailureModel;

/// Arbitrary strings over the full ASCII range (controls, quotes and
/// backslashes included — the characters escaping must get right) plus
/// some non-ASCII code points.
fn json_string() -> BoxedStrategy<String> {
    vec(
        prop_oneof![
            (0u32..128).boxed(),
            (0x80u32..0x300).boxed(),
            Just(0x1F600u32).boxed(), // astral plane (surrogate pairs in \u-escapes)
        ],
        0..12,
    )
    .prop_map(|points| {
        points
            .into_iter()
            .filter_map(char::from_u32)
            .collect::<String>()
    })
    .boxed()
}

/// Numbers the strict writer can represent faithfully (finite only:
/// NaN/∞ intentionally emit as `null`).
fn json_number() -> BoxedStrategy<f64> {
    prop_oneof![
        (-1.0e9..1.0e9).boxed(),
        (-5_000i64..5_000).prop_map(|n| n as f64).boxed(),
        Just(0.0).boxed(),
        Just(-0.0).boxed(),
        Just(9_007_199_254_740_991.0).boxed(), // 2^53 - 1, the integer boundary
        Just(1.5e300).boxed(),
        Just(f64::MIN_POSITIVE).boxed(),
    ]
    .boxed()
}

fn json_leaf() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null).boxed(),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)).boxed(),
        json_number().prop_map(Value::Number).boxed(),
        json_string().prop_map(Value::String).boxed(),
    ]
    .boxed()
}

/// Depth-bounded arbitrary documents (the vendored proptest has no
/// recursive-strategy helper, so recursion is explicit).
fn json_value(depth: usize) -> BoxedStrategy<Value> {
    if depth == 0 {
        return json_leaf();
    }
    let inner = json_value(depth - 1);
    let inner2 = json_value(depth - 1);
    prop_oneof![
        json_leaf(),
        vec(inner, 0..4).prop_map(Value::Array).boxed(),
        vec((json_string(), inner2), 0..4)
            .prop_map(|pairs| {
                // Index-prefixed keys keep members unique, so document
                // equality is well-defined under any reader behaviour.
                Value::Object(
                    pairs
                        .into_iter()
                        .enumerate()
                        .map(|(i, (key, value))| (format!("k{i}:{key}"), value))
                        .collect(),
                )
            })
            .boxed(),
    ]
    .boxed()
}

proptest! {
    #[test]
    fn document_emit_parse_round_trips(doc in json_value(3)) {
        let text = doc.to_json();
        let reparsed = json::parse(&text)
            .unwrap_or_else(|e| panic!("emitted invalid JSON {text:?}: {e}"));
        prop_assert_eq!(&reparsed, &doc, "round trip changed {}", text);
        // Emission is a pure function: re-emitting the reparse is
        // byte-identical.
        prop_assert_eq!(reparsed.to_json(), text);
    }

    #[test]
    fn string_escaping_round_trips(s in json_string()) {
        let doc = Value::String(s);
        prop_assert_eq!(json::parse(&doc.to_json()).unwrap(), doc);
    }

    #[test]
    fn number_formatting_round_trips(n in json_number()) {
        let doc = Value::Number(n);
        prop_assert_eq!(json::parse(&doc.to_json()).unwrap(), doc);
    }
}

fn world_spec() -> BoxedStrategy<WorldSpec> {
    prop_oneof![
        vec(0.0f64..=1.0, 1..6)
            .prop_map(|props| WorldSpec::Singleton { props })
            .boxed(),
        (0usize..5)
            .prop_map(|i| WorldSpec::Fixture {
                name: diversim_bench::worlds::FIXTURES[i].0.to_string(),
            })
            .boxed(),
        (1usize..200, 1usize..32, 1usize..5, 0.0f64..2.0, 0u64..1000)
            .prop_map(
                |(demands, faults, region_max, zipf, seed)| WorldSpec::Generated {
                    demands,
                    faults,
                    region_max,
                    zipf,
                    prop_lo: 0.05,
                    prop_hi: 0.5,
                    seed,
                }
            )
            .boxed(),
    ]
    .boxed()
}

/// Every regime the wire protocol can name, including each
/// identical-failure model and each adaptive allocation policy — the
/// spec is a total bijection with `CampaignRegime`, so the strategy
/// must cover all of it.
fn regime_spec() -> BoxedStrategy<RegimeSpec> {
    prop_oneof![
        Just(RegimeSpec::Shared).boxed(),
        Just(RegimeSpec::Independent).boxed(),
        Just(RegimeSpec::BackToBack {
            model: IdenticalFailureModel::Never,
        })
        .boxed(),
        Just(RegimeSpec::BackToBack {
            model: IdenticalFailureModel::Always,
        })
        .boxed(),
        (0.0f64..=1.0)
            .prop_map(|gamma| RegimeSpec::BackToBack {
                model: IdenticalFailureModel::Bernoulli(gamma),
            })
            .boxed(),
        Just(RegimeSpec::Adaptive {
            policy: PolicySpec::RoundRobin,
        })
        .boxed(),
        Just(RegimeSpec::Adaptive {
            policy: PolicySpec::GreedyOnFailures,
        })
        .boxed(),
        (0.0f64..=1.0)
            .prop_map(|epsilon| RegimeSpec::Adaptive {
                policy: PolicySpec::EpsilonGreedy { epsilon },
            })
            .boxed(),
        (0.0f64..10.0)
            .prop_map(|c| RegimeSpec::Adaptive {
                policy: PolicySpec::UcbIndex { c },
            })
            .boxed(),
    ]
    .boxed()
}

/// Depth-bounded arbitrary *valid* structure trees: component leaves
/// plus AND/OR/k-of-n gates whose `k` stays within `1..=children`.
fn system_spec(depth: usize) -> BoxedStrategy<SystemSpec> {
    let leaf = (0usize..6)
        .prop_map(|index| SystemSpec::Component { index })
        .boxed();
    if depth == 0 {
        return leaf;
    }
    prop_oneof![
        leaf,
        vec(system_spec(depth - 1), 1..4)
            .prop_map(|children| SystemSpec::And { children })
            .boxed(),
        vec(system_spec(depth - 1), 1..4)
            .prop_map(|children| SystemSpec::Or { children })
            .boxed(),
        (vec(system_spec(depth - 1), 1..4), 0usize..100)
            .prop_map(|(children, raw)| SystemSpec::KOutOfN {
                k: 1 + raw % children.len(),
                children,
            })
            .boxed(),
    ]
    .boxed()
}

fn request() -> BoxedStrategy<EvaluationRequest> {
    let evaluate = (
        world_spec(),
        regime_spec(),
        0usize..100,
        1u64..1000,
        // Structures only compose with estimate studies (growth
        // replays fixed demand streams), so study and system are
        // drawn jointly.
        prop_oneof![
            (
                Just(StudySpec::Estimate),
                prop_oneof![Just(None).boxed(), system_spec(2).prop_map(Some).boxed(),],
            )
                .boxed(),
            vec(1usize..50, 1..5)
                .prop_map(|mut raw| {
                    // Strictly increasing via prefix sums.
                    let mut total = 0;
                    for c in &mut raw {
                        total += *c;
                        *c = total;
                    }
                    (StudySpec::Growth { checkpoints: raw }, None)
                })
                .boxed(),
        ],
    )
        .prop_map(
            |(world, regime, suite_size, replications, (study, system))| {
                RequestKind::Evaluate(EvaluateRequest {
                    world,
                    regime,
                    suite_size,
                    replications,
                    study,
                    system,
                })
            },
        )
        .boxed();
    let kind = prop_oneof![
        evaluate,
        (0usize..3)
            .prop_map(|p| RequestKind::Experiment(ExperimentRequest {
                key: "e01".into(),
                profile: [Profile::Smoke, Profile::Fast, Profile::Full][p],
            }))
            .boxed(),
        Just(RequestKind::Ping).boxed(),
    ];
    (json_string(), 0u64..(1 << 53), 0u64..(1 << 53), kind)
        .prop_map(|(id, seed, stream, kind)| EvaluationRequest {
            id,
            seed,
            stream,
            kind,
        })
        .boxed()
}

proptest! {
    #[test]
    fn wire_requests_round_trip(req in request()) {
        let line = req.to_json();
        let reparsed = EvaluationRequest::parse(&line)
            .unwrap_or_else(|e| panic!("own wire line rejected {line:?}: {e}"));
        // Ping and experiment requests do not carry seed/stream on the
        // wire (they have no replication streams); compare the rest.
        if matches!(req.kind, RequestKind::Evaluate(_)) {
            prop_assert_eq!(reparsed, req);
        } else {
            prop_assert_eq!(&reparsed.id, &req.id);
            prop_assert_eq!(&reparsed.kind, &req.kind);
        }
    }
}

/// A regime parameter across and beyond its valid range, with the
/// range ends themselves drawn often.
fn regime_parameter() -> BoxedStrategy<f64> {
    prop_oneof![
        (-2.0f64..=3.0).boxed(),
        Just(0.0).boxed(),
        Just(-0.0).boxed(),
        Just(1.0).boxed(),
    ]
    .boxed()
}

proptest! {
    /// The wire refuses a back-to-back γ, an ε-greedy ε or a UCB c
    /// exactly when the domain's scenario would.
    #[test]
    fn wire_and_domain_agree_on_regime_parameters(
        which in 0usize..3,
        value in regime_parameter(),
    ) {
        let spec = match which {
            0 => RegimeSpec::BackToBack {
                model: IdenticalFailureModel::Bernoulli(value),
            },
            1 => RegimeSpec::Adaptive {
                policy: PolicySpec::EpsilonGreedy { epsilon: value },
            },
            _ => RegimeSpec::Adaptive {
                policy: PolicySpec::UcbIndex { c: value },
            },
        };
        let line = format!(
            concat!(
                r#"{{"api":"diversim/v1","kind":"evaluate","#,
                r#""world":{{"kind":"fixture","name":"small-graded"}},"#,
                r#""regime":{},"replications":1}}"#
            ),
            spec.to_value().to_json()
        );
        let wire = EvaluationRequest::parse(&line);
        let domain = small_graded()
            .scenario()
            .build()
            .expect("a valid fixture")
            .with_regime(spec.to_regime());
        prop_assert_eq!(
            wire.is_ok(),
            domain.is_ok(),
            "{} → wire {:?}, domain {:?}",
            line,
            wire.err(),
            domain.err()
        );
    }
}
