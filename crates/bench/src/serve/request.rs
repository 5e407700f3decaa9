//! The versioned request/response wire types of the evaluation API.
//!
//! One [`EvaluationRequest`] is one line of newline-delimited JSON; the
//! service answers each with one [`EvaluationResponse`] line. The
//! reader is *tolerant* (members in any order, unknown members
//! ignored, optional members defaulted), the writer is *strict* (fixed
//! member order, stable escaping via [`crate::json::Value::to_json`]),
//! so responses are byte-deterministic functions of the request.
//!
//! The same types are the internal API: `diversim run` constructs an
//! [`ExperimentRequest`] and enters the engine through the exact code
//! path the server dispatches to, so CLI, service and tests share one
//! validated surface.
//!
//! # Wire format (`diversim/v1`)
//!
//! ```json
//! {"api":"diversim/v1","id":"r1","kind":"evaluate","seed":42,"stream":7,
//!  "world":{"kind":"singleton","props":[0.1,0.3]},
//!  "regime":"shared","suite_size":4,"replications":500,"study":"estimate"}
//! ```
//!
//! Responses echo the request `id` and carry either `"ok":true` plus a
//! `result` object or `"ok":false` plus a stable `error` string (the
//! [`ServeError`] display rendering).
//!
//! # Results
//!
//! An [`EvaluationResponse`] holds the document it renders to. The
//! service builds each `result` object once, where it computes the
//! numbers; its members, in wire order, are:
//!
//! * `estimate`: `kind`, `world` (the world's label), `world_hash` (16
//!   hex digits of [`WorldSpec::content_hash`]), `root_seed` (the
//!   derived seed root as a decimal *string*: it is a full 64-bit
//!   value, and JSON numbers carry only 53 bits exactly),
//!   `replications`, then the tested pair's `system_pfd`,
//!   `version_a_pfd` and `version_b_pfd`;
//! * `growth`: the same five head members, then `checkpoints` and the
//!   per-checkpoint series `system`, `version_a` and `version_b`;
//! * `system`: the same head, then `structure` (the request's tree,
//!   echoed), `system_pfd` after testing, `system_pfd_before` (the
//!   untested components through the structure) and `component_pfds`
//!   after testing, in component order;
//! * `experiment`: `kind`, `experiment` (the result-file name),
//!   `profile`, `passed` (failed checks under an enforcing profile fail
//!   the run) and `checks`, a list of `{label, passed}`;
//! * `pong`: `kind` alone.
//!
//! Each estimated quantity is `{mean, se}`: the mean across
//! replications and its standard error.
//!
//! # Seed-derivation contract
//!
//! A request's effective seed root is
//! `SeedSequence::new(seed).child(stream).root()` — a pure function of
//! the request, so responses never depend on arrival order, connection
//! interleaving or server thread count, while distinct `stream` values
//! give concurrent clients non-colliding replication streams from one
//! shared base seed.

use diversim_core::structure::Structure;
use diversim_sim::campaign::CampaignRegime;
use diversim_sim::policy::PolicySpec;
use diversim_sim::scenario::{check_suite_size, validate_checkpoints, ScenarioError};
use diversim_testing::oracle::IdenticalFailureModel;
use diversim_universe::generator::PropensityKind;

use crate::hashing::fnv1a64;
use crate::json::{self, Value};
use crate::spec::Profile;
use crate::worlds;

use super::error::ServeError;

/// The protocol version this build speaks, sent and required as the
/// `api` member of every request and response.
pub const API_VERSION: &str = "diversim/v1";

/// Largest accepted Monte Carlo replication budget per request.
pub const MAX_REPLICATIONS: u64 = 1_000_000;

/// Largest accepted demand-space size for generated worlds.
pub const MAX_DEMANDS: usize = 1 << 20;

/// Largest accepted fault count for generated worlds.
pub const MAX_FAULTS: usize = 1 << 16;

/// A world described *by value* on the wire, so the server can build
/// (and cache) it without any out-of-band state.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldSpec {
    /// `props.len()` demands with one singleton fault each, uniform
    /// usage — the paper's abstract score model.
    Singleton {
        /// Per-fault propensities, each in `[0, 1]`.
        props: Vec<f64>,
    },
    /// A named standard fixture from [`worlds::FIXTURES`].
    Fixture {
        /// `"small-graded"`, `"mirrored"`, `"negative-coupling"`,
        /// `"medium-cascade"` or `"large"`.
        name: String,
    },
    /// A generated universe (the cache-cold workload): Zipf or uniform
    /// usage over `demands` demands, `faults` faults with region sizes
    /// `1..=region_max`, propensities uniform in `[prop_lo, prop_hi]`.
    Generated {
        /// Demand-space size (`1..=`[`MAX_DEMANDS`]).
        demands: usize,
        /// Fault count (`1..=`[`MAX_FAULTS`]).
        faults: usize,
        /// Largest failure-region size (`1..=64`).
        region_max: usize,
        /// Zipf exponent of the usage profile; `0` means uniform.
        zipf: f64,
        /// Lower propensity bound.
        prop_lo: f64,
        /// Upper propensity bound.
        prop_hi: f64,
        /// Generation seed — part of the world's identity (and hash).
        seed: u64,
    },
}

impl WorldSpec {
    /// The content hash that keys the server's world cache:
    /// [`crate::hashing::fnv1a64`] (the same primitive that names sweep
    /// cell files) over a canonical encoding of the spec (floats by
    /// their bit patterns), so equal specs — and only equal specs, up
    /// to hash collision — share a cache entry.
    pub fn content_hash(&self) -> u64 {
        let mut canon = String::new();
        match self {
            WorldSpec::Singleton { props } => {
                canon.push_str("singleton;");
                for p in props {
                    canon.push_str(&format!("{:016x};", p.to_bits()));
                }
            }
            WorldSpec::Fixture { name } => {
                canon.push_str("fixture;");
                canon.push_str(name);
            }
            WorldSpec::Generated {
                demands,
                faults,
                region_max,
                zipf,
                prop_lo,
                prop_hi,
                seed,
            } => {
                canon.push_str(&format!(
                    "generated;{demands};{faults};{region_max};{:016x};{:016x};{:016x};{seed}",
                    zipf.to_bits(),
                    prop_lo.to_bits(),
                    prop_hi.to_bits()
                ));
            }
        }
        fnv1a64(canon.as_bytes())
    }

    /// Validates the spec's parameters, naming the offending wire
    /// field on rejection.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidField`] for out-of-range parameters,
    /// [`ServeError::UnknownFixture`] for unknown fixture names.
    pub fn validate(&self) -> Result<(), ServeError> {
        match self {
            WorldSpec::Singleton { props } => {
                if props.is_empty() || props.len() > MAX_DEMANDS {
                    return Err(ServeError::InvalidField {
                        field: "world.props",
                        message: format!(
                            "need between 1 and {MAX_DEMANDS} propensities, got {}",
                            props.len()
                        ),
                    });
                }
                for &p in props {
                    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                        return Err(ServeError::InvalidField {
                            field: "world.props",
                            message: format!("propensity {p} is outside [0, 1]"),
                        });
                    }
                }
            }
            WorldSpec::Fixture { name } => {
                if worlds::fixture(name).is_none() {
                    return Err(ServeError::UnknownFixture { name: name.clone() });
                }
            }
            WorldSpec::Generated {
                demands,
                faults,
                region_max,
                zipf,
                prop_lo,
                prop_hi,
                ..
            } => {
                if *demands == 0 || *demands > MAX_DEMANDS {
                    return Err(ServeError::InvalidField {
                        field: "world.demands",
                        message: format!("must be in 1..={MAX_DEMANDS}, got {demands}"),
                    });
                }
                if *faults == 0 || *faults > MAX_FAULTS {
                    return Err(ServeError::InvalidField {
                        field: "world.faults",
                        message: format!("must be in 1..={MAX_FAULTS}, got {faults}"),
                    });
                }
                if *region_max == 0 || *region_max > 64 {
                    return Err(ServeError::InvalidField {
                        field: "world.region_max",
                        message: format!("must be in 1..=64, got {region_max}"),
                    });
                }
                if !zipf.is_finite() || !(0.0..=8.0).contains(zipf) {
                    return Err(ServeError::InvalidField {
                        field: "world.zipf",
                        message: format!("must be in [0, 8], got {zipf}"),
                    });
                }
                let propensity = PropensityKind::Uniform {
                    lo: *prop_lo,
                    hi: *prop_hi,
                };
                if propensity.validate().is_err() {
                    return Err(ServeError::InvalidField {
                        field: "world.prop_lo",
                        message: format!(
                            "need 0 <= prop_lo <= prop_hi <= 1, got [{prop_lo}, {prop_hi}]"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// The strict wire rendering of this spec.
    pub fn to_value(&self) -> Value {
        match self {
            WorldSpec::Singleton { props } => Value::Object(vec![
                ("kind".into(), Value::String("singleton".into())),
                (
                    "props".into(),
                    Value::Array(props.iter().map(|&p| Value::Number(p)).collect()),
                ),
            ]),
            WorldSpec::Fixture { name } => Value::Object(vec![
                ("kind".into(), Value::String("fixture".into())),
                ("name".into(), Value::String(name.clone())),
            ]),
            WorldSpec::Generated {
                demands,
                faults,
                region_max,
                zipf,
                prop_lo,
                prop_hi,
                seed,
            } => Value::Object(vec![
                ("kind".into(), Value::String("generated".into())),
                ("demands".into(), Value::Number(*demands as f64)),
                ("faults".into(), Value::Number(*faults as f64)),
                ("region_max".into(), Value::Number(*region_max as f64)),
                ("zipf".into(), Value::Number(*zipf)),
                ("prop_lo".into(), Value::Number(*prop_lo)),
                ("prop_hi".into(), Value::Number(*prop_hi)),
                ("seed".into(), Value::Number(*seed as f64)),
            ]),
        }
    }

    /// The tolerant wire reader for a `world` member.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on structural problems, the
    /// [`WorldSpec::validate`] errors on out-of-range parameters.
    pub fn from_value(value: &Value) -> Result<Self, ServeError> {
        let kind = require_str(value, "world.kind")?;
        let spec = match kind {
            "singleton" => {
                let props = value
                    .get("props")
                    .and_then(Value::as_array)
                    .ok_or_else(|| protocol("world.props must be an array of numbers"))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| protocol("world.props must contain only numbers"))
                    })
                    .collect::<Result<Vec<f64>, ServeError>>()?;
                WorldSpec::Singleton { props }
            }
            "fixture" => WorldSpec::Fixture {
                name: require_member_str(value, "name", "world.name")?.to_string(),
            },
            "generated" => WorldSpec::Generated {
                demands: read_usize(value, "demands", "world.demands")?,
                faults: read_usize(value, "faults", "world.faults")?,
                region_max: opt_usize(value, "region_max", "world.region_max")?.unwrap_or(1),
                zipf: opt_f64(value, "zipf", "world.zipf")?.unwrap_or(0.0),
                prop_lo: opt_f64(value, "prop_lo", "world.prop_lo")?.unwrap_or(0.05),
                prop_hi: opt_f64(value, "prop_hi", "world.prop_hi")?.unwrap_or(0.5),
                seed: opt_u64(value, "seed", "world.seed")?.unwrap_or(0),
            },
            other => {
                return Err(protocol(format!(
                    "world.kind must be singleton, fixture or generated, got {other:?}"
                )))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The testing regime of an evaluation request.
///
/// Every [`CampaignRegime`] — including every identical-failure model
/// of back-to-back testing and every adaptive allocation policy — has
/// exactly one spec, so regimes round-trip across the wire without
/// silent coercion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegimeSpec {
    /// Both versions debugged on one shared suite.
    Shared,
    /// Each version debugged on its own independent suite.
    Independent,
    /// Back-to-back testing under the given identical-failure model.
    BackToBack {
        /// How coincident failures compare.
        model: IdenticalFailureModel,
    },
    /// Policy-driven adaptive allocation of a shared test budget.
    Adaptive {
        /// The allocation policy.
        policy: PolicySpec,
    },
}

impl RegimeSpec {
    /// The simulation regime this spec denotes.
    pub fn to_regime(self) -> CampaignRegime {
        match self {
            RegimeSpec::Shared => CampaignRegime::SharedSuite,
            RegimeSpec::Independent => CampaignRegime::IndependentSuites,
            RegimeSpec::BackToBack { model } => CampaignRegime::BackToBack(model),
            RegimeSpec::Adaptive { policy } => CampaignRegime::Adaptive(policy),
        }
    }

    /// The domain's own parameter checks
    /// ([`IdenticalFailureModel::validate`], [`PolicySpec::validate`]),
    /// reported under the wire field that carries the parameter.
    fn validate(&self) -> Result<(), ServeError> {
        let (field, message) = match *self {
            RegimeSpec::BackToBack {
                model: model @ IdenticalFailureModel::Bernoulli(gamma),
            } if model.validate().is_err() => (
                "regime.gamma",
                format!("must be a probability in [0, 1], got {gamma}"),
            ),
            RegimeSpec::Adaptive {
                policy: policy @ PolicySpec::EpsilonGreedy { epsilon },
            } if policy.validate().is_err() => (
                "regime.epsilon",
                format!("must be a probability in [0, 1], got {epsilon}"),
            ),
            RegimeSpec::Adaptive {
                policy: policy @ PolicySpec::UcbIndex { c },
            } if policy.validate().is_err() => (
                "regime.c",
                format!("must be a finite non-negative number, got {c}"),
            ),
            _ => return Ok(()),
        };
        Err(ServeError::InvalidField { field, message })
    }

    /// The strict wire rendering of this regime.
    ///
    /// Bernoulli back-to-back regimes render with a `gamma` member —
    /// byte-identical to the historical wire form — while `Never` /
    /// `Always` render with a `model` member.
    pub fn to_value(&self) -> Value {
        match self {
            RegimeSpec::Shared => Value::String("shared".into()),
            RegimeSpec::Independent => Value::String("independent".into()),
            RegimeSpec::BackToBack { model } => {
                let payload = match model {
                    IdenticalFailureModel::Bernoulli(gamma) => {
                        ("gamma".to_string(), Value::Number(*gamma))
                    }
                    IdenticalFailureModel::Never => {
                        ("model".to_string(), Value::String("never".into()))
                    }
                    IdenticalFailureModel::Always => {
                        ("model".to_string(), Value::String("always".into()))
                    }
                };
                Value::Object(vec![
                    ("kind".into(), Value::String("back_to_back".into())),
                    payload,
                ])
            }
            RegimeSpec::Adaptive { policy } => Value::Object(vec![
                ("kind".into(), Value::String("adaptive".into())),
                ("policy".into(), policy_to_value(*policy)),
            ]),
        }
    }

    fn from_value(value: &Value) -> Result<Self, ServeError> {
        let kind = value.get("kind").and_then(Value::as_str);
        let spec = match value {
            Value::String(s) if s == "shared" => RegimeSpec::Shared,
            Value::String(s) if s == "independent" => RegimeSpec::Independent,
            Value::Object(_) if kind == Some("back_to_back") => {
                let model = match value.get("model") {
                    None => IdenticalFailureModel::Bernoulli(
                        opt_f64(value, "gamma", "regime.gamma")?.unwrap_or(0.0),
                    ),
                    Some(_) if value.get("gamma").is_some() => {
                        return Err(protocol("regime cannot carry both \"gamma\" and \"model\""))
                    }
                    Some(m) => match m.as_str() {
                        Some("never") => IdenticalFailureModel::Never,
                        Some("always") => IdenticalFailureModel::Always,
                        _ => return Err(protocol("regime.model must be \"never\" or \"always\"")),
                    },
                };
                RegimeSpec::BackToBack { model }
            }
            Value::Object(_) if kind == Some("adaptive") => {
                let policy = value
                    .get("policy")
                    .ok_or_else(|| protocol("adaptive regimes need a \"policy\" member"))?;
                RegimeSpec::Adaptive {
                    policy: policy_from_value(policy)?,
                }
            }
            _ => {
                return Err(protocol(
                    "regime must be \"shared\", \"independent\", \
                     {\"kind\":\"back_to_back\",...} or {\"kind\":\"adaptive\",...}",
                ))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// The strict wire rendering of an adaptive allocation policy.
fn policy_to_value(policy: PolicySpec) -> Value {
    match policy {
        PolicySpec::RoundRobin => Value::String("round_robin".into()),
        PolicySpec::GreedyOnFailures => Value::String("greedy".into()),
        PolicySpec::EpsilonGreedy { epsilon } => Value::Object(vec![
            ("kind".into(), Value::String("epsilon_greedy".into())),
            ("epsilon".into(), Value::Number(epsilon)),
        ]),
        PolicySpec::UcbIndex { c } => Value::Object(vec![
            ("kind".into(), Value::String("ucb".into())),
            ("c".into(), Value::Number(c)),
        ]),
    }
}

/// The tolerant wire reader for a `regime.policy` member.
fn policy_from_value(value: &Value) -> Result<PolicySpec, ServeError> {
    match value {
        Value::String(s) if s == "round_robin" => Ok(PolicySpec::RoundRobin),
        Value::String(s) if s == "greedy" => Ok(PolicySpec::GreedyOnFailures),
        Value::Object(_) => match require_str(value, "regime.policy.kind")? {
            "epsilon_greedy" => Ok(PolicySpec::EpsilonGreedy {
                epsilon: opt_f64(value, "epsilon", "regime.epsilon")?.unwrap_or(0.0),
            }),
            "ucb" => Ok(PolicySpec::UcbIndex {
                c: opt_f64(value, "c", "regime.c")?.unwrap_or(0.0),
            }),
            other => Err(protocol(format!(
                "regime.policy.kind must be epsilon_greedy or ucb, got {other:?}"
            ))),
        },
        _ => Err(protocol(
            "regime.policy must be \"round_robin\", \"greedy\" or {\"kind\":...}",
        )),
    }
}

/// Which study an evaluation request runs.
#[derive(Debug, Clone, PartialEq)]
pub enum StudySpec {
    /// Replicated campaigns → pfd estimates of the tested pair (the
    /// paper's central delivered-reliability query).
    Estimate,
    /// Replicated reliability-growth trajectories recorded at the
    /// given testing-effort checkpoints.
    Growth {
        /// Strictly increasing demand counts; `0` records the
        /// untested pair.
        checkpoints: Vec<usize>,
    },
}

impl StudySpec {
    /// The wire's own cap on the checkpoint count, then the domain's
    /// checkpoint rules ([`validate_checkpoints`]), reported under
    /// `study.checkpoints`.
    fn validate(&self) -> Result<(), ServeError> {
        let StudySpec::Growth { checkpoints } = self else {
            return Ok(());
        };
        if checkpoints.is_empty() || checkpoints.len() > 256 {
            return Err(ServeError::InvalidField {
                field: "study.checkpoints",
                message: format!("need 1..=256 checkpoints, got {}", checkpoints.len()),
            });
        }
        validate_checkpoints(checkpoints).map_err(|err| ServeError::InvalidField {
            field: "study.checkpoints",
            message: match err {
                ScenarioError::InvalidCheckpoints { reason } => reason.into(),
                ScenarioError::SuiteTooLarge { limit, .. } => {
                    format!("checkpoints must not exceed {limit}")
                }
                other => other.to_string(),
            },
        })
    }

    /// The strict wire rendering of this study.
    pub fn to_value(&self) -> Value {
        match self {
            StudySpec::Estimate => Value::String("estimate".into()),
            StudySpec::Growth { checkpoints } => Value::Object(vec![
                ("kind".into(), Value::String("growth".into())),
                (
                    "checkpoints".into(),
                    Value::Array(
                        checkpoints
                            .iter()
                            .map(|&c| Value::Number(c as f64))
                            .collect(),
                    ),
                ),
            ]),
        }
    }

    fn from_value(value: &Value) -> Result<Self, ServeError> {
        let spec = match value {
            Value::String(s) if s == "estimate" => StudySpec::Estimate,
            Value::Object(_) if value.get("kind").and_then(Value::as_str) == Some("growth") => {
                let checkpoints = value
                    .get("checkpoints")
                    .and_then(Value::as_array)
                    .ok_or_else(|| protocol("study.checkpoints must be an array of integers"))?
                    .iter()
                    .map(|v| {
                        as_index(v).ok_or_else(|| {
                            protocol("study.checkpoints must contain non-negative integers")
                        })
                    })
                    .collect::<Result<Vec<usize>, ServeError>>()?;
                StudySpec::Growth { checkpoints }
            }
            _ => {
                return Err(protocol(
                    "study must be \"estimate\" or {\"kind\":\"growth\",...}",
                ))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Largest accepted node count of a wire system structure.
pub const MAX_STRUCTURE_NODES: usize = 256;

/// A system structure function described *by value* on the wire, in
/// [`RegimeSpec`]'s style: every [`Structure`] tree has exactly one
/// spec, so structures round-trip without silent coercion.
///
/// ```json
/// {"kind":"k_of_n","k":2,"children":[
///   {"kind":"component","index":0},
///   {"kind":"component","index":1},
///   {"kind":"component","index":2}]}
/// ```
///
/// Component indices map onto the world's two development processes
/// alternately (even indices sample the A population, odd indices the
/// B population — see `Scenario::with_structure`), so the
/// two-component `{"kind":"and",...}` reproduces the classic pair.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemSpec {
    /// A component leaf.
    Component {
        /// The component's index.
        index: usize,
    },
    /// Fails iff all children fail (parallel redundancy).
    And {
        /// The child subsystems.
        children: Vec<SystemSpec>,
    },
    /// Fails iff any child fails (series).
    Or {
        /// The child subsystems.
        children: Vec<SystemSpec>,
    },
    /// Works iff at least `k` children work.
    KOutOfN {
        /// Number of children that must work.
        k: usize,
        /// The child subsystems.
        children: Vec<SystemSpec>,
    },
}

impl SystemSpec {
    /// The structure tree this spec denotes.
    pub fn to_structure(&self) -> Structure {
        match self {
            SystemSpec::Component { index } => Structure::component(*index),
            SystemSpec::And { children } => {
                Structure::and(children.iter().map(SystemSpec::to_structure).collect())
            }
            SystemSpec::Or { children } => {
                Structure::or(children.iter().map(SystemSpec::to_structure).collect())
            }
            SystemSpec::KOutOfN { k, children } => {
                Structure::k_out_of_n(*k, children.iter().map(SystemSpec::to_structure).collect())
            }
        }
    }

    fn node_count(&self) -> usize {
        match self {
            SystemSpec::Component { .. } => 1,
            SystemSpec::And { children }
            | SystemSpec::Or { children }
            | SystemSpec::KOutOfN { children, .. } => {
                1 + children.iter().map(SystemSpec::node_count).sum::<usize>()
            }
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        if self.node_count() > MAX_STRUCTURE_NODES {
            return Err(ServeError::InvalidField {
                field: "system",
                message: format!("structure exceeds the sanity cap of {MAX_STRUCTURE_NODES} nodes"),
            });
        }
        let structure = self.to_structure();
        structure
            .validate(structure.component_count().max(1))
            .map_err(|e| ServeError::InvalidField {
                field: "system",
                message: e.to_string(),
            })
    }

    /// The strict wire rendering of this structure.
    pub fn to_value(&self) -> Value {
        let array = |children: &[SystemSpec]| {
            Value::Array(children.iter().map(SystemSpec::to_value).collect())
        };
        match self {
            SystemSpec::Component { index } => Value::Object(vec![
                ("kind".into(), Value::String("component".into())),
                ("index".into(), Value::Number(*index as f64)),
            ]),
            SystemSpec::And { children } => Value::Object(vec![
                ("kind".into(), Value::String("and".into())),
                ("children".into(), array(children)),
            ]),
            SystemSpec::Or { children } => Value::Object(vec![
                ("kind".into(), Value::String("or".into())),
                ("children".into(), array(children)),
            ]),
            SystemSpec::KOutOfN { k, children } => Value::Object(vec![
                ("kind".into(), Value::String("k_of_n".into())),
                ("k".into(), Value::Number(*k as f64)),
                ("children".into(), array(children)),
            ]),
        }
    }

    /// The tolerant wire reader for a `system` member.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on structural problems,
    /// [`ServeError::InvalidField`] for malformed structures (bad `k`,
    /// empty gates, node-count cap).
    pub fn from_value(value: &Value) -> Result<Self, ServeError> {
        let spec = Self::read_node(value)?;
        spec.validate()?;
        Ok(spec)
    }

    fn read_node(value: &Value) -> Result<Self, ServeError> {
        let children = |value: &Value| {
            value
                .get("children")
                .and_then(Value::as_array)
                .ok_or_else(|| protocol("system gates need a \"children\" array"))?
                .iter()
                .map(SystemSpec::read_node)
                .collect::<Result<Vec<SystemSpec>, ServeError>>()
        };
        match require_str(value, "system.kind")? {
            "component" => Ok(SystemSpec::Component {
                index: read_usize(value, "index", "system.index")?,
            }),
            "and" => Ok(SystemSpec::And {
                children: children(value)?,
            }),
            "or" => Ok(SystemSpec::Or {
                children: children(value)?,
            }),
            "k_of_n" => Ok(SystemSpec::KOutOfN {
                k: read_usize(value, "k", "system.k")?,
                children: children(value)?,
            }),
            other => Err(protocol(format!(
                "system.kind must be component, and, or or k_of_n, got {other:?}"
            ))),
        }
    }
}

/// The body of a world-evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluateRequest {
    /// The world to evaluate in (cached by content hash).
    pub world: WorldSpec,
    /// The testing regime.
    pub regime: RegimeSpec,
    /// Demands per generated suite.
    pub suite_size: usize,
    /// Monte Carlo replication budget (`1..=`[`MAX_REPLICATIONS`]).
    pub replications: u64,
    /// The study to run.
    pub study: StudySpec,
    /// Optional structure function scoring the campaign; `None` keeps
    /// the classic 1-out-of-2 pair queries.
    pub system: Option<SystemSpec>,
}

impl EvaluateRequest {
    fn validate(&self) -> Result<(), ServeError> {
        self.world.validate()?;
        self.regime.validate()?;
        self.study.validate()?;
        if let Some(system) = &self.system {
            system.validate()?;
            if !matches!(self.study, StudySpec::Estimate) {
                return Err(ServeError::InvalidField {
                    field: "study",
                    message: "growth studies do not support system structures".into(),
                });
            }
        }
        if let Err(ScenarioError::SuiteTooLarge { limit, .. }) = check_suite_size(self.suite_size) {
            return Err(ServeError::InvalidField {
                field: "suite_size",
                message: format!("exceeds the sanity cap {limit}"),
            });
        }
        if self.replications == 0 || self.replications > MAX_REPLICATIONS {
            return Err(ServeError::InvalidField {
                field: "replications",
                message: format!(
                    "must be in 1..={MAX_REPLICATIONS}, got {}",
                    self.replications
                ),
            });
        }
        Ok(())
    }
}

/// The body of a run-registered-experiment request — also the value
/// `diversim run` constructs internally, so every entry into the engine
/// passes this validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRequest {
    /// Experiment key: slug (`"e01"`), name (`"e01_el_model"`) or id.
    pub key: String,
    /// The replication profile to run under.
    pub profile: Profile,
}

/// What an [`EvaluationRequest`] asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Evaluate a world under a regime.
    Evaluate(EvaluateRequest),
    /// Run a registered reproduction experiment.
    Experiment(ExperimentRequest),
    /// Liveness probe; answered with `pong`.
    Ping,
}

/// One request line of the `diversim/v1` protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationRequest {
    /// Client-chosen identifier, echoed verbatim in the response.
    pub id: String,
    /// Base seed of the request's replication streams.
    pub seed: u64,
    /// Client stream number; distinct streams derive non-colliding
    /// seed sequences from the same base seed (see the module docs).
    pub stream: u64,
    /// The request body.
    pub kind: RequestKind,
}

impl EvaluationRequest {
    /// Parses one request line (tolerant reader; see the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for lines that are not well-formed
    /// protocol documents, [`ServeError::UnsupportedApi`] for foreign
    /// `api` versions, and the spec validation errors for out-of-range
    /// parameters.
    pub fn parse(line: &str) -> Result<Self, ServeError> {
        let doc = json::parse(line).map_err(|e| protocol(format!("malformed JSON: {e}")))?;
        if !matches!(doc, Value::Object(_)) {
            return Err(protocol("request must be a JSON object"));
        }
        let api = doc
            .get("api")
            .and_then(Value::as_str)
            .ok_or_else(|| protocol("missing string member \"api\""))?;
        if api != API_VERSION {
            return Err(ServeError::UnsupportedApi { found: api.into() });
        }
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        let seed = opt_u64(&doc, "seed", "seed")?.unwrap_or(0);
        let stream = opt_u64(&doc, "stream", "stream")?.unwrap_or(0);
        let kind = match require_member_str(&doc, "kind", "kind")? {
            "ping" => RequestKind::Ping,
            "evaluate" => {
                let world = doc
                    .get("world")
                    .ok_or_else(|| protocol("evaluate requests need a \"world\" member"))?;
                let request = EvaluateRequest {
                    world: WorldSpec::from_value(world)?,
                    regime: match doc.get("regime") {
                        Some(v) => RegimeSpec::from_value(v)?,
                        None => RegimeSpec::Shared,
                    },
                    suite_size: opt_usize(&doc, "suite_size", "suite_size")?.unwrap_or(0),
                    replications: opt_u64(&doc, "replications", "replications")?.unwrap_or(0),
                    study: match doc.get("study") {
                        Some(v) => StudySpec::from_value(v)?,
                        None => StudySpec::Estimate,
                    },
                    system: match doc.get("system") {
                        Some(v) => Some(SystemSpec::from_value(v)?),
                        None => None,
                    },
                };
                request.validate()?;
                RequestKind::Evaluate(request)
            }
            "experiment" => RequestKind::Experiment(ExperimentRequest {
                key: require_member_str(&doc, "experiment", "experiment")?.to_string(),
                profile: match doc.get("profile") {
                    None => Profile::Full,
                    Some(v) => {
                        let name = v
                            .as_str()
                            .ok_or_else(|| protocol("profile must be a string"))?;
                        Profile::from_name(name).ok_or(ServeError::InvalidField {
                            field: "profile",
                            message: format!("must be smoke, fast or full, got {name:?}"),
                        })?
                    }
                },
            }),
            other => {
                return Err(protocol(format!(
                    "kind must be evaluate, experiment or ping, got {other:?}"
                )))
            }
        };
        Ok(EvaluationRequest {
            id,
            seed,
            stream,
            kind,
        })
    }

    /// The strict one-line wire rendering of this request.
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("api".to_string(), Value::String(API_VERSION.into())),
            ("id".to_string(), Value::String(self.id.clone())),
        ];
        match &self.kind {
            RequestKind::Ping => {
                members.push(("kind".into(), Value::String("ping".into())));
            }
            RequestKind::Evaluate(e) => {
                members.push(("kind".into(), Value::String("evaluate".into())));
                members.push(("seed".into(), Value::Number(self.seed as f64)));
                members.push(("stream".into(), Value::Number(self.stream as f64)));
                members.push(("world".into(), e.world.to_value()));
                members.push(("regime".into(), e.regime.to_value()));
                members.push(("suite_size".into(), Value::Number(e.suite_size as f64)));
                members.push(("replications".into(), Value::Number(e.replications as f64)));
                members.push(("study".into(), e.study.to_value()));
                if let Some(system) = &e.system {
                    members.push(("system".into(), system.to_value()));
                }
            }
            RequestKind::Experiment(x) => {
                members.push(("kind".into(), Value::String("experiment".into())));
                members.push(("experiment".into(), Value::String(x.key.clone())));
                members.push((
                    "profile".into(),
                    Value::String(x.profile.name().to_string()),
                ));
            }
        }
        Value::Object(members).to_json()
    }
}

/// One response line of the `diversim/v1` protocol, held as the wire
/// document it renders to (see the module docs' *Results*).
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationResponse(Value);

impl EvaluationResponse {
    /// The success response for `id`, carrying a `result` object.
    pub fn answer(id: impl Into<String>, result: Value) -> Self {
        EvaluationResponse(envelope(id.into(), true, ("result", result)))
    }

    /// An error response for `id`.
    pub fn error(id: impl Into<String>, error: &ServeError) -> Self {
        let message = Value::String(error.to_string());
        EvaluationResponse(envelope(id.into(), false, ("error", message)))
    }

    /// The strict one-line wire rendering of this response: a pure
    /// function of `self`, so equal responses are byte-identical.
    pub fn to_json(&self) -> String {
        self.0.to_json()
    }

    /// Minimal client-side reader: extracts `(id, ok)` from a response
    /// line. Clients such as the benchmark's `perfbench-harness
    /// serve-load` use it to count protocol errors without modelling
    /// every result payload.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if the line is not a well-formed
    /// response document.
    pub fn parse_status(line: &str) -> Result<(String, bool), ServeError> {
        let doc = json::parse(line).map_err(|e| protocol(format!("malformed response: {e}")))?;
        let api = doc
            .get("api")
            .and_then(Value::as_str)
            .ok_or_else(|| protocol("response missing \"api\""))?;
        if api != API_VERSION {
            return Err(ServeError::UnsupportedApi { found: api.into() });
        }
        let id = doc
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| protocol("response missing \"id\""))?;
        let ok = doc
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or_else(|| protocol("response missing \"ok\""))?;
        Ok((id.to_string(), ok))
    }
}

/// A response document: `api`, `id` and `ok`, then the payload member.
fn envelope(id: String, ok: bool, (key, payload): (&str, Value)) -> Value {
    Value::Object(vec![
        ("api".into(), Value::String(API_VERSION.into())),
        ("id".into(), Value::String(id)),
        ("ok".into(), Value::Bool(ok)),
        (key.into(), payload),
    ])
}

// --- tolerant-reader helpers ------------------------------------------

fn protocol(message: impl Into<String>) -> ServeError {
    ServeError::Protocol {
        message: message.into(),
    }
}

/// A non-negative integer exactly representable in an `f64`.
fn as_index(value: &Value) -> Option<usize> {
    let n = value.as_f64()?;
    if n.is_finite() && n >= 0.0 && n.trunc() == n && n < 9_007_199_254_740_992.0 {
        Some(n as usize)
    } else {
        None
    }
}

fn require_str<'a>(value: &'a Value, field: &'static str) -> Result<&'a str, ServeError> {
    let key = field.rsplit('.').next().expect("non-empty field path");
    require_member_str(value, key, field)
}

fn require_member_str<'a>(
    value: &'a Value,
    key: &str,
    field: &'static str,
) -> Result<&'a str, ServeError> {
    value
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| protocol(format!("missing string member \"{field}\"")))
}

fn opt_u64(value: &Value, key: &str, field: &'static str) -> Result<Option<u64>, ServeError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => as_index(v)
            .map(|n| Some(n as u64))
            .ok_or_else(|| protocol(format!("member \"{field}\" must be a non-negative integer"))),
    }
}

fn opt_usize(value: &Value, key: &str, field: &'static str) -> Result<Option<usize>, ServeError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => as_index(v)
            .map(Some)
            .ok_or_else(|| protocol(format!("member \"{field}\" must be a non-negative integer"))),
    }
}

fn opt_f64(value: &Value, key: &str, field: &'static str) -> Result<Option<f64>, ServeError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| protocol(format!("member \"{field}\" must be a number"))),
    }
}

fn read_usize(value: &Value, key: &str, field: &'static str) -> Result<usize, ServeError> {
    opt_usize(value, key, field)?
        .ok_or_else(|| protocol(format!("missing integer member \"{field}\"")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluate_line() -> String {
        concat!(
            r#"{"api":"diversim/v1","id":"r1","kind":"evaluate","seed":42,"stream":7,"#,
            r#""world":{"kind":"singleton","props":[0.1,0.3]},"regime":"independent","#,
            r#""suite_size":4,"replications":500,"study":"estimate"}"#
        )
        .to_string()
    }

    #[test]
    fn parses_a_full_evaluate_request() {
        let req = EvaluationRequest::parse(&evaluate_line()).unwrap();
        assert_eq!(req.id, "r1");
        assert_eq!(req.seed, 42);
        assert_eq!(req.stream, 7);
        let RequestKind::Evaluate(e) = &req.kind else {
            panic!("evaluate expected")
        };
        assert_eq!(
            e.world,
            WorldSpec::Singleton {
                props: vec![0.1, 0.3]
            }
        );
        assert_eq!(e.regime, RegimeSpec::Independent);
        assert_eq!(e.suite_size, 4);
        assert_eq!(e.replications, 500);
        assert_eq!(e.study, StudySpec::Estimate);
    }

    #[test]
    fn reader_is_tolerant_of_order_and_unknown_members() {
        let line = concat!(
            r#"{"replications":100,"bogus":{"deep":[1,2]},"world":{"kind":"fixture","#,
            r#""extra":true,"name":"small-graded"},"kind":"evaluate","api":"diversim/v1"}"#
        );
        let req = EvaluationRequest::parse(line).unwrap();
        let RequestKind::Evaluate(e) = &req.kind else {
            panic!("evaluate expected")
        };
        // Optional members defaulted.
        assert_eq!(req.id, "");
        assert_eq!((req.seed, req.stream), (0, 0));
        assert_eq!(e.regime, RegimeSpec::Shared);
        assert_eq!(e.suite_size, 0);
        assert_eq!(e.study, StudySpec::Estimate);
    }

    #[test]
    fn request_round_trips_through_its_own_writer() {
        let req = EvaluationRequest::parse(&evaluate_line()).unwrap();
        let reparsed = EvaluationRequest::parse(&req.to_json()).unwrap();
        assert_eq!(req, reparsed);

        // The deepest valid request: MAX_STRUCTURE_NODES nodes as 255
        // `and` gates over one component nest 512 levels, inside the
        // parser's depth cap.
        let mut chain = SystemSpec::Component { index: 0 };
        for _ in 1..MAX_STRUCTURE_NODES {
            chain = SystemSpec::And {
                children: vec![chain],
            };
        }
        let mut deepest = req.clone();
        if let RequestKind::Evaluate(evaluate) = &mut deepest.kind {
            evaluate.system = Some(chain);
        }
        assert_eq!(
            EvaluationRequest::parse(&deepest.to_json()).unwrap(),
            deepest
        );

        let growth = EvaluationRequest {
            id: "g".into(),
            seed: 1,
            stream: 2,
            kind: RequestKind::Evaluate(EvaluateRequest {
                world: WorldSpec::Generated {
                    demands: 64,
                    faults: 16,
                    region_max: 3,
                    zipf: 0.8,
                    prop_lo: 0.05,
                    prop_hi: 0.5,
                    seed: 9,
                },
                regime: RegimeSpec::BackToBack {
                    model: IdenticalFailureModel::Bernoulli(0.3),
                },
                suite_size: 8,
                replications: 50,
                study: StudySpec::Growth {
                    checkpoints: vec![0, 4, 8],
                },
                system: None,
            }),
        };
        assert_eq!(EvaluationRequest::parse(&growth.to_json()).unwrap(), growth);

        let experiment = EvaluationRequest {
            id: "x".into(),
            seed: 0,
            stream: 0,
            kind: RequestKind::Experiment(ExperimentRequest {
                key: "e01".into(),
                profile: Profile::Smoke,
            }),
        };
        assert_eq!(
            EvaluationRequest::parse(&experiment.to_json()).unwrap(),
            experiment
        );
    }

    #[test]
    fn rejects_bad_lines_with_protocol_errors() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            r#"{"id":"x"}"#,
            r#"{"api":"diversim/v1"}"#,
            r#"{"api":"diversim/v1","kind":"bogus"}"#,
            r#"{"api":"diversim/v1","kind":"evaluate"}"#,
        ] {
            let err = EvaluationRequest::parse(bad).unwrap_err();
            assert!(
                matches!(err, ServeError::Protocol { .. }),
                "{bad:?} → {err}"
            );
        }
        assert!(matches!(
            EvaluationRequest::parse(r#"{"api":"diversim/v2","kind":"ping"}"#).unwrap_err(),
            ServeError::UnsupportedApi { .. }
        ));
    }

    #[test]
    fn validation_names_the_offending_field() {
        let line = |body: &str| {
            format!(
                r#"{{"api":"diversim/v1","kind":"evaluate","world":{{"kind":"singleton","props":[0.5]}},"replications":10{body}}}"#
            )
        };
        let err = EvaluationRequest::parse(&line(r#","suite_size":99999999999"#)).unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "suite_size",
                ..
            }
        ));
        let err =
            EvaluationRequest::parse(&line(r#","regime":{"kind":"back_to_back","gamma":1.5}"#))
                .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "regime.gamma",
                ..
            }
        ));
        let err = EvaluationRequest::parse(&line(
            r#","regime":{"kind":"adaptive","policy":{"kind":"epsilon_greedy","epsilon":1.5}}"#,
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "regime.epsilon",
                ..
            }
        ));
        let err = EvaluationRequest::parse(&line(
            r#","regime":{"kind":"adaptive","policy":{"kind":"ucb","c":-1}}"#,
        ))
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "regime.c",
                ..
            }
        ));
        let err =
            EvaluationRequest::parse(&line(r#","study":{"kind":"growth","checkpoints":[3,1]}"#))
                .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "study.checkpoints",
                ..
            }
        ));
        let err = EvaluationRequest::parse(
            r#"{"api":"diversim/v1","kind":"evaluate","world":{"kind":"singleton","props":[2.0]},"replications":10}"#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "world.props",
                ..
            }
        ));
        let err = EvaluationRequest::parse(
            r#"{"api":"diversim/v1","kind":"evaluate","world":{"kind":"fixture","name":"nope"},"replications":10}"#,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::UnknownFixture { .. }));
    }

    #[test]
    fn every_regime_round_trips_without_coercion() {
        let regimes = [
            CampaignRegime::SharedSuite,
            CampaignRegime::IndependentSuites,
            CampaignRegime::BackToBack(IdenticalFailureModel::Never),
            CampaignRegime::BackToBack(IdenticalFailureModel::Always),
            CampaignRegime::BackToBack(IdenticalFailureModel::Bernoulli(0.3)),
            CampaignRegime::Adaptive(PolicySpec::RoundRobin),
            CampaignRegime::Adaptive(PolicySpec::GreedyOnFailures),
            CampaignRegime::Adaptive(PolicySpec::EpsilonGreedy { epsilon: 0.1 }),
            CampaignRegime::Adaptive(PolicySpec::UcbIndex { c: 0.5 }),
        ];
        for regime in regimes {
            // Exhaustive, so a new regime must gain a wire spec.
            let spec = match regime {
                CampaignRegime::SharedSuite => RegimeSpec::Shared,
                CampaignRegime::IndependentSuites => RegimeSpec::Independent,
                CampaignRegime::BackToBack(model) => RegimeSpec::BackToBack { model },
                CampaignRegime::Adaptive(policy) => RegimeSpec::Adaptive { policy },
            };
            assert_eq!(spec.to_regime(), regime, "{regime:?}");
            assert_eq!(
                RegimeSpec::from_value(&spec.to_value()).unwrap(),
                spec,
                "{regime:?}"
            );
        }
    }

    #[test]
    fn back_to_back_wire_forms_are_faithful() {
        // The historical gamma member still reads as Bernoulli and
        // renders back to the identical wire value.
        let legacy = json::parse(r#"{"kind":"back_to_back","gamma":0.3}"#).unwrap();
        let spec = RegimeSpec::from_value(&legacy).unwrap();
        assert_eq!(
            spec,
            RegimeSpec::BackToBack {
                model: IdenticalFailureModel::Bernoulli(0.3)
            }
        );
        assert_eq!(spec.to_value(), legacy);

        // Never / Always are expressible, not coerced to Bernoulli.
        for (wire, model) in [
            ("never", IdenticalFailureModel::Never),
            ("always", IdenticalFailureModel::Always),
        ] {
            let value =
                json::parse(&format!(r#"{{"kind":"back_to_back","model":"{wire}"}}"#)).unwrap();
            let spec = RegimeSpec::from_value(&value).unwrap();
            assert_eq!(spec, RegimeSpec::BackToBack { model });
            assert_eq!(spec.to_regime(), CampaignRegime::BackToBack(model));
            assert_eq!(spec.to_value(), value);
        }

        // Ambiguous and unknown forms are rejected, never guessed at.
        for bad in [
            r#"{"kind":"back_to_back","gamma":0.3,"model":"never"}"#,
            r#"{"kind":"back_to_back","model":"sometimes"}"#,
            r#"{"kind":"back_to_back","model":7}"#,
        ] {
            let value = json::parse(bad).unwrap();
            assert!(RegimeSpec::from_value(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn adaptive_regimes_cross_the_wire() {
        let lines = [
            (
                r#"{"kind":"adaptive","policy":"round_robin"}"#,
                PolicySpec::RoundRobin,
            ),
            (
                r#"{"kind":"adaptive","policy":"greedy"}"#,
                PolicySpec::GreedyOnFailures,
            ),
            (
                r#"{"kind":"adaptive","policy":{"kind":"epsilon_greedy","epsilon":0.1}}"#,
                PolicySpec::EpsilonGreedy { epsilon: 0.1 },
            ),
            (
                r#"{"kind":"adaptive","policy":{"kind":"ucb","c":0.5}}"#,
                PolicySpec::UcbIndex { c: 0.5 },
            ),
        ];
        for (line, policy) in lines {
            let value = json::parse(line).unwrap();
            let spec = RegimeSpec::from_value(&value).unwrap();
            assert_eq!(spec, RegimeSpec::Adaptive { policy }, "{line}");
            assert_eq!(spec.to_value(), value, "{line}");
            assert_eq!(spec.to_regime(), CampaignRegime::Adaptive(policy));
        }
        for bad in [
            r#"{"kind":"adaptive"}"#,
            r#"{"kind":"adaptive","policy":"optimal"}"#,
            r#"{"kind":"adaptive","policy":{"kind":"thompson"}}"#,
            r#"{"kind":"adaptive","policy":7}"#,
        ] {
            let value = json::parse(bad).unwrap();
            assert!(RegimeSpec::from_value(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn zero_replications_are_rejected() {
        let err = EvaluationRequest::parse(
            r#"{"api":"diversim/v1","kind":"evaluate","world":{"kind":"singleton","props":[0.5]}}"#,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ServeError::InvalidField {
                field: "replications",
                ..
            }
        ));
    }

    #[test]
    fn content_hash_distinguishes_specs_and_is_stable() {
        let a = WorldSpec::Singleton {
            props: vec![0.1, 0.3],
        };
        let b = WorldSpec::Singleton {
            props: vec![0.3, 0.1],
        };
        assert_eq!(a.content_hash(), a.content_hash());
        assert_ne!(a.content_hash(), b.content_hash());
        let gen = |seed| WorldSpec::Generated {
            demands: 64,
            faults: 16,
            region_max: 3,
            zipf: 0.8,
            prop_lo: 0.05,
            prop_hi: 0.5,
            seed,
        };
        assert_ne!(gen(1).content_hash(), gen(2).content_hash());
        assert_ne!(
            WorldSpec::Fixture {
                name: "small-graded".into()
            }
            .content_hash(),
            WorldSpec::Fixture {
                name: "mirrored".into()
            }
            .content_hash()
        );
    }

    #[test]
    fn responses_render_stable_lines() {
        let pong = Value::Object(vec![("kind".into(), Value::String("pong".into()))]);
        let ok = EvaluationResponse::answer("r1", pong);
        assert_eq!(
            ok.to_json(),
            r#"{"api":"diversim/v1","id":"r1","ok":true,"result":{"kind":"pong"}}"#
        );
        assert_eq!(
            EvaluationResponse::parse_status(&ok.to_json()).unwrap(),
            ("r1".to_string(), true)
        );
        let err =
            EvaluationResponse::error("r2", &ServeError::UnknownExperiment { key: "e99".into() });
        assert_eq!(
            err.to_json(),
            r#"{"api":"diversim/v1","id":"r2","ok":false,"error":"unknown experiment: e99"}"#
        );
        assert_eq!(
            EvaluationResponse::parse_status(&err.to_json()).unwrap(),
            ("r2".to_string(), false)
        );
    }
}
