//! `diversim serve`: the typed evaluation-request API and its
//! long-running assessment service.
//!
//! The paper's central quantity — delivered system pfd after a testing
//! campaign — is served here as an on-demand query. The module tree
//! splits the service into:
//!
//! * [`request`] — the versioned `diversim/v1` wire types
//!   ([`request::EvaluationRequest`] / [`request::EvaluationResponse`],
//!   newline-delimited JSON; tolerant reader, strict writer). A
//!   response is the one JSON document it renders to: the service
//!   builds each `result` object where it computes the numbers;
//! * [`error`] — the typed failure surface whose `Display` strings are
//!   the wire `error` messages;
//! * [`cache`] — the content-addressed LRU cache of prepared worlds;
//! * [`service`] — request execution ([`service::EvaluationService`]),
//!   including [`service::execute_experiment`], which resolves an
//!   experiment request through the registry lookup the CLI uses;
//! * [`server`] — the stdin/stdout and TCP transports.
//!
//! The service is measured end to end by the repository's benchmark
//! (`perfbench/`, workload `serve_mixed`), whose `perfbench-harness
//! serve-load` client also soaks a live server in CI.
//!
//! The determinism contract: a response is a pure function of its
//! request. Seeds derive as
//! `SeedSequence::new(seed).child(stream).root()`
//! ([`service::derive_root_seed`]), so concurrent clients get
//! reproducible, non-colliding replication streams, and the same
//! request set yields byte-identical responses over any number of
//! connections and server threads.
//!
//! The bytes themselves are pinned: `tests/golden/serve_requests.ndjson`
//! must get exactly `tests/golden/serve_responses.ndjson`, through
//! [`server::serve_lines`] in the tests and from the release binary in CI.

pub mod cache;
pub mod error;
pub mod request;
pub mod server;
pub mod service;

pub use error::ServeError;
pub use request::{EvaluationRequest, EvaluationResponse, ExperimentRequest};
pub use service::EvaluationService;
