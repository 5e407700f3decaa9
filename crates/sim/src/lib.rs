//! Monte Carlo simulation engine for the `diversim` reproduction of Popov
//! & Littlewood (DSN 2004).
//!
//! Where `diversim-core` computes the paper's expectations exactly (which
//! is feasible only on enumerable universes), this crate *samples* the
//! full stochastic process — random versions, random suites, fallible
//! oracles and fixers — and aggregates replications.
//!
//! The entry point is the [`scenario`] module: a [`scenario::Scenario`]
//! is one validated instance of the paper's process (world, structure,
//! regime, oracle, fixer, suite size and seed policy), built by a
//! [`scenario::ScenarioBuilder`] and carrying a per-world precomputation
//! cache ([`prepared`]) reused by every replication. Studies are scenario
//! methods:
//!
//! * [`scenario::Scenario::run`] / [`scenario::Scenario::estimate`] — one
//!   campaign, or replicated campaigns → pfd estimates with confidence
//!   intervals ([`campaign`], [`estimate`]);
//! * [`scenario::Scenario::growth`] — reliability-growth trajectories
//!   (the paper's ref \[5\] study) and the §3.4.1 merged-suite trade-off
//!   ([`growth`]);
//! * [`scenario::Scenario::adaptive_study`] — stopping-rule-driven
//!   campaigns ([`adaptive`]);
//! * [`scenario::Scenario::policy_study`] — adaptive test-budget
//!   allocation across the pair under a [`policy::PolicySpec`]
//!   ([`policy`]);
//! * [`scenario::Scenario::system_run`] /
//!   [`scenario::Scenario::system_estimate`] — the scenario's
//!   structure function (an AND/OR/k-out-of-n fault tree, the paper's
//!   1-out-of-2 pair by default) over components drawn alternately from
//!   the two methodologies ([`system`]);
//! * [`scenario::Scenario::operate`] / [`scenario::Scenario::coverage`] —
//!   operational exposure and assessment ([`operation`]);
//! * [`scenario::Scenario::mistakes`] /
//!   [`scenario::Scenario::clarifications`] — the §5 common-cause
//!   extensions ([`common_cause`]);
//! * [`runner`] — the lock-free deterministic parallel substrate, one
//!   fold ([`runner::parallel_reduce`]): workers claim blocks of
//!   replications from an atomic counter, fold each through a composable
//!   [`diversim_stats::reduce::Reducer`], and return their block folds
//!   when joined; the folds merge in block order, so results are
//!   bit-identical for any thread count, and job panics re-raise with
//!   their replication index.
//!
//! Every study debugs through one path: each test demand is one
//! [`diversim_testing::process::debug_step`] (§4.1) or
//! [`diversim_testing::process::back_to_back_step`] (§4.2), and the
//! pair, system and adaptive-allocation campaigns share one regime
//! dispatch in [`campaign`]. Stopping-rule and adaptive-allocation
//! campaigns draw their demands from the operational profile.
//!
//! # Examples
//!
//! ```
//! use diversim_sim::campaign::CampaignRegime;
//! use diversim_sim::world::World;
//!
//! let world = World::singleton_uniform("quick", vec![0.2; 16])?;
//! let scenario = world
//!     .scenario()
//!     .regime(CampaignRegime::SharedSuite)
//!     .suite_size(8)
//!     .seed(42)
//!     .build()?;
//! let est = scenario.estimate(2_000, 4);
//! assert!(est.system_pfd.mean >= 0.0 && est.system_pfd.mean <= 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
// The Scenario API exists so that no simulation entry point needs an
// argument pile; keep it that way.
#![deny(clippy::too_many_arguments)]

pub mod adaptive;
pub mod campaign;
pub mod common_cause;
pub mod estimate;
pub mod growth;
pub mod operation;
pub mod policy;
pub mod prepared;
pub mod runner;
pub mod scenario;
pub mod system;
pub mod world;

pub use adaptive::{AdaptiveOutcome, AdaptiveStudy};
pub use campaign::{CampaignRegime, PairOutcome};
pub use common_cause::{ClarificationStudy, MistakeMode, MistakeStudy};
pub use estimate::{Estimate, PairEstimates};
pub use growth::{GrowthCurve, GrowthSample, MergedComparison, MergedEstimates};
pub use operation::{CoverageStudy, OperationLog};
pub use policy::{Allocation, AllocationProfile, PolicySpec, PolicyStep, PolicyStudy, PolicyTrace};
pub use runner::{default_threads, parallel_reduce};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioError, SeedPolicy};
pub use world::World;
