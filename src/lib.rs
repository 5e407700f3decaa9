//! `diversim` — a reproduction of Popov & Littlewood, *"The Effect of
//! Testing on Reliability of Fault-Tolerant Software"* (DSN 2004), as a
//! production-quality Rust library.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`universe`] — demand spaces, usage distributions `Q(·)`, fault
//!   models with failure regions, versions and populations `S(·)`;
//! * [`testing`] — test suites, generation procedures `M(·)`, oracles,
//!   fault fixing, debugging campaigns (incl. back-to-back);
//! * [`core`] — the paper's models: Eckhardt–Lee, Littlewood–Miller, the
//!   testing-effect equations (15)–(21), the marginal system results
//!   (22)–(25) and the §4 bounds;
//! * [`exact`] — brute-force enumeration verifying every identity to
//!   machine precision;
//! * [`sim`] — Monte Carlo engine for large universes, imperfect testing
//!   and reliability-growth studies;
//! * [`stats`] — the statistics substrate (estimators, intervals, special
//!   functions, stopping rules).
//!
//! # Quickstart
//!
//! The paper's headline question: should two diverse versions be debugged
//! on one shared test suite, or on independently generated suites?
//!
//! ```
//! use diversim::core::marginal::{MarginalAnalysis, SuiteAssignment};
//! use diversim::testing::suite_population::enumerate_iid_suites;
//! use diversim::universe::demand::DemandSpace;
//! use diversim::universe::fault::FaultModelBuilder;
//! use diversim::universe::population::BernoulliPopulation;
//! use diversim::universe::profile::UsageProfile;
//! use std::sync::Arc;
//!
//! // A small universe with demand-varying difficulty.
//! let space = DemandSpace::new(5)?;
//! let model = Arc::new(FaultModelBuilder::new(space).singleton_faults().build()?);
//! let pop = BernoulliPopulation::new(model, vec![0.05, 0.15, 0.3, 0.5, 0.7])?;
//! let q = UsageProfile::uniform(space);
//!
//! // The measure M(·) induced by drawing 3 i.i.d. operational demands.
//! let m = enumerate_iid_suites(&q, 3, 1 << 12)?;
//!
//! let independent =
//!     MarginalAnalysis::compute(&pop, &pop, SuiteAssignment::independent(&m), &q);
//! let shared = MarginalAnalysis::compute(&pop, &pop, SuiteAssignment::Shared(&m), &q);
//!
//! // Equations (22) vs (23): the shared suite couples the versions'
//! // failures and can only increase the system pfd.
//! assert!(shared.system_pfd() >= independent.system_pfd());
//! assert!(shared.suite_coupling >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use diversim_core as core;
pub use diversim_exact as exact;
pub use diversim_sim as sim;
pub use diversim_stats as stats;
pub use diversim_testing as testing;
pub use diversim_universe as universe;

/// Commonly used items, importable as `use diversim::prelude::*`.
pub mod prelude {
    pub use diversim_core::bounds::{BackToBackBounds, ImperfectTestingBounds};
    pub use diversim_core::difficulty::{eta, tested_score, varsigma, zeta, TestedDifficulty};
    pub use diversim_core::el::ElAnalysis;
    pub use diversim_core::lm::LmAnalysis;
    pub use diversim_core::marginal::{MarginalAnalysis, SuiteAssignment};
    pub use diversim_core::structure::Structure;
    pub use diversim_core::system::structure_system_pfd;
    pub use diversim_core::testing_effect::TestingRegime;
    pub use diversim_exact::verify::verify_pair;
    pub use diversim_sim::campaign::CampaignRegime;
    pub use diversim_sim::scenario::{Scenario, ScenarioBuilder, ScenarioError, SeedPolicy};
    pub use diversim_sim::world::World as SimWorld;
    pub use diversim_testing::fixing::{Fixer, ImperfectFixer, PerfectFixer};
    pub use diversim_testing::generation::{ProfileGenerator, SuiteGenerator};
    pub use diversim_testing::oracle::{
        IdenticalFailureModel, ImperfectOracle, Oracle, PerfectOracle,
    };
    pub use diversim_testing::suite::TestSuite;
    pub use diversim_testing::suite_population::enumerate_iid_suites;
    pub use diversim_universe::demand::{DemandId, DemandSpace};
    pub use diversim_universe::fault::{Fault, FaultId, FaultModel, FaultModelBuilder};
    pub use diversim_universe::population::{BernoulliPopulation, ExplicitPopulation, Population};
    pub use diversim_universe::profile::UsageProfile;
    pub use diversim_universe::version::Version;
}
