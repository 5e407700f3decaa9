//! `diversim-core` — the models of Popov & Littlewood, *"The Effect of
//! Testing on Reliability of Fault-Tolerant Software"* (DSN 2004).
//!
//! The paper extends the Eckhardt–Lee ([`el`]) and Littlewood–Miller
//! ([`lm`]) probabilistic models of multi-version software to versions
//! that *evolve through debugging*. This crate implements every numbered
//! result:
//!
//! | Result | Module |
//! |---|---|
//! | difficulty functions θ, ξ, ς, η, ζ (eqs 1, 11–14) | [`difficulty`] |
//! | EL: joint pfd = E\[Θ²\] = E\[Θ\]² + Var(Θ) (eqs 4–7) | [`el`] |
//! | LM: joint pfd = E\[Θ_A\]E\[Θ_B\] + Cov (eqs 8–10) | [`lm`] |
//! | per-demand joint pfd of tested pairs (eqs 15–21) | [`testing_effect`] |
//! | marginal system pfd under four regimes (eqs 22–25) | [`marginal`] |
//! | §4.1 imperfect-testing bounds, §4.2 back-to-back bounds | [`bounds`] |
//! | concrete-version system pfd (simulation support) | [`system`] |
//! | 1-out-of-N (§5 extension), k-of-n and AND/OR fault trees | [`structure`] |
//!
//! The headline result reproduced here: testing two versions on a
//! **shared** test suite couples their failures — the marginal system pfd
//! picks up the non-negative term `Σ_x Var_Ξ(ξ(x,T))Q(x)` relative to
//! testing them on independently generated suites (eqs 22 vs 23) — while
//! under forced diversity the corresponding covariance term can take
//! either sign (eqs 24 vs 25).
//!
//! # Examples
//!
//! ```
//! use diversim_core::marginal::{MarginalAnalysis, SuiteAssignment};
//! use diversim_testing::suite_population::enumerate_iid_suites;
//! use diversim_universe::demand::DemandSpace;
//! use diversim_universe::fault::FaultModelBuilder;
//! use diversim_universe::population::BernoulliPopulation;
//! use diversim_universe::profile::UsageProfile;
//! use std::sync::Arc;
//!
//! // A small Eckhardt–Lee universe with varying difficulty.
//! let space = DemandSpace::new(4)?;
//! let model = Arc::new(FaultModelBuilder::new(space).singleton_faults().build()?);
//! let pop = BernoulliPopulation::new(model, vec![0.1, 0.3, 0.5, 0.7])?;
//! let q = UsageProfile::uniform(space);
//!
//! // Debug each version on 2 i.i.d. operational demands.
//! let m = enumerate_iid_suites(&q, 2, 1 << 10)?;
//! let independent =
//!     MarginalAnalysis::compute(&pop, &pop, SuiteAssignment::independent(&m), &q);
//! let shared = MarginalAnalysis::compute(&pop, &pop, SuiteAssignment::Shared(&m), &q);
//!
//! // The paper's main theorem: the shared suite can only hurt.
//! assert!(shared.system_pfd() >= independent.system_pfd());
//! assert!(shared.suite_coupling >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bounds;
pub mod difficulty;
pub mod el;
pub mod error;
pub mod imperfect;
pub mod lm;
pub mod marginal;
pub mod metrics;
pub mod structure;
pub mod system;
pub mod testing_effect;

pub use bounds::{BackToBackBounds, ImperfectTestingBounds};
pub use difficulty::{
    eta, tested_score, varsigma, zeta, zeta_vector, DifficultyShift, TestedDifficulty,
};
pub use el::ElAnalysis;
pub use error::CoreError;
pub use imperfect::{marginal_imperfect_iid, xi_imperfect, zeta_imperfect_iid};
pub use lm::LmAnalysis;
pub use marginal::{shared_suite_penalty, MarginalAnalysis, SuiteAssignment};
pub use metrics::{dependence_ratio, failure_correlation, jaccard_overlap, DiversityReport};
pub use structure::{
    fail_on_demand_independent, fail_on_demand_shared, gate_moments, structure_pfd, GateMoment,
    Structure,
};
pub use system::{structure_failure_set, structure_system_pfd};
pub use testing_effect::{
    joint_independent_suites, joint_on_demand, joint_shared_suite, JointOnDemand, TestingRegime,
};
