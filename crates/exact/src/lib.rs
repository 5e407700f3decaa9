//! Exact enumeration engine for the `diversim` reproduction of Popov &
//! Littlewood (DSN 2004).
//!
//! A theory paper is best "reproduced" by verifying its identities to
//! machine precision. This crate provides two independent computation
//! paths and a checker that compares them:
//!
//! * [`brute`] — assumption-free expectations: enumerate every
//!   `(version, suite)` combination with its probability, run the
//!   mechanistic debugging process from `diversim-testing` once per
//!   combination, and sum score products per demand (the raw
//!   definition, equation (15)) — one form per identity: ζ
//!   ([`TestedEnsemble::zeta_vector`]), the independent-suite joint
//!   ([`TestedEnsemble::joint_vector_independent`]), the shared-suite
//!   joint ([`joint_vector_shared`]) and the adaptive joint
//!   ([`joint_on_demand_adaptive`]);
//! * [`verify`] — compares those sums against the closed-form /
//!   decomposition path of `diversim-core` for equations (14), (16)/(17),
//!   (20)/(21), (22)/(24) and (23)/(25), plus the `θ ≥ ζ` ordering.
//!
//! # Examples
//!
//! ```
//! use diversim_exact::verify::verify_pair;
//! use diversim_testing::suite_population::enumerate_iid_suites;
//! use diversim_universe::demand::DemandSpace;
//! use diversim_universe::fault::FaultModelBuilder;
//! use diversim_universe::population::{BernoulliPopulation, Population};
//! use diversim_universe::profile::UsageProfile;
//! use std::sync::Arc;
//!
//! let space = DemandSpace::new(3)?;
//! let model = Arc::new(FaultModelBuilder::new(space).singleton_faults().build()?);
//! let pop = BernoulliPopulation::new(model, vec![0.2, 0.5, 0.8])?;
//! let q = UsageProfile::uniform(space);
//! let measure = enumerate_iid_suites(&q, 2, 1 << 10)?;
//! let support = pop.enumerate(1 << 10).expect("small universe");
//!
//! let report = verify_pair(&pop, &pop, &support, &support, &measure, &q);
//! assert!(report.all_hold(1e-12), "identity violated:\n{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod brute;
pub mod verify;

pub use brute::{
    joint_on_demand_adaptive, joint_vector_shared, marginal_adaptive, marginal_independent,
    marginal_shared, structure_joint_vector_shared, structure_marginal_shared, StructureEnsemble,
    TestedEnsemble,
};
pub use verify::{verify_pair, verify_structure, IdentityCheck, TheoremReport};
