//! Model substrate for the `diversim` reproduction of Popov & Littlewood
//! (DSN 2004): demand spaces, usage distributions, faults with failure
//! regions, program versions and program populations.
//!
//! # Model recap
//!
//! * The **demand space** `F = {x₁, x₂, …}` ([`demand::DemandSpace`]) with
//!   usage distribution `Q(·)` ([`profile::UsageProfile`]) describes what
//!   the software is asked to do in operation.
//! * A **fault model** ([`fault::FaultModel`]) lists every potential fault
//!   a development effort might commit; each fault has a *failure region*
//!   — the set of demands it makes fail. The inverted index gives the
//!   paper's `O_x` (faults triggered by demand `x`).
//! * A **version** `π` ([`version::Version`]) is the set of faults it
//!   contains; the paper's score function `υ(π, x)` is
//!   [`version::Version::fails_on`].
//! * A **population** ([`population::Population`]) is the measure `S(·)`
//!   over versions induced by a development methodology; forced diversity
//!   (Littlewood–Miller) uses two populations over one fault model.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use diversim_universe::demand::{DemandId, DemandSpace};
//! use diversim_universe::fault::FaultModelBuilder;
//! use diversim_universe::population::{BernoulliPopulation, Population};
//! use diversim_universe::profile::UsageProfile;
//!
//! // Two demands; one fault per demand (pure Eckhardt–Lee setting).
//! let space = DemandSpace::new(2)?;
//! let model = Arc::new(
//!     FaultModelBuilder::new(space).singleton_faults().build()?,
//! );
//! let q = UsageProfile::uniform(space);
//! let pop = BernoulliPopulation::new(model, vec![0.2, 0.4])?;
//!
//! // Difficulty varies across demands, as the EL model requires.
//! assert!(pop.theta(DemandId::new(0)) < pop.theta(DemandId::new(1)));
//! // E[Θ] = average difficulty under uniform usage.
//! assert!((pop.mean_pfd(&q) - 0.3).abs() < 1e-12);
//! # Ok::<(), diversim_universe::error::UniverseError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod bitset;
pub mod common_cause;
pub mod demand;
pub mod error;
pub mod fault;
pub mod generator;
pub mod population;
pub mod profile;
pub mod universe;
pub mod version;

pub use bitset::{BitSet, BlockWeights};
pub use common_cause::CommonCauseEvent;
pub use demand::{DemandId, DemandSpace};
pub use error::UniverseError;
pub use fault::{Fault, FaultId, FaultModel, FaultModelBuilder, RegionSet};
pub use generator::{mirrored_pair, ProfileKind, PropensityKind, RegionSize, UniverseSpec};
pub use population::{BernoulliPopulation, ExplicitPopulation, Population};
pub use profile::UsageProfile;
pub use universe::Universe;
pub use version::Version;
