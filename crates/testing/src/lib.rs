//! Testing-process substrate for the `diversim` reproduction of Popov &
//! Littlewood (DSN 2004).
//!
//! §2 of the paper decomposes testing into three parts, and this crate
//! models each:
//!
//! 1. **a test suite** — [`suite::TestSuite`], drawn from a generation
//!    procedure ([`generation::SuiteGenerator`]) whose induced measure
//!    `M(·)` over `Ξ` can be held explicitly for exact work
//!    ([`suite_population::ExplicitSuitePopulation`]);
//! 2. **a judging mechanism** — [`oracle::Oracle`] (perfect or fallible),
//!    plus the back-to-back comparison regime of §4.2 governed by
//!    [`oracle::IdenticalFailureModel`];
//! 3. **fault-removal actions** — [`fixing::Fixer`] (perfect or
//!    fallible; never introduces faults, per §4.1's assumption).
//!
//! [`process`] ties them together, one test demand at a time:
//! [`process::debug_step`] is the §4.1 rule (oracle, then fixer) and
//! [`process::back_to_back_step`] the §4.2 rule, and every simulated
//! campaign in `diversim-sim` is built on these two steps. It also holds
//! the closed form for perfect testing ([`process::perfect_debug`]: a
//! fault survives iff its failure region misses the suite) on which all
//! exact computation in `diversim-core`/`diversim-exact` rests.
//!
//! # Examples
//!
//! ```
//! use diversim_testing::generation::{ProfileGenerator, SuiteGenerator};
//! use diversim_testing::process::perfect_debug;
//! use diversim_universe::demand::DemandSpace;
//! use diversim_universe::fault::FaultModelBuilder;
//! use diversim_universe::profile::UsageProfile;
//! use diversim_universe::version::Version;
//! use rand::SeedableRng;
//!
//! let space = DemandSpace::new(8)?;
//! let model = FaultModelBuilder::new(space).singleton_faults().build()?;
//! let all_faults: Vec<_> = model.fault_ids().collect();
//! let buggy = Version::from_faults(&model, all_faults);
//!
//! let gen = ProfileGenerator::new(UsageProfile::uniform(space));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let suite = gen.generate(&mut rng, 16);
//! let tested = perfect_debug(&buggy, &suite, &model);
//! // Testing can only remove faults.
//! assert!(tested.fault_count() <= buggy.fault_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod error;
pub mod fixing;
pub mod generation;
pub mod oracle;
pub mod process;
pub mod suite;
pub mod suite_population;

pub use error::TestingError;
pub use fixing::{Fixer, ImperfectFixer, PerfectFixer};
pub use generation::{ProfileGenerator, SuiteGenerator};
pub use oracle::{IdenticalFailureModel, ImperfectOracle, Oracle, PerfectOracle};
pub use process::{
    back_to_back_debug, back_to_back_step, debug_in_place, debug_step, debug_version,
    perfect_debug, DebugOutcome,
};
pub use suite::TestSuite;
pub use suite_population::{enumerate_iid_suites, ExplicitSuitePopulation};
