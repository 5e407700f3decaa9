//! The twenty experiment implementations.
//!
//! Each module holds one [`ExperimentSpec`](crate::spec::ExperimentSpec)
//! static (`SPEC`) plus its `run` function; the registry
//! (`crate::registry`) collects them and every front end — the
//! `diversim` CLI, `diversim sweep` and the serve protocol — executes
//! them through the engine (`crate::engine`). The modules contain the
//! *entire* experiment logic: sweep loops, replication counts and
//! reporting, driven by the shared
//! [`RunContext`](crate::spec::RunContext).

pub mod e01_el_model;
pub mod e02_lm_model;
pub mod e03_indep_suites;
pub mod e04_shared_suite;
pub mod e05_forced_shared;
pub mod e06_marginal_regimes;
pub mod e07_forced_marginal;
pub mod e08_cost_tradeoff;
pub mod e09_imperfect;
pub mod e10_back_to_back;
pub mod e11_growth;
pub mod e12_difficulty_variance;
pub mod e13_common_cause;
pub mod e14_nversion;
pub mod e15_stopping;
pub mod e16_assessment;
pub mod e17_adaptive_policies;
pub mod e18_policy_coupling;
pub mod e19_structure_penalty;
pub mod e20_component_allocation;
