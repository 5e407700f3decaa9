//! Sharded, resumable sweeps over the experiment registry with
//! content-addressed cell caching.
//!
//! The full-profile matrix is embarrassingly parallel, but the plain
//! engine runs one experiment in one process and forgets everything
//! between runs. This module decomposes every [`crate::spec::ExperimentSpec`]
//! into independent **cells** — one sweep-point × world × regime ×
//! seed-stream unit of work, declared via
//! [`crate::spec::RunContext::cell`] — and executes them through a
//! content-addressed store:
//!
//! - [`cell`]: the cell identity/payload model and the executor trait
//!   the `RunContext` routes declared cells through.
//! - [`store`]: `results/cells/<hash>.json` persistence with atomic
//!   writes and integrity-verified loads.
//! - [`engine`]: the sweep driver — shard partitioning, resume
//!   semantics, cache-hit accounting and the byte-identity drift guard
//!   against the direct engine.
//!
//! `diversim sweep` is the CLI front; `diversim run` is unaffected
//! (cells compute inline without an executor). A sharded sweep fleet
//! followed by one unsharded `--resume` pass reproduces the exact
//! bytes `diversim run` emits, recomputing nothing.

pub mod cell;
pub mod engine;
pub mod store;

pub use cell::{CellData, CellExecutor, CellId, CellScope};
pub use engine::{
    sweep_experiment, verify_against_direct_run, Shard, SweepOptions, SweepRun, SweepStats,
};
pub use store::{CellLoad, CellStore, CELL_SCHEMA};
