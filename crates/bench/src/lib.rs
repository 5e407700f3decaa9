//! The experiment engine and shared infrastructure for the `diversim`
//! reproduction campaign (E1–E20) and the Criterion benchmarks.
//!
//! Each registered experiment regenerates one numbered result of Popov &
//! Littlewood (DSN 2004); see `EXPERIMENTS.md` at the workspace root for
//! the experiment ↔ paper-result index (generated from [`registry`]).
//!
//! * [`spec`] — declarative [`spec::ExperimentSpec`]s (including their
//!   [`spec::FigureSpec`] plot declarations), replication
//!   [`spec::Profile`]s and the per-run [`spec::RunContext`];
//! * [`registry`] — the ordered list of all twenty experiments;
//! * [`engine`] — deterministic execution and JSON/CSV result rendering;
//! * [`cli`] — the `diversim` binary (`list` / `run` / `sweep` /
//!   `serve` / `report` / `docs`);
//! * [`report`] — table rendering (text, CSV);
//! * [`render`] — deterministic SVG line/band plots for the report book;
//! * [`book`] — the reproduction report: `REPORT.md` + per-experiment
//!   chapters generated from result documents;
//! * [`json`] — the hand-rolled JSON reader/writer shared by the
//!   engine's result files and the serve wire protocol;
//! * [`hashing`] — the FNV-1a content hash shared by the serve world
//!   cache and the sweep cell store;
//! * [`sweep`] — sharded, resumable sweeps: cell decomposition,
//!   content-addressed cell caching and the `diversim sweep` driver;
//! * [`serve`] — the typed evaluation-request API and the `diversim
//!   serve` service (stdin/stdout + TCP);
//! * [`worlds`] — the standard universes the experiments run on.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod book;
pub mod cli;
pub mod engine;
mod experiments;
pub mod hashing;
pub mod json;
pub mod registry;
pub mod render;
pub mod report;
pub mod serve;
pub mod spec;
pub mod sweep;
pub mod worlds;

pub use report::Table;
