//! Statistics substrate for the `diversim` workspace.
//!
//! This crate provides the numerical machinery that the rest of the
//! reproduction of Popov & Littlewood (DSN 2004) is built on:
//!
//! * [`online`] — the mergeable streaming (Welford) mean/variance
//!   estimator used by the Monte Carlo engine;
//! * [`reduce`] — composable streaming [`reduce::Reducer`]s (moments,
//!   counts, sums, tuple and element-wise combinators) that let the
//!   runner fold several observables without materialising
//!   per-replication vectors;
//! * [`weighted`] — exact moments of functions under discrete probability
//!   measures, the workhorse behind every `E[·]`, `Var(·)` and `Cov(·, ·)`
//!   in the paper's equations;
//! * [`ci`] — confidence intervals for proportions and means (normal,
//!   Clopper–Pearson);
//! * [`special`] — special functions (log-gamma, regularized incomplete
//!   beta and its inverse, error function, normal quantile) implemented
//!   from scratch because no external stats crate is used;
//! * [`alias`] — Walker–Vose alias sampler for O(1) sampling from the
//!   usage distribution `Q(·)` over the demand space;
//! * [`seed`] — SplitMix64-based deterministic seed derivation so that
//!   replicated simulations are reproducible regardless of thread count;
//! * [`stopping`] — test-campaign stopping rules in the spirit of the
//!   paper's reference \[3\] (Littlewood & Wright 1997);
//! * [`histogram`] — fixed-bin histograms with under/overflow counts.
//!
//! # Examples
//!
//! ```
//! use diversim_stats::online::MeanVar;
//!
//! let mut acc = MeanVar::new();
//! for x in [1.0, 2.0, 3.0, 4.0] {
//!     acc.push(x);
//! }
//! assert_eq!(acc.mean(), 2.5);
//! assert!((acc.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod alias;
pub mod ci;
pub mod error;
pub mod histogram;
pub mod online;
pub mod reduce;
pub mod seed;
pub mod special;
pub mod stopping;
pub mod weighted;

pub use alias::AliasSampler;
pub use ci::{clopper_pearson, Interval};
pub use error::StatsError;
pub use online::MeanVar;
pub use reduce::Reducer;
pub use seed::SeedSequence;
