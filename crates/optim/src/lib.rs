//! # sustain-optim
//!
//! The optimization-pass framework behind the paper's §III-B results.
//!
//! * [`pass`] — composable efficiency passes and the LM waterfall (Fig 7):
//!   platform caching 6.7×, GPU acceleration 10.1×, low precision 2.4×,
//!   operator fusion 5× — >800× compounded.
//! * [`stack`] — the four optimization areas (model/platform/infrastructure/
//!   hardware) compounding to ~20 % fleet power reduction per 6 months (Fig 6).
//! * [`cache`] — an embedding-cache simulator (LRU/LFU over zipfian traffic)
//!   that *derives* the caching pass's gain rather than asserting it.
//! * [`quantization`] — numeric formats and partial-model quantization with
//!   the paper's RM1/RM2 anchors (−15 % size, −20.7 % bandwidth, 2.5× latency).
//! * [`nas`] — NAS/HPO search-cost models: grid vs random vs Bayesian, early
//!   stopping of under-performing trials (§IV-B).
//! * [`sampling`] — data-sampling proxy evaluation (SVP-CF-style): 10 % of
//!   data preserves algorithm ranking at 5.8× speedup (§IV-A).
//! * [`pareto`] — multi-objective Pareto-frontier extraction (§IV-B, Fig 12).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cache;
pub mod compression;
pub mod constants;
pub mod multitenancy;
pub mod nas;
pub mod pareto;
pub mod pass;
pub mod quantization;
pub mod sampling;
pub mod stack;

pub use pass::{OptimizationPass, Pipeline};
