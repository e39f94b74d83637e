//! # sustain-bench
//!
//! The reproduction harness: one module per figure of Wu et al. (MLSys 2022),
//! each regenerating the figure's series/rows from the workspace's simulators
//! and models. The `all_figures` binary prints the tables (`--only <name>`
//! picks a family or one table); the `benchmark/` package times the fan-out;
//! `EXPERIMENTS.md` records paper-vs-measured values.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod figs;
pub mod table;

pub use table::Table;

/// The deterministic seed used by every figure generator, so printed outputs
/// are reproducible run to run.
pub const SEED: u64 = 0x5AB1E_CA4B0;
