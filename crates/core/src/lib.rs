//! # sustain-core
//!
//! Carbon-accounting primitives for machine-learning systems.
//!
//! This crate is the foundation of the `sustainai` workspace, a reproduction of
//! *"Sustainable AI: Environmental Implications, Challenges and Opportunities"*
//! (Wu et al., MLSys 2022). It provides the strongly-typed quantities and the
//! accounting methodology the paper is built on:
//!
//! * [`units`] — `Energy`, `Power`, `Co2e`, `TimeSpan`, `DataVolume` newtypes with
//!   checked arithmetic so joules never silently mix with kilowatt-hours.
//! * [`intensity`] — carbon intensity of energy ([`intensity::CarbonIntensity`]),
//!   energy sources and grid mixes, location- vs market-based accounting.
//! * [`pue`] — datacenter Power Usage Effectiveness.
//! * [`operational`] — operational-footprint accounting (energy × PUE × intensity),
//!   renewable matching.
//! * [`embodied`] — embodied (manufacturing) carbon and its amortization over the
//!   hardware life cycle, with pluggable allocation policies.
//! * [`lifecycle`] — the ML development phases (Data, Experimentation, Training,
//!   Inference) and hardware life-cycle phases the paper's Figure 3 is built on.
//! * [`footprint`] — combined operational + embodied ledgers and serializable reports.
//! * [`quality`] — telemetry data-quality accounting: measured vs imputed energy,
//!   sample coverage, and per-class fault tallies behind every report.
//! * [`equivalence`] — EPA-style equivalences (miles driven, homes powered, …).
//! * [`metrics`] — sustainability metrics and efficiency-aware leaderboards (§V-A).
//! * [`modelcard`] — carbon impact statements / model cards (§V-A).
//! * [`stats`] — small statistics toolkit (distributions, percentiles, histograms)
//!   used by the simulators in the sibling crates.
//!
//! ## Example
//!
//! ```rust
//! use sustain_core::units::{Energy, TimeSpan};
//! use sustain_core::intensity::CarbonIntensity;
//! use sustain_core::pue::Pue;
//! use sustain_core::operational::OperationalAccount;
//!
//! # fn main() -> Result<(), sustain_core::Error> {
//! // 10 MWh of IT energy in a PUE-1.1 datacenter on the US grid.
//! let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1)?);
//! let emissions = account.location_based(Energy::from_megawatt_hours(10.0));
//! assert!(emissions.as_tonnes() > 4.0 && emissions.as_tonnes() < 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod constants;
pub mod embodied;
pub mod equivalence;
mod error;
pub mod footprint;
pub mod intensity;
pub mod lifecycle;
pub mod metrics;
pub mod modelcard;
pub mod operational;
pub mod pue;
pub mod quality;
pub mod stats;
pub mod units;

pub use error::{Error, Result};
pub use footprint::CarbonFootprint;
pub use intensity::CarbonIntensity;
pub use pue::Pue;
pub use units::{Co2e, DataRate, DataVolume, Energy, Power, TimeSpan};
