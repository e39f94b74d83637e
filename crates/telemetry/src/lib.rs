//! # sustain-telemetry
//!
//! A simulated power/energy telemetry substrate.
//!
//! The paper's measurements come from fleet-wide power telemetry that is
//! proprietary to Facebook. This crate rebuilds the *shape* of that substrate
//! so every accounting code path in the workspace can be exercised end-to-end:
//!
//! * [`device`] — parametric device power models (GPUs, CPUs, DRAM, edge
//!   devices, routers) mapping utilization to power draw.
//! * [`meter`] — power sampling and trapezoidal energy integration: running
//!   totals, not recorded samples.
//! * [`hierarchy`] — per-node energy totals rolled up device → host → rack →
//!   cluster.
//! * [`tracker`] — a CodeCarbon-style job tracker that turns meter readings
//!   into [`FootprintReport`](sustain_core::footprint::FootprintReport)s.
//! * [`faults`] — reproducible fault injection (dropout, read timeouts,
//!   stuck counters, clock skew, noise bursts) and the degradation-tolerant
//!   reading path that survives it.
//!
//! ## Example
//!
//! ```rust
//! use sustain_telemetry::device::{DeviceSpec, PowerModel};
//! use sustain_core::units::Fraction;
//!
//! let v100 = DeviceSpec::V100.power_model();
//! let idle = v100.power(Fraction::ZERO);
//! let busy = v100.power(Fraction::ONE);
//! assert!(busy > idle);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod constants;
pub mod device;
pub mod estimation;
pub mod faults;
pub mod hierarchy;
pub mod meter;
pub mod tracker;

pub use device::{DeviceSpec, LinearPowerModel, PowerModel};
pub use faults::{FaultInjector, FaultPlan, ImputationPolicy};
pub use meter::{EnergyIntegrator, FaultTolerantIntegrator};
pub use tracker::CarbonTracker;
