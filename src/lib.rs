//! # sustainai
//!
//! Umbrella crate for the `sustainai` workspace — a holistic carbon-footprint
//! accounting and simulation framework for machine-learning systems, built as
//! a full reproduction of *"Sustainable AI: Environmental Implications,
//! Challenges and Opportunities"* (Wu et al., MLSys 2022).
//!
//! Re-exports every workspace crate under a short module name:
//!
//! * [`core`] — units, carbon intensity, PUE, embodied LCA, footprint reports.
//! * [`telemetry`] — simulated power meters and job-level carbon tracking.
//! * [`stream`] — bounded-memory streaming telemetry ingestion: sharded
//!   backpressure queues, watermark reordering, retrying meter reads, and
//!   a validation harness scoring degradation against exact integration.
//! * [`workload`] — ML model descriptors, job distributions, scaling laws.
//! * [`fleet`] — datacenter fleet simulation and carbon-aware scheduling.
//! * [`optim`] — the optimization-pass framework (caching, quantization, …).
//! * [`edge`] — federated-learning and on-device carbon simulation.
//! * [`obs`] — hierarchical spans, a metrics registry, and deterministic
//!   trace/metrics exporters across the simulators.
//! * [`par`] — deterministic parallel execution: ordered fan-out on scoped
//!   threads with per-task seed derivation and obs span adoption.
//! * [`prof`] — profiling analysis over obs recordings: span-tree
//!   reconstruction, self-time attribution, hotspot reports, critical
//!   paths, and collapsed-stack flamegraph export.
//! * [`cache`] — content-addressed incremental recomputation: FNV-1a
//!   fingerprints over canonical input encodings, with an in-memory and a
//!   corruption-tolerant on-disk store.
//!
//! ## Quickstart
//!
//! ```rust
//! use sustainai::core::operational::OperationalAccount;
//! use sustainai::core::intensity::CarbonIntensity;
//! use sustainai::core::pue::Pue;
//! use sustainai::core::units::Energy;
//!
//! # fn main() -> Result<(), sustainai::core::Error> {
//! let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1)?);
//! let co2 = account.location_based(Energy::from_megawatt_hours(100.0));
//! println!("{co2}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub use sustain_cache as cache;
pub use sustain_core as core;
pub use sustain_edge as edge;
pub use sustain_fleet as fleet;
pub use sustain_obs as obs;
pub use sustain_optim as optim;
pub use sustain_par as par;
pub use sustain_prof as prof;
pub use sustain_stream as stream;
pub use sustain_telemetry as telemetry;
pub use sustain_workload as workload;
