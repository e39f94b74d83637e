//! Named constants of the telemetry layer: fault-model defaults and device
//! power figures.
//!
//! Provenanced numbers only — the `cargo xtask lint` rule `magic-constant`
//! bans bare literals in carbon-unit constructors elsewhere in the crate.

// ---------------------------------------------------------------------------
// Fault-model defaults (crate::faults)
// ---------------------------------------------------------------------------

/// Default per-sample dropout probability for a degraded meter: CodeCarbon
/// ground-truthing (Fischer et al., 2025) and Eco2AI's fault-tolerance notes
/// put routine collector sample loss at the percent level.
pub const DEFAULT_DROPOUT_RATE: f64 = 0.01;

/// Default per-query NVML read-timeout probability: driver-level power reads
/// time out well under once per thousand queries on healthy hosts.
pub const DEFAULT_TIMEOUT_RATE: f64 = 0.002;

/// Default probability that a counter freezes on a read, entering a stuck
/// episode (stale sysfs/driver caches; rare but observed in fleet telemetry).
pub const DEFAULT_STUCK_RATE: f64 = 0.001;

/// Default length of a stuck-counter episode, in samples — the order of a
/// driver cache-refresh period at 1 Hz sampling.
pub const DEFAULT_STUCK_LEN: u32 = 5;

/// Default per-sample probability of a Gaussian noise burst (EMI / PSU
/// transients on top of the sensor's steady ±5 W class noise).
pub const DEFAULT_NOISE_BURST_RATE: f64 = 0.005;

/// Standard deviation of a noise burst, in watts — an order of magnitude
/// above the ±5 W steady sensor class, matching transient glitches.
pub const NOISE_BURST_STD_WATTS: f64 = 50.0;

/// Default maximum timestamp jitter as a fraction of the sampling interval
/// (NTP-disciplined hosts drift well inside a quarter interval at 1 Hz).
pub const DEFAULT_CLOCK_SKEW: f64 = 0.25;

/// A gap longer than this multiple of the nominal sampling interval is
/// treated as missing data and bridged by imputation rather than integrated
/// as a measured trapezoid (the convention CodeCarbon-style pollers use to
/// separate jitter from loss).
pub const GAP_DETECTION_FACTOR: f64 = 1.5;

/// TPU v3 peak (TDP-like) board power in watts, per the paper's device
/// comparison (Table: accelerator characteristics; matches Google's
/// published per-chip figure).
pub const TPU_V3_PEAK_WATTS: f64 = 283.0;
