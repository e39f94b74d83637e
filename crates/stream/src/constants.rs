//! Provenanced defaults for the streaming ingestion layer.
//!
//! Named constants only — the `cargo xtask lint` rules `const-provenance`
//! and `magic-constant` ban bare numeric literals in this crate's fn
//! bodies, so every tuning knob lives here with its source.

/// Default number of ingest shards: a small power of two matching the
/// per-socket collector processes production telemetry agents run (one
/// shard per NUMA domain on a dual-socket host, times two for headroom).
pub const DEFAULT_SHARDS: usize = 4;

/// Default per-shard ingest queue capacity, in samples. At 1 Hz per meter
/// and 64 meters per shard this is about a minute of buffered backlog —
/// the order of the flush interval real collectors (telegraf, Prometheus
/// remote-write) run with.
pub const DEFAULT_QUEUE_CAPACITY: usize = 4096;

/// Default reorder-buffer capacity, in samples. Bounds the memory the
/// watermark stage may hold while waiting for stragglers; a quarter of the
/// queue capacity keeps worst-case steady-state memory under two queue
/// lengths per shard.
pub const DEFAULT_REORDER_CAPACITY: usize = 1024;

/// Default lateness bound, in seconds: samples older than the watermark by
/// more than this are routed to imputation. Five seconds is several times
/// the worst NTP-disciplined clock skew plus retry backoff the fault model
/// produces at a 1 s sampling interval.
pub const DEFAULT_LATENESS_SECS: f64 = 5.0;

/// Default number of read retries after a timed-out meter query. NVML-style
/// drivers recover from transient query timeouts on the next attempt almost
/// always; three retries pushes the residual loss rate below the dropout
/// floor without stalling the tick.
pub const DEFAULT_MAX_RETRIES: u32 = 3;

/// Default base retry backoff, in seconds: 50 ms doubled per attempt, the
/// conventional starting point for driver-level retry loops (well under a
/// 1 Hz sampling interval even after three doublings).
pub const DEFAULT_RETRY_BACKOFF_SECS: f64 = 0.05;

/// Default number of ingest ticks between scheduled shard flushes in
/// [`crate::pipeline::StreamPipeline::run`]: about once a minute at 1 Hz,
/// matching the queue-capacity sizing above.
pub const DEFAULT_FLUSH_EVERY: u64 = 64;

/// Baseline power of the validation harness's synthetic meter signal, in
/// watts — a loaded dual-socket server package (SPECpower-class midpoint).
pub const VALIDATION_BASE_WATTS: f64 = 220.0;

/// Peak-to-midline swing of the synthetic signal, in watts — the diurnal
/// utilization swing the paper's fleet-level power traces show.
pub const VALIDATION_SWING_WATTS: f64 = 90.0;

/// Period of the synthetic signal, in seconds. A compressed "diurnal"
/// cycle: long enough that lateness bounds and queue capacities interact
/// with a varying signal, short enough for fast validation sweeps.
pub const VALIDATION_PERIOD_SECS: f64 = 600.0;

/// Seed of the validation sweeps' fault plans: fixed so every sweep point
/// replays the identical chaos stream and only the swept knob varies.
pub const VALIDATION_SEED: u64 = 0x5EED_57EA;

/// Hosts grouped under one rack in the validation harness's source labels,
/// exercising two aggregation levels of `telemetry::hierarchy::EnergyRollup`.
pub const VALIDATION_HOSTS_PER_RACK: usize = 8;
