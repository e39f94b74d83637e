//! Fault injection for the telemetry substrate.
//!
//! Every accounting path in this workspace historically assumed perfect,
//! gapless, monotone counters. Real fleet telemetry is none of those things:
//! collectors drop samples, NVML queries time out, counters freeze, clocks
//! skew, sensors glitch, and hosts crash mid-job. [`FaultPlan`] describes a
//! reproducible mixture of the per-sample faults and [`FaultInjector`]
//! applies it to a stream of power samples, so the degradation-tolerant
//! reading path ([`crate::meter::FaultTolerantIntegrator`]) can be exercised
//! — and its accounting error quantified — without real broken hardware.
//!
//! A zero-rate plan ([`FaultPlan::none`]) is a strict no-op: the injector
//! passes every sample through untouched and draws nothing from its RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sustain_core::quality::{FaultCounts, FaultKind};
use sustain_core::stats::{Normal, Sampler};
use sustain_core::units::{Fraction, Power, TimeSpan};
use sustain_obs::Obs;

/// How a reader back-fills energy across a gap in the sample stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ImputationPolicy {
    /// Bridge the gap with a straight line between the last and next good
    /// samples (requires seeing the far side; offline/batch readers).
    Linear,
    /// Hold the last observed power flat across the gap (the only option an
    /// online reader has; biased under varying load).
    LastObservation,
    /// Charge the gap at an assumed model power (e.g. the device's TDP share
    /// at its long-run mean utilization) — unmetered estimation as backfill.
    ModelBased {
        /// The assumed constant power across gaps.
        assumed: Power,
    },
}

/// A reproducible mixture of telemetry faults.
///
/// All probabilities are per-sample (or per-read). Fields are public so a
/// chaos harness can sweep them; the builder methods panic on out-of-range
/// inputs, matching the workspace's constructor-validation convention.
///
/// ```rust
/// use sustain_telemetry::faults::{FaultInjector, FaultPlan};
/// use sustain_core::units::{Power, TimeSpan};
///
/// let plan = FaultPlan::none().with_seed(7).with_dropout(0.5);
/// let mut inj = FaultInjector::new(&plan, "gpu0");
/// let interval = TimeSpan::from_secs(1.0);
/// let survivors = (0..100)
///     .filter(|i| {
///         inj.corrupt(interval * *i as f64, interval, Power::from_watts(100.0))
///             .is_some()
///     })
///     .count();
/// assert!(survivors > 20 && survivors < 80, "{survivors}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed decorrelating fault draws from the workload's own RNG stream.
    pub seed: u64,
    /// Per-sample probability that a reading is silently dropped.
    pub dropout: Fraction,
    /// Per-read probability that the query times out (NVML-style).
    pub timeout: Fraction,
    /// Per-sample probability that the counter freezes for
    /// [`FaultPlan::stuck_len`] reads.
    pub stuck: Fraction,
    /// Length of a stuck episode, in samples.
    pub stuck_len: u32,
    /// Maximum timestamp jitter as a fraction of the sampling interval
    /// (a value ≤ 1 preserves sample ordering on a regular grid).
    pub clock_skew: Fraction,
    /// Per-sample probability of a Gaussian noise burst on the reading.
    pub noise_burst: Fraction,
    /// Standard deviation of a noise burst.
    pub noise_burst_std: Power,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: every rate zero. Injectors built
    /// from it are strict no-ops.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dropout: Fraction::ZERO,
            timeout: Fraction::ZERO,
            stuck: Fraction::ZERO,
            stuck_len: 0,
            clock_skew: Fraction::ZERO,
            noise_burst: Fraction::ZERO,
            noise_burst_std: Power::ZERO,
        }
    }

    /// A provenanced "routinely degraded collector" preset: percent-level
    /// dropout, sub-percent timeouts/stuck episodes, occasional noise bursts
    /// and quarter-interval clock skew (see `crate::constants` for sources).
    pub fn degraded() -> FaultPlan {
        FaultPlan {
            seed: 0,
            dropout: Fraction::saturating(crate::constants::DEFAULT_DROPOUT_RATE),
            timeout: Fraction::saturating(crate::constants::DEFAULT_TIMEOUT_RATE),
            stuck: Fraction::saturating(crate::constants::DEFAULT_STUCK_RATE),
            stuck_len: crate::constants::DEFAULT_STUCK_LEN,
            clock_skew: Fraction::saturating(crate::constants::DEFAULT_CLOCK_SKEW),
            noise_burst: Fraction::saturating(crate::constants::DEFAULT_NOISE_BURST_RATE),
            noise_burst_std: Power::from_watts(crate::constants::NOISE_BURST_STD_WATTS),
        }
    }

    /// Sets the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Sets the dropout probability.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn with_dropout(mut self, rate: f64) -> FaultPlan {
        self.dropout = checked_probability(rate, "dropout");
        self
    }

    /// Sets the read-timeout probability.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn with_timeout(mut self, rate: f64) -> FaultPlan {
        self.timeout = checked_probability(rate, "timeout");
        self
    }

    /// Sets the stuck-counter episode probability and length.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn with_stuck(mut self, rate: f64, len: u32) -> FaultPlan {
        self.stuck = checked_probability(rate, "stuck");
        self.stuck_len = len;
        self
    }

    /// Sets the maximum clock skew as a fraction of the sampling interval.
    ///
    /// # Panics
    ///
    /// Panics unless `max_fraction` is in `[0, 1]`.
    pub fn with_clock_skew(mut self, max_fraction: f64) -> FaultPlan {
        self.clock_skew = checked_probability(max_fraction, "clock skew");
        self
    }

    /// Sets the noise-burst probability and amplitude.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]` or if `std` is negative.
    pub fn with_noise_burst(mut self, rate: f64, std: Power) -> FaultPlan {
        assert!(std >= Power::ZERO, "noise std must be non-negative");
        self.noise_burst = checked_probability(rate, "noise burst");
        self.noise_burst_std = std;
        self
    }

    /// Whether this plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.dropout == Fraction::ZERO
            && self.timeout == Fraction::ZERO
            && self.stuck == Fraction::ZERO
            && self.clock_skew == Fraction::ZERO
            && self.noise_burst == Fraction::ZERO
    }
}

fn checked_probability(rate: f64, what: &str) -> Fraction {
    assert!(
        (0.0..=1.0).contains(&rate),
        "{what} probability must be in [0, 1], got {rate}"
    );
    Fraction::saturating(rate)
}

/// FNV-1a over a stream label, used to decorrelate per-stream RNGs derived
/// from one plan seed.
fn stream_hash(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Applies a [`FaultPlan`] to one telemetry stream, deterministically.
///
/// Two injectors built from the same plan and stream label corrupt a sample
/// sequence identically; different stream labels get decorrelated fault
/// draws from the same plan seed.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    stuck_remaining: u32,
    last_reported: Option<Power>,
    counts: FaultCounts,
    obs: Obs,
}

/// Static label for a fault class, used as a structured event attribute and
/// a per-kind counter suffix.
fn kind_label(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Dropout => "dropout",
        FaultKind::CounterWrap => "counter_wrap",
        FaultKind::ReadTimeout => "read_timeout",
        FaultKind::StuckCounter => "stuck_counter",
        FaultKind::ClockSkew => "clock_skew",
        FaultKind::NoiseBurst => "noise_burst",
        FaultKind::HostCrash => "host_crash",
        FaultKind::OutOfOrder => "out_of_order",
        FaultKind::QueueDrop => "queue_drop",
        FaultKind::LateArrival => "late_arrival",
        // `FaultKind` is non-exhaustive; a future class keeps compiling.
        _ => "other",
    }
}

/// Per-kind counter name (static, one per [`FaultKind`] variant).
fn kind_counter(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::Dropout => "telemetry_faults_dropout_total",
        FaultKind::CounterWrap => "telemetry_faults_counter_wrap_total",
        FaultKind::ReadTimeout => "telemetry_faults_read_timeout_total",
        FaultKind::StuckCounter => "telemetry_faults_stuck_counter_total",
        FaultKind::ClockSkew => "telemetry_faults_clock_skew_total",
        FaultKind::NoiseBurst => "telemetry_faults_noise_burst_total",
        FaultKind::HostCrash => "telemetry_faults_host_crash_total",
        FaultKind::OutOfOrder => "telemetry_faults_out_of_order_total",
        FaultKind::QueueDrop => "telemetry_faults_queue_drop_total",
        FaultKind::LateArrival => "telemetry_faults_late_arrival_total",
        _ => "telemetry_faults_other_total",
    }
}

impl FaultInjector {
    /// Creates an injector for one named stream.
    pub fn new(plan: &FaultPlan, stream: &str) -> FaultInjector {
        FaultInjector {
            plan: *plan,
            rng: StdRng::seed_from_u64(plan.seed ^ stream_hash(stream)),
            stuck_remaining: 0,
            last_reported: None,
            counts: FaultCounts::default(),
            obs: sustain_obs::handle(),
        }
    }

    /// Replaces the observability handle captured at construction. Every
    /// injected fault then emits a structured `telemetry.fault` event (with
    /// its class as an attribute) and bumps a per-kind counter.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> FaultInjector {
        self.obs = obs.clone();
        self
    }

    /// Tallies one injected fault and reports it through the obs handle.
    fn record_fault(&mut self, kind: FaultKind, at: TimeSpan) {
        self.counts.record(kind);
        if self.obs.enabled() {
            self.obs.event(
                "telemetry.fault",
                &[
                    ("kind", kind_label(kind).into()),
                    ("at_s", at.as_secs().into()),
                ],
            );
            self.obs.counter(kind_counter(kind)).inc();
        }
    }

    /// Fault tallies so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    fn hit(&mut self, p: Fraction) -> bool {
        p > Fraction::ZERO && self.rng.gen_bool(p.value())
    }

    /// Passes one `(timestamp, power)` sample through the fault mixture.
    ///
    /// Returns `None` when the sample is lost (dropout or read timeout) and
    /// the possibly-corrupted sample otherwise. `interval` is the nominal
    /// sampling period, used to scale clock skew. With a zero-rate plan the
    /// sample is returned untouched and the RNG is never consulted.
    pub fn corrupt(
        &mut self,
        at: TimeSpan,
        interval: TimeSpan,
        truth: Power,
    ) -> Option<(TimeSpan, Power)> {
        if self.plan.is_none() {
            return Some((at, truth));
        }
        if self.hit(self.plan.dropout) {
            self.record_fault(FaultKind::Dropout, at);
            return None;
        }
        if self.hit(self.plan.timeout) {
            self.record_fault(FaultKind::ReadTimeout, at);
            return None;
        }

        let mut power = truth;
        if self.stuck_remaining > 0 {
            self.stuck_remaining -= 1;
            power = self.last_reported.unwrap_or(truth);
            self.record_fault(FaultKind::StuckCounter, at);
        } else if self.plan.stuck_len > 0 && self.hit(self.plan.stuck) {
            // The *current* read already returns the stale value.
            self.stuck_remaining = self.plan.stuck_len.saturating_sub(1);
            power = self.last_reported.unwrap_or(truth);
            self.record_fault(FaultKind::StuckCounter, at);
        }

        if self.hit(self.plan.noise_burst) && self.plan.noise_burst_std > Power::ZERO {
            let noise = Normal::new(0.0, self.plan.noise_burst_std.as_watts())
                // lint:allow(panic-discipline) with_noise_burst validates the std non-negative
                .expect("noise std validated in with_noise_burst")
                .sample(&mut self.rng);
            power = Power::from_watts((power.as_watts() + noise).max(0.0));
            self.record_fault(FaultKind::NoiseBurst, at);
        }

        let mut t = at;
        if self.plan.clock_skew > Fraction::ZERO {
            let jitter: f64 = (self.rng.gen::<f64>() - 0.5) * self.plan.clock_skew.value();
            t = at + interval * jitter;
            if t < TimeSpan::ZERO {
                t = TimeSpan::ZERO;
            }
            self.record_fault(FaultKind::ClockSkew, at);
        }

        self.last_reported = Some(power);
        Some((t, power))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_all(inj: &mut FaultInjector, n: usize) -> Vec<Option<(TimeSpan, Power)>> {
        let interval = TimeSpan::from_secs(1.0);
        (0..n)
            .map(|i| inj.corrupt(interval * i as f64, interval, Power::from_watts(100.0)))
            .collect()
    }

    #[test]
    fn zero_plan_is_strict_noop() {
        let plan = FaultPlan::none();
        assert!(plan.is_none());
        let mut inj = FaultInjector::new(&plan, "s");
        let out = sample_all(&mut inj, 50);
        for (i, s) in out.iter().enumerate() {
            let (t, p) = s.expect("no sample may be lost");
            assert_eq!(t, TimeSpan::from_secs(i as f64));
            assert_eq!(p, Power::from_watts(100.0));
        }
        assert!(inj.counts().is_empty());
    }

    #[test]
    fn injector_is_deterministic_per_stream() {
        let plan = FaultPlan::degraded().with_seed(42).with_dropout(0.3);
        let a = sample_all(&mut FaultInjector::new(&plan, "gpu0"), 200);
        let b = sample_all(&mut FaultInjector::new(&plan, "gpu0"), 200);
        assert_eq!(a, b);
        let c = sample_all(&mut FaultInjector::new(&plan, "gpu1"), 200);
        assert_ne!(a, c, "streams must be decorrelated");
    }

    #[test]
    fn dropout_rate_is_respected() {
        let plan = FaultPlan::none().with_seed(1).with_dropout(0.25);
        let mut inj = FaultInjector::new(&plan, "s");
        let lost = sample_all(&mut inj, 4000)
            .iter()
            .filter(|s| s.is_none())
            .count();
        let rate = lost as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.03, "observed dropout {rate}");
        assert_eq!(inj.counts().dropouts, lost as u64);
    }

    #[test]
    fn stuck_episodes_repeat_the_last_value() {
        let plan = FaultPlan::none().with_seed(3).with_stuck(0.05, 4);
        let mut inj = FaultInjector::new(&plan, "s");
        let interval = TimeSpan::from_secs(1.0);
        let mut prev = None;
        let mut repeats = 0;
        for i in 0..2000 {
            // Ramp so the truth is never equal between consecutive reads.
            let truth = Power::from_watts(100.0 + i as f64);
            if let Some((_, p)) = inj.corrupt(interval * i as f64, interval, truth) {
                if prev == Some(p) {
                    repeats += 1;
                }
                prev = Some(p);
            }
        }
        assert!(repeats > 0, "stuck episodes must repeat values");
        assert!(inj.counts().stuck_reads > 0);
    }

    #[test]
    fn noise_bursts_never_go_negative() {
        let plan = FaultPlan::none()
            .with_seed(4)
            .with_noise_burst(1.0, Power::from_watts(500.0));
        let mut inj = FaultInjector::new(&plan, "s");
        let interval = TimeSpan::from_secs(1.0);
        for i in 0..500 {
            let (_, p) = inj
                .corrupt(interval * i as f64, interval, Power::from_watts(10.0))
                .expect("no losses in this plan");
            assert!(p >= Power::ZERO);
        }
        assert_eq!(inj.counts().noise_bursts, 500);
    }

    #[test]
    fn clock_skew_preserves_grid_order() {
        let plan = FaultPlan::none().with_seed(5).with_clock_skew(1.0);
        let mut inj = FaultInjector::new(&plan, "s");
        let interval = TimeSpan::from_secs(1.0);
        let mut last = TimeSpan::from_secs(-1.0);
        for i in 0..1000 {
            let (t, _) = inj
                .corrupt(interval * i as f64, interval, Power::from_watts(1.0))
                .expect("no losses in this plan");
            assert!(t >= last, "skewed timestamps must stay ordered");
            last = t;
        }
    }

    #[test]
    fn degraded_preset_reports_every_fault_class_eventually() {
        let plan = FaultPlan::degraded().with_seed(9);
        let mut inj = FaultInjector::new(&plan, "s");
        let _ = sample_all(&mut inj, 20_000);
        let c = inj.counts();
        assert!(c.dropouts > 0, "dropouts");
        assert!(c.timeouts > 0, "timeouts");
        assert!(c.stuck_reads > 0, "stuck");
        assert!(c.noise_bursts > 0, "bursts");
        assert!(c.skewed_timestamps > 0, "skew");
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn rejects_out_of_range_rate() {
        let _ = FaultPlan::none().with_dropout(1.5);
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::degraded().with_seed(11);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
