//! Chaos configuration for the fleet simulator.
//!
//! [`ChaosConfig`] bundles the failure processes a real fleet lives with —
//! host crashes driving [`CheckpointPolicy`] recovery, wear-out silent data
//! corruption ([`WearoutModel`]) triggering job re-runs, gaps in the
//! grid-intensity feed degrading market-based accounting, and telemetry
//! faults ([`FaultPlan`]) corrupting the fleet's own power metering.
//! [`crate::sim::Scenario::with_chaos`] hands it to a fleet simulation;
//! [`ChaosConfig::none`], the default, reproduces the undisturbed
//! simulation exactly.

use serde::{Deserialize, Serialize};

use sustain_cache::{CacheKey, KeyEncoder};
use sustain_core::units::{Fraction, TimeSpan};
use sustain_telemetry::faults::FaultPlan;

use crate::disaggregation::CheckpointPolicy;
use crate::lifetime::WearoutModel;

/// The failure processes injected into a fleet simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Host crash/restart rate, per server-day (Poisson).
    pub crash_rate_per_server_day: f64,
    /// Recovery policy: how much completed work a crash re-runs and what
    /// steady overhead checkpointing costs.
    pub checkpoint: CheckpointPolicy,
    /// Wear-out hazard driving silent-data-corruption events (`None`
    /// disables SDC injection).
    pub wearout: Option<WearoutModel>,
    /// Fleet age at which the wear-out hazard is evaluated.
    pub fleet_age: TimeSpan,
    /// Fraction of a job's completed work re-run per SDC event.
    pub sdc_rerun: Fraction,
    /// Per-hour probability that the grid-intensity feed has a gap.
    pub intensity_gap: Fraction,
    /// Telemetry faults applied to the fleet's own power metering.
    pub telemetry: FaultPlan,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig::none()
    }
}

impl ChaosConfig {
    /// The chaos-free configuration: running a simulation with it is
    /// guaranteed to reproduce the undisturbed run bit-for-bit (no extra
    /// RNG draws, no derates).
    pub fn none() -> ChaosConfig {
        ChaosConfig {
            crash_rate_per_server_day: 0.0,
            checkpoint: CheckpointPolicy {
                interval: TimeSpan::from_hours(crate::constants::CHECKPOINT_INTERVAL_HOURS),
                overhead: Fraction::ZERO,
            },
            wearout: None,
            fleet_age: TimeSpan::ZERO,
            sdc_rerun: Fraction::ZERO,
            intensity_gap: Fraction::ZERO,
            telemetry: FaultPlan::none(),
        }
    }

    /// A provenanced "production fleet" preset: OPT-logbook-scale host
    /// crashes with 6-hourly checkpoints, wear-out SDC on a 4-year-old fleet,
    /// percent-level intensity-feed gaps, and a routinely degraded telemetry
    /// collector (see `crate::constants` / telemetry constants for sources).
    pub fn datacenter_default() -> ChaosConfig {
        ChaosConfig {
            crash_rate_per_server_day: crate::constants::CRASH_RATE_PER_SERVER_DAY,
            checkpoint: CheckpointPolicy {
                interval: TimeSpan::from_hours(crate::constants::CHECKPOINT_INTERVAL_HOURS),
                overhead: Fraction::saturating(crate::constants::CHECKPOINT_OVERHEAD),
            },
            wearout: Some(WearoutModel::fleet_processor()),
            fleet_age: TimeSpan::from_years(crate::constants::CHAOS_FLEET_AGE_YEARS),
            sdc_rerun: Fraction::saturating(crate::constants::SDC_RERUN_FRACTION),
            intensity_gap: Fraction::saturating(crate::constants::INTENSITY_GAP_RATE),
            telemetry: FaultPlan::degraded(),
        }
    }

    /// Sets the crash rate (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative, infinite or NaN: the crash process
    /// would otherwise be dropped without a word. A fleet simulation makes
    /// the same check on the public field before it runs.
    pub fn with_crash_rate(mut self, rate: f64) -> ChaosConfig {
        assert_valid_crash_rate(rate);
        self.crash_rate_per_server_day = rate;
        self
    }

    /// Sets the checkpoint recovery policy.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> ChaosConfig {
        self.checkpoint = policy;
        self
    }

    /// Enables wear-out SDC events at the given fleet age.
    pub fn with_wearout(mut self, model: WearoutModel, age: TimeSpan) -> ChaosConfig {
        self.wearout = Some(model);
        self.fleet_age = age;
        self
    }

    /// Sets the per-hour intensity-feed gap probability.
    pub fn with_intensity_gap(mut self, gap: Fraction) -> ChaosConfig {
        self.intensity_gap = gap;
        self
    }

    /// Sets the telemetry fault plan.
    pub fn with_telemetry(mut self, plan: FaultPlan) -> ChaosConfig {
        self.telemetry = plan;
        self
    }

    /// Expected SDC events per server-hour under this configuration.
    pub fn sdc_rate_per_server_hour(&self) -> f64 {
        match &self.wearout {
            Some(w) => w.sdc_rate_at(self.fleet_age) / TimeSpan::from_years(1.0).as_hours(),
            None => 0.0,
        }
    }

    /// The telemetry fault plan for one host's *streaming* meter feed:
    /// the shared [`ChaosConfig::telemetry`] mixture, re-seeded per host
    /// with [`sustain_par::task_seed`] so a streaming ingestion layer
    /// (`sustain-stream`) sees decorrelated chaos across the fleet's
    /// meters while staying reproducible from the one plan seed. A
    /// zero-rate plan stays a zero-rate plan: feeding a chaos-free config
    /// into a stream keeps the strict no-op guarantee.
    pub fn stream_plan(&self, host: u64) -> FaultPlan {
        self.telemetry
            .with_seed(sustain_par::task_seed(self.telemetry.seed, host))
    }

    /// Whether this configuration injects nothing at all.
    pub fn is_none(&self) -> bool {
        // lint:allow(float-eq) exact zero gates the strict no-op path: any nonzero rate must count as chaos
        self.crash_rate_per_server_day == 0.0
            && self.checkpoint.overhead == Fraction::ZERO
            && self.wearout.is_none()
            && self.intensity_gap == Fraction::ZERO
            && self.telemetry.is_none()
    }
}

/// Panics unless `rate` is a finite, non-negative crash rate per server-day.
pub(crate) fn assert_valid_crash_rate(rate: f64) {
    assert!(
        rate.is_finite() && rate >= 0.0,
        "crash rate must be non-negative and finite"
    );
}

impl CacheKey for ChaosConfig {
    fn namespace(&self) -> &'static str {
        "chaos"
    }

    /// Field-by-field encoding: equal configurations share a fingerprint
    /// whatever builder-call order produced them, and every field reaches
    /// the hash (nested policy/model/plan structs through their value
    /// renderings).
    fn encode_key(&self, enc: &mut KeyEncoder) {
        enc.write_f64(self.crash_rate_per_server_day);
        enc.write_debug(&self.checkpoint);
        enc.write_option(self.wearout.as_ref(), |enc, w| enc.write_debug(w));
        enc.write_f64(self.fleet_age.as_secs());
        enc.write_f64(self.sdc_rerun.value());
        enc.write_f64(self.intensity_gap.value());
        enc.write_debug(&self.telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let c = ChaosConfig::none();
        assert!(c.is_none());
        assert_eq!(c.sdc_rate_per_server_hour(), 0.0);
        assert_eq!(ChaosConfig::default(), c);
    }

    #[test]
    fn datacenter_default_injects_everything() {
        let c = ChaosConfig::datacenter_default();
        assert!(!c.is_none());
        assert!(c.crash_rate_per_server_day > 0.0);
        assert!(c.sdc_rate_per_server_hour() > 0.0);
        assert!(c.intensity_gap > Fraction::ZERO);
        assert!(!c.telemetry.is_none());
    }

    #[test]
    fn builders_compose() {
        let c = ChaosConfig::none()
            .with_crash_rate(0.1)
            .with_wearout(WearoutModel::fleet_processor(), TimeSpan::from_years(5.0))
            .with_intensity_gap(Fraction::saturating(0.5))
            .with_telemetry(FaultPlan::degraded());
        assert!(!c.is_none());
        assert!(
            c.sdc_rate_per_server_hour()
                > ChaosConfig::datacenter_default().sdc_rate_per_server_hour()
        );
    }

    #[test]
    fn stream_plans_decorrelate_hosts_but_stay_reproducible() {
        let c =
            ChaosConfig::datacenter_default().with_telemetry(FaultPlan::degraded().with_seed(5));
        let a = c.stream_plan(0);
        let b = c.stream_plan(1);
        assert_ne!(a.seed, b.seed, "hosts must draw decorrelated streams");
        assert_eq!(a, c.stream_plan(0), "same host, same plan");
        assert_eq!(
            a.with_seed(0),
            b.with_seed(0),
            "only the seed differs between hosts"
        );
        let clean = ChaosConfig::none().stream_plan(3);
        assert!(clean.is_none(), "chaos-free config stays a strict no-op");
    }

    #[test]
    fn serde_round_trip() {
        let c = ChaosConfig::datacenter_default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ChaosConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "crash rate must be non-negative")]
    fn rejects_negative_crash_rate() {
        let _ = ChaosConfig::none().with_crash_rate(-1.0);
    }

    #[test]
    #[should_panic(expected = "crash rate must be non-negative and finite")]
    fn rejects_infinite_crash_rate() {
        let _ = ChaosConfig::none().with_crash_rate(f64::INFINITY);
    }
}
