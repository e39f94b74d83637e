//! Bottom-up power estimation when meters are unavailable (§V-A).
//!
//! The open-source trackers the paper cites (CodeCarbon, experiment-impact-
//! tracker) often cannot read counters and fall back to **TDP-share
//! estimation**: `power ≈ TDP × utilization` (sometimes with a constant
//! fudge). This module implements that estimator and quantifies its error
//! against the metered ground truth of the simulated devices — the kind of
//! methodology validation the paper's "lack of common tools" discussion asks
//! for.

use serde::{Deserialize, Serialize};

use sustain_core::units::{Energy, Fraction, Power, TimeSpan};

use crate::device::PowerModel;

/// How an unmetered estimator guesses power from utilization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EstimationMethod {
    /// `power = TDP × utilization` — CodeCarbon's GPU default.
    TdpTimesUtilization,
    /// `power = TDP × 0.5` regardless of load — the crude constant fallback.
    HalfTdp,
    /// `power = idle + (TDP − idle) × utilization` — requires knowing idle
    /// power, matches a linear device exactly.
    LinearWithIdle {
        /// Assumed idle power as a fraction of TDP.
        idle_fraction: f64,
    },
}

impl EstimationMethod {
    /// Estimated power draw at a utilization, given the device's TDP.
    pub fn estimate_power(&self, tdp: Power, utilization: Fraction) -> Power {
        match self {
            EstimationMethod::TdpTimesUtilization => tdp * utilization.value(),
            EstimationMethod::HalfTdp => tdp * 0.5,
            EstimationMethod::LinearWithIdle { idle_fraction } => {
                tdp * *idle_fraction + tdp * (1.0 - idle_fraction) * utilization.value()
            }
        }
    }
}

/// The outcome of validating an estimator against metered ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EstimationError {
    /// Ground-truth energy from the device's power model.
    pub metered: Energy,
    /// The estimator's energy.
    pub estimated: Energy,
}

impl EstimationError {
    /// Signed relative error (positive = overestimate).
    pub fn relative_error(&self) -> f64 {
        if self.metered.is_zero() {
            return 0.0;
        }
        self.estimated / self.metered - 1.0
    }
}

/// Integrates both the metered ground truth and an estimator over a
/// utilization trajectory sampled at fixed steps, and reports the error.
///
/// # Panics
///
/// Panics if `step` or `duration` is not positive and finite.
pub fn validate_estimator<M, F>(
    device: &M,
    tdp: Power,
    method: EstimationMethod,
    mut utilization: F,
    duration: TimeSpan,
    step: TimeSpan,
) -> EstimationError
where
    M: PowerModel + ?Sized,
    F: FnMut(TimeSpan) -> Fraction,
{
    crate::meter::assert_positive_finite(step, "step");
    crate::meter::assert_positive_finite(duration, "duration");
    let mut metered = Energy::ZERO;
    let mut estimated = Energy::ZERO;
    let mut t = TimeSpan::ZERO;
    while t < duration {
        let span = step.min(duration - t);
        let u = utilization(t);
        metered += device.power(u) * span;
        estimated += method.estimate_power(tdp, u) * span;
        t += step;
    }
    EstimationError { metered, estimated }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceSpec, LinearPowerModel};

    fn half() -> Fraction {
        Fraction::saturating(0.5)
    }

    #[test]
    fn tdp_share_underestimates_at_low_utilization() {
        // Real devices draw idle power; TDP×u misses it — the documented bias
        // of utilization-share estimators.
        let v100 = DeviceSpec::V100.power_model();
        let err = validate_estimator(
            &v100,
            Power::from_watts(300.0),
            EstimationMethod::TdpTimesUtilization,
            |_| Fraction::saturating(0.2),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_secs(60.0),
        );
        assert!(
            err.relative_error() < -0.2,
            "error {}",
            err.relative_error()
        );
    }

    #[test]
    fn linear_with_true_idle_is_exact_for_linear_devices() {
        let v100 = DeviceSpec::V100.power_model();
        let err = validate_estimator(
            &v100,
            Power::from_watts(300.0),
            EstimationMethod::LinearWithIdle {
                idle_fraction: 40.0 / 300.0,
            },
            |t| {
                if (t.as_minutes() as u64).is_multiple_of(2) {
                    Fraction::saturating(0.3)
                } else {
                    Fraction::saturating(0.9)
                }
            },
            TimeSpan::from_hours(1.0),
            TimeSpan::from_secs(30.0),
        );
        assert!(
            err.relative_error().abs() < 1e-9,
            "error {}",
            err.relative_error()
        );
    }

    #[test]
    fn half_tdp_is_exact_only_at_matching_load() {
        let flat = LinearPowerModel::new(Power::ZERO, Power::from_watts(300.0));
        let err = validate_estimator(
            &flat,
            Power::from_watts(300.0),
            EstimationMethod::HalfTdp,
            |_| half(),
            TimeSpan::from_hours(1.0),
            TimeSpan::from_secs(60.0),
        );
        assert!(err.relative_error().abs() < 1e-9);
        // At full load it underestimates by half.
        let err = validate_estimator(
            &flat,
            Power::from_watts(300.0),
            EstimationMethod::HalfTdp,
            |_| Fraction::ONE,
            TimeSpan::from_hours(1.0),
            TimeSpan::from_secs(60.0),
        );
        assert!((err.relative_error() + 0.5).abs() < 1e-9);
    }

    #[test]
    fn estimator_ranking_matches_methodology_expectations() {
        // Over a realistic mid-load trajectory, the idle-aware estimator beats
        // TDP-share, which beats the constant.
        let a100 = DeviceSpec::A100.power_model();
        let run = |method| {
            validate_estimator(
                &a100,
                Power::from_watts(400.0),
                method,
                |t| Fraction::saturating(0.3 + 0.2 * ((t.as_minutes() / 7.0).sin().abs())),
                TimeSpan::from_hours(2.0),
                TimeSpan::from_secs(60.0),
            )
            .relative_error()
            .abs()
        };
        let idle_aware = run(EstimationMethod::LinearWithIdle {
            idle_fraction: 50.0 / 400.0,
        });
        let tdp_share = run(EstimationMethod::TdpTimesUtilization);
        assert!(idle_aware < tdp_share, "{idle_aware} vs {tdp_share}");
    }

    #[test]
    fn zero_metered_energy_reports_zero_error() {
        let e = EstimationError {
            metered: Energy::ZERO,
            estimated: Energy::from_joules(1.0),
        };
        assert_eq!(e.relative_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn rejects_zero_step() {
        let v100 = DeviceSpec::V100.power_model();
        let _ = validate_estimator(
            &v100,
            Power::from_watts(300.0),
            EstimationMethod::HalfTdp,
            |_| Fraction::ZERO,
            TimeSpan::from_secs(10.0),
            TimeSpan::ZERO,
        );
    }
}
