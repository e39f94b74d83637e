//! Inference serving models (§II-A).
//!
//! Facebook's fleet serves *trillions of predictions per day*; for a deployed
//! model, total inference compute is expected to exceed its training compute.
//! [`InferenceService`] models one deployed model's serving load and energy.

use serde::{Deserialize, Serialize};

use sustain_core::units::Energy;

/// One deployed model's serving profile.
///
/// ```rust
/// use sustain_workload::inference::InferenceService;
/// use sustain_core::units::Energy;
///
/// let svc = InferenceService::new("rm1", 2.0e12, Energy::from_joules(0.002));
/// assert!((svc.daily_energy().as_megawatt_hours() - 1.111).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceService {
    name: String,
    predictions_per_day: f64,
    energy_per_prediction: Energy,
}

impl InferenceService {
    /// Creates a service.
    ///
    /// # Panics
    ///
    /// Panics if `predictions_per_day` is negative or non-finite.
    pub fn new(
        name: impl Into<String>,
        predictions_per_day: f64,
        energy_per_prediction: Energy,
    ) -> InferenceService {
        assert!(
            predictions_per_day.is_finite() && predictions_per_day >= 0.0,
            "predictions_per_day must be non-negative"
        );
        InferenceService {
            name: name.into(),
            predictions_per_day,
            energy_per_prediction,
        }
    }

    /// IT energy per day.
    pub fn daily_energy(&self) -> Energy {
        self.energy_per_prediction * self.predictions_per_day
    }

    /// Returns a copy with per-prediction energy scaled by `factor` —
    /// how optimization passes express efficiency gains.
    pub fn with_energy_scaled(&self, factor: f64) -> InferenceService {
        InferenceService {
            name: self.name.clone(),
            predictions_per_day: self.predictions_per_day,
            energy_per_prediction: self.energy_per_prediction * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc() -> InferenceService {
        InferenceService::new("rm", 8.64e9, Energy::from_joules(0.01))
    }

    #[test]
    fn daily_energy() {
        let s = svc();
        assert!((s.daily_energy().as_joules() - 8.64e7).abs() < 1.0);
    }

    #[test]
    fn scaling_helpers() {
        let s = svc();
        let optimized = s.with_energy_scaled(0.5);
        assert_eq!(optimized.daily_energy(), s.daily_energy() * 0.5);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_volume() {
        let _ = InferenceService::new("bad", -1.0, Energy::ZERO);
    }
}
