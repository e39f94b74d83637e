//! Parametric device power models.
//!
//! Every simulator in the workspace needs a mapping from *utilization* to
//! *power draw*. Real devices are measured; here the mapping is a calibrated
//! model. Two families are provided:
//!
//! * [`LinearPowerModel`] — `idle + (peak − idle) × u`, a good fit for
//!   accelerators under compute-bound load;
//! * [`SuperlinearPowerModel`] — `idle + (peak − idle) × u^α` with `α < 1`,
//!   capturing the empirical observation that power rises steeply at low
//!   utilization (voltage/frequency floors) and saturates near peak.
//!
//! [`DeviceSpec`] carries published idle/peak figures for the devices the
//! paper references (V100, A100, P100, TPUs, CPU servers, smartphones at 3 W,
//! home routers at 7.5 W).

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::{Fraction, Power};

/// A mapping from device utilization to instantaneous power draw.
///
/// Object-safe so heterogeneous device collections can be modeled as
/// `Vec<Box<dyn PowerModel>>`.
pub trait PowerModel {
    /// Instantaneous power at the given utilization.
    fn power(&self, utilization: Fraction) -> Power;

    /// Power when fully idle.
    fn idle_power(&self) -> Power {
        self.power(Fraction::ZERO)
    }

    /// Power at full utilization.
    fn peak_power(&self) -> Power {
        self.power(Fraction::ONE)
    }
}

/// `idle + (peak − idle) × u`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearPowerModel {
    idle: Power,
    peak: Power,
}

impl LinearPowerModel {
    /// Creates a linear model.
    ///
    /// # Panics
    ///
    /// Panics if `peak < idle` (debug builds assert this invariant).
    pub fn new(idle: Power, peak: Power) -> LinearPowerModel {
        debug_assert!(peak >= idle, "peak power must be at least idle power");
        LinearPowerModel { idle, peak }
    }
}

impl PowerModel for LinearPowerModel {
    fn power(&self, utilization: Fraction) -> Power {
        self.idle + (self.peak - self.idle) * utilization.value()
    }
}

/// `idle + (peak − idle) × u^α`; `α < 1` makes power rise steeply at low
/// utilization, the regime Figure 10's underutilized research GPUs sit in.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuperlinearPowerModel {
    idle: Power,
    peak: Power,
    alpha: f64,
}

impl SuperlinearPowerModel {
    /// Creates a model with exponent `alpha` (must be positive).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `alpha <= 0` or `peak < idle`.
    pub fn new(idle: Power, peak: Power, alpha: f64) -> SuperlinearPowerModel {
        debug_assert!(alpha > 0.0, "alpha must be positive");
        debug_assert!(peak >= idle, "peak power must be at least idle power");
        SuperlinearPowerModel { idle, peak, alpha }
    }
}

impl PowerModel for SuperlinearPowerModel {
    fn power(&self, utilization: Fraction) -> Power {
        self.idle + (self.peak - self.idle) * utilization.value().powf(self.alpha)
    }
}

/// Published idle/peak figures for devices referenced in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceSpec {
    /// NVIDIA V100 (300 W TDP, 32 GB HBM2; the 2018 reference in Fig 2).
    V100,
    /// NVIDIA A100 (400 W TDP, 80 GB HBM2e; the 2021 reference in Fig 2).
    A100,
    /// NVIDIA P100 (250 W TDP; the `P100-Base` baseline of Fig 11).
    P100,
    /// Google TPU v3 (≈283 W per chip; the `TPU-Base` baseline of Fig 11).
    TpuV3,
    /// A dual-socket CPU inference server.
    CpuServer,
    /// DRAM, per 64 GB DIMM bank.
    DramBank,
    /// A client smartphone (paper's FL methodology: 3 W while training).
    Smartphone,
    /// A home Wi-Fi router (paper's FL methodology: 7.5 W while active).
    HomeRouter,
}

impl DeviceSpec {
    /// All specs, in declaration order.
    pub const ALL: [DeviceSpec; 8] = [
        DeviceSpec::V100,
        DeviceSpec::A100,
        DeviceSpec::P100,
        DeviceSpec::TpuV3,
        DeviceSpec::CpuServer,
        DeviceSpec::DramBank,
        DeviceSpec::Smartphone,
        DeviceSpec::HomeRouter,
    ];

    /// Idle power.
    pub fn idle(&self) -> Power {
        let w = match self {
            DeviceSpec::V100 => 40.0,
            DeviceSpec::A100 => 50.0,
            DeviceSpec::P100 => 30.0,
            DeviceSpec::TpuV3 => 55.0,
            DeviceSpec::CpuServer => 120.0,
            DeviceSpec::DramBank => 8.0,
            DeviceSpec::Smartphone => 0.5,
            DeviceSpec::HomeRouter => 6.0,
        };
        Power::from_watts(w)
    }

    /// Peak (TDP-like) power.
    pub fn peak(&self) -> Power {
        let w = match self {
            DeviceSpec::V100 => 300.0,
            DeviceSpec::A100 => 400.0,
            DeviceSpec::P100 => 250.0,
            DeviceSpec::TpuV3 => crate::constants::TPU_V3_PEAK_WATTS,
            DeviceSpec::CpuServer => 450.0,
            DeviceSpec::DramBank => 20.0,
            DeviceSpec::Smartphone => 3.0,
            DeviceSpec::HomeRouter => 7.5,
        };
        Power::from_watts(w)
    }

    /// Accelerator on-package memory capacity in GB, where meaningful.
    pub fn memory_gb(&self) -> Option<f64> {
        match self {
            DeviceSpec::V100 => Some(32.0),
            DeviceSpec::A100 => Some(80.0),
            DeviceSpec::P100 => Some(16.0),
            DeviceSpec::TpuV3 => Some(32.0),
            _ => None,
        }
    }

    /// A linear power model over the published idle/peak figures.
    pub fn power_model(&self) -> LinearPowerModel {
        LinearPowerModel::new(self.idle(), self.peak())
    }

    /// A superlinear power model (α = 0.6), the more realistic accelerator fit.
    // lint:allow(test-only-pub) (d) the superlinear ground truth ROADMAP item 4(a) needs
    pub fn superlinear_model(&self) -> SuperlinearPowerModel {
        SuperlinearPowerModel::new(self.idle(), self.peak(), 0.6)
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DeviceSpec::V100 => "v100",
            DeviceSpec::A100 => "a100",
            DeviceSpec::P100 => "p100",
            DeviceSpec::TpuV3 => "tpu-v3",
            DeviceSpec::CpuServer => "cpu-server",
            DeviceSpec::DramBank => "dram-bank",
            DeviceSpec::Smartphone => "smartphone",
            DeviceSpec::HomeRouter => "home-router",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_model_endpoints() {
        let m = LinearPowerModel::new(Power::from_watts(40.0), Power::from_watts(300.0));
        assert_eq!(m.idle_power(), Power::from_watts(40.0));
        assert_eq!(m.peak_power(), Power::from_watts(300.0));
        let half = m.power(Fraction::new(0.5).unwrap());
        assert!((half.as_watts() - 170.0).abs() < 1e-9);
    }

    #[test]
    fn superlinear_exceeds_linear_mid_range() {
        let spec = DeviceSpec::V100;
        let lin = spec.power_model();
        let sup = spec.superlinear_model();
        let u = Fraction::new(0.4).unwrap();
        assert!(sup.power(u) > lin.power(u));
        // Endpoints agree.
        assert_eq!(sup.idle_power(), lin.idle_power());
        assert!((sup.peak_power().as_watts() - lin.peak_power().as_watts()).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_utilization() {
        for spec in DeviceSpec::ALL {
            let m = spec.power_model();
            let mut prev = Power::ZERO;
            for i in 0..=10 {
                let p = m.power(Fraction::new(i as f64 / 10.0).unwrap());
                assert!(p >= prev, "{spec} power not monotone");
                prev = p;
            }
        }
    }

    #[test]
    fn paper_fl_constants() {
        // The FL methodology assumes 3 W devices and 7.5 W routers.
        assert_eq!(DeviceSpec::Smartphone.peak(), Power::from_watts(3.0));
        assert_eq!(DeviceSpec::HomeRouter.peak(), Power::from_watts(7.5));
    }

    #[test]
    fn fig2_memory_growth_under_2x() {
        // V100 (2018) 32 GB → A100 (2021) 80 GB: < 2× every 2 years.
        let v = DeviceSpec::V100.memory_gb().unwrap();
        let a = DeviceSpec::A100.memory_gb().unwrap();
        let per_2y = (a / v).powf(2.0 / 3.0);
        assert!(per_2y < 2.0, "memory growth per 2y {per_2y}");
        assert!(DeviceSpec::CpuServer.memory_gb().is_none());
    }

    #[test]
    fn models_are_object_safe() {
        let devices: Vec<Box<dyn PowerModel>> = vec![
            Box::new(DeviceSpec::V100.power_model()),
            Box::new(DeviceSpec::Smartphone.superlinear_model()),
        ];
        let total: Power = devices
            .iter()
            .map(|d| d.power(Fraction::ONE))
            .fold(Power::ZERO, |a, b| a + b);
        assert!((total.as_watts() - 303.0).abs() < 1e-9);
    }

    #[test]
    fn display_names() {
        assert_eq!(DeviceSpec::TpuV3.to_string(), "tpu-v3");
    }
}
