//! Embodied (manufacturing) carbon and its amortization over hardware life.
//!
//! The paper's methodology (§III-A): a GPU training server is assumed to carry
//! the production footprint of Apple's 28-core Mac Pro with dual GPUs —
//! **2000 kg CO₂e** — and a CPU-only server half of that. Servers live 3–5
//! years at 30–60 % average utilization. Every workload inherits a slice of
//! this upfront cost; how the slice is computed is an explicit policy choice:
//!
//! * [`AllocationPolicy::TimeShare`] — a job occupying a machine for time `t`
//!   inherits `total × t / lifetime`, idle or not.
//! * [`AllocationPolicy::UsageShare`] — the entire embodied cost is allocated
//!   across the machine's *expected useful* hours (`lifetime × expected
//!   utilization`), so a fleet running at 30 % utilization pays ~3.3× the
//!   embodied carbon per useful hour of a fully-utilized one. This is the
//!   mechanism behind Figure 9's utilization sweep.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{Error, Result};
use crate::units::{Co2e, Fraction, TimeSpan};

/// Embodied carbon of a deployed system and the parameters needed to amortize it.
///
/// ```rust
/// use sustain_core::embodied::{AllocationPolicy, EmbodiedModel};
/// use sustain_core::units::{Co2e, Fraction, TimeSpan};
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let server = EmbodiedModel::gpu_server()?;
/// // One GPU-month of work on a time-share basis:
/// let slice = server.amortize(TimeSpan::from_days(30.0), AllocationPolicy::TimeShare)?;
/// assert!(slice.as_kilograms() > 30.0 && slice.as_kilograms() < 50.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbodiedModel {
    total: Co2e,
    lifetime: TimeSpan,
    expected_utilization: Fraction,
}

/// How embodied carbon is attributed to workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Attribute by wall-clock occupancy: `total × span / lifetime`.
    #[default]
    TimeShare,
    /// Attribute by useful work: `total × busy_span / (lifetime × expected_utilization)`.
    /// Low fleet utilization inflates every job's share.
    UsageShare,
}

impl fmt::Display for AllocationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationPolicy::TimeShare => f.write_str("time-share"),
            AllocationPolicy::UsageShare => f.write_str("usage-share"),
        }
    }
}

impl EmbodiedModel {
    /// Creates a model from its parts.
    ///
    /// # Errors
    ///
    /// * [`Error::NegativeQuantity`] if `total` is negative.
    /// * [`Error::ZeroDuration`] if `lifetime` is not positive.
    /// * [`Error::FractionOutOfRange`] if `expected_utilization` is zero
    ///   (a machine expected to never be used cannot amortize anything).
    pub fn new(
        total: Co2e,
        lifetime: TimeSpan,
        expected_utilization: Fraction,
    ) -> Result<EmbodiedModel> {
        let total = total.validated()?;
        if lifetime.as_secs() <= 0.0 {
            return Err(Error::ZeroDuration("hardware lifetime"));
        }
        if expected_utilization.value() <= 0.0 {
            return Err(Error::FractionOutOfRange {
                name: "expected utilization",
                value: expected_utilization.value(),
            });
        }
        Ok(EmbodiedModel {
            total,
            lifetime,
            expected_utilization,
        })
    }

    /// The paper's default GPU training server: 2000 kg CO₂e, 4-year lifetime,
    /// 45 % average utilization (midpoints of the 3–5 y and 30–60 % ranges).
    pub fn gpu_server() -> Result<EmbodiedModel> {
        EmbodiedModel::new(
            Co2e::from_kilograms(crate::constants::GPU_SERVER_EMBODIED_KG),
            TimeSpan::from_years(4.0),
            Fraction::new(0.45)?,
        )
    }

    /// The paper's CPU-only server: half the GPU server's embodied emissions.
    pub fn cpu_server() -> Result<EmbodiedModel> {
        EmbodiedModel::new(
            Co2e::from_kilograms(crate::constants::CPU_SERVER_EMBODIED_KG),
            TimeSpan::from_years(4.0),
            Fraction::new(0.45)?,
        )
    }

    /// Total manufacturing footprint.
    pub fn total(&self) -> Co2e {
        self.total
    }

    /// Expected service lifetime.
    pub fn lifetime(&self) -> TimeSpan {
        self.lifetime
    }

    /// Expected average utilization over the lifetime.
    pub fn expected_utilization(&self) -> Fraction {
        self.expected_utilization
    }

    /// Returns a copy with a different expected utilization — the knob swept
    /// in Figure 9.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FractionOutOfRange`] if `utilization` is zero.
    pub fn with_expected_utilization(&self, utilization: Fraction) -> Result<EmbodiedModel> {
        EmbodiedModel::new(self.total, self.lifetime, utilization)
    }

    /// Returns a copy with a different lifetime (life-extension scenarios).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ZeroDuration`] if `lifetime` is not positive.
    // lint:allow(test-only-pub) (d) the lifetime term ROADMAP item 4(b) sweeps
    pub fn with_lifetime(&self, lifetime: TimeSpan) -> Result<EmbodiedModel> {
        EmbodiedModel::new(self.total, lifetime, self.expected_utilization)
    }

    /// Amortized embodied carbon for a span of machine time under a policy.
    ///
    /// For [`AllocationPolicy::TimeShare`], `span` is wall-clock occupancy.
    /// For [`AllocationPolicy::UsageShare`], `span` is busy (useful) time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NegativeQuantity`] if `span` is negative.
    pub fn amortize(&self, span: TimeSpan, policy: AllocationPolicy) -> Result<Co2e> {
        if span.as_secs() < 0.0 {
            return Err(Error::NegativeQuantity {
                quantity: "amortization span",
                value: span.as_secs(),
            });
        }
        let share = match policy {
            AllocationPolicy::TimeShare => span / self.lifetime,
            AllocationPolicy::UsageShare => {
                span / self.lifetime / self.expected_utilization.value()
            }
        };
        Ok(self.total * share)
    }

    /// The embodied-carbon *rate* (gCO₂e per second of useful work) under a policy.
    pub fn rate(&self, policy: AllocationPolicy) -> Co2e {
        self.amortize(TimeSpan::from_secs(1.0), policy)
            // lint:allow(panic-discipline) amortize only errs on non-positive spans
            .expect("1 second is a valid span")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_server_matches_paper_constants() {
        let m = EmbodiedModel::gpu_server().unwrap();
        assert_eq!(m.total(), Co2e::from_kilograms(2000.0));
        let cpu = EmbodiedModel::cpu_server().unwrap();
        assert_eq!(cpu.total(), Co2e::from_kilograms(1000.0));
        // CPU-only is half of GPU, per the paper.
        assert!((cpu.total() / m.total() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn time_share_amortization_is_linear() {
        let m = EmbodiedModel::gpu_server().unwrap();
        let year = m
            .amortize(TimeSpan::from_years(1.0), AllocationPolicy::TimeShare)
            .unwrap();
        assert!((year.as_kilograms() - 500.0).abs() < 1e-9, "2000kg / 4y");
        let full = m
            .amortize(m.lifetime(), AllocationPolicy::TimeShare)
            .unwrap();
        assert!((full / m.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn usage_share_inflates_with_low_utilization() {
        let m = EmbodiedModel::gpu_server().unwrap();
        let low = m
            .with_expected_utilization(Fraction::new(0.3).unwrap())
            .unwrap();
        let high = m
            .with_expected_utilization(Fraction::new(0.9).unwrap())
            .unwrap();
        let day = TimeSpan::from_days(1.0);
        let low_cost = low.amortize(day, AllocationPolicy::UsageShare).unwrap();
        let high_cost = high.amortize(day, AllocationPolicy::UsageShare).unwrap();
        // 3× utilization improvement ⇒ 3× lower embodied per busy day (Fig 9).
        assert!((low_cost / high_cost - 3.0).abs() < 1e-9);
    }

    #[test]
    fn usage_share_exceeds_time_share_when_underutilized() {
        let m = EmbodiedModel::gpu_server().unwrap();
        let day = TimeSpan::from_days(1.0);
        let usage = m.amortize(day, AllocationPolicy::UsageShare).unwrap();
        let time = m.amortize(day, AllocationPolicy::TimeShare).unwrap();
        assert!(usage > time);
        assert!((usage / time - 1.0 / 0.45).abs() < 1e-9);
    }

    #[test]
    fn longer_lifetime_lowers_rate() {
        let m = EmbodiedModel::gpu_server().unwrap();
        let extended = m.with_lifetime(TimeSpan::from_years(8.0)).unwrap();
        assert!(extended.rate(AllocationPolicy::TimeShare) < m.rate(AllocationPolicy::TimeShare));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(EmbodiedModel::new(
            Co2e::from_kilograms(-1.0),
            TimeSpan::from_years(1.0),
            Fraction::new(0.5).unwrap()
        )
        .is_err());
        assert!(EmbodiedModel::new(
            Co2e::from_kilograms(1.0),
            TimeSpan::ZERO,
            Fraction::new(0.5).unwrap()
        )
        .is_err());
        assert!(EmbodiedModel::new(
            Co2e::from_kilograms(1.0),
            TimeSpan::from_years(1.0),
            Fraction::ZERO
        )
        .is_err());
        let m = EmbodiedModel::gpu_server().unwrap();
        assert!(m
            .amortize(TimeSpan::from_secs(-1.0), AllocationPolicy::TimeShare)
            .is_err());
    }
}
