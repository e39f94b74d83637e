//! GPU utilization analytics: Figure 10's distribution and Figure 9's sweep.
//!
//! * [`UtilizationModel`] samples per-workflow GPU utilizations matching the
//!   paper's observation that "a vast majority of model experimentation ...
//!   utilizes GPUs at only 30–50 %".
//! * [`UtilizationSweep`] computes the total (operational + embodied) carbon
//!   of a fixed training workload as fleet utilization improves — Figure 9's
//!   mechanism, including the carbon-free-energy variant where embodied
//!   carbon dominates.

use rand::Rng;
use serde::{Deserialize, Serialize};

use sustain_core::embodied::{AllocationPolicy, EmbodiedModel};
use sustain_core::footprint::CarbonFootprint;
use sustain_core::operational::OperationalAccount;
use sustain_core::stats::{Histogram, Normal, Sampler};
use sustain_core::units::{Fraction, TimeSpan};
use sustain_telemetry::device::PowerModel;

/// Samples per-workflow GPU utilizations (truncated normal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationModel {
    dist: Normal,
}

impl UtilizationModel {
    /// The research-cluster calibration: mean 40 %, σ 9 %, so the bulk of
    /// mass falls in the paper's 30–50 % band.
    pub fn research_cluster() -> UtilizationModel {
        UtilizationModel {
            // lint:allow(panic-discipline) preset built from vetted paper constants
            dist: Normal::new(0.40, 0.09).expect("constants are valid"),
        }
    }

    /// Creates a model with a custom mean/std.
    ///
    /// # Errors
    ///
    /// Propagates invalid-distribution errors.
    pub fn new(mean: f64, std: f64) -> sustain_core::Result<UtilizationModel> {
        Ok(UtilizationModel {
            dist: Normal::new(mean, std)?,
        })
    }

    /// Draws one workflow's utilization, clamped into `[0.02, 1]` (a running
    /// job is never fully idle).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Fraction {
        Fraction::saturating(self.dist.sample(rng).clamp(0.02, 1.0))
    }

    /// Builds the Figure 10 histogram over `n` sampled workflows with
    /// 10-percentage-point bins.
    pub fn histogram<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Histogram {
        // lint:allow(panic-discipline) fixed, known-good bin parameters
        let mut h = Histogram::new(0.0, 1.0, 10).expect("bins are valid");
        for _ in 0..n {
            h.record(self.sample(rng).value());
        }
        h
    }
}

/// One point of the Figure 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The fleet utilization assumed.
    pub utilization: Fraction,
    /// Footprint on the standard grid.
    pub grid: CarbonFootprint,
    /// Footprint with carbon-free energy for the operational part.
    pub carbon_free: CarbonFootprint,
}

/// Figure 9: total carbon of a fixed workload as utilization improves.
///
/// The workload is a fixed amount of *useful GPU work* (`busy_time` at full
/// throughput). At fleet utilization `u`, delivering that work keeps machines
/// occupied for `busy_time / u` of wall-clock time. Occupied trainers draw
/// near-constant power regardless of achieved utilization — a GPU stalled on
/// communication or input still holds HBM active and clocks high (the
/// `occupied_draw` knob, default 85 % of the power envelope) — so operational
/// energy scales with occupancy (∝ 1/u), and embodied carbon is amortized
/// over useful hours (usage-share, also ∝ 1/u). Both fall as `u` rises, which
/// is exactly Figure 9's mechanism.
#[derive(Clone)]
pub struct UtilizationSweep {
    device: Box<dyn PowerModelClone + Send + Sync>,
    busy_time: TimeSpan,
    account: OperationalAccount,
    embodied: EmbodiedModel,
    occupied_draw: Fraction,
    cfe_operational_scale: f64,
}

/// Object-safe clonable power model (implementation detail of the sweep).
trait PowerModelClone: PowerModel {
    fn clone_box(&self) -> Box<dyn PowerModelClone + Send + Sync>;
}

impl<T> PowerModelClone for T
where
    T: PowerModel + Clone + Send + Sync + 'static,
{
    fn clone_box(&self) -> Box<dyn PowerModelClone + Send + Sync> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn PowerModelClone + Send + Sync> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl UtilizationSweep {
    /// Creates a sweep for a device power model, a fixed useful-work budget,
    /// an operational account, and an embodied model.
    pub fn new(
        device: impl PowerModel + Clone + Send + Sync + 'static,
        busy_time: TimeSpan,
        account: OperationalAccount,
        embodied: EmbodiedModel,
    ) -> UtilizationSweep {
        UtilizationSweep {
            device: Box::new(device),
            busy_time,
            account,
            embodied,
            occupied_draw: Fraction::saturating(0.85),
            cfe_operational_scale: 0.05,
        }
    }

    /// Evaluates the sweep at one utilization.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is zero.
    pub fn at(&self, utilization: Fraction) -> SweepPoint {
        assert!(utilization.value() > 0.0, "utilization must be positive");
        let wall = self.busy_time / utilization.value();
        // Occupied trainers draw near-constant power whether stalled or busy.
        let energy = self.device.power(self.occupied_draw) * wall;
        let operational = self.account.location_based(energy);
        let embodied = self
            .embodied
            .with_expected_utilization(utilization)
            // lint:allow(panic-discipline) sweep utilizations are strictly positive
            .expect("positive utilization")
            .amortize(self.busy_time, AllocationPolicy::UsageShare)
            // lint:allow(panic-discipline) amortize only errs on non-positive spans
            .expect("busy time is non-negative");
        let grid = CarbonFootprint::new(operational, embodied);
        SweepPoint {
            utilization,
            grid,
            carbon_free: grid.scale_operational(self.cfe_operational_scale),
        }
    }
}

impl std::fmt::Debug for UtilizationSweep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UtilizationSweep")
            .field("busy_time", &self.busy_time)
            .field("account", &self.account)
            .field("embodied", &self.embodied)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustain_core::intensity::CarbonIntensity;
    use sustain_core::pue::Pue;
    use sustain_telemetry::device::DeviceSpec;

    fn sweep() -> UtilizationSweep {
        UtilizationSweep::new(
            DeviceSpec::V100.power_model(),
            TimeSpan::from_days(300.0),
            OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1).unwrap()),
            EmbodiedModel::gpu_server().unwrap(),
        )
    }

    #[test]
    fn fig10_bulk_of_mass_in_30_to_50_band() {
        let model = UtilizationModel::research_cluster();
        let mut rng = StdRng::seed_from_u64(99);
        let h = model.histogram(&mut rng, 50_000);
        // "A vast majority of model experimentation utilizes GPUs at only 30-50%".
        let band = h.mass_between(0.3, 0.5);
        assert!(band > 0.55, "30-50% band holds {band}");
        // Very few workflows exceed 80%.
        assert!(h.mass_between(0.8, 1.0) < 0.02);
    }

    #[test]
    fn utilization_samples_are_valid_fractions() {
        let model = UtilizationModel::research_cluster();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            let u = model.sample(&mut rng).value();
            assert!((0.02..=1.0).contains(&u));
        }
    }

    #[test]
    fn fig9_total_carbon_drops_about_3x_to_80_percent_util() {
        // Paper: "Increasing GPU utilization up to 80%, the overall carbon
        // footprint decreases by 3×" (from the ~30% baseline).
        let s = sweep();
        let low = s.at(Fraction::saturating(0.30));
        let high = s.at(Fraction::saturating(0.80));
        let ratio = low.grid.total() / high.grid.total();
        assert!(ratio > 2.0 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn fig9_cfe_halves_footprint_and_embodied_dominates() {
        // "Powering AI services with renewable energy sources can further
        // reduce the overall carbon footprint by a factor of 2."
        let s = sweep();
        let p = s.at(Fraction::saturating(0.80));
        let factor = p.grid.total() / p.carbon_free.total();
        assert!(factor > 1.5, "CFE factor {factor}");
        // Under CFE, embodied dominates.
        assert!(p.carbon_free.embodied_share().value() > 0.5);
        // On the grid, operational dominates at this intensity.
        assert!(p.grid.operational_share().value() > 0.5);
    }

    #[test]
    fn sweep_is_monotone_in_utilization() {
        let s = sweep();
        let pts: Vec<_> = [0.2, 0.4, 0.6, 0.8, 1.0]
            .map(|u| s.at(Fraction::saturating(u)))
            .to_vec();
        for w in pts.windows(2) {
            assert!(w[1].grid.total() < w[0].grid.total());
            assert!(w[1].carbon_free.total() < w[0].carbon_free.total());
        }
    }

    #[test]
    #[should_panic(expected = "utilization must be positive")]
    fn zero_utilization_rejected() {
        let _ = sweep().at(Fraction::ZERO);
    }
}
