//! The published edge-carbon estimation methodology and the Figure 11
//! baselines.
//!
//! Methodology (Appendix B): multiply each client's computation time by the
//! estimated device power (3 W) and its upload/download time by the router
//! power (7.5 W); omit other energy. Convert with a grid intensity — edge
//! devices see no datacenter PUE and no renewable matching.
//!
//! Baselines: centralized Transformer_Big training on P100 GPUs and on TPUs,
//! each on a standard grid and on renewable ("green") energy.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::intensity::CarbonIntensity;
use sustain_core::units::{Co2e, Energy, Fraction, Power};

use crate::comm::CommModel;
use crate::log::ClientLog;

/// The edge-carbon estimator of the paper's methodology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeCarbonEstimator {
    device_power: Power,
    comm: CommModel,
    intensity: CarbonIntensity,
}

/// The per-component outcome of an estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeCarbonBreakdown {
    /// Energy consumed by on-device computation.
    pub device_energy: Energy,
    /// Energy consumed by wireless communication (router).
    pub comm_energy: Energy,
    /// Estimated emissions of the total.
    pub co2: Co2e,
}

impl EdgeCarbonBreakdown {
    /// Total energy.
    pub fn total_energy(&self) -> Energy {
        self.device_energy + self.comm_energy
    }

    /// Communication's share of the energy.
    pub fn comm_share(&self) -> Fraction {
        let total = self.total_energy();
        if total.is_zero() {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.comm_energy / total)
    }
}

impl EdgeCarbonEstimator {
    /// The paper's parameters: 3 W devices, 7.5 W routers, world-average
    /// grid intensity.
    pub fn paper_default() -> EdgeCarbonEstimator {
        EdgeCarbonEstimator {
            device_power: Power::from_watts(crate::constants::EDGE_DEVICE_TRAIN_WATTS),
            comm: CommModel::paper_default(),
            intensity: CarbonIntensity::WORLD_AVERAGE_2021,
        }
    }

    /// Estimates the footprint of a client log.
    pub fn estimate(&self, log: &ClientLog) -> EdgeCarbonBreakdown {
        let device_energy = self.device_power * log.total_compute();
        let comm_energy = self.comm.energy_for(log.total_communication());
        EdgeCarbonBreakdown {
            device_energy,
            comm_energy,
            co2: self.intensity.emissions(device_energy + comm_energy),
        }
    }
}

/// The centralized Transformer_Big baselines of Figure 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CentralizedBaseline {
    /// Transformer_Big on 8×P100 in a typical facility, standard grid.
    P100Base,
    /// Transformer_Big on TPUs in a hyperscale facility, standard grid.
    TpuBase,
    /// The P100 run powered by renewable energy.
    P100Green,
    /// The TPU run powered by renewable energy.
    TpuGreen,
}

impl CentralizedBaseline {
    /// All baselines, in Figure 11 order.
    pub const ALL: [CentralizedBaseline; 4] = [
        CentralizedBaseline::P100Base,
        CentralizedBaseline::TpuBase,
        CentralizedBaseline::P100Green,
        CentralizedBaseline::TpuGreen,
    ];

    /// Facility energy of the training run (IT × PUE): the P100 run follows
    /// Strubell et al.'s Transformer_Big measurement (~201 kWh IT, typical
    /// PUE), the TPU run is ~4× more efficient in a PUE-1.1 facility.
    pub fn facility_energy(&self) -> Energy {
        match self {
            CentralizedBaseline::P100Base | CentralizedBaseline::P100Green => {
                use crate::constants::{P100_FACILITY_PUE, P100_TRAIN_IT_KWH};
                Energy::from_kilowatt_hours(P100_TRAIN_IT_KWH * P100_FACILITY_PUE)
            }
            CentralizedBaseline::TpuBase | CentralizedBaseline::TpuGreen => {
                use crate::constants::{TPU_FACILITY_PUE, TPU_TRAIN_IT_KWH};
                Energy::from_kilowatt_hours(TPU_TRAIN_IT_KWH * TPU_FACILITY_PUE)
            }
        }
    }

    /// The grid intensity of the scenario.
    pub fn intensity(&self) -> CarbonIntensity {
        match self {
            CentralizedBaseline::P100Base | CentralizedBaseline::TpuBase => {
                CarbonIntensity::US_AVERAGE_2021
            }
            // Renewable supply: solar's life-cycle intensity.
            CentralizedBaseline::P100Green | CentralizedBaseline::TpuGreen => {
                CarbonIntensity::from_grams_per_kwh(crate::constants::SOLAR_LIFECYCLE_G_PER_KWH)
            }
        }
    }

    /// The baseline's training emissions.
    pub fn co2(&self) -> Co2e {
        self.intensity().emissions(self.facility_energy())
    }
}

impl fmt::Display for CentralizedBaseline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CentralizedBaseline::P100Base => "P100-Base",
            CentralizedBaseline::TpuBase => "TPU-Base",
            CentralizedBaseline::P100Green => "P100-Green",
            CentralizedBaseline::TpuGreen => "TPU-Green",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fl::FlApp;
    use crate::log::ClientLogEntry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustain_core::units::TimeSpan;

    #[test]
    fn estimator_matches_hand_calculation() {
        let mut log = ClientLog::ninety_day();
        log.push(ClientLogEntry {
            compute: TimeSpan::from_hours(1000.0),
            download: TimeSpan::from_hours(50.0),
            upload: TimeSpan::from_hours(50.0),
        });
        let est = EdgeCarbonEstimator::paper_default();
        let out = est.estimate(&log);
        // 1000 h × 3 W = 3 kWh; 100 h × 7.5 W = 0.75 kWh.
        assert!((out.device_energy.as_kilowatt_hours() - 3.0).abs() < 1e-9);
        assert!((out.comm_energy.as_kilowatt_hours() - 0.75).abs() < 1e-9);
        assert!((out.co2.as_grams() - 3.75 * 475.0).abs() < 1e-6);
        assert!((out.comm_share().value() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn fl_footprint_is_comparable_to_transformer_big() {
        // Figure 11's headline: the FL apps' carbon is comparable to training
        // an orders-of-magnitude larger Transformer centrally. A 1/50-scale
        // simulation is scaled back up for the comparison.
        let scale = 50.0;
        let app = FlApp::new(
            "FL-1-scaled",
            2_000 / 50,
            500,
            sustain_core::units::DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        );
        let log = app.simulate(&mut StdRng::seed_from_u64(11));
        let out = EdgeCarbonEstimator::paper_default().estimate(&log);
        let fl_co2 = out.co2 * scale;
        let p100 = CentralizedBaseline::P100Base.co2();
        let ratio = fl_co2 / p100;
        assert!(
            ratio > 0.5 && ratio < 5.0,
            "FL-1 {} vs P100-Base {} (ratio {ratio})",
            fl_co2,
            p100
        );
    }

    #[test]
    fn communication_is_a_significant_share() {
        // "the wireless communication energy cost takes up a significant
        // portion of the overall energy footprint of federated learning".
        let app = FlApp::new(
            "t",
            20,
            100,
            sustain_core::units::DataVolume::from_bytes(40e6),
            TimeSpan::from_minutes(4.0),
        );
        let log = app.simulate(&mut StdRng::seed_from_u64(12));
        let out = EdgeCarbonEstimator::paper_default().estimate(&log);
        assert!(
            out.comm_share().value() > 0.10,
            "share {}",
            out.comm_share()
        );
    }

    #[test]
    fn baseline_ordering_matches_fig11() {
        let p100 = CentralizedBaseline::P100Base.co2();
        let tpu = CentralizedBaseline::TpuBase.co2();
        let p100_green = CentralizedBaseline::P100Green.co2();
        let tpu_green = CentralizedBaseline::TpuGreen.co2();
        assert!(p100 > tpu, "P100 dirtier than TPU");
        assert!(tpu > p100_green, "green P100 beats grid TPU");
        assert!(p100_green > tpu_green);
        // Green energy cuts each baseline by ~10×.
        assert!(p100 / p100_green > 5.0);
    }

    #[test]
    fn empty_log_is_zero() {
        let est = EdgeCarbonEstimator::paper_default();
        let out = est.estimate(&ClientLog::ninety_day());
        assert!(out.total_energy().is_zero());
        assert!(out.co2.is_zero());
        assert_eq!(out.comm_share(), Fraction::ZERO);
    }

    #[test]
    fn display() {
        assert_eq!(CentralizedBaseline::P100Base.to_string(), "P100-Base");
    }
}
