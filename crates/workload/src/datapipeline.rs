//! The data storage and ingestion pipeline's energy (§I, Fig 3b).
//!
//! "The increase in data size has led to a 3.2× increase in data ingestion
//! bandwidth demand. Given this increase, data storage and the ingestion
//! pipeline accounts for a significant portion of the infrastructure and
//! power capacity compared to ML training" — RM1's end-to-end energy is 31 %
//! data. This module gives that 31 % a bottom-up model: storage tiers with
//! per-petabyte power/embodied characteristics, plus a preprocessing tier
//! whose power scales with ingestion bandwidth.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::{Co2e, DataRate, DataVolume, Fraction, Power};

/// Storage media with distinct power/embodied profiles — the paper notes the
/// environmental characteristics of SSD/NAND-flash/HDD technologies differ by
/// orders of magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StorageMedia {
    /// Spinning disk: cheap embodied, higher operating power.
    Hdd,
    /// NAND-flash SSD: high embodied carbon per byte, lower operating power.
    Ssd,
}

impl StorageMedia {
    /// Operating power per petabyte stored (drives + enclosures + fans).
    pub fn power_per_pb(&self) -> Power {
        match self {
            StorageMedia::Hdd => Power::from_watts(crate::constants::HDD_POWER_PER_PB_WATTS),
            StorageMedia::Ssd => Power::from_watts(crate::constants::SSD_POWER_PER_PB_WATTS),
        }
    }

    /// Embodied carbon per petabyte deployed.
    pub fn embodied_per_pb(&self) -> Co2e {
        match self {
            // NAND fabrication dominates: flash embodied ≫ HDD per byte.
            StorageMedia::Hdd => Co2e::from_tonnes(crate::constants::HDD_EMBODIED_PER_PB_TONNES),
            StorageMedia::Ssd => Co2e::from_tonnes(crate::constants::SSD_EMBODIED_PER_PB_TONNES),
        }
    }
}

impl fmt::Display for StorageMedia {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageMedia::Hdd => f.write_str("hdd"),
            StorageMedia::Ssd => f.write_str("ssd"),
        }
    }
}

/// A data storage + ingestion pipeline configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DataPipeline {
    stored: DataVolume,
    hot_fraction: Fraction,
    ingestion: DataRate,
    preprocess_joules_per_byte: f64,
}

impl DataPipeline {
    /// Creates a pipeline: `stored` bytes (of which `hot_fraction` sits on
    /// SSD, the rest on HDD), ingesting at `ingestion` with
    /// `preprocess_joules_per_byte` of CPU preprocessing energy per byte.
    ///
    /// # Panics
    ///
    /// Panics if `preprocess_joules_per_byte` is negative.
    pub fn new(
        stored: DataVolume,
        hot_fraction: Fraction,
        ingestion: DataRate,
        preprocess_joules_per_byte: f64,
    ) -> DataPipeline {
        assert!(
            preprocess_joules_per_byte >= 0.0,
            "preprocessing energy must be non-negative"
        );
        DataPipeline {
            stored,
            hot_fraction,
            ingestion,
            preprocess_joules_per_byte,
        }
    }

    /// An RM1-scale pipeline: 1 EB stored (20 % hot), 3.2 TB/s ingestion,
    /// 200 nJ/byte preprocessing — calibrated so the data stage carries
    /// ≈31 % of the end-to-end RM1 energy (Fig 3b).
    pub fn rm1_scale() -> DataPipeline {
        DataPipeline::new(
            DataVolume::from_exabytes(1.0),
            Fraction::saturating(0.20),
            DataRate::from_gigabytes_per_sec(3200.0),
            200e-9,
        )
    }

    /// Continuous storage power (hot tier + cold tier).
    pub fn storage_power(&self) -> Power {
        let pb = self.stored.as_petabytes();
        let hot = pb * self.hot_fraction.value();
        let cold = pb - hot;
        StorageMedia::Ssd.power_per_pb() * hot + StorageMedia::Hdd.power_per_pb() * cold
    }

    /// Continuous preprocessing power at the configured ingestion rate.
    pub fn preprocessing_power(&self) -> Power {
        Power::from_watts(self.ingestion.as_bytes_per_sec() * self.preprocess_joules_per_byte)
    }

    /// Total continuous pipeline power.
    pub fn total_power(&self) -> Power {
        self.storage_power() + self.preprocessing_power()
    }

    /// Embodied carbon of the storage deployment.
    pub fn storage_embodied(&self) -> Co2e {
        let pb = self.stored.as_petabytes();
        let hot = pb * self.hot_fraction.value();
        let cold = pb - hot;
        StorageMedia::Ssd.embodied_per_pb() * hot + StorageMedia::Hdd.embodied_per_pb() * cold
    }

    /// The data stage's share of an end-to-end pipeline whose
    /// experimentation+training and inference stages draw the given powers.
    pub fn share_of_pipeline(&self, training: Power, inference: Power) -> Fraction {
        let total = self.total_power() + training + inference;
        if total.is_zero() {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.total_power() / total)
    }

    /// Scales the pipeline along the Fig 2b growth trends: data volume by
    /// `data_factor` and ingestion bandwidth by `bandwidth_factor`.
    pub fn grown(&self, data_factor: f64, bandwidth_factor: f64) -> DataPipeline {
        DataPipeline {
            stored: self.stored * data_factor,
            hot_fraction: self.hot_fraction,
            ingestion: self.ingestion * bandwidth_factor,
            preprocess_joules_per_byte: self.preprocess_joules_per_byte,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm1_scale_data_share_is_about_31_percent() {
        // Fig 3b: Data : Exp+Train : Inference = 31 : 29 : 40. With the data
        // stage modeled bottom-up, back out the published ratios for the
        // other two stages and confirm the share lands on 31%.
        let pipeline = DataPipeline::rm1_scale();
        let data = pipeline.total_power();
        let training = data * (29.0 / 31.0);
        let inference = data * (40.0 / 31.0);
        let share = pipeline.share_of_pipeline(training, inference);
        assert!((share.value() - 0.31).abs() < 0.005, "share {share}");
    }

    #[test]
    fn rm1_pipeline_power_is_megawatt_scale() {
        let p = DataPipeline::rm1_scale();
        let mw = p.total_power().as_megawatts();
        assert!(mw > 0.5 && mw < 5.0, "pipeline power {mw} MW");
        // Preprocessing and storage both matter.
        assert!(p.preprocessing_power() > p.storage_power() * 0.3);
        assert!(p.storage_power() > p.preprocessing_power() * 0.3);
    }

    #[test]
    fn ssd_and_hdd_profiles_differ_as_published() {
        // Flash: far higher embodied per byte, lower operating power.
        assert!(StorageMedia::Ssd.embodied_per_pb() > StorageMedia::Hdd.embodied_per_pb() * 5.0);
        assert!(StorageMedia::Ssd.power_per_pb() < StorageMedia::Hdd.power_per_pb());
    }

    #[test]
    fn growth_raises_power_superlinearly_in_bandwidth() {
        // Fig 2b: data 2.4x but bandwidth 3.2x — preprocessing power grows
        // faster than storage power.
        let base = DataPipeline::rm1_scale();
        let grown = base.grown(2.4, 3.2);
        let storage_ratio = grown.storage_power() / base.storage_power();
        let prep_ratio = grown.preprocessing_power() / base.preprocessing_power();
        assert!((storage_ratio - 2.4).abs() < 1e-9);
        assert!((prep_ratio - 3.2).abs() < 1e-9);
        assert!(grown.total_power() / base.total_power() > 2.4);
    }

    #[test]
    fn hot_tier_shifts_power_and_embodied() {
        let cold_only = DataPipeline::new(
            DataVolume::from_petabytes(100.0),
            Fraction::ZERO,
            DataRate::from_gigabytes_per_sec(1.0),
            0.0,
        );
        let hot_only = DataPipeline::new(
            DataVolume::from_petabytes(100.0),
            Fraction::ONE,
            DataRate::from_gigabytes_per_sec(1.0),
            0.0,
        );
        assert!(hot_only.storage_power() < cold_only.storage_power());
        assert!(hot_only.storage_embodied() > cold_only.storage_embodied());
    }

    #[test]
    fn zero_pipeline_share_is_zero() {
        let p = DataPipeline::new(
            DataVolume::from_bytes(0.0),
            Fraction::ZERO,
            DataRate::from_bytes_per_sec(0.0),
            0.0,
        );
        assert_eq!(
            p.share_of_pipeline(Power::ZERO, Power::ZERO),
            Fraction::ZERO
        );
    }
}
