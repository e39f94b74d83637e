//! Exponential growth trends behind Figure 2 (b)–(d).
//!
//! The paper's growth facts, each encoded as a calibrated [`GrowthTrend`]:
//!
//! * training data for two recommendation use cases grew **2.4×** and **1.9×**
//!   over two years (2019–2021), reaching exabyte scale;
//! * data-ingestion bandwidth demand grew **3.2×** over the same period;
//! * recommendation-model sizes grew **20×**;
//! * AI training infrastructure capacity grew **2.9×** and inference capacity
//!   **2.5×** over 1.5 years.

use serde::{Deserialize, Serialize};

use sustain_core::units::{DataVolume, TimeSpan};

/// An exponential growth trend: `value(t) = start × factor^(t / period)`.
///
/// ```rust
/// use sustain_workload::datagrowth::GrowthTrend;
/// use sustain_core::units::TimeSpan;
///
/// let data = GrowthTrend::recsys_data_primary();
/// assert!((data.factor_over(TimeSpan::from_years(2.0)) - 2.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrowthTrend {
    start: f64,
    factor: f64,
    period: TimeSpan,
}

impl GrowthTrend {
    /// Creates a trend from a starting value and a growth factor per period.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `factor` is not positive, or `period` is not positive.
    pub fn new(start: f64, factor: f64, period: TimeSpan) -> GrowthTrend {
        assert!(start > 0.0, "start must be positive");
        assert!(factor > 0.0, "factor must be positive");
        assert!(period.as_secs() > 0.0, "period must be positive");
        GrowthTrend {
            start,
            factor,
            period,
        }
    }

    /// Fig 2b: primary recommendation use case — 2.4× data over 2 years,
    /// starting from 1 exabyte (normalized to the paper's "exabyte scale").
    pub fn recsys_data_primary() -> GrowthTrend {
        GrowthTrend::new(1.0, 2.4, TimeSpan::from_years(2.0))
    }

    /// Fig 2b: second recommendation use case — 1.9× over 2 years.
    pub fn recsys_data_secondary() -> GrowthTrend {
        GrowthTrend::new(0.6, 1.9, TimeSpan::from_years(2.0))
    }

    /// Fig 2b: data-ingestion bandwidth demand — 3.2× over 2 years.
    pub fn ingestion_bandwidth() -> GrowthTrend {
        GrowthTrend::new(1.0, 3.2, TimeSpan::from_years(2.0))
    }

    /// Fig 2c: recommendation model size — 20× over 2 years.
    pub fn rm_model_size() -> GrowthTrend {
        GrowthTrend::new(1.0, 20.0, TimeSpan::from_years(2.0))
    }

    /// Fig 2d: AI training capacity — 2.9× over 1.5 years.
    pub fn training_capacity() -> GrowthTrend {
        GrowthTrend::new(1.0, 2.9, TimeSpan::from_years(1.5))
    }

    /// Fig 2d: AI inference capacity — 2.5× over 1.5 years.
    pub fn inference_capacity() -> GrowthTrend {
        GrowthTrend::new(1.0, 2.5, TimeSpan::from_years(1.5))
    }

    /// The multiplicative growth over an arbitrary span.
    pub fn factor_over(&self, span: TimeSpan) -> f64 {
        self.factor.powf(span / self.period)
    }
}

/// The Figure 2b data series in physical units: data volume reaching exabyte
/// scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestionDemand {
    data_trend: GrowthTrend,
    base_volume: DataVolume,
}

impl IngestionDemand {
    /// The paper's calibration: 1 EB of training data at the 2019 baseline.
    pub fn paper_default() -> IngestionDemand {
        IngestionDemand {
            data_trend: GrowthTrend::recsys_data_primary(),
            base_volume: DataVolume::from_exabytes(1.0),
        }
    }

    /// Training-data volume at elapsed time `t`.
    pub fn volume_at(&self, t: TimeSpan) -> DataVolume {
        self.base_volume * self.data_trend.factor_over(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_growth_factors() {
        let two_years = TimeSpan::from_years(2.0);
        assert!((GrowthTrend::recsys_data_primary().factor_over(two_years) - 2.4).abs() < 1e-9);
        assert!((GrowthTrend::recsys_data_secondary().factor_over(two_years) - 1.9).abs() < 1e-9);
        assert!((GrowthTrend::ingestion_bandwidth().factor_over(two_years) - 3.2).abs() < 1e-9);
        assert!((GrowthTrend::rm_model_size().factor_over(two_years) - 20.0).abs() < 1e-9);
        let infra = TimeSpan::from_years(1.5);
        assert!((GrowthTrend::training_capacity().factor_over(infra) - 2.9).abs() < 1e-9);
        assert!((GrowthTrend::inference_capacity().factor_over(infra) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn model_growth_outpaces_hardware_memory() {
        // Paper: RM sizes grew 20×/2y while accelerator memory grew <2×/2y —
        // strong-scaling demand outpaces hardware.
        let model_2y = GrowthTrend::rm_model_size().factor_over(TimeSpan::from_years(2.0));
        let hbm_2y: f64 = (80.0f64 / 32.0).powf(2.0 / 3.0); // V100→A100 over 3y
        assert!(model_2y > 10.0 * hbm_2y);
    }

    #[test]
    fn ingestion_demand_reaches_exabyte_scale() {
        let d = IngestionDemand::paper_default();
        let vol = d.volume_at(TimeSpan::from_years(2.0));
        assert!((vol.as_exabytes() - 2.4).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn rejects_non_positive_factor() {
        let _ = GrowthTrend::new(1.0, 0.0, TimeSpan::from_years(1.0));
    }
}
