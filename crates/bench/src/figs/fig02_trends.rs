//! Figure 2: the growth of data, models, and AI infrastructure.

use sustain_core::units::TimeSpan;
use sustain_telemetry::device::DeviceSpec;
use sustain_workload::datagrowth::{GrowthTrend, IngestionDemand};
use sustain_workload::scaling::QualityScalingLaw;

use crate::table::Table;

/// Generates the Figure 2 panels as one table of trends.
pub fn generate() -> Table {
    let mut table = Table::new(
        "Figure 2: growth of AI data, models, and infrastructure",
        &["panel", "series", "growth", "period"],
    );
    let two_years = TimeSpan::from_years(2.0);
    let infra = TimeSpan::from_years(1.5);

    // Panel (a): model-size scaling for quality.
    let bleu = QualityScalingLaw::gpt3_bleu();
    let factor = bleu.parameters_for(40.0) / bleu.parameters_for(5.0);
    table.row(&[
        "2a".into(),
        "model size for BLEU 5 -> 40".into(),
        format!("{:.0}x", factor),
        "-".into(),
    ]);
    let auc = QualityScalingLaw::baidu_auc();
    table.row(&[
        "2a".into(),
        "AUC gain from 1000x model".into(),
        format!("+{:.3}", auc.quality(1e12) - auc.quality(1e9)),
        "-".into(),
    ]);

    // Panel (b): data growth + ingestion bandwidth.
    for (name, trend, period) in [
        (
            "recsys data (use case 1)",
            GrowthTrend::recsys_data_primary(),
            two_years,
        ),
        (
            "recsys data (use case 2)",
            GrowthTrend::recsys_data_secondary(),
            two_years,
        ),
        (
            "ingestion bandwidth",
            GrowthTrend::ingestion_bandwidth(),
            two_years,
        ),
        ("RM model size", GrowthTrend::rm_model_size(), two_years),
        ("training capacity", GrowthTrend::training_capacity(), infra),
        (
            "inference capacity",
            GrowthTrend::inference_capacity(),
            infra,
        ),
    ] {
        let panel = match name {
            "recsys data (use case 1)" | "recsys data (use case 2)" | "ingestion bandwidth" => "2b",
            "RM model size" => "2c",
            _ => "2d",
        };
        table.row(&[
            panel.into(),
            name.into(),
            format!("{:.1}x", trend.factor_over(period)),
            format!("{:.1}y", period.as_years()),
        ]);
    }

    let demand = IngestionDemand::paper_default();
    table.claim(format!(
        "data volume at +2y: {} (exabyte scale)",
        demand.volume_at(two_years)
    ));
    let memory = |spec: DeviceSpec| spec.memory_gb().expect("accelerators list their memory");
    table.claim(format!(
        "accelerator memory growth per 2y (V100->A100): {:.2}x (< 2x)",
        (memory(DeviceSpec::A100) / memory(DeviceSpec::V100)).powf(2.0 / 3.0)
    ));
    table
        .claim("paper: 2.4x/1.9x data, 3.2x bandwidth, 20x RM size, 2.9x/2.5x capacity".to_owned());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_a_reproduces_1000x_for_bleu_35() {
        let bleu = QualityScalingLaw::gpt3_bleu();
        let factor = bleu.parameters_for(40.0) / bleu.parameters_for(5.0);
        assert!((factor - 1000.0).abs() / 1000.0 < 1e-9);
    }

    #[test]
    fn table_covers_all_four_panels() {
        let t = generate();
        for panel in ["2a", "2b", "2c", "2d"] {
            assert!(
                t.rows().iter().any(|r| r[0] == panel),
                "panel {panel} missing"
            );
        }
    }
}
