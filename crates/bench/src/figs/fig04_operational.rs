//! Figure 4: operational carbon footprint of production and OSS ML tasks.

use sustain_core::lifecycle::MlPhase;
use sustain_workload::models::{fleet_average_training_co2, OssModel, ProductionModel};

use crate::table::{num, Table};

/// Generates the Figure 4 table: per-model stacked bars plus the OSS
/// comparison set.
pub fn generate() -> Table {
    let mut table = Table::new(
        "Figure 4: operational carbon footprint of large-scale ML tasks (tCO2e)",
        &[
            "model",
            "offline",
            "online",
            "inference",
            "total",
            "train share",
        ],
    );
    for m in ProductionModel::ALL {
        let b = m.footprint_by_phase();
        table.row(&[
            m.to_string(),
            num(b[MlPhase::OfflineTraining].as_tonnes(), 0),
            num(b[MlPhase::OnlineTraining].as_tonnes(), 0),
            num(b[MlPhase::Inference].as_tonnes(), 0),
            num(m.total_co2().as_tonnes(), 0),
            format!("{:.0}%", m.training_share().as_percent()),
        ]);
    }
    for m in OssModel::ALL {
        table.row(&[
            format!("{m} (OSS)"),
            num(m.training_co2().as_tonnes(), 1),
            "-".into(),
            "-".into(),
            num(m.training_co2().as_tonnes(), 1),
            "training only".into(),
        ]);
    }
    let avg = fleet_average_training_co2();
    table.claim(format!(
        "fleet avg training = {} = {:.2}x Meena, {:.2}x GPT-3 (paper: 1.8x, ~0.3x)",
        avg,
        avg / OssModel::Meena.training_co2(),
        avg / OssModel::Gpt3.training_co2()
    ));
    table.claim("paper: LM inference-dominated (65/35); RMs split ~evenly");
    table.claim("paper: footprint does not correlate with parameter count");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_models_in_the_figure() {
        assert_eq!(generate().rows().len(), 12);
    }

    #[test]
    fn fleet_average_claims_hold() {
        let avg = fleet_average_training_co2();
        assert!((avg / OssModel::Meena.training_co2() - 1.8).abs() < 0.1);
        assert!((avg / OssModel::Gpt3.training_co2() - 0.3).abs() < 0.05);
    }

    #[test]
    fn lm_row_is_inference_dominated() {
        let lm = ProductionModel::Lm;
        assert!(lm.footprint_by_phase()[MlPhase::Inference] > lm.training_co2());
    }
}
