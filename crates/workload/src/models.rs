//! Model descriptors and the footprint registry behind Figure 4.
//!
//! Two families are modeled:
//!
//! * [`ProductionModel`] — the paper's six Facebook production models: **LM**
//!   (the Transformer-based universal language model) and **RM1–RM5** (deep
//!   learning recommendation and ranking models). The paper publishes only
//!   *relative* statements about their footprints; the absolute values here are
//!   synthesized to satisfy every published constraint simultaneously:
//!   - the fleet-average training footprint is ≈1.8× Meena's and ≈0.3× GPT-3's;
//!   - LM's footprint is inference-dominated (65 % inference / 35 % training);
//!   - each RM's footprint splits roughly evenly between training and inference;
//!   - recommendation models are online-trained, LM is not.
//!
//! * [`OssModel`] — the open-source comparison set with footprints as
//!   published by Patterson et al. (2021), which is also the paper's source.
//!   (The paper's text says "GPT-3 (750 billion parameters)"; the actual
//!   published GPT-3 size is 175 B, which is what we use.)

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::lifecycle::{Breakdown, MlPhase};
use sustain_core::units::{Co2e, Fraction};

/// Broad family of an ML model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ModelKind {
    /// Language / translation transformers.
    Language,
    /// Deep-learning recommendation and ranking models.
    Recommendation,
    /// Conversational agents.
    Conversational,
    /// Vision models.
    Vision,
    /// Speech models.
    Speech,
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModelKind::Language => "language",
            ModelKind::Recommendation => "recommendation",
            ModelKind::Conversational => "conversational",
            ModelKind::Vision => "vision",
            ModelKind::Speech => "speech",
        };
        f.write_str(name)
    }
}

/// A model descriptor: identity plus scale.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MlModel {
    name: String,
    kind: ModelKind,
    parameters: u64,
}

impl MlModel {
    /// Creates a descriptor.
    pub fn new(name: impl Into<String>, kind: ModelKind, parameters: u64) -> MlModel {
        MlModel {
            name: name.into(),
            kind,
            parameters,
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of trainable parameters.
    pub fn parameters(&self) -> u64 {
        self.parameters
    }
}

impl fmt::Display for MlModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.1}B params)",
            self.name,
            self.parameters as f64 / 1e9
        )
    }
}

/// The open-source large-scale models of Figure 4, with training energy and
/// operational CO₂e as published by Patterson et al. (2021).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OssModel {
    /// The Evolved-Transformer neural-architecture search (Strubell et al.'s
    /// grid-search estimate; the paper's "BERT-NAS" bar).
    BertNas,
    /// T5 (11 B parameters).
    T5,
    /// Meena, the conversational agent (2.6 B parameters).
    Meena,
    /// GShard-600B mixture-of-experts translation model.
    GShard600B,
    /// Switch Transformer (1.5 T parameters, sparsely activated).
    SwitchTransformer,
    /// GPT-3 (175 B parameters).
    Gpt3,
}

impl OssModel {
    /// All OSS models, in Figure 4 order.
    pub const ALL: [OssModel; 6] = [
        OssModel::BertNas,
        OssModel::T5,
        OssModel::Meena,
        OssModel::GShard600B,
        OssModel::SwitchTransformer,
        OssModel::Gpt3,
    ];

    /// The descriptor (name, kind, parameter count).
    pub fn model(&self) -> MlModel {
        match self {
            OssModel::BertNas => MlModel::new("BERT-NAS", ModelKind::Language, 110_000_000),
            OssModel::T5 => MlModel::new("T5", ModelKind::Language, 11_000_000_000),
            OssModel::Meena => MlModel::new("Meena", ModelKind::Conversational, 2_600_000_000),
            OssModel::GShard600B => {
                MlModel::new("GShard-600B", ModelKind::Language, 600_000_000_000)
            }
            OssModel::SwitchTransformer => {
                MlModel::new("Switch Transformer", ModelKind::Language, 1_500_000_000_000)
            }
            OssModel::Gpt3 => MlModel::new("GPT-3", ModelKind::Language, 175_000_000_000),
        }
    }

    /// Published operational training CO₂e (location-based).
    pub fn training_co2(&self) -> Co2e {
        let tonnes = match self {
            OssModel::BertNas => 284.0,
            OssModel::T5 => 46.7,
            OssModel::Meena => 96.4,
            OssModel::GShard600B => 4.3,
            OssModel::SwitchTransformer => 59.1,
            OssModel::Gpt3 => 552.1,
        };
        Co2e::from_tonnes(tonnes)
    }
}

impl fmt::Display for OssModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.model().name().to_string().as_str())
    }
}

/// The paper's six Facebook production models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ProductionModel {
    /// Transformer-based universal language model (XLM-R-class translation).
    Lm,
    /// Recommendation/ranking model 1.
    Rm1,
    /// Recommendation/ranking model 2.
    Rm2,
    /// Recommendation/ranking model 3.
    Rm3,
    /// Recommendation/ranking model 4.
    Rm4,
    /// Recommendation/ranking model 5.
    Rm5,
}

impl ProductionModel {
    /// All production models, in Figure 4 order.
    pub const ALL: [ProductionModel; 6] = [
        ProductionModel::Lm,
        ProductionModel::Rm1,
        ProductionModel::Rm2,
        ProductionModel::Rm3,
        ProductionModel::Rm4,
        ProductionModel::Rm5,
    ];

    /// The descriptor. Parameter counts are synthetic but shaped like the
    /// paper's claims: RMs are embedding-dominated and far larger than LM,
    /// and footprint does **not** correlate with parameter count.
    pub fn model(&self) -> MlModel {
        match self {
            ProductionModel::Lm => MlModel::new("LM", ModelKind::Language, 550_000_000),
            ProductionModel::Rm1 => MlModel::new("RM1", ModelKind::Recommendation, 760_000_000_000),
            ProductionModel::Rm2 => {
                MlModel::new("RM2", ModelKind::Recommendation, 1_100_000_000_000)
            }
            ProductionModel::Rm3 => MlModel::new("RM3", ModelKind::Recommendation, 460_000_000_000),
            ProductionModel::Rm4 => MlModel::new("RM4", ModelKind::Recommendation, 305_000_000_000),
            ProductionModel::Rm5 => MlModel::new("RM5", ModelKind::Recommendation, 95_000_000_000),
        }
    }

    /// Operational carbon by phase over one offline-training period
    /// (Figure 4's stacked bars), synthesized to satisfy the paper's
    /// published constraints (see module docs).
    pub fn footprint_by_phase(&self) -> Breakdown<Co2e> {
        let (offline, online, inference) = match self {
            ProductionModel::Lm => (120.0, 0.0, 222.9),
            ProductionModel::Rm1 => (80.0, 60.0, 140.0),
            ProductionModel::Rm2 => (130.0, 90.0, 220.0),
            ProductionModel::Rm3 => (100.0, 80.0, 180.0),
            ProductionModel::Rm4 => (120.0, 80.0, 200.0),
            ProductionModel::Rm5 => (90.0, 70.0, 160.0),
        };
        let mut b = Breakdown::zero();
        b[MlPhase::OfflineTraining] = Co2e::from_tonnes(offline);
        b[MlPhase::OnlineTraining] = Co2e::from_tonnes(online);
        b[MlPhase::Inference] = Co2e::from_tonnes(inference);
        b
    }

    /// Total training carbon (offline + online).
    pub fn training_co2(&self) -> Co2e {
        let b = self.footprint_by_phase();
        b[MlPhase::OfflineTraining] + b[MlPhase::OnlineTraining]
    }

    /// Total operational carbon.
    pub fn total_co2(&self) -> Co2e {
        self.footprint_by_phase().total()
    }

    /// Share of the operational footprint spent on training.
    pub fn training_share(&self) -> Fraction {
        Fraction::saturating(self.training_co2() / self.total_co2())
    }

    /// The Figure 5 overall footprint: operational (location-based) plus
    /// embodied carbon.
    ///
    /// The paper's measured aggregate relation is the calibration: across the
    /// large-scale ML tasks, "manufacturing carbon cost is roughly 50 % of
    /// the (location-based) operational carbon footprint" — the embodied side
    /// includes the training fleet, the inference fleet, and the storage/
    /// ingestion infrastructure behind each model, which is why it is far
    /// larger than a training-server-only amortization would suggest.
    pub fn overall_footprint(&self) -> sustain_core::footprint::CarbonFootprint {
        let operational = self.total_co2();
        sustain_core::footprint::CarbonFootprint::new(operational, operational * 0.5)
    }

    /// The Figure 5 carbon-free-energy scenario: operational carbon shrinks
    /// to the renewable life-cycle residual (~10 %), embodied is unchanged —
    /// manufacturing becomes the dominating source.
    pub fn overall_footprint_cfe(&self) -> sustain_core::footprint::CarbonFootprint {
        self.overall_footprint().scale_operational(0.10)
    }
}

impl fmt::Display for ProductionModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.model().name().to_string().as_str())
    }
}

/// The fleet-average training carbon across the six production models —
/// the quantity the paper compares to Meena (1.8×) and GPT-3 (~0.3×).
pub fn fleet_average_training_co2() -> Co2e {
    let total: Co2e = ProductionModel::ALL.iter().map(|m| m.training_co2()).sum();
    total / ProductionModel::ALL.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_average_matches_paper_ratios() {
        let avg = fleet_average_training_co2();
        let vs_meena = avg / OssModel::Meena.training_co2();
        let vs_gpt3 = avg / OssModel::Gpt3.training_co2();
        assert!((vs_meena - 1.8).abs() < 0.1, "vs Meena {vs_meena}");
        assert!((vs_gpt3 - 0.3).abs() < 0.05, "vs GPT-3 {vs_gpt3}");
    }

    #[test]
    fn lm_is_inference_dominated() {
        // Paper: LM uses 65% inference / 35% training.
        let share = ProductionModel::Lm.training_share().value();
        assert!((share - 0.35).abs() < 0.01, "training share {share}");
    }

    #[test]
    fn rms_split_roughly_evenly() {
        for rm in &ProductionModel::ALL[1..] {
            let share = rm.training_share().value();
            assert!(
                (share - 0.5).abs() < 0.05,
                "{rm} training share {share} not ~50/50"
            );
            assert!(
                rm.footprint_by_phase()[MlPhase::OnlineTraining] > Co2e::ZERO,
                "{rm} should online-train"
            );
        }
    }

    #[test]
    fn footprint_does_not_correlate_with_parameters() {
        // Switch Transformer (1.5T) emits far less than GPT-3 (175B).
        assert!(
            OssModel::SwitchTransformer.model().parameters() > OssModel::Gpt3.model().parameters()
        );
        assert!(OssModel::SwitchTransformer.training_co2() < OssModel::Gpt3.training_co2());
        // And RM2 (largest production model) is not the largest emitter ratio-wise.
        let rm2 = ProductionModel::Rm2;
        let rm5 = ProductionModel::Rm5;
        let param_ratio = rm2.model().parameters() as f64 / rm5.model().parameters() as f64;
        let co2_ratio = rm2.total_co2() / rm5.total_co2();
        assert!(param_ratio > 5.0 && co2_ratio < 2.0);
    }

    #[test]
    fn oss_registry_is_complete_and_positive() {
        for m in OssModel::ALL {
            assert!(m.training_co2() > Co2e::ZERO);
            assert!(m.model().parameters() > 0);
        }
        assert_eq!(OssModel::ALL.len(), 6);
    }

    #[test]
    fn gshard_is_the_cleanest_oss_run() {
        // TPUs on a clean grid: GShard's published footprint is the smallest.
        for m in OssModel::ALL {
            assert!(m.training_co2() >= OssModel::GShard600B.training_co2());
        }
    }

    #[test]
    fn production_footprints_are_consistent() {
        for m in ProductionModel::ALL {
            let b = m.footprint_by_phase();
            assert_eq!(m.total_co2(), b.total());
            assert_eq!(
                m.training_co2() + b[MlPhase::Inference],
                m.total_co2(),
                "{m} phases must partition the total"
            );
            // No production model trains during data-processing/experimentation
            // in this per-model ledger (those are fleet-level, Fig 3).
            assert!(b[MlPhase::DataProcessing].is_zero());
            assert!(b[MlPhase::Experimentation].is_zero());
        }
    }

    #[test]
    fn fig5_overall_footprint_split() {
        // "the split between the embodied and (location-based) operational
        // carbon footprint is roughly 30% / 70%".
        for m in ProductionModel::ALL {
            let fp = m.overall_footprint();
            let share = fp.embodied_share().value();
            assert!(
                (share - 1.0 / 3.0).abs() < 0.01,
                "{m} embodied share {share}"
            );
        }
    }

    #[test]
    fn fig5_cfe_makes_embodied_dominant() {
        for m in ProductionModel::ALL {
            let fp = m.overall_footprint_cfe();
            assert!(
                fp.embodied_share().value() > 0.5,
                "{m} embodied must dominate under CFE"
            );
            assert_eq!(fp.embodied(), m.overall_footprint().embodied());
        }
    }

    #[test]
    fn display_and_descriptor() {
        assert_eq!(ProductionModel::Lm.to_string(), "LM");
        assert_eq!(OssModel::Gpt3.to_string(), "GPT-3");
        let d = OssModel::Gpt3.model();
        assert_eq!(d.parameters(), 175_000_000_000);
        assert!(d.to_string().contains("175.0B"));
        assert_eq!(ModelKind::Recommendation.to_string(), "recommendation");
    }
}
