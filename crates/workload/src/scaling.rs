//! Model/data scaling laws (Figure 2a and Figure 12).
//!
//! Two laws are modeled:
//!
//! * [`QualityScalingLaw`] — logarithmic quality-vs-size: each 10× in model
//!   size buys a fixed quality increment. Calibrated presets reproduce the
//!   paper's Figure 2a anchors (GPT-3-class BLEU 5→40 needs 1000×; Baidu's
//!   1000× buys +0.030 AUC).
//!
//! * [`RecsysScalingLaw`] — the Figure 12 normalized-entropy surface for
//!   recommendation models: NE falls with both data scale and model scale
//!   with strongly diminishing returns, while energy per training step grows.
//!   The calibration reproduces the paper's quantitative claims: the
//!   `(data 2×, model 2×)` *yellow star* uses ~4× less energy than the
//!   `(data 8×, model 16×)` *green star* at only +0.004 NE, and the
//!   quality-energy power law has an exponent in the 0.002–0.004 band.

use serde::{Deserialize, Serialize};

use sustain_core::units::Energy;

/// Logarithmic quality-vs-model-size law: `quality(p) = q0 + k·log10(p / p0)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualityScalingLaw {
    base_quality: f64,
    base_parameters: f64,
    quality_per_decade: f64,
}

impl QualityScalingLaw {
    /// Creates a law anchored at `(base_parameters, base_quality)` gaining
    /// `quality_per_decade` per 10× parameters.
    ///
    /// # Panics
    ///
    /// Panics if `base_parameters` is not positive.
    pub fn new(
        base_parameters: f64,
        base_quality: f64,
        quality_per_decade: f64,
    ) -> QualityScalingLaw {
        assert!(
            base_parameters > 0.0,
            "base parameter count must be positive"
        );
        QualityScalingLaw {
            base_quality,
            base_parameters,
            quality_per_decade,
        }
    }

    /// Figure 2a's translation anchor: BLEU 5 at the base size, BLEU 40 at
    /// 1000× — 35 BLEU over 3 decades.
    pub fn gpt3_bleu() -> QualityScalingLaw {
        QualityScalingLaw::new(1.25e8, 5.0, 35.0 / 3.0)
    }

    /// Figure 2a's search anchor: +0.030 AUC per 1000×.
    pub fn baidu_auc() -> QualityScalingLaw {
        QualityScalingLaw::new(1.0e9, 0.700, 0.010)
    }

    /// Quality at a parameter count.
    ///
    /// # Panics
    ///
    /// Panics if `parameters` is not positive.
    pub fn quality(&self, parameters: f64) -> f64 {
        assert!(parameters > 0.0, "parameter count must be positive");
        self.base_quality + self.quality_per_decade * (parameters / self.base_parameters).log10()
    }

    /// Parameters needed to reach a target quality (inverse of [`Self::quality`]).
    pub fn parameters_for(&self, quality: f64) -> f64 {
        self.base_parameters * 10f64.powf((quality - self.base_quality) / self.quality_per_decade)
    }
}

/// One evaluated point on the Figure 12 surface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPoint {
    /// Data scale relative to the baseline (1 = baseline).
    pub data_scale: f64,
    /// Model (embedding) scale relative to the baseline.
    pub model_scale: f64,
    /// Model error in normalized entropy (lower is better).
    pub normalized_entropy: f64,
    /// Energy per training step at this configuration.
    pub energy_per_step: Energy,
}

/// The Figure 12 normalized-entropy / energy surface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecsysScalingLaw {
    ne_floor: f64,
    coef_data: f64,
    coef_model: f64,
    exp_data: f64,
    exp_model: f64,
    base_energy: Energy,
    energy_exp_data: f64,
    energy_exp_model: f64,
}

impl RecsysScalingLaw {
    /// The calibration used in the paper-reproduction benches (see module docs).
    pub fn paper_default() -> RecsysScalingLaw {
        RecsysScalingLaw {
            ne_floor: 0.75,
            coef_data: 0.00683,
            coef_model: 0.00683,
            exp_data: 0.25,
            exp_model: 0.25,
            // lint:allow(magic-constant) unit-normalized base of the energy scaling law
            base_energy: Energy::from_kilowatt_hours(1.0),
            energy_exp_data: 0.4,
            energy_exp_model: 0.4,
        }
    }

    /// The yellow-star configuration: data 2×, model 2×.
    pub const YELLOW_STAR: (f64, f64) = (2.0, 2.0);
    /// The green-star configuration: data 8×, model 16×.
    pub const GREEN_STAR: (f64, f64) = (8.0, 16.0);

    /// Normalized entropy at a `(data_scale, model_scale)` configuration.
    ///
    /// # Panics
    ///
    /// Panics if either scale is not positive.
    pub fn normalized_entropy(&self, data_scale: f64, model_scale: f64) -> f64 {
        assert!(
            data_scale > 0.0 && model_scale > 0.0,
            "scales must be positive"
        );
        self.ne_floor
            + self.coef_data * data_scale.powf(-self.exp_data)
            + self.coef_model * model_scale.powf(-self.exp_model)
    }

    /// Energy per training step at a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either scale is not positive.
    pub fn energy_per_step(&self, data_scale: f64, model_scale: f64) -> Energy {
        assert!(
            data_scale > 0.0 && model_scale > 0.0,
            "scales must be positive"
        );
        self.base_energy
            * data_scale.powf(self.energy_exp_data)
            * model_scale.powf(self.energy_exp_model)
    }

    /// Evaluates one configuration.
    pub fn point(&self, data_scale: f64, model_scale: f64) -> ScalingPoint {
        ScalingPoint {
            data_scale,
            model_scale,
            normalized_entropy: self.normalized_entropy(data_scale, model_scale),
            energy_per_step: self.energy_per_step(data_scale, model_scale),
        }
    }

    /// The effective power-law exponent of quality vs energy between two
    /// configurations: `ε` such that `NE ∝ E^(−ε)`.
    pub fn effective_exponent(&self, a: (f64, f64), b: (f64, f64)) -> f64 {
        let pa = self.point(a.0, a.1);
        let pb = self.point(b.0, b.1);
        let ne_ratio = pb.normalized_entropy / pa.normalized_entropy;
        let e_ratio = pb.energy_per_step / pa.energy_per_step;
        -ne_ratio.ln() / e_ratio.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bleu_anchor_matches_fig2a() {
        let law = QualityScalingLaw::gpt3_bleu();
        let base = 1.25e8;
        assert!((law.quality(base) - 5.0).abs() < 1e-9);
        // 1000× larger → BLEU 40.
        assert!((law.quality(base * 1000.0) - 40.0).abs() < 1e-9);
        // Inverse agrees.
        assert!((law.parameters_for(40.0) / (base * 1000.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn auc_anchor_matches_fig2a() {
        let law = QualityScalingLaw::baidu_auc();
        let gain = law.quality(1.0e12) - law.quality(1.0e9);
        assert!((gain - 0.030).abs() < 1e-12);
    }

    #[test]
    fn ne_decreases_with_scale() {
        let law = RecsysScalingLaw::paper_default();
        let small = law.normalized_entropy(1.0, 1.0);
        let large = law.normalized_entropy(16.0, 16.0);
        assert!(large < small);
        assert!(large > 0.75, "never below the floor");
    }

    #[test]
    fn yellow_vs_green_star_matches_paper() {
        // "The yellow star consumes roughly 4× lower energy as compared to the
        // green star with only 0.004 model quality degradation."
        let law = RecsysScalingLaw::paper_default();
        let yellow = law.point(
            RecsysScalingLaw::YELLOW_STAR.0,
            RecsysScalingLaw::YELLOW_STAR.1,
        );
        let green = law.point(
            RecsysScalingLaw::GREEN_STAR.0,
            RecsysScalingLaw::GREEN_STAR.1,
        );
        let energy_ratio = green.energy_per_step / yellow.energy_per_step;
        let ne_gap = yellow.normalized_entropy - green.normalized_entropy;
        assert!(
            (energy_ratio - 4.0).abs() < 0.05,
            "energy ratio {energy_ratio}"
        );
        assert!((ne_gap - 0.004).abs() < 0.0005, "NE gap {ne_gap}");
    }

    #[test]
    fn power_law_exponent_in_published_band() {
        // "the power of the power law is extremely small (0.002-0.004)".
        let law = RecsysScalingLaw::paper_default();
        let eps =
            law.effective_exponent(RecsysScalingLaw::YELLOW_STAR, RecsysScalingLaw::GREEN_STAR);
        assert!(eps > 0.002 && eps < 0.0045, "exponent {eps}");
    }

    #[test]
    fn tandem_path_is_near_optimal() {
        // At equal energy, tandem scaling should be at least as good as
        // scaling only data or only model.
        let law = RecsysScalingLaw::paper_default();
        let tandem = law.point(4.0, 4.0);
        // Same energy with model-only scaling: (1, m) with m^0.4 = 16^0.4 → m=16.
        let model_only = law.point(1.0, 16.0);
        let data_only = law.point(16.0, 1.0);
        assert!(
            (model_only.energy_per_step / tandem.energy_per_step - 1.0).abs() < 1e-9,
            "configurations must be iso-energy"
        );
        assert!(tandem.normalized_entropy < model_only.normalized_entropy);
        assert!(tandem.normalized_entropy < data_only.normalized_entropy);
    }

    #[test]
    #[should_panic(expected = "scales must be positive")]
    fn rejects_zero_scale() {
        let _ = RecsysScalingLaw::paper_default().normalized_entropy(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn quality_rejects_zero_params() {
        let _ = QualityScalingLaw::gpt3_bleu().quality(0.0);
    }
}
