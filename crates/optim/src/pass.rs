//! Composable optimization passes and the Figure 7 waterfall.
//!
//! Each pass multiplies energy efficiency by a factor; a [`Pipeline`]
//! compounds them. The LM presets reproduce the paper's published factors:
//! platform-level caching **6.7×**, GPU acceleration **10.1×**, low-precision
//! **2.4×**, operator fusion (custom kernels) **5×** — in aggregate **>800×**.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::Energy;

/// A named energy-efficiency optimization with a multiplicative gain.
pub trait OptimizationPass {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// Energy-efficiency gain factor (≥ 1 improves efficiency).
    fn gain(&self) -> f64;

    /// Energy after applying this pass to `input` energy.
    fn apply(&self, input: Energy) -> Energy {
        input / self.gain()
    }
}

/// A pass defined by a fixed, measured gain factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredPass {
    name: String,
    gain: f64,
}

impl MeasuredPass {
    /// Creates a pass with a measured gain.
    ///
    /// # Panics
    ///
    /// Panics unless `gain` is positive and finite.
    pub fn new(name: impl Into<String>, gain: f64) -> MeasuredPass {
        assert!(gain.is_finite() && gain > 0.0, "gain must be positive");
        MeasuredPass {
            name: name.into(),
            gain,
        }
    }

    /// Fig 7: application-level caching of pre-computed embeddings (6.7×).
    pub fn platform_caching() -> MeasuredPass {
        MeasuredPass::new("platform-level caching", 6.7)
    }

    /// Fig 7: deployment on GPU-based AI hardware (10.1×).
    pub fn gpu_acceleration() -> MeasuredPass {
        MeasuredPass::new("gpu acceleration", 10.1)
    }

    /// Fig 7: fp32 → fp16 on the accelerator (2.4×).
    pub fn low_precision() -> MeasuredPass {
        MeasuredPass::new("low precision (fp16)", 2.4)
    }

    /// Fig 7: custom single-kernel Transformer encoding (5×).
    pub fn operator_fusion() -> MeasuredPass {
        MeasuredPass::new("operator fusion", 5.0)
    }
}

impl OptimizationPass for MeasuredPass {
    fn name(&self) -> &str {
        &self.name
    }

    fn gain(&self) -> f64 {
        self.gain
    }
}

impl fmt::Display for MeasuredPass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.1}x)", self.name, self.gain)
    }
}

/// One step of a rendered waterfall.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaterfallStep {
    /// Pass name.
    pub name: String,
    /// This pass's own gain.
    pub gain: f64,
    /// Gain compounded from the start of the pipeline through this pass.
    pub cumulative_gain: f64,
    /// Energy remaining after this pass, for the pipeline's input energy.
    pub energy_after: Energy,
}

/// An ordered sequence of optimization passes.
///
/// ```rust
/// use sustain_optim::pass::Pipeline;
/// use sustain_core::units::Energy;
///
/// let pipeline = Pipeline::lm_paper();
/// let optimized = Energy::from_megawatt_hours(812.0) / pipeline.total_gain();
/// assert!((optimized.as_megawatt_hours() - 1.0).abs() < 0.02);
/// ```
#[derive(Debug, Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn OptimizationPass + Send + Sync>>,
}

impl fmt::Debug for Box<dyn OptimizationPass + Send + Sync> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.2}x)", self.name(), self.gain())
    }
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// The paper's LM optimization pipeline (Fig 7).
    pub fn lm_paper() -> Pipeline {
        let mut p = Pipeline::new();
        p.push(MeasuredPass::platform_caching());
        p.push(MeasuredPass::gpu_acceleration());
        p.push(MeasuredPass::low_precision());
        p.push(MeasuredPass::operator_fusion());
        p
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl OptimizationPass + Send + Sync + 'static) -> &mut Pipeline {
        self.passes.push(Box::new(pass));
        self
    }

    /// The compounded gain of all passes.
    pub fn total_gain(&self) -> f64 {
        self.passes.iter().map(|p| p.gain()).product()
    }

    /// Renders the per-step waterfall for a given input energy.
    ///
    /// Records an `optim.pipeline.waterfall` span on the ambient
    /// [`sustain_obs::handle`], crediting one work unit per pass — a no-op
    /// unless that handle records.
    pub fn waterfall(&self, input: Energy) -> Vec<WaterfallStep> {
        let obs = sustain_obs::handle();
        let _span = obs.span("optim.pipeline.waterfall");
        let mut cumulative = 1.0;
        let steps = self
            .passes
            .iter()
            .map(|p| {
                cumulative *= p.gain();
                WaterfallStep {
                    name: p.name().to_owned(),
                    gain: p.gain(),
                    cumulative_gain: cumulative,
                    energy_after: input / cumulative,
                }
            })
            .collect();
        obs.add_work(self.passes.len() as u64);
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lm_pipeline_exceeds_800x() {
        // Paper: "the optimizations reduce the infrastructure resources
        // required to serve LM at scale by over 800×" (6.7 × 10.1 × 2.4 × 5 ≈ 812).
        let gain = Pipeline::lm_paper().total_gain();
        assert!(gain > 800.0, "gain {gain}");
        assert!(gain < 830.0, "gain {gain}");
    }

    #[test]
    fn waterfall_steps_compound() {
        let p = Pipeline::lm_paper();
        let input = Energy::from_megawatt_hours(812.0);
        let steps = p.waterfall(input);
        assert_eq!(steps.len(), 4);
        assert!((steps[0].cumulative_gain - 6.7).abs() < 1e-9);
        assert!((steps[1].cumulative_gain - 6.7 * 10.1).abs() < 1e-9);
        // Final energy ≈ input / 812.
        let last = steps.last().unwrap();
        assert!((last.energy_after.as_megawatt_hours() - 1.0).abs() < 0.02);
        // Monotone decreasing energy.
        for w in steps.windows(2) {
            assert!(w[1].energy_after < w[0].energy_after);
        }
    }

    #[test]
    fn individual_pass_factors_match_paper() {
        assert!((MeasuredPass::platform_caching().gain() - 6.7).abs() < 1e-12);
        assert!((MeasuredPass::gpu_acceleration().gain() - 10.1).abs() < 1e-12);
        assert!((MeasuredPass::low_precision().gain() - 2.4).abs() < 1e-12);
        assert!((MeasuredPass::operator_fusion().gain() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn algorithmic_block_is_12x() {
        // Paper: "algorithmic optimizations provide an additional 12× energy
        // efficiency reduction" = low precision (2.4×) × fused kernels (5×).
        let combined =
            MeasuredPass::low_precision().gain() * MeasuredPass::operator_fusion().gain();
        assert!((combined - 12.0).abs() < 1e-9);
    }

    #[test]
    fn apply_divides_energy() {
        let pass = MeasuredPass::new("x", 4.0);
        let out = pass.apply(Energy::from_joules(100.0));
        assert_eq!(out, Energy::from_joules(25.0));
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let p = Pipeline::new();
        assert_eq!(p.total_gain(), 1.0);
        assert!(p.waterfall(Energy::from_joules(5.0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "gain must be positive")]
    fn rejects_non_positive_gain() {
        let _ = MeasuredPass::new("bad", 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(
            MeasuredPass::platform_caching().to_string(),
            "platform-level caching (6.7x)"
        );
    }
}
