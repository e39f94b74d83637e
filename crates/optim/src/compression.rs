//! Memory-efficient embedding architectures: TT-Rec and DHE (§IV-B).
//!
//! "The Tensor-Train compression technique (TT-Rec) achieves more than 100×
//! memory capacity reduction with negligible training time and accuracy
//! trade-off. Similarly, the design space trade-off between memory capacity
//! requirement, training time, and model accuracy is also explored in Deep
//! Hash Embedding (DHE). ... the memory-efficient model architectures require
//! significantly lower memory capacity while better utilizing the
//! computational capability of training accelerators, resulting in lower
//! embodied carbon footprint."
//!
//! The model: each technique trades embedding *memory* for extra *compute*
//! per lookup. Lower memory means fewer/lower-capacity training systems
//! (embodied win); extra compute means longer training (operational cost).

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::DataVolume;
use sustain_workload::recsys::DlrmConfig;

/// An embedding compression technique.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum CompressionTechnique {
    /// Uncompressed embedding tables.
    None,
    /// Tensor-Train factorization of the embedding tables.
    TtRec {
        /// Memory-capacity reduction factor (paper: > 100×).
        memory_reduction: f64,
        /// Training-time multiplier (paper: "negligible" — ≈1.0–1.15).
        training_time_multiplier: f64,
    },
    /// Deep Hash Embedding: tables replaced by a hash + MLP decoder.
    Dhe {
        /// Memory-capacity reduction factor.
        memory_reduction: f64,
        /// Training-time multiplier (DHE trains slower per step).
        training_time_multiplier: f64,
    },
}

impl CompressionTechnique {
    /// The published TT-Rec operating point.
    pub fn tt_rec_paper() -> CompressionTechnique {
        CompressionTechnique::TtRec {
            memory_reduction: 112.0,
            training_time_multiplier: 1.1,
        }
    }

    /// A DHE operating point consistent with the published trade-off space.
    pub fn dhe_paper() -> CompressionTechnique {
        CompressionTechnique::Dhe {
            memory_reduction: 50.0,
            training_time_multiplier: 1.35,
        }
    }

    /// The memory-reduction factor (1.0 for no compression).
    pub fn memory_reduction(&self) -> f64 {
        match self {
            CompressionTechnique::None => 1.0,
            CompressionTechnique::TtRec {
                memory_reduction, ..
            }
            | CompressionTechnique::Dhe {
                memory_reduction, ..
            } => *memory_reduction,
        }
    }

    /// The training-time multiplier (1.0 for no compression).
    pub fn training_time_multiplier(&self) -> f64 {
        match self {
            CompressionTechnique::None => 1.0,
            CompressionTechnique::TtRec {
                training_time_multiplier,
                ..
            }
            | CompressionTechnique::Dhe {
                training_time_multiplier,
                ..
            } => *training_time_multiplier,
        }
    }
}

impl fmt::Display for CompressionTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressionTechnique::None => f.write_str("none"),
            CompressionTechnique::TtRec { .. } => f.write_str("tt-rec"),
            CompressionTechnique::Dhe { .. } => f.write_str("dhe"),
        }
    }
}

/// The effect of a compression technique on a DLRM deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Embedding memory before.
    pub memory_before: DataVolume,
    /// Embedding memory after.
    pub memory_after: DataVolume,
    /// Relative training time (1.0 = uncompressed).
    pub training_time: f64,
    /// Training systems needed, relative to uncompressed (driven by memory
    /// capacity, the binding constraint for RMs).
    pub relative_systems: f64,
}

impl CompressionReport {
    /// Relative embodied footprint (proportional to systems deployed).
    pub fn relative_embodied(&self) -> f64 {
        self.relative_systems
    }

    /// Relative operational footprint (proportional to training time).
    pub fn relative_operational(&self) -> f64 {
        self.training_time
    }
}

/// Applies a technique to a DLRM whose training fleet is sized by memory
/// capacity: `per_system_memory` of embedding fits on one system.
///
/// # Panics
///
/// Panics if `per_system_memory` is not positive.
pub fn apply(
    config: &DlrmConfig,
    technique: CompressionTechnique,
    per_system_memory: DataVolume,
) -> CompressionReport {
    assert!(
        per_system_memory.as_bytes() > 0.0,
        "per-system memory must be positive"
    );
    let before = config.embedding_size();
    let after = before / technique.memory_reduction();
    let systems_before = (before / per_system_memory).ceil().max(1.0);
    let systems_after = (after / per_system_memory).ceil().max(1.0);
    CompressionReport {
        memory_before: before,
        memory_after: after,
        training_time: technique.training_time_multiplier(),
        relative_systems: systems_after / systems_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rm() -> DlrmConfig {
        DlrmConfig::production_scale()
    }

    fn system_memory() -> DataVolume {
        DataVolume::from_gigabytes(80.0)
    }

    #[test]
    fn tt_rec_exceeds_100x_memory_reduction() {
        let report = apply(&rm(), CompressionTechnique::tt_rec_paper(), system_memory());
        let factor = report.memory_before / report.memory_after;
        assert!(factor > 100.0, "factor {factor}");
    }

    #[test]
    fn tt_rec_training_cost_is_negligible() {
        let report = apply(&rm(), CompressionTechnique::tt_rec_paper(), system_memory());
        assert!(report.relative_operational() < 1.15);
    }

    #[test]
    fn compression_slashes_embodied_footprint() {
        // The production RM needs many 80 GB systems uncompressed; TT-Rec
        // collapses it to one.
        let report = apply(&rm(), CompressionTechnique::tt_rec_paper(), system_memory());
        assert!(
            report.relative_embodied() < 0.2,
            "relative systems {}",
            report.relative_embodied()
        );
    }

    #[test]
    fn dhe_trades_more_compute_for_less_memory_than_none() {
        let dhe = apply(&rm(), CompressionTechnique::dhe_paper(), system_memory());
        let none = apply(&rm(), CompressionTechnique::None, system_memory());
        assert!(dhe.memory_after < none.memory_after);
        assert!(dhe.relative_operational() > none.relative_operational());
        assert_eq!(none.relative_systems, 1.0);
        assert_eq!(none.memory_after, none.memory_before);
    }

    #[test]
    fn tt_rec_dominates_dhe_at_published_points() {
        // At the published operating points TT-Rec wins on both axes — the
        // paper presents DHE as exploring the design space, not as the
        // frontier point.
        let tt = apply(&rm(), CompressionTechnique::tt_rec_paper(), system_memory());
        let dhe = apply(&rm(), CompressionTechnique::dhe_paper(), system_memory());
        assert!(tt.memory_after < dhe.memory_after);
        assert!(tt.relative_operational() < dhe.relative_operational());
    }

    #[test]
    fn display_names() {
        assert_eq!(CompressionTechnique::tt_rec_paper().to_string(), "tt-rec");
        assert_eq!(CompressionTechnique::None.to_string(), "none");
    }

    #[test]
    #[should_panic(expected = "per-system memory must be positive")]
    fn rejects_zero_system_memory() {
        let _ = apply(&rm(), CompressionTechnique::None, DataVolume::ZERO);
    }
}
