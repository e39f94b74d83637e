//! Supervised vs self-supervised training effort (Appendix C).
//!
//! The paper's published anchors:
//!
//! * **SimCLR** SSL pre-training: 1000 epochs → 69.3 % top-1 (linear eval);
//! * **supervised** ResNet-50: 90 epochs → 76.1 % top-1;
//! * **PAWS** semi-supervised (10 % labels): 200 epochs → 75.5 % top-1,
//!   ~16 hours on 64 V100s.
//!
//! Supervision is worth roughly a **10×** reduction in pre-training effort
//! (epochs over the dataset); PAWS closes most of the gap with 10 % labels.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::{Energy, Fraction};

/// A training regime with a published compute/accuracy anchor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingRegime {
    kind: RegimeKind,
    epochs: f64,
    top1_accuracy: Fraction,
    label_fraction: Fraction,
}

/// The family of a training regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RegimeKind {
    /// Fully-supervised training.
    Supervised,
    /// Self-supervised pre-training + linear evaluation.
    SelfSupervised,
    /// Semi-supervised pre-training (PAWS-style).
    SemiSupervised,
}

impl fmt::Display for RegimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegimeKind::Supervised => f.write_str("supervised"),
            RegimeKind::SelfSupervised => f.write_str("self-supervised"),
            RegimeKind::SemiSupervised => f.write_str("semi-supervised"),
        }
    }
}

impl TrainingRegime {
    /// SimCLR: 1000 SSL epochs → 69.3 % top-1.
    pub fn simclr() -> TrainingRegime {
        TrainingRegime {
            kind: RegimeKind::SelfSupervised,
            epochs: 1000.0,
            top1_accuracy: Fraction::saturating(0.693),
            label_fraction: Fraction::ZERO,
        }
    }

    /// Fully-supervised ResNet-50: 90 epochs → 76.1 % top-1.
    pub fn supervised_resnet50() -> TrainingRegime {
        TrainingRegime {
            kind: RegimeKind::Supervised,
            epochs: 90.0,
            top1_accuracy: Fraction::saturating(0.761),
            label_fraction: Fraction::ONE,
        }
    }

    /// PAWS with 10 % labels: 200 epochs → 75.5 % top-1.
    pub fn paws_10pct() -> TrainingRegime {
        TrainingRegime {
            kind: RegimeKind::SemiSupervised,
            epochs: 200.0,
            top1_accuracy: Fraction::saturating(0.755),
            label_fraction: Fraction::saturating(0.10),
        }
    }

    /// Passes over the dataset.
    pub fn epochs(&self) -> f64 {
        self.epochs
    }

    /// Published top-1 accuracy.
    pub fn top1_accuracy(&self) -> Fraction {
        self.top1_accuracy
    }

    /// Fraction of training data that is human-labeled.
    pub fn label_fraction(&self) -> Fraction {
        self.label_fraction
    }

    /// Training-effort ratio versus another regime (epochs / epochs).
    pub fn effort_ratio_vs(&self, other: &TrainingRegime) -> f64 {
        self.epochs / other.epochs
    }

    /// Estimated training energy given a per-epoch energy cost.
    pub fn energy(&self, per_epoch: Energy) -> Energy {
        per_epoch * self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supervision_is_worth_about_10x_effort() {
        // Paper: "using labels and supervised training is worth a roughly 10×
        // reduction in training effort".
        let ratio =
            TrainingRegime::simclr().effort_ratio_vs(&TrainingRegime::supervised_resnet50());
        assert!((ratio - 1000.0 / 90.0).abs() < 1e-9);
        assert!(ratio > 10.0 && ratio < 12.0);
    }

    #[test]
    fn paws_closes_the_gap_with_few_labels() {
        let paws = TrainingRegime::paws_10pct();
        let sup = TrainingRegime::supervised_resnet50();
        let ssl = TrainingRegime::simclr();
        // Accuracy within 0.6 pt of supervised, 5× fewer epochs than SimCLR.
        assert!(sup.top1_accuracy().value() - paws.top1_accuracy().value() < 0.007);
        assert!(paws.top1_accuracy() > ssl.top1_accuracy());
        assert!((ssl.effort_ratio_vs(&paws) - 5.0).abs() < 1e-9);
        assert!((paws.label_fraction().value() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn anchors_match_published_numbers() {
        assert_eq!(TrainingRegime::simclr().epochs(), 1000.0);
        assert_eq!(TrainingRegime::supervised_resnet50().epochs(), 90.0);
        assert_eq!(TrainingRegime::paws_10pct().epochs(), 200.0);
    }

    #[test]
    fn energy_scales_with_epochs() {
        let per_epoch = Energy::from_kilowatt_hours(10.0);
        let ssl = TrainingRegime::simclr().energy(per_epoch);
        let sup = TrainingRegime::supervised_resnet50().energy(per_epoch);
        assert!((ssl / sup - 1000.0 / 90.0).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(RegimeKind::SemiSupervised.to_string(), "semi-supervised");
    }
}
