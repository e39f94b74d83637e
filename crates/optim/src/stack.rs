//! The cross-stack optimization cadence (Figure 6).
//!
//! "The improvement comes from four areas of optimizations: *model*,
//! *platform*, *infrastructure*, and *hardware* ... The optimizations in
//! aggregate provide, on average, a 20 % reduction in operational power
//! consumption every six months."

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::Fraction;

/// An optimization area of the ML hardware-software stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OptimizationArea {
    /// Resource-efficient model architectures.
    Model,
    /// Framework-level work (e.g. PyTorch quantization support).
    Platform,
    /// Datacenter optimization, low-precision hardware roll-out.
    Infrastructure,
    /// Domain-specific acceleration.
    Hardware,
}

impl OptimizationArea {
    /// All areas, in the paper's order.
    pub const ALL: [OptimizationArea; 4] = [
        OptimizationArea::Model,
        OptimizationArea::Platform,
        OptimizationArea::Infrastructure,
        OptimizationArea::Hardware,
    ];
}

impl fmt::Display for OptimizationArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OptimizationArea::Model => "model",
            OptimizationArea::Platform => "platform",
            OptimizationArea::Infrastructure => "infrastructure",
            OptimizationArea::Hardware => "hardware",
        };
        f.write_str(name)
    }
}

/// One six-month optimization cycle: the power reduction contributed by each
/// area, compounding multiplicatively.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimizationCycle {
    model: Fraction,
    platform: Fraction,
    infrastructure: Fraction,
    hardware: Fraction,
}

impl OptimizationCycle {
    /// The paper-calibrated half-year cycle: per-area reductions that
    /// compound to ≈ 20 %.
    pub fn paper_default() -> OptimizationCycle {
        OptimizationCycle {
            model: Fraction::saturating(0.07),
            platform: Fraction::saturating(0.05),
            infrastructure: Fraction::saturating(0.045),
            hardware: Fraction::saturating(0.045),
        }
    }

    /// Creates a cycle from per-area reductions.
    pub fn new(
        model: Fraction,
        platform: Fraction,
        infrastructure: Fraction,
        hardware: Fraction,
    ) -> OptimizationCycle {
        OptimizationCycle {
            model,
            platform,
            infrastructure,
            hardware,
        }
    }

    /// The reduction contributed by one area.
    pub fn area(&self, area: OptimizationArea) -> Fraction {
        match area {
            OptimizationArea::Model => self.model,
            OptimizationArea::Platform => self.platform,
            OptimizationArea::Infrastructure => self.infrastructure,
            OptimizationArea::Hardware => self.hardware,
        }
    }

    /// The power retained after the cycle (product of per-area retentions).
    pub fn retained(&self) -> Fraction {
        let product: f64 = OptimizationArea::ALL
            .iter()
            .map(|a| self.area(*a).complement().value())
            .product();
        Fraction::saturating(product)
    }

    /// The cycle's aggregate reduction.
    pub fn total_reduction(&self) -> Fraction {
        self.retained().complement()
    }

    /// The Figure 6 series: `(six-month index, fleet power factor)`.
    pub fn series(&self, cycles: u32) -> Vec<(u32, f64)> {
        (0..=cycles)
            .map(|i| (i, self.retained().value().powi(i as i32)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cycle_compounds_to_about_20_percent() {
        let c = OptimizationCycle::paper_default();
        let r = c.total_reduction().value();
        assert!((r - 0.20).abs() < 0.01, "reduction {r}");
    }

    #[test]
    fn every_area_contributes() {
        let c = OptimizationCycle::paper_default();
        for a in OptimizationArea::ALL {
            assert!(c.area(a).value() > 0.0, "{a} must contribute");
        }
        // Model-level work is the single biggest lever in the preset.
        for a in OptimizationArea::ALL {
            assert!(c.area(OptimizationArea::Model) >= c.area(a));
        }
    }

    #[test]
    fn four_cycles_over_two_years() {
        let c = OptimizationCycle::paper_default();
        let factor = c.retained().value().powi(4);
        // Pure efficiency (no demand growth): ~0.8^4 ≈ 0.41.
        assert!((factor - 0.41).abs() < 0.02, "factor {factor}");
    }

    #[test]
    fn series_is_monotone_decreasing() {
        let s = OptimizationCycle::paper_default().series(4);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].1, 1.0);
        for w in s.windows(2) {
            assert!(w[1].1 < w[0].1);
        }
    }

    #[test]
    fn zero_cycle_is_identity() {
        let c = OptimizationCycle::new(
            Fraction::ZERO,
            Fraction::ZERO,
            Fraction::ZERO,
            Fraction::ZERO,
        );
        assert_eq!(c.total_reduction(), Fraction::ZERO);
        assert!(c.series(10).iter().all(|&(_, f)| f == 1.0));
    }

    #[test]
    fn display() {
        assert_eq!(
            OptimizationArea::Infrastructure.to_string(),
            "infrastructure"
        );
    }
}
