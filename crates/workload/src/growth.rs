//! The publication-growth model behind Figure 1.
//!
//! Figure 1 plots the cumulative number of arXiv papers per discipline and
//! shows machine learning's growth exceeding other sciences. We model each
//! discipline's *monthly* submission count as an exponential and accumulate —
//! the same construction the figure uses ("based on the monthly count").

use serde::{Deserialize, Serialize};
use std::fmt;

/// A scientific discipline tracked in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Discipline {
    /// Machine learning (cs.LG + stat.ML).
    MachineLearning,
    /// Condensed-matter physics.
    CondensedMatter,
    /// Astrophysics.
    Astrophysics,
    /// High-energy physics.
    HighEnergyPhysics,
    /// Mathematics.
    Mathematics,
    /// Quantitative biology.
    QuantitativeBiology,
}

impl Discipline {
    /// All disciplines, ML first.
    pub const ALL: [Discipline; 6] = [
        Discipline::MachineLearning,
        Discipline::CondensedMatter,
        Discipline::Astrophysics,
        Discipline::HighEnergyPhysics,
        Discipline::Mathematics,
        Discipline::QuantitativeBiology,
    ];

    /// Monthly submissions at the model's epoch (papers/month), loosely
    /// matching arXiv category volumes circa 2011.
    pub fn base_monthly(&self) -> f64 {
        match self {
            Discipline::MachineLearning => 120.0,
            Discipline::CondensedMatter => 1100.0,
            Discipline::Astrophysics => 1000.0,
            Discipline::HighEnergyPhysics => 900.0,
            Discipline::Mathematics => 1600.0,
            Discipline::QuantitativeBiology => 140.0,
        }
    }

    /// Monthly growth rate. ML's ~3 %/month (doubling ≈ every 2 years)
    /// dwarfs the mature disciplines' ~0.3–0.6 %.
    pub fn monthly_growth(&self) -> f64 {
        match self {
            Discipline::MachineLearning => 0.030,
            Discipline::CondensedMatter => 0.003,
            Discipline::Astrophysics => 0.003,
            Discipline::HighEnergyPhysics => 0.002,
            Discipline::Mathematics => 0.005,
            Discipline::QuantitativeBiology => 0.006,
        }
    }
}

impl fmt::Display for Discipline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Discipline::MachineLearning => "machine-learning",
            Discipline::CondensedMatter => "condensed-matter",
            Discipline::Astrophysics => "astrophysics",
            Discipline::HighEnergyPhysics => "high-energy-physics",
            Discipline::Mathematics => "mathematics",
            Discipline::QuantitativeBiology => "quantitative-biology",
        };
        f.write_str(name)
    }
}

/// Cumulative publication counts for one discipline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PublicationGrowth {
    discipline: Discipline,
}

impl PublicationGrowth {
    /// Creates the model for a discipline.
    pub fn new(discipline: Discipline) -> PublicationGrowth {
        PublicationGrowth { discipline }
    }

    /// Monthly submissions `months` after the epoch.
    // lint:allow(test-only-pub) (a) the month-by-month reference for the closed-form cumulative_at
    pub fn monthly_at(&self, months: u32) -> f64 {
        self.discipline.base_monthly()
            * (1.0 + self.discipline.monthly_growth()).powi(months as i32)
    }

    /// Cumulative submissions from the epoch through month `months` inclusive.
    pub fn cumulative_at(&self, months: u32) -> f64 {
        // Geometric series sum: b · ((1+g)^(m+1) − 1) / g.
        let g = self.discipline.monthly_growth();
        let b = self.discipline.base_monthly();
        if sustain_core::units::approx_eq(g, 0.0) {
            return b * (months as f64 + 1.0);
        }
        b * ((1.0 + g).powi(months as i32 + 1) - 1.0) / g
    }
}

/// The month at which ML's cumulative count overtakes `other`'s, if within
/// `horizon_months`. ML starts far behind the mature disciplines (Fig 1's
/// crossing curves).
pub fn ml_crossover_month(other: Discipline, horizon_months: u32) -> Option<u32> {
    let ml = PublicationGrowth::new(Discipline::MachineLearning);
    let o = PublicationGrowth::new(other);
    (0..=horizon_months).find(|&m| ml.cumulative_at(m) > o.cumulative_at(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml_growth_exceeds_all_other_disciplines() {
        for d in Discipline::ALL {
            if d != Discipline::MachineLearning {
                assert!(
                    Discipline::MachineLearning.monthly_growth() > d.monthly_growth(),
                    "{d} grows faster than ML"
                );
            }
        }
    }

    #[test]
    fn ml_starts_behind_but_overtakes() {
        // Fig 1's signature shape: ML's cumulative curve starts below the big
        // physics categories and crosses them within the plotted decade.
        let ml = PublicationGrowth::new(Discipline::MachineLearning);
        let cm = PublicationGrowth::new(Discipline::CondensedMatter);
        assert!(ml.cumulative_at(0) < cm.cumulative_at(0));
        let cross = ml_crossover_month(Discipline::CondensedMatter, 180)
            .expect("ML must overtake within 15 years");
        assert!(cross > 24, "crossover too early: month {cross}");
        assert!(ml.cumulative_at(cross) > cm.cumulative_at(cross));
    }

    #[test]
    fn cumulative_matches_naive_sum() {
        let g = PublicationGrowth::new(Discipline::MachineLearning);
        let naive: f64 = (0..=24).map(|m| g.monthly_at(m)).sum();
        assert!((g.cumulative_at(24) - naive).abs() / naive < 1e-9);
    }

    #[test]
    fn no_crossover_within_tiny_horizon() {
        assert!(ml_crossover_month(Discipline::CondensedMatter, 6).is_none());
    }

    #[test]
    fn ml_overtakes_quantitative_biology_quickly() {
        // q-bio starts at similar volume but grows 5× slower.
        let cross = ml_crossover_month(Discipline::QuantitativeBiology, 60).unwrap();
        assert!(cross < 24, "crossover month {cross}");
    }

    #[test]
    fn display() {
        assert_eq!(Discipline::MachineLearning.to_string(), "machine-learning");
    }
}
