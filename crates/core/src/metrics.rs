//! Sustainability metrics for model and system comparison (§V-A).
//!
//! "While assessing the novelty and quality of ML solutions, it is crucial to
//! consider sustainability metrics including *energy consumption* and *carbon
//! footprint* along with measures of *model quality* and *system
//! performance*." This module provides the normalized metrics the paper calls
//! for: a leaderboard that ranks candidates by quality *subject to* a carbon
//! budget, or by quality gained per tonne, instead of by quality alone.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{Error, Result};
use crate::footprint::CarbonFootprint;
use crate::units::{Co2e, Energy};

/// One measured candidate: quality plus its footprint and serving volume.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredCandidate {
    /// Candidate name.
    pub name: String,
    /// Task quality (higher is better; e.g. accuracy, BLEU, AUC).
    pub quality: f64,
    /// Total training energy.
    pub training_energy: Energy,
    /// Combined footprint (training, over the evaluation window).
    pub footprint: CarbonFootprint,
    /// Predictions served over the evaluation window.
    pub predictions: f64,
}

impl MeasuredCandidate {
    /// Creates a candidate.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NegativeQuantity`] if `predictions` is negative or
    /// `quality` is not finite.
    pub fn new(
        name: impl Into<String>,
        quality: f64,
        training_energy: Energy,
        footprint: CarbonFootprint,
        predictions: f64,
    ) -> Result<MeasuredCandidate> {
        if !quality.is_finite() {
            return Err(Error::NonFiniteQuantity {
                quantity: "quality",
            });
        }
        if predictions < 0.0 {
            return Err(Error::NegativeQuantity {
                quantity: "predictions",
                value: predictions,
            });
        }
        Ok(MeasuredCandidate {
            name: name.into(),
            quality,
            training_energy,
            footprint,
            predictions,
        })
    }
}

/// How a leaderboard ranks candidates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Ranking {
    /// Classic: quality only — the status quo the paper critiques.
    QualityOnly,
    /// Quality subject to a carbon budget: candidates above the budget are
    /// excluded, remaining ones ranked by quality.
    QualityWithinBudget {
        /// Maximum admissible total footprint.
        budget: Co2e,
    },
    /// Quality gained per tonne of CO₂e above a baseline quality.
    QualityPerCarbon {
        /// The baseline quality gains are measured against.
        baseline_quality: f64,
    },
}

/// A sustainability-aware leaderboard.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Leaderboard {
    candidates: Vec<MeasuredCandidate>,
}

impl Leaderboard {
    /// Creates an empty leaderboard.
    pub fn new() -> Leaderboard {
        Leaderboard::default()
    }

    /// Adds a candidate.
    pub fn add(&mut self, candidate: MeasuredCandidate) -> &mut Leaderboard {
        self.candidates.push(candidate);
        self
    }

    /// Ranks candidates under a ranking policy; excluded candidates are
    /// omitted. Ties preserve insertion order.
    pub fn rank(&self, ranking: Ranking) -> Vec<&MeasuredCandidate> {
        let mut scored: Vec<(&MeasuredCandidate, f64)> = self
            .candidates
            .iter()
            .filter_map(|c| {
                let score = match ranking {
                    Ranking::QualityOnly => Some(c.quality),
                    Ranking::QualityWithinBudget { budget } => {
                        (c.footprint.total() <= budget).then_some(c.quality)
                    }
                    Ranking::QualityPerCarbon { baseline_quality } => {
                        let gain = c.quality - baseline_quality;
                        if gain <= 0.0 {
                            None
                        } else {
                            Some(gain / c.footprint.total().as_tonnes().max(f64::MIN_POSITIVE))
                        }
                    }
                };
                score.map(|s| (c, s))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.into_iter().map(|(c, _)| c).collect()
    }

    /// The winner under a ranking policy.
    pub fn winner(&self, ranking: Ranking) -> Option<&MeasuredCandidate> {
        self.rank(ranking).into_iter().next()
    }
}

impl fmt::Display for Leaderboard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "leaderboard ({} candidates)", self.candidates.len())?;
        for c in &self.candidates {
            writeln!(
                f,
                "  {:<20} quality {:.4}  footprint {}",
                c.name,
                c.quality,
                c.footprint.total()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(name: &str, quality: f64, tonnes: f64) -> MeasuredCandidate {
        MeasuredCandidate::new(
            name,
            quality,
            Energy::from_megawatt_hours(tonnes * 2.0),
            CarbonFootprint::new(Co2e::from_tonnes(tonnes), Co2e::ZERO),
            1.0e9,
        )
        .unwrap()
    }

    #[test]
    fn quality_only_rewards_the_big_model() {
        let mut board = Leaderboard::new();
        board.add(candidate("efficient", 0.80, 10.0));
        board.add(candidate("huge", 0.81, 500.0));
        let winner = board.winner(Ranking::QualityOnly).unwrap();
        assert_eq!(winner.name, "huge");
    }

    #[test]
    fn budget_ranking_excludes_over_budget_models() {
        let mut board = Leaderboard::new();
        board.add(candidate("efficient", 0.80, 10.0));
        board.add(candidate("huge", 0.81, 500.0));
        let winner = board
            .winner(Ranking::QualityWithinBudget {
                budget: Co2e::from_tonnes(50.0),
            })
            .unwrap();
        assert_eq!(winner.name, "efficient");
        // With a generous budget the big model wins again.
        let winner = board
            .winner(Ranking::QualityWithinBudget {
                budget: Co2e::from_tonnes(1000.0),
            })
            .unwrap();
        assert_eq!(winner.name, "huge");
    }

    #[test]
    fn quality_per_carbon_normalizes_progress() {
        let mut board = Leaderboard::new();
        board.add(candidate("efficient", 0.80, 10.0)); // +0.05 / 10 t
        board.add(candidate("huge", 0.81, 500.0)); // +0.06 / 500 t
        let winner = board
            .winner(Ranking::QualityPerCarbon {
                baseline_quality: 0.75,
            })
            .unwrap();
        assert_eq!(winner.name, "efficient");
        // Models below the baseline are excluded entirely.
        board.add(candidate("worse", 0.70, 1.0));
        let ranked = board.rank(Ranking::QualityPerCarbon {
            baseline_quality: 0.75,
        });
        assert!(ranked.iter().all(|c| c.name != "worse"));
    }

    #[test]
    fn validation() {
        assert!(
            MeasuredCandidate::new("bad", f64::NAN, Energy::ZERO, CarbonFootprint::ZERO, 1.0)
                .is_err()
        );
        assert!(
            MeasuredCandidate::new("bad", 0.5, Energy::ZERO, CarbonFootprint::ZERO, -1.0).is_err()
        );
    }

    #[test]
    fn display_lists_candidates() {
        let mut board = Leaderboard::new();
        board.add(candidate("m", 0.8, 1.0));
        assert!(board.to_string().contains("m"));
    }
}
