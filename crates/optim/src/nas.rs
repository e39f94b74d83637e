//! NAS/HPO search-cost models (§IV-B).
//!
//! "Strubell et al. show that grid-search NAS can incur over 3000×
//! environmental footprint overhead. Utilizing much more sample-efficient NAS
//! and HPO methods can translate directly into carbon footprint improvement.
//! ... By detecting and stopping under-performing training workflows early,
//! unnecessary training cycles can be eliminated."
//!
//! The model: a search space of candidate configurations; each strategy needs
//! a different number of (possibly truncated) trials to find a near-optimal
//! configuration. Costs are expressed as multiples of one full training run.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::Energy;

/// A hyper-parameter / architecture search strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SearchStrategy {
    /// Exhaustive grid search over the full space.
    Grid,
    /// Uniform random search with a trial budget.
    Random {
        /// Number of full-training trials.
        trials: u32,
    },
    /// Model-based (Bayesian) optimization: reaches random-search quality in
    /// `efficiency`-fold fewer trials (Turner et al. report ~4×).
    Bayesian {
        /// Trials a random search would need for the same quality.
        equivalent_random_trials: u32,
        /// Sample-efficiency multiple over random search.
        efficiency: f64,
    },
}

impl SearchStrategy {
    /// Number of full-training-equivalent trials the strategy consumes over
    /// a search space of `space_size` configurations.
    pub fn trial_cost(&self, space_size: u32) -> f64 {
        match self {
            SearchStrategy::Grid => space_size as f64,
            SearchStrategy::Random { trials } => *trials as f64,
            SearchStrategy::Bayesian {
                equivalent_random_trials,
                efficiency,
            } => *equivalent_random_trials as f64 / efficiency.max(1.0),
        }
    }

    /// Search energy given the energy of one full training run.
    pub fn energy(&self, space_size: u32, per_trial: Energy) -> Energy {
        per_trial * self.trial_cost(space_size)
    }
}

impl fmt::Display for SearchStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchStrategy::Grid => f.write_str("grid"),
            SearchStrategy::Random { trials } => write!(f, "random({trials})"),
            SearchStrategy::Bayesian { .. } => f.write_str("bayesian"),
        }
    }
}

/// Early stopping: train every trial, but kill under-performers after a
/// fraction of the budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EarlyStopping {
    /// Fraction of the full budget at which trials are evaluated.
    pub checkpoint: f64,
    /// Fraction of trials allowed to continue past the checkpoint.
    pub survivors: f64,
}

impl EarlyStopping {
    /// A successive-halving-like configuration: evaluate at 25 % of budget,
    /// keep the top 25 %.
    pub fn successive_halving() -> EarlyStopping {
        EarlyStopping {
            checkpoint: 0.25,
            survivors: 0.25,
        }
    }

    /// Cost multiplier applied to a trial budget: survivors pay full price,
    /// the rest only pay up to the checkpoint.
    pub fn cost_factor(&self) -> f64 {
        self.survivors + (1.0 - self.survivors) * self.checkpoint
    }

    /// Trials-cost of a random search with early stopping.
    pub fn trial_cost(&self, trials: u32) -> f64 {
        trials as f64 * self.cost_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_search_overhead_matches_strubell_anchor() {
        // A 3000-point grid costs >3000× a single training run.
        let grid = SearchStrategy::Grid;
        assert!(grid.trial_cost(3000) >= 3000.0);
        let e = grid.energy(3000, Energy::from_kilowatt_hours(1.0));
        assert!((e.as_megawatt_hours() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn sample_efficient_methods_slash_cost() {
        let space = 3000;
        let grid = SearchStrategy::Grid.trial_cost(space);
        let random = SearchStrategy::Random { trials: 60 }.trial_cost(space);
        let bayes = SearchStrategy::Bayesian {
            equivalent_random_trials: 60,
            efficiency: 4.0,
        }
        .trial_cost(space);
        assert!(grid / random >= 50.0);
        assert!((random / bayes - 4.0).abs() < 1e-9);
    }

    #[test]
    fn early_stopping_cuts_cost_substantially() {
        let es = EarlyStopping::successive_halving();
        // 0.25 + 0.75×0.25 = 0.4375 of the naive cost.
        assert!((es.cost_factor() - 0.4375).abs() < 1e-12);
        assert!((es.trial_cost(100) - 43.75).abs() < 1e-9);
    }

    #[test]
    fn bayesian_efficiency_floor() {
        // efficiency below 1 is clamped (can't be worse than random here).
        let b = SearchStrategy::Bayesian {
            equivalent_random_trials: 10,
            efficiency: 0.5,
        };
        assert_eq!(b.trial_cost(100), 10.0);
    }

    #[test]
    fn display() {
        assert_eq!(SearchStrategy::Grid.to_string(), "grid");
        assert_eq!(
            SearchStrategy::Random { trials: 5 }.to_string(),
            "random(5)"
        );
    }
}
