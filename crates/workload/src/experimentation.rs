//! Experimentation campaigns (§II-A, §IV-B).
//!
//! "During Experimentation, the researchers design, implement and evaluate the
//! quality of proposed algorithms ... A large collection of diverse ML ideas
//! are explored simultaneously at-scale." A campaign explores `ideas` in
//! parallel; each idea spawns several research-scale training workflows; one
//! winner graduates to production training. The campaign model quantifies the
//! §IV-B levers: early stopping of under-performing workflows and
//! sample-efficient search both shrink the experimentation slice of the
//! 10:20:70 capacity split.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::training::{JobClass, JobGenerator};

/// Configuration of an experimentation campaign.
///
/// ```rust
/// use sustain_workload::experimentation::Campaign;
///
/// let campaign = Campaign::new(10, 5).with_early_stopping(0.25, 0.25);
/// assert_eq!(campaign.total_workflows(), 50);
/// assert!((campaign.early_stop_cost_factor() - 0.4375).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    /// Ideas explored in parallel.
    pub ideas: u32,
    /// Research workflows per idea.
    pub workflows_per_idea: u32,
    /// Fraction of the budget at which under-performers are stopped
    /// (1.0 = no early stopping).
    pub early_stop_checkpoint: f64,
    /// Fraction of workflows that survive the checkpoint.
    pub early_stop_survivors: f64,
}

impl Campaign {
    /// A campaign without early stopping.
    ///
    /// # Panics
    ///
    /// Panics if `ideas` or `workflows_per_idea` is zero.
    pub fn new(ideas: u32, workflows_per_idea: u32) -> Campaign {
        assert!(ideas > 0, "campaign needs at least one idea");
        assert!(workflows_per_idea > 0, "ideas need at least one workflow");
        Campaign {
            ideas,
            workflows_per_idea,
            early_stop_checkpoint: 1.0,
            early_stop_survivors: 1.0,
        }
    }

    /// Enables early stopping: evaluate at `checkpoint` of the budget, keep
    /// `survivors` of the workflows.
    ///
    /// # Panics
    ///
    /// Panics unless both fractions lie in `(0, 1]`.
    pub fn with_early_stopping(mut self, checkpoint: f64, survivors: f64) -> Campaign {
        assert!((0.0..=1.0).contains(&checkpoint) && checkpoint > 0.0);
        assert!((0.0..=1.0).contains(&survivors) && survivors > 0.0);
        self.early_stop_checkpoint = checkpoint;
        self.early_stop_survivors = survivors;
        self
    }

    /// Total workflows launched.
    pub fn total_workflows(&self) -> u64 {
        self.ideas as u64 * self.workflows_per_idea as u64
    }

    /// Simulates the campaign: every workflow's full-budget GPU-days are
    /// drawn from the calibrated research distribution; non-survivors only
    /// burn up to the checkpoint. Returns the total GPU-days consumed.
    pub fn simulate_gpu_days<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let generator = JobGenerator::calibrated(JobClass::Research)
            // lint:allow(panic-discipline) calibrated() only errs on invalid user input
            .expect("research calibration constants are valid");
        let mut total = 0.0;
        for _ in 0..self.total_workflows() {
            let full = generator.sample(rng).gpu_days();
            let survives = rng.gen::<f64>() < self.early_stop_survivors;
            total += if survives {
                full
            } else {
                full * self.early_stop_checkpoint
            };
        }
        total
    }

    /// The analytic cost factor of early stopping relative to running every
    /// workflow to completion.
    pub fn early_stop_cost_factor(&self) -> f64 {
        self.early_stop_survivors + (1.0 - self.early_stop_survivors) * self.early_stop_checkpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn campaign_counts() {
        let c = Campaign::new(20, 10);
        assert_eq!(c.total_workflows(), 200);
        assert_eq!(c.early_stop_cost_factor(), 1.0);
    }

    #[test]
    fn early_stopping_cuts_gpu_days_by_the_analytic_factor() {
        let base = Campaign::new(50, 20);
        let stopped = base.with_early_stopping(0.25, 0.25);
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(1);
        let full = base.simulate_gpu_days(&mut rng_a);
        let cut = stopped.simulate_gpu_days(&mut rng_b);
        let expected = stopped.early_stop_cost_factor();
        let measured = cut / full;
        assert!(
            (measured - expected).abs() < 0.05,
            "measured {measured} vs analytic {expected}"
        );
    }

    #[test]
    fn early_stopping_preserves_workflow_count() {
        let c = Campaign::new(10, 10).with_early_stopping(0.25, 0.5);
        assert_eq!(c.total_workflows(), 100);
    }

    #[test]
    #[should_panic(expected = "at least one idea")]
    fn rejects_empty_campaign() {
        let _ = Campaign::new(0, 1);
    }
}
