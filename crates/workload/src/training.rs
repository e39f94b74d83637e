//! Training-job distributions (§II-A).
//!
//! The paper publishes the Facebook job-duration statistics as percentiles:
//!
//! * research experimentation: p50 ≤ **1.5 GPU-days**, p99 ≤ **24 GPU-days**,
//!   with a tail of trillion-parameter runs above **500 GPU-days**;
//! * production training workflows: p50 = **2.96 GPU-days**, p99 = **125 GPU-days**.
//!
//! [`JobGenerator`] reproduces these via log-normal distributions calibrated
//! exactly at the published percentiles.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::stats::{LogNormal, Sampler};
use sustain_core::units::{Energy, Power, TimeSpan};

/// Which population a training job is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// Research-cluster experimentation workflows.
    Research,
    /// Production (re-)training workflows.
    Production,
}

impl JobClass {
    /// The published `(p50, p99)` GPU-days for this class.
    pub fn published_percentiles(&self) -> (f64, f64) {
        match self {
            JobClass::Research => (1.5, 24.0),
            JobClass::Production => (2.96, 125.0),
        }
    }
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobClass::Research => f.write_str("research"),
            JobClass::Production => f.write_str("production"),
        }
    }
}

/// A single training job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingJob {
    gpu_days: f64,
    gpus: u32,
}

impl TrainingJob {
    /// Creates a job of `gpu_days` total GPU-time spread over `gpus` devices.
    ///
    /// # Panics
    ///
    /// Panics if `gpu_days` is negative or `gpus` is zero.
    pub fn new(gpu_days: f64, gpus: u32) -> TrainingJob {
        assert!(gpu_days >= 0.0, "gpu_days must be non-negative");
        assert!(gpus > 0, "a job needs at least one GPU");
        TrainingJob { gpu_days, gpus }
    }

    /// Total GPU-days of work.
    pub fn gpu_days(&self) -> f64 {
        self.gpu_days
    }

    /// Number of GPUs used.
    pub fn gpus(&self) -> u32 {
        self.gpus
    }

    /// IT energy of the job at a mean per-GPU power draw.
    pub fn energy(&self, mean_gpu_power: Power) -> Energy {
        mean_gpu_power * TimeSpan::from_days(self.gpu_days)
    }
}

/// Samples jobs whose GPU-days distribution matches the published percentiles.
///
/// ```rust
/// use sustain_workload::training::{JobClass, JobGenerator};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let gen = JobGenerator::calibrated(JobClass::Research)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let job = gen.sample(&mut rng);
/// assert!(job.gpu_days() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobGenerator {
    class: JobClass,
    dist: LogNormal,
    gpus_per_job: u32,
}

impl JobGenerator {
    /// Calibrates a generator to the published percentiles for `class`.
    ///
    /// # Errors
    ///
    /// Propagates calibration errors from [`LogNormal::from_median_p99`]
    /// (cannot occur for the built-in classes).
    pub fn calibrated(class: JobClass) -> sustain_core::Result<JobGenerator> {
        let (p50, p99) = class.published_percentiles();
        Ok(JobGenerator {
            class,
            dist: LogNormal::from_median_p99(p50, p99)?,
            gpus_per_job: 8,
        })
    }

    /// Draws one job.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> TrainingJob {
        TrainingJob::new(self.dist.sample(rng), self.gpus_per_job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustain_core::stats::percentile;

    #[test]
    fn research_distribution_hits_published_percentiles() {
        let gen = JobGenerator::calibrated(JobClass::Research).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let days: Vec<f64> = (0..50_000)
            .map(|_| gen.sample(&mut rng).gpu_days())
            .collect();
        let p50 = percentile(&days, 50.0);
        let p99 = percentile(&days, 99.0);
        assert!((p50 - 1.5).abs() / 1.5 < 0.05, "p50 {p50}");
        assert!((p99 - 24.0).abs() / 24.0 < 0.10, "p99 {p99}");
    }

    #[test]
    fn production_distribution_hits_published_percentiles() {
        let gen = JobGenerator::calibrated(JobClass::Production).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let days: Vec<f64> = (0..50_000)
            .map(|_| gen.sample(&mut rng).gpu_days())
            .collect();
        let p50 = percentile(&days, 50.0);
        let p99 = percentile(&days, 99.0);
        assert!((p50 - 2.96).abs() / 2.96 < 0.05, "p50 {p50}");
        assert!((p99 - 125.0).abs() / 125.0 < 0.10, "p99 {p99}");
    }

    #[test]
    fn job_energy() {
        let job = TrainingJob::new(16.0, 8);
        let e = job.energy(Power::from_watts(300.0));
        // 16 GPU-days × 300 W = 115.2 kWh.
        assert!((e.as_kilowatt_hours() - 115.2).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn job_rejects_zero_gpus() {
        let _ = TrainingJob::new(1.0, 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(JobClass::Research.to_string(), "research");
    }
}
