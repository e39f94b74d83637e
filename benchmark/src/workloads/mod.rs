//! The four workloads. Each has an untraced run behind the end-to-end
//! metrics and a traced run behind its per-layer metrics; all but
//! `figures` also commit a golden fingerprint.

pub mod figures;
pub mod fleet_year;
pub mod stream_ingest;
pub mod sweep_cache;

use crate::golden::Golden;
use crate::measure::{Outcome, RunConfig, Tally};

/// One workload's entry points.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    untraced: fn(&RunConfig) -> Outcome,
    traced: fn(&RunConfig) -> Outcome,
    golden: Option<fn() -> Result<u64, String>>,
}

impl Workload {
    /// The untraced run. When the run carries goldens, a warm-up op at the
    /// default seed first checks this workload's committed fingerprint; a
    /// mismatch is one failed op, and the run carries on.
    pub fn measure(&self, cfg: &RunConfig) -> Outcome {
        let mut warm_up = Tally::default();
        if let (Some(committed), Some(fingerprint)) = (&cfg.golden, self.golden) {
            warm_up.run(1, "golden warm-up", || {
                committed.check(self.name, fingerprint()?)
            });
        }
        let mut outcome = (self.untraced)(cfg);
        outcome.tally.absorb(warm_up);
        outcome
    }

    /// The traced run.
    pub fn profile(&self, cfg: &RunConfig) -> Outcome {
        (self.traced)(cfg)
    }
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: figures::NAME,
        untraced: figures::measure,
        traced: figures::profile,
        golden: None,
    },
    Workload {
        name: fleet_year::NAME,
        untraced: fleet_year::measure,
        traced: fleet_year::profile,
        golden: Some(fleet_year::golden_fingerprint),
    },
    Workload {
        name: stream_ingest::NAME,
        untraced: stream_ingest::measure,
        traced: stream_ingest::profile,
        golden: Some(stream_ingest::golden_fingerprint),
    },
    Workload {
        name: sweep_cache::NAME,
        untraced: sweep_cache::measure,
        traced: sweep_cache::profile,
        golden: Some(sweep_cache::golden_fingerprint),
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// The traced run: every workload's profile, each on an equal share of the
/// run's seconds, so a traced run of any workload reports every per-layer
/// metric.
pub fn profile_all(cfg: &RunConfig) -> Outcome {
    let share = cfg.with_share(1.0 / ALL.len() as f64);
    let mut all = Outcome::default();
    for workload in ALL {
        let outcome = workload.profile(&share);
        all.metrics.extend(outcome.metrics);
        all.tally.absorb(outcome.tally);
    }
    all
}

/// Fingerprints of every golden report at the default seed.
pub fn golden_fingerprints() -> Result<Golden, String> {
    let mut golden = Golden::default();
    for workload in ALL {
        if let Some(fingerprint) = workload.golden {
            golden.insert(workload.name, fingerprint()?);
        }
    }
    Ok(golden)
}
