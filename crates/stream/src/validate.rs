//! Validation harness: streaming estimator vs the exact batch integrator.
//!
//! Every run here drives **the same deterministic stream** through three
//! paths and compares them:
//!
//! 1. [`exact_energy`] — the ground truth: per-source
//!    [`EnergyIntegrator`]s fed the uncorrupted signal directly;
//! 2. [`run_synchronous`] — the workspace's batch idiom: per-source
//!    [`FaultTolerantIntegrator`]s polled through a [`FaultInjector`],
//!    no queues, no reordering, no retries;
//! 3. [`run_stream`] — the full [`StreamPipeline`].
//!
//! On a fault-free in-order stream, paths 2 and 3 must agree **byte for
//! byte** (the streaming layer is then a pure re-plumbing of the same
//! floating-point operations); under chaos, path 3 must stay *conserved*
//! (every sample tallied) with an energy error that shrinks as queue
//! capacity and lateness bounds grow. The sweep functions score exactly
//! that and feed the `stream` figure family in `sustain-bench`.

use serde::{Deserialize, Serialize};

use sustain_core::quality::DataQualityReport;
use sustain_core::units::{Energy, Power, TimeSpan};
use sustain_telemetry::faults::{FaultInjector, FaultPlan, ImputationPolicy};
use sustain_telemetry::hierarchy::EnergyRollup;
use sustain_telemetry::meter::{EnergyIntegrator, FaultTolerantIntegrator};

use crate::constants;
use crate::pipeline::{StreamConfig, StreamPipeline, StreamReport};

/// The synthetic fleet signal: a per-source phase-shifted triangle wave
/// around [`constants::VALIDATION_BASE_WATTS`], modelling the diurnal
/// utilization swing of a loaded server. Piecewise linear, so the exact
/// trapezoidal integral has no discretization error to confound the
/// streaming-vs-batch comparison.
pub fn synthetic_power(source: usize, at: TimeSpan) -> Power {
    let phase = (source % constants::VALIDATION_HOSTS_PER_RACK) as f64
        / constants::VALIDATION_HOSTS_PER_RACK as f64;
    let turns = at.as_secs() / constants::VALIDATION_PERIOD_SECS + phase;
    let frac = turns - turns.floor();
    let tri = if frac < 0.5 {
        2.0 * frac
    } else {
        2.0 - 2.0 * frac
    };
    Power::from_watts(
        constants::VALIDATION_BASE_WATTS + constants::VALIDATION_SWING_WATTS * (2.0 * tri - 1.0),
    )
}

/// The label of validation source `i`: `rack<r>/host<h>`, grouping
/// [`constants::VALIDATION_HOSTS_PER_RACK`] hosts per rack so the
/// [`EnergyRollup`] exercises two aggregation levels.
pub fn source_label(i: usize) -> String {
    format!(
        "rack{}/host{}",
        i / constants::VALIDATION_HOSTS_PER_RACK,
        i % constants::VALIDATION_HOSTS_PER_RACK
    )
}

/// Ground-truth energy: per-source exact [`EnergyIntegrator`]s over the
/// uncorrupted synthetic signal, summed in source order.
pub fn exact_energy(sources: usize, ticks: u64, interval: TimeSpan) -> Energy {
    let mut total = Energy::ZERO;
    for source in 0..sources {
        let mut integrator = EnergyIntegrator::new();
        for i in 0..ticks {
            let at = interval * i as f64;
            integrator.push(at, synthetic_power(source, at));
        }
        total += integrator.energy();
    }
    total
}

/// Outcome of the synchronous (batch-idiom) reference path.
#[derive(Debug, Clone)]
pub struct SyncOutcome {
    /// Accounted energy (measured + imputed), summed in source order.
    pub energy: Energy,
    /// Merged quality accounting across all sources.
    pub quality: DataQualityReport,
    /// Per-source roll-up, built as the pipeline builds its own: one leaf
    /// per source holding its accounted energy, added in source order,
    /// sources with zero energy skipped.
    pub rollup: EnergyRollup,
}

/// The batch reference: each source polled straight through its injector
/// into a [`FaultTolerantIntegrator`] — no queues, no reorder stage, no
/// retries. This is exactly what the rest of the workspace does today, so
/// it is the semantic baseline the streaming path must match when no
/// stage has anything to do.
// lint:allow(test-only-pub) (a) the synchronous reference the streaming pipeline is scored against
pub fn run_synchronous(
    plan: &FaultPlan,
    sources: usize,
    ticks: u64,
    interval: TimeSpan,
    imputation: ImputationPolicy,
) -> SyncOutcome {
    let mut quality = DataQualityReport::default();
    let mut energy = Energy::ZERO;
    let mut rollup = EnergyRollup::new();
    for source in 0..sources {
        let label = source_label(source);
        let mut injector = FaultInjector::new(plan, &label);
        let mut integrator = FaultTolerantIntegrator::new(interval, imputation);
        for i in 0..ticks {
            let at = interval * i as f64;
            match injector.corrupt(at, interval, synthetic_power(source, at)) {
                Some((t, p)) => integrator.push(t, Some(p)),
                None => integrator.push(at, None),
            };
        }
        integrator.merge_faults(&injector.counts());
        quality.merge(&integrator.report());
        let accounted = integrator.energy();
        energy += accounted;
        if !accounted.is_zero() {
            rollup.add(&label, accounted);
        }
    }
    SyncOutcome {
        energy,
        quality,
        rollup,
    }
}

/// Runs the full streaming pipeline over the same synthetic fleet.
pub fn run_stream(
    plan: &FaultPlan,
    config: StreamConfig,
    sources: usize,
    ticks: u64,
) -> StreamReport {
    let mut pipe = StreamPipeline::new(config);
    for i in 0..sources {
        pipe.add_source(&source_label(i), plan);
    }
    pipe.run(ticks, synthetic_power);
    pipe.finish()
}

/// [`FaultPlan::degraded`] with every probabilistic rate multiplied by
/// `scale` (saturating at 1), the chaos axis of the validation sweeps.
///
/// # Panics
///
/// Panics if `scale` is negative.
pub fn scaled_plan(scale: f64) -> FaultPlan {
    assert!(scale >= 0.0, "fault scale must be non-negative");
    let base = FaultPlan::degraded();
    base.with_dropout((base.dropout.value() * scale).min(1.0))
        .with_timeout((base.timeout.value() * scale).min(1.0))
        .with_stuck((base.stuck.value() * scale).min(1.0), base.stuck_len)
        .with_noise_burst(
            (base.noise_burst.value() * scale).min(1.0),
            base.noise_burst_std,
        )
}

/// One scored point of a validation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationPoint {
    /// The swept knob's value (fault scale, lateness bound, capacity…).
    pub knob: f64,
    /// |streaming − exact| / exact.
    pub error: f64,
    /// Fraction of expected samples actually observed.
    pub coverage: f64,
    /// Samples evicted by full queues.
    pub queue_drops: u64,
    /// Samples refused as too late.
    pub late: u64,
    /// Meter-read retries issued.
    pub retries: u64,
    /// Ticks lost at the meter.
    pub lost_reads: u64,
}

fn score(knob: f64, report: &StreamReport, exact: Energy) -> ValidationPoint {
    ValidationPoint {
        knob,
        error: report.relative_error(exact),
        coverage: report.quality.coverage().value(),
        queue_drops: report.quality.faults.queue_drops,
        late: report.quality.faults.late_arrivals,
        retries: report.retries,
        lost_reads: report.lost_reads,
    }
}

/// Sweeps the chaos scale: how does estimate error degrade as every fault
/// rate is multiplied up, at a fixed pipeline configuration?
pub fn fault_rate_sweep(
    scales: &[f64],
    config: StreamConfig,
    sources: usize,
    ticks: u64,
) -> Vec<ValidationPoint> {
    let exact = exact_energy(sources, ticks, config.interval);
    scales
        .iter()
        .map(|&scale| {
            let plan = scaled_plan(scale).with_seed(constants::VALIDATION_SEED);
            score(scale, &run_stream(&plan, config, sources, ticks), exact)
        })
        .collect()
}

/// Sweeps the lateness bound (in seconds) under a fixed degraded plan:
/// tighter bounds trade buffered memory for late-arrival loss.
pub fn lateness_sweep(
    bounds_secs: &[f64],
    config: StreamConfig,
    sources: usize,
    ticks: u64,
) -> Vec<ValidationPoint> {
    let exact = exact_energy(sources, ticks, config.interval);
    let plan = FaultPlan::degraded().with_seed(constants::VALIDATION_SEED);
    bounds_secs
        .iter()
        .map(|&bound| {
            let cfg = config.with_lateness(Some(TimeSpan::from_secs(bound)));
            score(bound, &run_stream(&plan, cfg, sources, ticks), exact)
        })
        .collect()
}

/// Sweeps the per-shard queue capacity under `DropOldest` backpressure
/// with infrequent flushes: smaller queues evict more, and every eviction
/// must show up as a tallied drop, never as silent error.
pub fn capacity_sweep(
    capacities: &[usize],
    config: StreamConfig,
    sources: usize,
    ticks: u64,
) -> Vec<ValidationPoint> {
    let exact = exact_energy(sources, ticks, config.interval);
    let plan = FaultPlan::degraded().with_seed(constants::VALIDATION_SEED);
    capacities
        .iter()
        .map(|&capacity| {
            let cfg = config
                .with_queue_capacity(capacity)
                .with_backpressure(crate::queue::BackpressurePolicy::DropOldest);
            score(
                capacity as f64,
                &run_stream(&plan, cfg, sources, ticks),
                exact,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> StreamConfig {
        StreamConfig {
            shards: 2,
            queue_capacity: 128,
            reorder_capacity: 64,
            flush_every: 32,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn clean_stream_matches_synchronous_exactly() {
        let plan = FaultPlan::none();
        let config = test_config();
        let sync = run_synchronous(&plan, 6, 500, config.interval, config.imputation);
        let stream = run_stream(&plan, config, 6, 500);
        assert_eq!(sync.quality, stream.quality);
        assert_eq!(sync.energy, stream.energy);
        assert_eq!(sync.rollup, stream.rollup);
        assert!(stream.quality.is_pristine());
    }

    #[test]
    fn clean_stream_matches_ground_truth() {
        let config = test_config();
        let exact = exact_energy(4, 400, config.interval);
        let stream = run_stream(&FaultPlan::none(), config, 4, 400);
        assert!(stream.relative_error(exact) < 1e-12, "{stream:?}");
    }

    #[test]
    fn fault_sweep_error_grows_but_stays_bounded() {
        let points = fault_rate_sweep(&[0.0, 1.0, 4.0], test_config(), 4, 600);
        // Scale 0 keeps the (bounded) clock skew, so the estimate is close
        // but not bit-exact; the reorder stage absorbs the skew.
        assert!(
            points[0].error < 1e-4,
            "skew-only is near-exact: {points:?}"
        );
        assert!(
            points[0].error < points[2].error,
            "error grows with chaos: {points:?}"
        );
        assert!(
            points[0].coverage > points[2].coverage,
            "more chaos, less coverage: {points:?}"
        );
        for p in &points {
            assert!(p.error < 0.2, "imputation keeps error bounded: {p:?}");
        }
    }

    #[test]
    fn tiny_capacity_drops_and_accounts() {
        let config = StreamConfig {
            flush_every: 200,
            ..test_config()
        };
        let points = capacity_sweep(&[2, 1024], config, 4, 400);
        assert!(points[0].queue_drops > 0, "{points:?}");
        assert_eq!(points[1].queue_drops, 0, "{points:?}");
        assert!(points[0].coverage < points[1].coverage);
    }

    #[test]
    fn scaled_plan_zero_is_noise_free() {
        let plan = scaled_plan(0.0);
        assert_eq!(plan.dropout.value(), 0.0);
        assert_eq!(plan.timeout.value(), 0.0);
        // Clock skew is a bound, not a rate: the sweep keeps it.
        assert!(plan.clock_skew.value() > 0.0);
    }
}
