//! Thread-count and topology differentials for the streaming pipeline.
//!
//! The workspace's determinism contract extends to the streaming layer:
//! the *only* thing `ParPool::set_threads` may change is wall-clock time.
//! Every report, energy total, and roll-up must be byte-identical at 1
//! and 4 threads, for any sharding, and — with a zero-rate [`FaultPlan`]
//! and an infinite lateness bound — identical to plain synchronous
//! polling with no streaming machinery at all.

use sustain_core::units::TimeSpan;
use sustain_par::ParPool;
use sustain_stream::pipeline::{StreamConfig, StreamPipeline, StreamReport};
use sustain_stream::validate::{self, synthetic_power};
use sustain_telemetry::faults::FaultPlan;

const SOURCES: usize = 10;
const TICKS: u64 = 400;

fn run(plan: &FaultPlan, config: StreamConfig) -> StreamReport {
    let mut pipe = StreamPipeline::new(config);
    for i in 0..SOURCES {
        pipe.add_source(&validate::source_label(i), plan);
    }
    pipe.run(TICKS, synthetic_power);
    pipe.finish()
}

fn assert_identical(a: &StreamReport, b: &StreamReport, what: &str) {
    assert_eq!(a.quality, b.quality, "{what}: quality diverged");
    assert_eq!(a.energy, b.energy, "{what}: energy diverged");
    assert_eq!(a.rollup, b.rollup, "{what}: roll-up diverged");
    assert_eq!(a.lost_reads, b.lost_reads, "{what}: lost reads diverged");
    assert_eq!(a.retries, b.retries, "{what}: retries diverged");
}

/// `ParPool::set_threads` is process-global, so every thread-count
/// differential lives in this one test: parallel test binaries would
/// otherwise race on the override.
#[test]
fn thread_count_and_sharding_never_change_any_report() {
    let degraded = FaultPlan::degraded().with_seed(41);
    let config = StreamConfig {
        shards: 4,
        queue_capacity: 64,
        reorder_capacity: 32,
        flush_every: 16,
        ..StreamConfig::default()
    };

    // (a) Zero-rate plan + infinite lateness: the pipeline must be a
    // byte-identical no-op against synchronous polling — same quality,
    // energy, and roll-up — at 1 and at 4 threads. No RNG draw, no retry,
    // no drop may fire anywhere on this path.
    let clean = FaultPlan::none();
    let unbounded = config.with_lateness(None);
    let sync = validate::run_synchronous(
        &clean,
        SOURCES,
        TICKS,
        unbounded.interval,
        unbounded.imputation,
    );
    for threads in [1usize, 4] {
        ParPool::set_threads(threads);
        let report = run(&clean, unbounded);
        assert_eq!(
            sync.quality, report.quality,
            "no-op differential at {threads} threads"
        );
        assert_eq!(sync.energy, report.energy);
        assert_eq!(sync.rollup, report.rollup);
        assert!(report.quality.is_pristine());
        assert_eq!(report.retries + report.lost_reads, 0);
        assert_eq!(
            report.quality.faults.queue_drops
                + report.quality.faults.late_arrivals
                + report.quality.faults.out_of_order,
            0,
            "no streaming fault may fire on the clean path"
        );
    }

    // (b) Chaos differential: a degraded plan produces the identical
    // report at 1 and 4 threads...
    ParPool::set_threads(1);
    let serial = run(&degraded, config);
    ParPool::set_threads(4);
    let parallel = run(&degraded, config);
    ParPool::set_threads(0);
    assert_identical(&serial, &parallel, "degraded 1-vs-4 threads");
    assert!(
        serial.is_conserved(),
        "chaos must stay conserved: {serial:?}"
    );
    assert!(!serial.quality.is_pristine(), "chaos must leave a mark");

    // (c) ...and sharding is an implementation detail: 1 shard and 4
    // shards agree bit-for-bit because results merge in source order.
    let one_shard = run(
        &degraded,
        StreamConfig {
            shards: 1,
            ..config
        },
    );
    assert_identical(&serial, &one_shard, "4-vs-1 shards");

    // (d) Same stream, same seed, run twice: reports are reproducible.
    let again = run(&degraded, config);
    assert_identical(&serial, &again, "repeat run");
}

/// The chaos feed degrades the estimate but never the accounting: across
/// a spread of fault scales every report conserves its samples, and the
/// error against exact integration stays bounded by imputation.
#[test]
fn chaos_degradation_is_bounded_and_fully_accounted() {
    let config = StreamConfig {
        shards: 2,
        queue_capacity: 64,
        reorder_capacity: 32,
        flush_every: 16,
        ..StreamConfig::default()
    };
    let exact = validate::exact_energy(SOURCES, TICKS, config.interval);
    for scale in [0.5, 2.0, 8.0] {
        let plan = validate::scaled_plan(scale).with_seed(97);
        let report = run(&plan, config);
        assert!(report.is_conserved(), "scale {scale}: {report:?}");
        assert!(
            report.relative_error(exact) < 0.5,
            "scale {scale}: error {} out of bounds",
            report.relative_error(exact)
        );
        let faults = &report.quality.faults;
        assert_eq!(
            report.quality.expected_samples,
            report.quality.observed_samples
                + report.lost_reads
                + faults.queue_drops
                + faults.late_arrivals
                + faults.out_of_order,
            "every missing sample must be attributed: {report:?}"
        );
    }
}

/// A tight lateness bound under heavy skew trades coverage for memory —
/// but the trade is explicit: tighter bounds mean more tallied late
/// arrivals, never silent loss, and the relationship is monotone.
#[test]
fn lateness_bound_trades_tallied_losses_not_silent_ones() {
    let plan = FaultPlan::none().with_seed(7).with_clock_skew(1.0);
    let strand = |bound_s: f64| {
        let config = StreamConfig {
            shards: 2,
            queue_capacity: 64,
            reorder_capacity: 64,
            lateness: Some(TimeSpan::from_secs(bound_s)),
            flush_every: 4,
            ..StreamConfig::default()
        };
        let report = run(&plan, config);
        assert!(report.is_conserved(), "bound {bound_s}: {report:?}");
        report.quality.faults.late_arrivals + report.quality.faults.out_of_order
    };
    let tight = strand(0.01);
    let loose = strand(0.5);
    let safe = strand(2.0);
    assert!(
        tight > loose,
        "tighter bound strands more: {tight} vs {loose}"
    );
    assert_eq!(safe, 0, "a bound beyond the max skew strands nobody");
}
