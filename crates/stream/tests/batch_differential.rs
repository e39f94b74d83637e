//! Differential suite for the batched flush path: the report a pipeline
//! produces must be a pure function of the sample stream — independent of
//! how the release sequence is cut into batches (flush cadence), how the
//! sources are sharded, and how many pool threads drain the shards.
//!
//! Flush cadence is the pipeline-level "arbitrary batch boundaries" knob:
//! `flush_every = 1` feeds the kernel single-sample batches (the
//! per-sample path in all but name), while larger, deliberately unaligned
//! cadences hand it wide multi-tick batches. With capacities generous
//! enough that no forced release or backpressure eviction fires, the
//! released per-sink sample sequences are identical at every cadence, so
//! every report must be byte-identical too.

use sustain_par::ParPool;
use sustain_stream::pipeline::{StreamConfig, StreamPipeline, StreamReport};
use sustain_stream::validate::{self, synthetic_power};
use sustain_telemetry::faults::FaultPlan;

const SOURCES: usize = 12;
const TICKS: u64 = 256;

fn run(plan: &FaultPlan, shards: usize, flush_every: u64) -> StreamReport {
    // Queue capacity covers the longest cadence (12 sources x 256 ticks)
    // and the reorder buffer never reaches its forced-release limit, so
    // the differential's precondition — an identical release sequence at
    // every cadence — holds by construction.
    let mut pipe = StreamPipeline::new(StreamConfig {
        shards,
        queue_capacity: 4096,
        reorder_capacity: 4096,
        flush_every,
        ..StreamConfig::default()
    });
    for i in 0..SOURCES {
        pipe.add_source(&validate::source_label(i), plan);
    }
    pipe.run(TICKS, synthetic_power);
    pipe.finish()
}

fn assert_identical(a: &StreamReport, b: &StreamReport, what: &str) {
    assert_eq!(a.quality, b.quality, "{what}: quality diverged");
    assert_eq!(a.energy, b.energy, "{what}: energy diverged");
    assert_eq!(
        a.energy.as_joules().to_bits(),
        b.energy.as_joules().to_bits(),
        "{what}: energy bits diverged"
    );
    assert_eq!(a.rollup, b.rollup, "{what}: rollup diverged");
    assert_eq!(a.lost_reads, b.lost_reads, "{what}: lost reads diverged");
    assert_eq!(a.retries, b.retries, "{what}: retries diverged");
}

/// `ParPool::set_threads` is process-global, so the whole grid lives in
/// one test (parallel tests in this binary would race on the override).
#[test]
fn batch_boundaries_threads_and_shards_never_change_reports() {
    for (label, plan) in [
        ("clean", FaultPlan::none()),
        ("degraded", FaultPlan::degraded().with_seed(97)),
    ] {
        // Reference: single-sample batches (per-sample path in all but
        // name), serial, 4 shards.
        ParPool::set_threads(1);
        let reference = run(&plan, 4, 1);
        assert!(
            reference.is_conserved(),
            "{label}: reference must conserve samples"
        );
        assert_eq!(
            reference.quality.faults.queue_drops, 0,
            "{label}: differential precondition — no eviction may fire"
        );

        // Unaligned (7), default-ish (32), and one-big-batch (256)
        // cadences, at 1 and 4 threads, at 1 and 4 shards.
        for flush_every in [7u64, 32, 256] {
            for threads in [1usize, 4] {
                for shards in [1usize, 4] {
                    ParPool::set_threads(threads);
                    let report = run(&plan, shards, flush_every);
                    assert_identical(
                        &reference,
                        &report,
                        &format!(
                            "{label}: flush_every={flush_every} \
                             threads={threads} shards={shards}"
                        ),
                    );
                }
            }
        }
    }
    ParPool::set_threads(0);
}

/// The named `telemetry.integrate.batch` span must account for the bulk
/// of `stream.flush`: if per-sample integration work leaks out of the
/// batched stage (or the control path grows un-amortized per-flush work),
/// this attribution collapses and the batched-kernel claim is void.
///
/// Wall-clock measurement: best-of-3 so one scheduler blip on a loaded
/// box cannot fail the build — any single clean run proves the shape.
#[test]
fn flush_time_attributes_to_the_batched_kernel() {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let obs = sustain_obs::ObsConfig::enabled().with_wall_clock().build();
        let plan = FaultPlan::none();
        sustain_obs::with_task_handle(&obs, || {
            let mut pipe = StreamPipeline::new(StreamConfig {
                shards: 1,
                queue_capacity: 65536,
                reorder_capacity: 65536,
                flush_every: 2048,
                ..StreamConfig::default()
            });
            for i in 0..32 {
                pipe.add_source(&validate::source_label(i), &plan);
            }
            pipe.run(8192, synthetic_power);
            assert!(pipe.finish().is_conserved());
        });
        let profile = sustain_prof::profile_records(&obs.events());
        best = best.max(profile.attribution("stream.flush", "telemetry.integrate.batch"));
        if best >= 0.8 {
            break;
        }
    }
    assert!(
        best >= 0.8,
        "batched integration stage must dominate stream.flush: \
         best attribution over 3 runs was {best:.3}"
    );
}
