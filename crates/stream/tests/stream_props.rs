//! Property tests for the streaming ingestion pipeline: whatever shard
//! count, queue capacity, or chaos mixture the stream runs through, the
//! estimate must stay exact when nothing is lost and *conserved* (every
//! sample tallied somewhere) when things are.

use proptest::prelude::*;

use sustain_core::units::TimeSpan;
use sustain_stream::pipeline::StreamConfig;
use sustain_stream::queue::BackpressurePolicy;
use sustain_stream::validate;
use sustain_telemetry::faults::FaultPlan;
use sustain_telemetry::meter::EnergyIntegrator;

proptest! {
    /// The headline exactness claim: on an in-order, fault-free stream the
    /// streaming estimator equals the exact [`EnergyIntegrator`] **to the
    /// bit**, for any shard count, queue capacity, reorder capacity, and
    /// flush cadence — in total and for each source's roll-up leaf. The
    /// pipeline is then pure re-plumbing of the same floating-point
    /// operations in the same order.
    #[test]
    fn clean_stream_is_bit_exact_for_any_topology(
        shards in 1usize..6,
        queue_capacity in 1usize..96,
        reorder_capacity in 1usize..64,
        flush_every in 1u64..80,
        sources in 1usize..7,
        ticks in 2u64..150,
    ) {
        let config = StreamConfig {
            shards,
            queue_capacity,
            reorder_capacity,
            flush_every,
            ..StreamConfig::default()
        };
        let report = validate::run_stream(&FaultPlan::none(), config, sources, ticks);
        let exact = validate::exact_energy(sources, ticks, config.interval);
        prop_assert_eq!(report.energy, exact, "streaming must be bit-exact");
        for source in 0..sources {
            let mut integrator = EnergyIntegrator::new();
            for i in 0..ticks {
                let at = config.interval * i as f64;
                integrator.push(at, validate::synthetic_power(source, at));
            }
            let leaf = report.rollup.energy(&validate::source_label(source));
            prop_assert_eq!(
                leaf.as_joules().to_bits(),
                integrator.energy().as_joules().to_bits(),
                "source {} must be bit-exact",
                source
            );
        }
        prop_assert!(report.is_conserved());
        prop_assert!(report.quality.is_pristine());
        prop_assert_eq!(report.quality.observed_samples, ticks * sources as u64);
        // Blocked offers and forced releases may fire with tiny capacities,
        // but they are lossless mechanisms — nothing above may be affected.
        prop_assert_eq!(report.retries, 0);
    }

    /// Chaos differential: under an arbitrary fault mixture the report
    /// stays conserved — expected samples equal ticks × sources, and the
    /// gap between expected and observed is exactly the sum of the tallied
    /// loss classes. Nothing is ever silently dropped.
    #[test]
    fn chaotic_stream_is_always_conserved(
        seed in any::<u64>(),
        dropout in 0.0f64..0.5,
        timeout in 0.0f64..0.5,
        skew in 0.0f64..1.0,
        lateness_s in 0.01f64..4.0,
        shards in 1usize..5,
        queue_capacity in 1usize..48,
        drop_oldest in any::<bool>(),
    ) {
        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_dropout(dropout)
            .with_timeout(timeout)
            .with_clock_skew(skew);
        let config = StreamConfig {
            shards,
            queue_capacity,
            reorder_capacity: 16,
            backpressure: if drop_oldest {
                BackpressurePolicy::DropOldest
            } else {
                BackpressurePolicy::BlockProducer
            },
            lateness: Some(TimeSpan::from_secs(lateness_s)),
            flush_every: 24,
            ..StreamConfig::default()
        };
        let report = validate::run_stream(&plan, config, 5, 160);
        prop_assert!(report.is_conserved(), "not conserved: {report:?}");
        let exact = validate::exact_energy(5, 160, config.interval);
        // Imputation bridges what chaos destroys: even at 50% dropout the
        // estimate stays within a factor-level bound of the truth rather
        // than collapsing toward zero.
        prop_assert!(
            report.relative_error(exact) < 0.75,
            "error unbounded: {} (report {report:?})",
            report.relative_error(exact)
        );
    }

    /// The reorder stage really does its job: with clock skew inside the
    /// lateness bound and no other faults, every sample is still observed
    /// (re-sequenced, not rejected), whatever the sharding.
    #[test]
    fn skew_within_the_bound_never_loses_a_sample(
        seed in any::<u64>(),
        skew in 0.0f64..1.0,
        shards in 1usize..5,
    ) {
        let plan = FaultPlan::none().with_seed(seed).with_clock_skew(skew);
        let config = StreamConfig {
            shards,
            queue_capacity: 64,
            reorder_capacity: 64,
            // The injector's skew is bounded by one interval; a 2 s bound
            // at a 1 s interval therefore admits every straggler.
            lateness: Some(TimeSpan::from_secs(2.0)),
            flush_every: 16,
            ..StreamConfig::default()
        };
        let report = validate::run_stream(&plan, config, 4, 120);
        prop_assert!(report.is_conserved());
        // Skew may widen a gap past the imputation threshold (that is the
        // integrator's business), but no sample may be *lost*: everything
        // re-sequences inside the bound.
        prop_assert_eq!(
            report.quality.observed_samples,
            report.quality.expected_samples,
            "bounded skew must not lose samples: {:?}",
            &report
        );
        prop_assert_eq!(report.quality.faults.late_arrivals, 0);
        prop_assert_eq!(report.quality.faults.out_of_order, 0);
    }
}
