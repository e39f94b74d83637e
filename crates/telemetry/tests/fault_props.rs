//! Property tests for the fault-injection layer and the degradation-tolerant
//! reading path: whatever mixture of dropout, noise, skew and loss a
//! [`FaultPlan`] throws at it, trapezoidal energy accounting must stay
//! non-negative, monotone, and self-consistent.

use proptest::prelude::*;

use sustain_core::units::{Energy, Power, TimeSpan};
use sustain_telemetry::faults::{FaultInjector, FaultPlan, ImputationPolicy};
use sustain_telemetry::meter::FaultTolerantIntegrator;

proptest! {
    #[test]
    fn integration_is_non_negative_and_monotone_under_faults(
        seed in 0u64..1_000_000,
        dropout in 0.0f64..0.6,
        burst_rate in 0.0f64..0.5,
        base_watts in 10.0f64..500.0,
    ) {
        let plan = FaultPlan::none()
            .with_seed(seed)
            .with_dropout(dropout)
            .with_noise_burst(burst_rate, Power::from_watts(100.0))
            .with_clock_skew(0.5);
        let mut inj = FaultInjector::new(&plan, "prop-stream");
        let interval = TimeSpan::from_secs(1.0);
        let mut m = FaultTolerantIntegrator::new(interval, ImputationPolicy::Linear);
        let mut prev = Energy::ZERO;
        for i in 0..200 {
            let truth =
                Power::from_watts(base_watts * (1.0 + 0.5 * (i as f64 * 0.1).sin()));
            let at = interval * i as f64;
            match inj.corrupt(at, interval, truth) {
                Some((t, p)) => {
                    prop_assert!(p >= Power::ZERO, "corrupted power went negative");
                    m.push(t, Some(p));
                }
                None => {
                    m.push(at, None);
                }
            }
            let e = m.energy();
            prop_assert!(e >= Energy::ZERO, "energy went negative: {e:?}");
            prop_assert!(e >= prev, "energy decreased: {e:?} after {prev:?}");
            prev = e;
        }
        let q = m.report();
        prop_assert!(q.coverage().value() <= 1.0);
        prop_assert!(q.observed_samples <= q.expected_samples);
        prop_assert!(q.observed_samples > 0, "200 samples at ≤60% dropout");
        let recombined = q.measured_energy + q.imputed_energy;
        prop_assert!(
            (q.accounted_energy() - recombined).as_joules().abs() < 1e-9,
            "measured/imputed split must recombine exactly"
        );
    }

    #[test]
    fn zero_rate_plan_is_identity_for_any_stream(
        seed in any::<u64>(),
        watts in 0.0f64..1000.0,
    ) {
        let plan = FaultPlan::none().with_seed(seed);
        let mut inj = FaultInjector::new(&plan, "identity");
        let interval = TimeSpan::from_secs(1.0);
        for i in 0..50 {
            let at = interval * i as f64;
            let truth = Power::from_watts(watts + i as f64);
            prop_assert_eq!(inj.corrupt(at, interval, truth), Some((at, truth)));
        }
        prop_assert!(inj.counts().is_empty());
    }

    #[test]
    fn dropout_only_plans_never_corrupt_surviving_samples(
        seed in 0u64..1_000_000,
        dropout in 0.0f64..0.9,
    ) {
        let plan = FaultPlan::none().with_seed(seed).with_dropout(dropout);
        let mut inj = FaultInjector::new(&plan, "dropout-only");
        let interval = TimeSpan::from_secs(1.0);
        for i in 0..100 {
            let at = interval * i as f64;
            let truth = Power::from_watts(42.0);
            if let Some(sample) = inj.corrupt(at, interval, truth) {
                prop_assert_eq!(sample, (at, truth), "survivors must pass unchanged");
            }
        }
    }
}
