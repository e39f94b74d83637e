//! Power sampling and energy integration.
//!
//! [`EnergyIntegrator`] accumulates `(time, power)` samples and integrates
//! them trapezoidally into an energy total — the core of every software power
//! meter (RAPL readers, NVML pollers, CodeCarbon). [`FaultTolerantIntegrator`]
//! is its degradation-tolerant sibling: it survives lost samples and ragged
//! timestamps, splits its total into measured vs imputed energy, and reports
//! the split as a [`DataQualityReport`].

use sustain_core::quality::{DataQualityReport, FaultCounts, FaultKind};
use sustain_core::units::{Energy, Power, TimeSpan};
use sustain_obs::Obs;

use crate::faults::ImputationPolicy;

/// Incremental trapezoidal integration of power samples into energy.
///
/// ```rust
/// use sustain_telemetry::meter::EnergyIntegrator;
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut meter = EnergyIntegrator::new();
/// meter.push(TimeSpan::from_secs(0.0), Power::from_watts(100.0));
/// meter.push(TimeSpan::from_secs(10.0), Power::from_watts(200.0));
/// // Trapezoid: mean 150 W over 10 s = 1500 J.
/// assert!((meter.energy().as_joules() - 1500.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyIntegrator {
    last: Option<(TimeSpan, Power)>,
    energy: Energy,
    samples: usize,
    rejected: u64,
}

impl EnergyIntegrator {
    /// Creates an empty integrator.
    pub fn new() -> EnergyIntegrator {
        EnergyIntegrator::default()
    }

    /// Pushes a `(timestamp, power)` sample.
    ///
    /// Samples must arrive in non-decreasing time order; an out-of-order
    /// sample is ignored, tallied in [`EnergyIntegrator::rejected`], and the
    /// method returns `false`.
    pub fn push(&mut self, at: TimeSpan, power: Power) -> bool {
        if let Some((t0, p0)) = self.last {
            if at < t0 {
                self.rejected += 1;
                return false;
            }
            let dt = at - t0;
            self.energy += (p0 + power) * 0.5 * dt;
        }
        self.last = Some((at, power));
        self.samples += 1;
        true
    }

    /// Total integrated energy so far.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Number of samples pushed.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of out-of-order samples rejected (and therefore *not* part of
    /// [`EnergyIntegrator::samples`] or the energy total). A non-zero tally
    /// means upstream ordering was violated — callers that previously
    /// dropped the `false` return on the floor can audit it here.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// A degradation-tolerant energy integrator.
///
/// Where [`EnergyIntegrator`] assumes a perfect sample stream, this one is
/// built for the stream a [`crate::faults::FaultInjector`] (or a real broken
/// collector) produces: samples may be missing (`None`), timestamps may
/// jitter off the nominal grid, and gaps longer than
/// [`crate::constants::GAP_DETECTION_FACTOR`] × the nominal interval are
/// bridged by an [`ImputationPolicy`] instead of being silently integrated as
/// if measured. The measured/imputed split is preserved and exposed as a
/// [`DataQualityReport`].
///
/// ```rust
/// use sustain_telemetry::faults::ImputationPolicy;
/// use sustain_telemetry::meter::FaultTolerantIntegrator;
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut m = FaultTolerantIntegrator::new(
///     TimeSpan::from_secs(1.0),
///     ImputationPolicy::LastObservation,
/// );
/// m.push(TimeSpan::from_secs(0.0), Some(Power::from_watts(100.0)));
/// m.push(TimeSpan::from_secs(1.0), None); // lost sample
/// m.push(TimeSpan::from_secs(2.0), Some(Power::from_watts(100.0)));
/// let q = m.report();
/// assert!(q.coverage().value() < 1.0);
/// // The 0→2 s bridge spans the lost tick, so its 200 J are charged to
/// // imputation, not measurement.
/// assert!((q.accounted_energy().as_joules() - 200.0).abs() < 1e-9);
/// assert!((q.imputed_energy.as_joules() - 200.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTolerantIntegrator {
    interval: TimeSpan,
    policy: ImputationPolicy,
    last: Option<(TimeSpan, Power)>,
    expected: u64,
    observed: u64,
    measured: Energy,
    imputed: Energy,
    faults: FaultCounts,
}

impl FaultTolerantIntegrator {
    /// Creates an integrator expecting samples every `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn new(interval: TimeSpan, policy: ImputationPolicy) -> FaultTolerantIntegrator {
        assert_positive_finite(interval, "sampling interval");
        FaultTolerantIntegrator {
            interval,
            policy,
            last: None,
            expected: 0,
            observed: 0,
            measured: Energy::ZERO,
            imputed: Energy::ZERO,
            faults: FaultCounts::default(),
        }
    }

    /// Pushes one sampling tick: `Some(power)` for an observed reading,
    /// `None` for a lost one (dropout / read timeout). Out-of-order observed
    /// samples are rejected (the method returns `false`) and tallied as
    /// [`FaultKind::OutOfOrder`] in the report, so rejected data is never
    /// silently absent from the accounting; every call still counts one
    /// expected tick.
    pub fn push(&mut self, at: TimeSpan, sample: Option<Power>) -> bool {
        self.push_inner(at, sample, None)
    }

    /// [`FaultTolerantIntegrator::push`] with observability: every gap the
    /// integrator decides to bridge emits a structured `meter.imputed_gap`
    /// event (sample time, gap width, imputed energy, policy) and bumps a
    /// counter through `obs`. The integrator stays `Copy`, so the handle is
    /// borrowed per call rather than stored.
    pub fn push_traced(&mut self, at: TimeSpan, sample: Option<Power>, obs: &Obs) -> bool {
        self.push_inner(at, sample, Some(obs))
    }

    /// Pushes a batch of observed readings, returning how many were
    /// accepted. A lost tick goes through [`FaultTolerantIntegrator::push`]
    /// with `None` between batches.
    ///
    /// The batch is split into maximal *clean runs* — consecutive samples
    /// in time order whose spacing stays within the gap limit — and each run
    /// is integrated by a tight trapezoid loop with no fault or imputation
    /// branching. Every boundary sample (out-of-order timestamp or gap)
    /// falls back to the scalar path, so fault tallies, imputation, and the
    /// measured/imputed split are bitwise identical to pushing each sample
    /// as `(at, Some(power))` in order, however the stream is cut.
    pub fn push_batch_observed(&mut self, samples: &[(TimeSpan, Power)]) -> usize {
        let gap_limit = self.interval * crate::constants::GAP_DETECTION_FACTOR;
        let mut accepted = 0;
        let mut i = 0;
        while i < samples.len() {
            let Some((t0, p0)) = self.last else {
                let (at, power) = samples[i];
                accepted += usize::from(self.push_inner(at, Some(power), None));
                i += 1;
                continue;
            };
            // Maximal clean run starting at i: in-order and within the gap
            // limit of the running previous timestamp.
            let mut j = i;
            let mut prev = t0;
            while j < samples.len() {
                let (at, _) = samples[j];
                if at >= prev && at - prev <= gap_limit {
                    prev = at;
                    j += 1;
                } else {
                    break;
                }
            }
            if j == i {
                // Boundary: out-of-order or gap — scalar path keeps
                // tallies and imputation identical.
                let (at, power) = samples[i];
                accepted += usize::from(self.push_inner(at, Some(power), None));
                i += 1;
                continue;
            }
            // Clean-run kernel: per-sample order and `push_inner`'s
            // expression shape, so float results are bitwise identical.
            let (mut lt, mut lp) = (t0, p0);
            for &(at, p) in &samples[i..j] {
                self.measured += (lp + p) * 0.5 * (at - lt);
                lt = at;
                lp = p;
            }
            let n = (j - i) as u64;
            self.expected += n;
            self.observed += n;
            self.last = Some((lt, lp));
            accepted += j - i;
            i = j;
        }
        accepted
    }

    /// The most recently accepted `(timestamp, power)` sample, if any —
    /// the reference point the next push's ordering/gap checks run against.
    // lint:allow(test-only-pub) (b) batch-kernel tests compare integrator state through it
    pub fn last_sample(&self) -> Option<(TimeSpan, Power)> {
        self.last
    }

    fn push_inner(&mut self, at: TimeSpan, sample: Option<Power>, obs: Option<&Obs>) -> bool {
        self.expected += 1;
        let Some(power) = sample else {
            return true;
        };
        if let Some((t0, p0)) = self.last {
            if at < t0 {
                // An observed sample we cannot integrate: tally it so the
                // report's coverage stops silently overstating measured data.
                self.faults.record(FaultKind::OutOfOrder);
                if let Some(obs) = obs.filter(|o| o.enabled()) {
                    obs.event(
                        "meter.rejected_sample",
                        &[
                            ("at_s", at.as_secs().into()),
                            ("last_s", t0.as_secs().into()),
                        ],
                    );
                    obs.counter("meter_rejected_samples_total").inc();
                }
                return false;
            }
            let dt = at - t0;
            let gap_limit = self.interval * crate::constants::GAP_DETECTION_FACTOR;
            let segment = (p0 + power) * 0.5 * dt;
            if dt > gap_limit {
                // Missing samples in between: charge the bridge to imputation.
                let (bridged, policy_label) = match self.policy {
                    ImputationPolicy::Linear => (segment, "linear"),
                    ImputationPolicy::LastObservation => (p0 * dt, "last_observation"),
                    ImputationPolicy::ModelBased { assumed } => (assumed * dt, "model_based"),
                };
                self.imputed += bridged;
                if let Some(obs) = obs.filter(|o| o.enabled()) {
                    obs.event(
                        "meter.imputed_gap",
                        &[
                            ("at_s", at.as_secs().into()),
                            ("gap_s", dt.as_secs().into()),
                            ("imputed_j", bridged.as_joules().into()),
                            ("policy", policy_label.into()),
                        ],
                    );
                    obs.counter("meter_imputed_gaps_total").inc();
                    obs.counter("meter_imputed_energy_joules_total")
                        .add(bridged.as_joules());
                }
            } else {
                self.measured += segment;
            }
        }
        self.last = Some((at, power));
        self.observed += 1;
        true
    }

    /// Folds an injector's (or any upstream source's) fault tallies into the
    /// report this integrator will emit.
    pub fn merge_faults(&mut self, faults: &FaultCounts) {
        self.faults.merge(faults);
    }

    /// Energy integrated from contiguous observed samples.
    pub fn measured_energy(&self) -> Energy {
        self.measured
    }

    /// Energy bridged across gaps by the imputation policy.
    pub fn imputed_energy(&self) -> Energy {
        self.imputed
    }

    /// Total accounted energy: measured plus imputed.
    pub fn energy(&self) -> Energy {
        self.measured + self.imputed
    }

    /// The data-quality accounting for everything pushed so far.
    pub fn report(&self) -> DataQualityReport {
        DataQualityReport {
            expected_samples: self.expected,
            observed_samples: self.observed,
            measured_energy: self.measured,
            imputed_energy: self.imputed,
            faults: self.faults,
        }
    }
}

/// Panics with "`what` must be positive and finite" unless `span` is: an
/// infinite interval hides every gap, an infinite duration never ends.
#[track_caller]
pub(crate) fn assert_positive_finite(span: TimeSpan, what: &str) {
    assert!(
        span.is_finite() && span.as_secs() > 0.0,
        "{what} must be positive and finite"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::units::Fraction;

    #[test]
    fn constant_power_integrates_exactly() {
        let mut m = EnergyIntegrator::new();
        for i in 0..=10 {
            m.push(TimeSpan::from_secs(i as f64), Power::from_watts(50.0));
        }
        assert!((m.energy().as_joules() - 500.0).abs() < 1e-9);
        assert_eq!(m.samples(), 11);
    }

    #[test]
    fn trapezoid_matches_linear_ramp() {
        // Power ramps 0→100 W over 10 s: energy = 500 J regardless of step.
        let mut coarse = EnergyIntegrator::new();
        let mut fine = EnergyIntegrator::new();
        for i in 0..=10 {
            let t = i as f64;
            coarse.push(TimeSpan::from_secs(t), Power::from_watts(10.0 * t));
        }
        for i in 0..=1000 {
            let t = i as f64 / 100.0;
            fine.push(TimeSpan::from_secs(t), Power::from_watts(10.0 * t));
        }
        assert!((coarse.energy().as_joules() - 500.0).abs() < 1e-9);
        assert!((fine.energy().as_joules() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_samples_rejected() {
        let mut m = EnergyIntegrator::new();
        assert!(m.push(TimeSpan::from_secs(5.0), Power::from_watts(1.0)));
        assert!(!m.push(TimeSpan::from_secs(4.0), Power::from_watts(1.0)));
        assert_eq!(m.samples(), 1);
        assert_eq!(m.rejected(), 1);
    }

    #[test]
    fn empty_integrator_is_zero() {
        let m = EnergyIntegrator::new();
        assert!(m.energy().is_zero());
    }

    #[test]
    fn single_sample_has_no_energy() {
        let mut m = EnergyIntegrator::new();
        m.push(TimeSpan::ZERO, Power::from_watts(100.0));
        assert!(m.energy().is_zero());
    }

    #[test]
    #[should_panic(expected = "interval must be positive and finite")]
    fn fault_tolerant_rejects_infinite_interval() {
        let _ = FaultTolerantIntegrator::new(
            TimeSpan::from_secs(f64::INFINITY),
            ImputationPolicy::LastObservation,
        );
    }

    fn ft(policy: ImputationPolicy) -> FaultTolerantIntegrator {
        FaultTolerantIntegrator::new(TimeSpan::from_secs(1.0), policy)
    }

    #[test]
    fn fault_tolerant_matches_plain_on_clean_stream() {
        let mut plain = EnergyIntegrator::new();
        let mut tolerant = ft(ImputationPolicy::Linear);
        for i in 0..=20 {
            let t = TimeSpan::from_secs(i as f64);
            let p = Power::from_watts(100.0 + 5.0 * i as f64);
            plain.push(t, p);
            tolerant.push(t, Some(p));
        }
        assert_eq!(tolerant.measured_energy(), plain.energy());
        assert!(tolerant.imputed_energy().is_zero());
        let q = tolerant.report();
        assert!(q.is_pristine());
        assert_eq!(q.coverage(), Fraction::ONE);
    }

    #[test]
    fn linear_imputation_bridges_a_gap_exactly() {
        // Constant 100 W with ticks 3..7 lost: linear bridge loses nothing.
        let mut m = ft(ImputationPolicy::Linear);
        for i in 0..=10 {
            let t = TimeSpan::from_secs(i as f64);
            let lost = (3..=6).contains(&i);
            m.push(t, (!lost).then_some(Power::from_watts(100.0)));
        }
        assert!((m.energy().as_joules() - 1000.0).abs() < 1e-9);
        // The 2→7 s bridge (500 J) is imputed; the rest is measured.
        assert!((m.imputed_energy().as_joules() - 500.0).abs() < 1e-9);
        assert!((m.measured_energy().as_joules() - 500.0).abs() < 1e-9);
        let q = m.report();
        assert_eq!(q.expected_samples, 11);
        assert_eq!(q.observed_samples, 7);
        assert!(q.coverage().value() < 1.0);
    }

    #[test]
    fn last_observation_holds_flat_across_gap() {
        // 100 W before the gap, 300 W after: LOCF charges the gap at 100 W.
        let mut m = ft(ImputationPolicy::LastObservation);
        m.push(TimeSpan::from_secs(0.0), Some(Power::from_watts(100.0)));
        m.push(TimeSpan::from_secs(1.0), Some(Power::from_watts(100.0)));
        m.push(TimeSpan::from_secs(2.0), None);
        m.push(TimeSpan::from_secs(3.0), None);
        m.push(TimeSpan::from_secs(4.0), Some(Power::from_watts(300.0)));
        // Measured 0→1 s at 100 W = 100 J; imputed 1→4 s at 100 W = 300 J.
        assert!((m.measured_energy().as_joules() - 100.0).abs() < 1e-9);
        assert!((m.imputed_energy().as_joules() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn model_based_imputation_charges_assumed_power() {
        let mut m = ft(ImputationPolicy::ModelBased {
            assumed: Power::from_watts(250.0),
        });
        m.push(TimeSpan::from_secs(0.0), Some(Power::from_watts(100.0)));
        m.push(TimeSpan::from_secs(1.0), None);
        m.push(TimeSpan::from_secs(2.0), Some(Power::from_watts(100.0)));
        // The 0→2 s gap is charged at the assumed 250 W.
        assert!((m.imputed_energy().as_joules() - 500.0).abs() < 1e-9);
        assert!(m.measured_energy().is_zero());
    }

    #[test]
    fn jittered_timestamps_within_gap_limit_stay_measured() {
        let mut m = ft(ImputationPolicy::Linear);
        // Ticks at 0, 1.2, 2.1, 3.4 s — ragged but every dt ≤ 1.5 s.
        for t in [0.0, 1.2, 2.1, 3.4] {
            m.push(TimeSpan::from_secs(t), Some(Power::from_watts(100.0)));
        }
        assert!(m.imputed_energy().is_zero());
        assert!((m.measured_energy().as_joules() - 340.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_observed_sample_is_ignored_but_tallied() {
        let mut m = ft(ImputationPolicy::Linear);
        assert!(m.push(TimeSpan::from_secs(5.0), Some(Power::from_watts(1.0))));
        assert!(!m.push(TimeSpan::from_secs(4.0), Some(Power::from_watts(1.0))));
        let q = m.report();
        assert_eq!(q.expected_samples, 2);
        assert_eq!(q.observed_samples, 1);
        // The rejection is visible in the report, not dropped on the floor.
        assert_eq!(q.faults.out_of_order, 1);
        assert!(!q.is_pristine());
    }

    #[test]
    fn rejected_sample_emits_obs_event_on_traced_path() {
        use sustain_obs::ObsConfig;
        let obs = ObsConfig::enabled().build();
        let mut m = ft(ImputationPolicy::Linear);
        assert!(m.push_traced(TimeSpan::from_secs(5.0), Some(Power::from_watts(1.0)), &obs));
        assert!(!m.push_traced(TimeSpan::from_secs(4.0), Some(Power::from_watts(1.0)), &obs));
        assert!((obs.counter("meter_rejected_samples_total").value() - 1.0).abs() < 1e-12);
        let events = obs.events();
        assert!(events.iter().any(|e| matches!(
            e,
            sustain_obs::EventRecord::Instant { name, .. } if *name == "meter.rejected_sample"
        )));
    }

    /// A tick stream exercising every boundary kind: lost ticks, gaps,
    /// out-of-order timestamps, jitter, and long clean stretches.
    fn adversarial_ticks() -> Vec<(TimeSpan, Option<Power>)> {
        let mut ticks = Vec::new();
        let mut t = 0.0;
        for i in 0..200u64 {
            let power = Power::from_watts(100.0 + (i % 13) as f64 * 7.0);
            // Lost ticks at phases 3 and 9; phase 5 is followed by a gap.
            let sample = (!matches!(i % 17, 3 | 9)).then_some(power);
            ticks.push((TimeSpan::from_secs(t), sample));
            t += match i % 17 {
                5 => 4.0,  // gap beyond the detection limit
                11 => 0.3, // jitter
                _ => 1.0,
            };
            if i % 23 == 7 {
                // Out-of-order straggler.
                ticks.push((TimeSpan::from_secs(t - 2.5), Some(power)));
            }
        }
        ticks
    }

    /// Feeds `ticks` the way the stream pipeline does: observed readings
    /// in `push_batch_observed` batches of at most `chunk`, and each lost
    /// tick through `push(at, None)` between batches. Returns how many
    /// observed samples were accepted.
    fn push_in_batches(
        m: &mut FaultTolerantIntegrator,
        ticks: &[(TimeSpan, Option<Power>)],
        chunk: usize,
    ) -> usize {
        let mut accepted = 0;
        for run in ticks.split_inclusive(|&(_, s)| s.is_none()) {
            let observed: Vec<_> = run.iter().filter_map(|&(t, s)| Some((t, s?))).collect();
            for batch in observed.chunks(chunk) {
                accepted += m.push_batch_observed(batch);
            }
            if let Some(&(at, None)) = run.last() {
                m.push(at, None);
            }
        }
        accepted
    }

    #[test]
    fn batch_is_byte_identical_to_per_sample_for_any_split() {
        let ticks = adversarial_ticks();
        let mut reference = ft(ImputationPolicy::Linear);
        let mut accepted_ref = 0;
        for &(at, s) in &ticks {
            if reference.push(at, s) && s.is_some() {
                accepted_ref += 1;
            }
        }
        // Whole-run batches, plus every chunk size from degenerate to large:
        // run boundaries must be invariant to how the stream is batched.
        for chunk in [1, 2, 3, 7, 64, ticks.len()] {
            let mut batched = ft(ImputationPolicy::Linear);
            let accepted = push_in_batches(&mut batched, &ticks, chunk);
            assert_eq!(batched, reference, "chunk size {chunk}");
            assert_eq!(accepted, accepted_ref, "chunk size {chunk}");
            assert_eq!(
                batched.energy().as_joules().to_bits(),
                reference.energy().as_joules().to_bits(),
                "chunk size {chunk}: energy must match bitwise"
            );
        }
        let q = reference.report();
        assert!(q.faults.out_of_order > 0, "stream must exercise rejections");
        assert!(q.imputed_energy > Energy::ZERO, "stream must exercise gaps");
        assert!(q.observed_samples < q.expected_samples);
    }

    #[test]
    fn batch_is_byte_identical_across_policies() {
        let ticks = adversarial_ticks();
        for policy in [
            ImputationPolicy::Linear,
            ImputationPolicy::LastObservation,
            ImputationPolicy::ModelBased {
                assumed: Power::from_watts(180.0),
            },
        ] {
            let mut reference = ft(policy);
            let mut batched = ft(policy);
            for &(at, s) in &ticks {
                reference.push(at, s);
            }
            push_in_batches(&mut batched, &ticks, 5);
            assert_eq!(batched, reference, "{policy:?}");
        }
    }

    #[test]
    fn push_traced_fires_gap_and_rejection_events() {
        use sustain_obs::ObsConfig;
        let obs = ObsConfig::enabled().build();
        let mut m = ft(ImputationPolicy::Linear);
        let ticks = [
            (TimeSpan::from_secs(0.0), Some(Power::from_watts(100.0))),
            (TimeSpan::from_secs(1.0), Some(Power::from_watts(100.0))),
            (TimeSpan::from_secs(6.0), Some(Power::from_watts(100.0))), // gap
            (TimeSpan::from_secs(2.0), Some(Power::from_watts(100.0))), // out of order
        ];
        for (at, sample) in ticks {
            m.push_traced(at, sample, &obs);
        }
        assert!((obs.counter("meter_imputed_gaps_total").value() - 1.0).abs() < 1e-12);
        assert!((obs.counter("meter_rejected_samples_total").value() - 1.0).abs() < 1e-12);
        assert_eq!(
            m.last_sample(),
            Some((TimeSpan::from_secs(6.0), Power::from_watts(100.0)))
        );
    }

    #[test]
    fn merged_faults_surface_in_report() {
        use sustain_core::quality::{FaultCounts, FaultKind};
        let mut m = ft(ImputationPolicy::Linear);
        let mut c = FaultCounts::default();
        c.record(FaultKind::Dropout);
        c.record(FaultKind::CounterWrap);
        m.merge_faults(&c);
        assert_eq!(m.report().faults.total(), 2);
    }
}
