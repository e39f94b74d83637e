//! Recorded power traces.
//!
//! A [`PowerTrace`] is an ordered series of `(timestamp, power)` samples with
//! trapezoidal energy integration, resampling, and point-wise combination —
//! the exchange format between the telemetry layer and the fleet simulator.
//!
//! Storage is columnar (structure-of-arrays): timestamps and powers live in
//! two parallel `Vec`s so the batched append
//! ([`PowerTrace::push_batch_observed`]) can add whole in-order runs with
//! two contiguous `extend`s and scans read a single column without
//! striding over interleaved pairs. The public API still speaks
//! `(TimeSpan, Power)` pairs, and the serialized form is unchanged.

use serde::{Deserialize, Serialize};

use sustain_core::units::{Energy, Power, TimeSpan};

use crate::faults::ImputationPolicy;
use crate::meter::assert_positive_finite;

/// The result of [`PowerTrace::fill_gaps`]: the gap-filled trace plus an
/// accounting of how much energy the fill invented.
#[derive(Debug, Clone, PartialEq)]
pub struct GapFill {
    /// The trace with imputed samples inserted on the nominal grid.
    pub trace: PowerTrace,
    /// Energy contributed by imputed (gap-bridging) segments.
    pub imputed: Energy,
    /// Number of gaps that were bridged.
    pub gaps: usize,
}

/// An ordered series of `(timestamp, power)` samples.
///
/// ```rust
/// use sustain_telemetry::trace::PowerTrace;
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut trace = PowerTrace::new();
/// trace.push(TimeSpan::from_secs(0.0), Power::from_watts(100.0));
/// trace.push(TimeSpan::from_secs(60.0), Power::from_watts(100.0));
/// assert!((trace.energy().as_joules() - 6000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerTrace {
    /// Sample timestamps, non-decreasing (column 1 of the SoA layout).
    times: Vec<TimeSpan>,
    /// Sample powers, index-aligned with `times` (column 2).
    powers: Vec<Power>,
    /// Out-of-order pushes rejected since construction — kept on the trace
    /// so a collector that ignored `push`'s return value still cannot lose
    /// samples invisibly.
    rejected: u64,
}

impl PowerTrace {
    /// Creates an empty trace.
    pub fn new() -> PowerTrace {
        PowerTrace::default()
    }

    /// Appends a sample. Out-of-order timestamps are rejected (returns
    /// `false`) and tallied in [`PowerTrace::rejected`].
    pub fn push(&mut self, at: TimeSpan, power: Power) -> bool {
        if let Some(&last) = self.times.last() {
            if at < last {
                self.rejected += 1;
                return false;
            }
        }
        self.times.push(at);
        self.powers.push(power);
        true
    }

    /// Appends a batch of observed readings, returning the number
    /// appended. Contiguous in-order runs are appended columnar with two
    /// `extend`s.
    ///
    /// Out-of-order entries are skipped *without* touching
    /// [`PowerTrace::rejected`]: the caller (the stream pipeline) has
    /// already tallied them as rejections by the integrator this trace
    /// mirrors, so counting them here would count them twice. Use
    /// [`PowerTrace::push`] for a tallied per-sample append.
    pub fn push_batch_observed(&mut self, samples: &[(TimeSpan, Power)]) -> usize {
        let mut appended = 0;
        let mut i = 0;
        while i < samples.len() {
            let (at, _) = samples[i];
            if self.times.last().is_some_and(|&last| at < last) {
                i += 1;
                continue;
            }
            // Maximal clean run: samples in non-decreasing order.
            let mut j = i + 1;
            let mut prev = at;
            while j < samples.len() {
                let (t, _) = samples[j];
                if t >= prev {
                    prev = t;
                    j += 1;
                } else {
                    break;
                }
            }
            let run = &samples[i..j];
            self.times.extend(run.iter().map(|&(t, _)| t));
            self.powers.extend(run.iter().map(|&(_, p)| p));
            appended += j - i;
            i = j;
        }
        appended
    }

    /// Number of out-of-order pushes rejected since construction.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The timestamp column (non-decreasing, index-aligned with
    /// [`PowerTrace::powers`]).
    pub fn times(&self) -> &[TimeSpan] {
        &self.times
    }

    /// The power column (index-aligned with [`PowerTrace::times`]).
    pub fn powers(&self) -> &[Power] {
        &self.powers
    }

    /// The most recent timestamp, if any.
    pub fn last_time(&self) -> Option<TimeSpan> {
        self.times.last().copied()
    }

    /// Iterates `(timestamp, power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TimeSpan, Power)> + '_ {
        self.times.iter().copied().zip(self.powers.iter().copied())
    }

    /// The time covered by the trace.
    pub fn duration(&self) -> TimeSpan {
        match (self.times.first(), self.times.last()) {
            (Some(&a), Some(&b)) => b - a,
            _ => TimeSpan::ZERO,
        }
    }

    /// Trapezoidal energy integral over the trace.
    pub fn energy(&self) -> Energy {
        let mut total = Energy::ZERO;
        for i in 1..self.times.len() {
            total +=
                (self.powers[i - 1] + self.powers[i]) * 0.5 * (self.times[i] - self.times[i - 1]);
        }
        total
    }

    /// Mean power over the covered window (zero for empty/instant traces).
    pub fn mean_power(&self) -> Power {
        let d = self.duration();
        if d.as_secs() > 0.0 {
            self.energy() / d
        } else {
            Power::ZERO
        }
    }

    /// Peak sampled power (zero for an empty trace).
    pub fn peak_power(&self) -> Power {
        self.powers.iter().copied().fold(Power::ZERO, Power::max)
    }

    /// Power at time `t` by linear interpolation. Returns `None` outside the
    /// covered window or for an empty trace.
    pub fn power_at(&self, t: TimeSpan) -> Option<Power> {
        let first = *self.times.first()?;
        let last = *self.times.last()?;
        if t < first || t > last {
            return None;
        }
        let idx = self.times.partition_point(|&ts| ts <= t).saturating_sub(1);
        let (t0, p0) = (self.times[idx], self.powers[idx]);
        if idx + 1 >= self.times.len() || t == t0 {
            return Some(p0);
        }
        let (t1, p1) = (self.times[idx + 1], self.powers[idx + 1]);
        if t1 == t0 {
            return Some(p1);
        }
        let w = (t - t0) / (t1 - t0);
        Some(p0 + (p1 - p0) * w)
    }

    /// Resamples onto a regular grid of `interval` over the covered window.
    ///
    /// Returns an empty trace if the input has fewer than 2 samples.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn resample(&self, interval: TimeSpan) -> PowerTrace {
        assert_positive_finite(interval, "interval");
        let mut out = PowerTrace::new();
        let (Some(&start), Some(&end)) = (self.times.first(), self.times.last()) else {
            return out;
        };
        if self.times.len() < 2 {
            return out;
        }
        let mut t = start;
        while t < end {
            // lint:allow(panic-discipline) t lies in [start, end] by loop bound
            out.push(t, self.power_at(t).expect("t within window"));
            t += interval;
        }
        // lint:allow(panic-discipline) end is the last sample's timestamp
        out.push(end, self.power_at(end).expect("end within window"));
        out
    }

    /// Detects gaps — sample spacings longer than
    /// [`crate::constants::GAP_DETECTION_FACTOR`] × `interval` — and bridges
    /// them with samples imputed on the nominal grid, so a lossy trace can be
    /// fed to consumers that assume regular sampling. The returned [`GapFill`]
    /// separates the invented energy from the measured trace.
    ///
    /// ```rust
    /// use sustain_telemetry::faults::ImputationPolicy;
    /// use sustain_telemetry::trace::PowerTrace;
    /// use sustain_core::units::{Power, TimeSpan};
    ///
    /// let mut lossy = PowerTrace::new();
    /// lossy.push(TimeSpan::from_secs(0.0), Power::from_watts(100.0));
    /// lossy.push(TimeSpan::from_secs(5.0), Power::from_watts(100.0)); // 4 ticks lost
    /// let fill = lossy.fill_gaps(TimeSpan::from_secs(1.0), ImputationPolicy::LastObservation);
    /// assert_eq!(fill.gaps, 1);
    /// assert_eq!(fill.trace.len(), 6);
    /// assert!((fill.imputed.as_joules() - 500.0).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn fill_gaps(&self, interval: TimeSpan, policy: ImputationPolicy) -> GapFill {
        assert_positive_finite(interval, "interval");
        let limit = interval * crate::constants::GAP_DETECTION_FACTOR;
        let mut trace = PowerTrace::new();
        let mut imputed = Energy::ZERO;
        let mut gaps = 0;
        if let (Some(&t), Some(&p)) = (self.times.first(), self.powers.first()) {
            trace.push(t, p);
        }
        for i in 1..self.times.len() {
            let (t0, p0) = (self.times[i - 1], self.powers[i - 1]);
            let (t1, p1) = (self.times[i], self.powers[i]);
            if t1 - t0 > limit {
                gaps += 1;
                // Insert grid points across the gap, then account the whole
                // bridged segment (t0 → t1) as imputed energy.
                let mut prev = (t0, p0);
                let mut t = t0 + interval;
                while t < t1 {
                    let p = match policy {
                        ImputationPolicy::Linear => {
                            let frac = (t - t0) / (t1 - t0);
                            p0 + (p1 - p0) * frac
                        }
                        ImputationPolicy::LastObservation => p0,
                        ImputationPolicy::ModelBased { assumed } => assumed,
                    };
                    trace.push(t, p);
                    imputed += (prev.1 + p) * 0.5 * (t - prev.0);
                    prev = (t, p);
                    t += interval;
                }
                imputed += (prev.1 + p1) * 0.5 * (t1 - prev.0);
            }
            trace.push(t1, p1);
        }
        GapFill {
            trace,
            imputed,
            gaps,
        }
    }

    /// Point-wise sum of two traces on the union grid of their timestamps,
    /// treating power outside either trace's window as zero — how rack-level
    /// power is assembled from per-device traces.
    pub fn combine(&self, other: &PowerTrace) -> PowerTrace {
        let mut times: Vec<TimeSpan> = self
            .times
            .iter()
            .chain(other.times.iter())
            .copied()
            .collect();
        times.sort_unstable();
        times.dedup();
        let mut out = PowerTrace::new();
        for t in times {
            let a = self.power_at(t).unwrap_or(Power::ZERO);
            let b = other.power_at(t).unwrap_or(Power::ZERO);
            out.push(t, a + b);
        }
        out
    }
}

// Manual serde impls: the SoA columns serialize as the same
// `{"samples": [[t, p], ...], "rejected": n}` object the pre-SoA derive
// produced, so persisted traces stay readable across the layout change.
impl Serialize for PowerTrace {
    fn to_value(&self) -> serde::Value {
        let samples: Vec<(TimeSpan, Power)> = self.iter().collect();
        serde::Value::Object(vec![
            ("samples".to_owned(), samples.to_value()),
            ("rejected".to_owned(), self.rejected.to_value()),
        ])
    }
}

impl Deserialize for PowerTrace {
    fn from_value(v: &serde::Value) -> Result<PowerTrace, serde::Error> {
        let samples: Vec<(TimeSpan, Power)> = serde::decode_field(v, "samples")?;
        let rejected: u64 = serde::decode_field(v, "rejected")?;
        let (times, powers) = samples.into_iter().unzip();
        Ok(PowerTrace {
            times,
            powers,
            rejected,
        })
    }
}

impl FromIterator<(TimeSpan, Power)> for PowerTrace {
    fn from_iter<I: IntoIterator<Item = (TimeSpan, Power)>>(iter: I) -> PowerTrace {
        let mut t = PowerTrace::new();
        for (at, p) in iter {
            t.push(at, p);
        }
        t
    }
}

impl Extend<(TimeSpan, Power)> for PowerTrace {
    fn extend<I: IntoIterator<Item = (TimeSpan, Power)>>(&mut self, iter: I) {
        for (at, p) in iter {
            self.push(at, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> PowerTrace {
        // 0 W at t=0 to 100 W at t=10.
        vec![
            (TimeSpan::from_secs(0.0), Power::from_watts(0.0)),
            (TimeSpan::from_secs(10.0), Power::from_watts(100.0)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn energy_of_ramp() {
        assert!((ramp().energy().as_joules() - 500.0).abs() < 1e-9);
        assert!((ramp().mean_power().as_watts() - 50.0).abs() < 1e-9);
        assert_eq!(ramp().peak_power(), Power::from_watts(100.0));
    }

    #[test]
    fn empty_and_single_sample_traces() {
        let empty = PowerTrace::new();
        assert!(empty.is_empty());
        assert!(empty.energy().is_zero());
        assert_eq!(empty.mean_power(), Power::ZERO);
        assert_eq!(empty.power_at(TimeSpan::ZERO), None);

        let mut single = PowerTrace::new();
        single.push(TimeSpan::from_secs(1.0), Power::from_watts(5.0));
        assert!(single.energy().is_zero());
        assert_eq!(
            single.power_at(TimeSpan::from_secs(1.0)),
            Some(Power::from_watts(5.0))
        );
    }

    #[test]
    fn interpolation_inside_window() {
        let t = ramp();
        let p = t.power_at(TimeSpan::from_secs(2.5)).unwrap();
        assert!((p.as_watts() - 25.0).abs() < 1e-9);
        assert_eq!(t.power_at(TimeSpan::from_secs(-1.0)), None);
        assert_eq!(t.power_at(TimeSpan::from_secs(11.0)), None);
    }

    #[test]
    fn resample_preserves_energy_of_linear_trace() {
        let t = ramp();
        let r = t.resample(TimeSpan::from_secs(1.0));
        assert_eq!(r.len(), 11);
        assert!((r.energy().as_joules() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn resample_of_short_trace_is_empty() {
        let mut t = PowerTrace::new();
        t.push(TimeSpan::ZERO, Power::from_watts(1.0));
        assert!(t.resample(TimeSpan::from_secs(1.0)).is_empty());
    }

    #[test]
    fn combine_sums_overlapping_power() {
        let a = ramp();
        let b = ramp();
        let c = a.combine(&b);
        assert!((c.energy().as_joules() - 1000.0).abs() < 1e-9);
        let p = c.power_at(TimeSpan::from_secs(5.0)).unwrap();
        assert!((p.as_watts() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn combine_with_disjoint_windows() {
        let a = ramp();
        let b: PowerTrace = vec![
            (TimeSpan::from_secs(20.0), Power::from_watts(10.0)),
            (TimeSpan::from_secs(30.0), Power::from_watts(10.0)),
        ]
        .into_iter()
        .collect();
        let c = a.combine(&b);
        // Energy: both pieces present but gap (10→20 s) interpolates between
        // trace-a's end (treated 0 where absent) — combined grid has points at
        // 0,10,20,30; power at 10 is 100, at 20 is 10.
        assert_eq!(c.len(), 4);
        assert!(c.energy() > a.energy());
    }

    #[test]
    fn rejects_out_of_order_push() {
        let mut t = PowerTrace::new();
        assert!(t.push(TimeSpan::from_secs(5.0), Power::from_watts(1.0)));
        assert!(!t.push(TimeSpan::from_secs(1.0), Power::from_watts(1.0)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.rejected(), 1, "the rejection must be tallied");
    }

    #[test]
    fn push_batch_observed_matches_per_sample_push() {
        // The 1.5 s sample is an out-of-order straggler.
        let batch: Vec<(TimeSpan, Power)> = [0.0, 1.0, 3.0, 1.5, 4.0]
            .map(|t| (TimeSpan::from_secs(t), Power::from_watts(10.0 * t)))
            .to_vec();
        let mut batched = PowerTrace::new();
        assert_eq!(batched.push_batch_observed(&batch), 4);
        let reference: PowerTrace = batch.iter().copied().collect();
        assert_eq!(batched.times(), reference.times());
        assert_eq!(batched.powers(), reference.powers());
        // Both paths skip the straggler, but only the per-sample path
        // tallies it: the batch's caller already has.
        assert_eq!((reference.rejected(), batched.rejected()), (1, 0));
    }

    #[test]
    fn soa_columns_stay_aligned() {
        let t = ramp();
        assert_eq!(t.times().len(), t.powers().len());
        assert_eq!(t.last_time(), Some(TimeSpan::from_secs(10.0)));
        let pairs: Vec<(TimeSpan, Power)> = t.iter().collect();
        assert_eq!(pairs.len(), t.len());
        assert_eq!(pairs[0], (TimeSpan::from_secs(0.0), Power::from_watts(0.0)));
    }

    #[test]
    fn serde_round_trip() {
        let t = ramp();
        let json = serde_json::to_string(&t).unwrap();
        let back: PowerTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn fill_gaps_on_gapless_trace_is_identity() {
        let t: PowerTrace = (0..=10)
            .map(|i| (TimeSpan::from_secs(i as f64), Power::from_watts(50.0)))
            .collect();
        let fill = t.fill_gaps(TimeSpan::from_secs(1.0), ImputationPolicy::Linear);
        assert_eq!(fill.trace, t);
        assert_eq!(fill.gaps, 0);
        assert!(fill.imputed.is_zero());
    }

    #[test]
    #[should_panic(expected = "interval must be positive and finite")]
    fn fill_gaps_rejects_infinite_interval() {
        let _ = ramp().fill_gaps(
            TimeSpan::from_secs(f64::INFINITY),
            ImputationPolicy::LastObservation,
        );
    }

    #[test]
    fn linear_fill_preserves_ramp_energy() {
        // A ramp with the middle missing: linear fill reconstructs it exactly.
        let lossy: PowerTrace = vec![
            (TimeSpan::from_secs(0.0), Power::from_watts(0.0)),
            (TimeSpan::from_secs(1.0), Power::from_watts(10.0)),
            (TimeSpan::from_secs(6.0), Power::from_watts(60.0)),
            (TimeSpan::from_secs(7.0), Power::from_watts(70.0)),
        ]
        .into_iter()
        .collect();
        let fill = lossy.fill_gaps(TimeSpan::from_secs(1.0), ImputationPolicy::Linear);
        assert_eq!(fill.gaps, 1);
        assert_eq!(fill.trace.len(), 8);
        let full_energy = 0.5 * 70.0 * 7.0; // ∫ 10t dt over 7 s
        assert!((fill.trace.energy().as_joules() - full_energy).abs() < 1e-9);
        // The bridged 1→6 s segment is flagged imputed: mean 35 W × 5 s.
        assert!((fill.imputed.as_joules() - 175.0).abs() < 1e-9);
    }

    #[test]
    fn model_based_fill_charges_assumed_power() {
        let lossy: PowerTrace = vec![
            (TimeSpan::from_secs(0.0), Power::from_watts(100.0)),
            (TimeSpan::from_secs(4.0), Power::from_watts(100.0)),
        ]
        .into_iter()
        .collect();
        let fill = lossy.fill_gaps(
            TimeSpan::from_secs(1.0),
            ImputationPolicy::ModelBased {
                assumed: Power::from_watts(200.0),
            },
        );
        // Grid points at 1,2,3 carry 200 W; edges blend with the 100 W
        // endpoints: 150 + 200 + 200 + 150 = 700 J across the bridge.
        assert!((fill.imputed.as_joules() - 700.0).abs() < 1e-9);
        assert_eq!(fill.trace.len(), 5);
    }

    #[test]
    fn duplicate_timestamps_allowed() {
        // Step change at the same instant (e.g. job start).
        let mut t = PowerTrace::new();
        t.push(TimeSpan::ZERO, Power::from_watts(0.0));
        t.push(TimeSpan::from_secs(5.0), Power::from_watts(0.0));
        t.push(TimeSpan::from_secs(5.0), Power::from_watts(100.0));
        t.push(TimeSpan::from_secs(10.0), Power::from_watts(100.0));
        assert!((t.energy().as_joules() - 500.0).abs() < 1e-9);
    }
}
