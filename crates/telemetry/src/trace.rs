//! Recorded power traces.
//!
//! A [`PowerTrace`] is an ordered series of `(timestamp, power)` samples with
//! trapezoidal energy integration: a recording kept whole, to serialize or
//! to roll up in a [`TraceTree`](crate::hierarchy::TraceTree). The stream
//! pipeline and the fleet simulator keep no samples; they integrate online.
//!
//! Storage is columnar (structure-of-arrays): timestamps and powers live in
//! two parallel `Vec`s, so scans read a single column without striding over
//! interleaved pairs. The public API still speaks `(TimeSpan, Power)`
//! pairs, and the serialized form is unchanged.

use serde::{Deserialize, Serialize};

use sustain_core::units::{Energy, Power, TimeSpan};

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

    /// Iterates `(timestamp, power)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TimeSpan, Power)> + '_ {
        self.times.iter().copied().zip(self.powers.iter().copied())
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
    }

    #[test]
    fn empty_and_single_sample_traces() {
        let empty = PowerTrace::new();
        assert!(empty.is_empty());
        assert!(empty.energy().is_zero());

        let mut single = PowerTrace::new();
        single.push(TimeSpan::from_secs(1.0), Power::from_watts(5.0));
        assert!(single.energy().is_zero());
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
    fn soa_columns_stay_aligned() {
        let t = ramp();
        assert_eq!(t.times().len(), t.powers().len());
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
