//! Watermark-based reordering of out-of-order samples.
//!
//! Clock skew, retry backoff, and multi-source fan-in all deliver samples
//! out of timestamp order, but the monotone integration path
//! ([`sustain_telemetry::meter::FaultTolerantIntegrator`]) rejects
//! regressions. A [`ReorderBuffer`] sits in between: it holds samples in a
//! time-ordered buffer and only releases those older than the *watermark*
//! — the newest timestamp seen minus a configurable lateness bound — so
//! anything arriving inside the bound is re-sequenced instead of rejected.
//! Samples arriving *behind* the watermark are too late to admit
//! ([`Admission::Late`]); the pipeline routes them to imputation and
//! tallies them, never silently dropping them. The buffer is bounded: at
//! capacity it force-releases its oldest samples (in time order, so a
//! forced release never reorders what it emits) and counts how often.
//!
//! Internally the buffer is a flat `Vec` of `(key, sample)` entries kept
//! sorted at all times: an in-order admission (the common case) is a plain
//! append, and an out-of-order one binary-searches its slot and shifts the
//! tail down — for the slightly-skewed streams the pipeline produces the
//! displaced tail is a handful of same-tick entries, so the shift is a
//! short contiguous `memmove` instead of a full sort per drain. Draining
//! then releases a ready *prefix* found by binary search, which batch
//! consumers ([`ReorderBuffer::drain_ready_with`]) take without
//! allocating. This is far cheaper than both the node-per-sample
//! `BTreeMap` it replaces and a lazily-sorted `Vec`.

use sustain_core::units::TimeSpan;

use crate::queue::Sample;

/// Outcome of [`ReorderBuffer::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The sample entered the buffer and will be released in time order.
    Admitted,
    /// The sample's timestamp is behind the watermark by more than the
    /// lateness bound; route it to imputation and tally it as a
    /// [`sustain_core::quality::FaultKind::LateArrival`].
    Late,
}

/// Sort key for buffered samples: the timestamp's IEEE-754 bit pattern,
/// monotone for the non-negative times a simulation produces. Equal
/// timestamps keep arrival order positionally — a new arrival inserts
/// *after* every entry with an equal key — so no sequence tie-breaker is
/// stored.
#[inline]
fn time_key(at: TimeSpan) -> u64 {
    at.as_secs().max(0.0).to_bits()
}

/// A bounded, time-ordered staging buffer with a lateness watermark.
///
/// ```rust
/// use sustain_stream::reorder::{Admission, ReorderBuffer};
/// use sustain_stream::queue::Sample;
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut buf = ReorderBuffer::new(16, Some(TimeSpan::from_secs(2.0)));
/// let s = |at: f64| Sample {
///     local: 0,
///     at: TimeSpan::from_secs(at),
///     power: Power::from_watts(100.0),
/// };
/// assert_eq!(buf.admit(s(10.0)), Admission::Admitted);
/// // 9.0 is late but inside the 2 s bound: re-sequenced, not lost.
/// assert_eq!(buf.admit(s(9.0)), Admission::Admitted);
/// // 7.5 is behind the watermark (10 − 2 = 8): too late to admit.
/// assert_eq!(buf.admit(s(7.5)), Admission::Late);
/// // 12.0 advances the watermark to 10: the stragglers release in time
/// // order regardless of arrival order.
/// assert_eq!(buf.admit(s(12.0)), Admission::Admitted);
/// let mut ready = Vec::new();
/// buf.drain_ready_with(|s| ready.push(s.at.as_secs()));
/// assert_eq!(ready, vec![9.0, 10.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ReorderBuffer {
    /// `time_key → sample` entries, always key-sorted (equal keys in
    /// arrival order): in-order admissions append, out-of-order ones
    /// binary-insert after their equal-key run.
    buf: Vec<(u64, Sample)>,
    capacity: usize,
    lateness: Option<TimeSpan>,
    max_seen: Option<TimeSpan>,
    /// Cached `max_seen - lateness`, refreshed only when `max_seen`
    /// advances so the per-admit lateness check is one comparison.
    mark: Option<TimeSpan>,
    forced: u64,
    late: u64,
}

impl ReorderBuffer {
    /// Creates an empty buffer releasing samples `lateness` behind the
    /// newest seen timestamp (`None` = an infinite bound: nothing is ever
    /// late and nothing is released until forced by capacity or a final
    /// drain).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, lateness: Option<TimeSpan>) -> ReorderBuffer {
        assert!(capacity > 0, "reorder buffer capacity must be positive");
        ReorderBuffer {
            buf: Vec::new(),
            capacity,
            lateness,
            max_seen: None,
            mark: None,
            forced: 0,
            late: 0,
        }
    }

    /// The watermark: the newest seen timestamp minus the lateness bound.
    /// `None` until a sample has been seen, or when the bound is infinite.
    pub fn watermark(&self) -> Option<TimeSpan> {
        self.mark
    }

    /// Offers a sample. Equal timestamps keep arrival order: a tie
    /// releases in the order it was admitted.
    #[inline]
    pub fn admit(&mut self, sample: Sample) -> Admission {
        if let Some(mark) = self.mark {
            if sample.at < mark {
                self.late += 1;
                return Admission::Late;
            }
        }
        match self.max_seen {
            Some(max) if max >= sample.at => {}
            _ => {
                self.max_seen = Some(sample.at);
                if let Some(bound) = self.lateness {
                    self.mark = Some(sample.at - bound);
                }
            }
        }
        let key = time_key(sample.at);
        // An in-order arrival (the common case) compares at or above the
        // current tail: append, which also keeps equal keys in arrival
        // order. A straggler binary-searches the slot *after* its
        // equal-key run; everything behind it is a newer-timestamped entry
        // from the same few ticks, so the shift is a short contiguous move.
        match self.buf.last() {
            Some(&(last_key, _)) if key < last_key => {
                // Walk back from the tail: a straggler's displacement is a
                // handful of same-tick entries, so the adjacent-memory scan
                // beats a binary search over the whole buffer — and the
                // scan is never longer than the memmove `insert` pays
                // anyway.
                let mut slot = self.buf.len() - 1;
                while slot > 0 && self.buf[slot - 1].0 > key {
                    slot -= 1;
                }
                self.buf.insert(slot, (key, sample));
            }
            _ => self.buf.push((key, sample)),
        }
        Admission::Admitted
    }

    /// Releases every sample at or behind the watermark, in time order,
    /// then force-releases oldest samples while the buffer exceeds its
    /// capacity. Forced releases stay in time order, so they can only make
    /// *later* stragglers miss the integrator — they never reorder what is
    /// emitted here. Each released sample goes to `consume` in time order,
    /// so a batch consumer can regroup samples per sink without staging
    /// them in an intermediate buffer.
    pub fn drain_ready_with(&mut self, mut consume: impl FnMut(Sample)) {
        let mut release = 0;
        if let Some(mark) = self.watermark() {
            if mark >= TimeSpan::ZERO {
                let limit = time_key(mark);
                release = self.buf.partition_point(|&(t, _)| t <= limit);
            }
        }
        if self.buf.len() - release > self.capacity {
            let forced = self.buf.len() - self.capacity - release;
            self.forced += forced as u64;
            release += forced;
        }
        for (_, sample) in self.buf.drain(..release) {
            consume(sample);
        }
    }

    /// Releases everything still buffered to `consume`, in time order
    /// (end-of-stream counterpart of [`ReorderBuffer::drain_ready_with`]).
    pub fn drain_all_with(&mut self, mut consume: impl FnMut(Sample)) {
        for (_, sample) in self.buf.drain(..) {
            consume(sample);
        }
    }

    /// Number of buffered samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples force-released past the watermark because the buffer was
    /// over capacity.
    pub fn forced_releases(&self) -> u64 {
        self.forced
    }

    /// Samples refused as too late, so far.
    pub fn late(&self) -> u64 {
        self.late
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::units::Power;

    fn s(at: f64) -> Sample {
        Sample {
            local: 0,
            at: TimeSpan::from_secs(at),
            power: Power::from_watts(100.0),
        }
    }

    fn ready(buf: &mut ReorderBuffer) -> Vec<Sample> {
        let mut out = Vec::new();
        buf.drain_ready_with(|sample| out.push(sample));
        out
    }

    fn all(buf: &mut ReorderBuffer) -> Vec<Sample> {
        let mut out = Vec::new();
        buf.drain_all_with(|sample| out.push(sample));
        out
    }

    #[test]
    fn releases_in_time_order() {
        let mut buf = ReorderBuffer::new(16, Some(TimeSpan::from_secs(1.0)));
        // Skewed arrivals, each within the 1 s bound of the running max.
        for at in [1.0, 0.5, 2.0, 1.5, 3.0, 2.5, 5.0].iter() {
            assert_eq!(buf.admit(s(*at)), Admission::Admitted);
        }
        // Watermark = 5 − 1 = 4: everything ≤ 4 s is ready, in time order.
        let out: Vec<f64> = ready(&mut buf).iter().map(|x| x.at.as_secs()).collect();
        assert_eq!(out, vec![0.5, 1.0, 1.5, 2.0, 2.5, 3.0]);
        assert_eq!(buf.len(), 1);
        let rest: Vec<f64> = all(&mut buf).iter().map(|x| x.at.as_secs()).collect();
        assert_eq!(rest, vec![5.0]);
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        let mut buf = ReorderBuffer::new(16, None);
        let mk = |local: usize| Sample {
            local,
            at: TimeSpan::from_secs(7.0),
            power: Power::from_watts(1.0),
        };
        buf.admit(mk(2));
        buf.admit(mk(0));
        buf.admit(mk(1));
        let order: Vec<usize> = all(&mut buf).iter().map(|x| x.local).collect();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn late_samples_are_refused_and_tallied() {
        let mut buf = ReorderBuffer::new(16, Some(TimeSpan::from_secs(2.0)));
        buf.admit(s(10.0));
        assert_eq!(buf.admit(s(7.9)), Admission::Late);
        assert_eq!(buf.admit(s(8.1)), Admission::Admitted);
        assert_eq!(buf.late(), 1);
        assert_eq!(buf.watermark(), Some(TimeSpan::from_secs(8.0)));
    }

    #[test]
    fn infinite_bound_never_marks_late_and_holds_everything() {
        let mut buf = ReorderBuffer::new(16, None);
        buf.admit(s(100.0));
        assert_eq!(buf.admit(s(0.0)), Admission::Admitted);
        assert!(buf.watermark().is_none());
        assert!(ready(&mut buf).is_empty(), "nothing releases on its own");
        assert_eq!(all(&mut buf).len(), 2);
    }

    #[test]
    fn capacity_forces_oldest_out_in_order() {
        let mut buf = ReorderBuffer::new(3, None);
        for at in [5.0, 2.0, 8.0, 1.0, 9.0].iter() {
            buf.admit(s(*at));
        }
        assert_eq!(buf.len(), 5);
        let out: Vec<f64> = ready(&mut buf).iter().map(|x| x.at.as_secs()).collect();
        // Over capacity by two: the two oldest leave, oldest first.
        assert_eq!(out, vec![1.0, 2.0]);
        assert_eq!(buf.forced_releases(), 2);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = ReorderBuffer::new(0, None);
    }
}
