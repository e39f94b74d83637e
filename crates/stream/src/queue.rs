//! Fixed-capacity ingest queues with explicit backpressure.
//!
//! An [`IngestQueue`] is the bounded buffer between meter producers and a
//! shard's reorder/aggregation stage. It never grows past its capacity;
//! what happens at the boundary is an explicit [`BackpressurePolicy`]
//! decision, and both outcomes are observable: a blocked offer and an
//! evicted sample are each tallied so the pipeline can account for every
//! sample it did not deliver.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use sustain_core::units::{Power, TimeSpan};

/// One counter sample in flight from a meter to its shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Index of the producing source within its shard's sink table.
    pub local: usize,
    /// Sample timestamp (possibly skewed or retry-delayed off the grid).
    pub at: TimeSpan,
    /// The power reading.
    pub power: Power,
}

/// What a bounded queue does when an offer arrives at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Refuse the offer ([`Offer::Full`]) and make the producer wait until
    /// the consumer drains the queue — lossless, but the producer stalls.
    BlockProducer,
    /// Evict the oldest queued sample to admit the new one
    /// ([`Offer::Evicted`]) — the producer never stalls, but the evicted
    /// sample is lost and must be tallied as a
    /// [`sustain_core::quality::FaultKind::QueueDrop`].
    DropOldest,
}

/// Outcome of [`IngestQueue::offer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// The sample was enqueued.
    Accepted,
    /// The sample was enqueued after evicting the returned oldest sample
    /// ([`BackpressurePolicy::DropOldest`] at capacity).
    Evicted(Sample),
    /// The queue is full and refused the sample
    /// ([`BackpressurePolicy::BlockProducer`]); drain and re-offer.
    Full,
}

/// A fixed-capacity FIFO of in-flight samples.
///
/// ```rust
/// use sustain_stream::queue::{BackpressurePolicy, IngestQueue, Offer, Sample};
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut q = IngestQueue::new(2, BackpressurePolicy::DropOldest);
/// let s = |i: f64| Sample {
///     local: 0,
///     at: TimeSpan::from_secs(i),
///     power: Power::from_watts(100.0),
/// };
/// assert_eq!(q.offer(s(0.0)), Offer::Accepted);
/// assert_eq!(q.offer(s(1.0)), Offer::Accepted);
/// // Capacity reached: the oldest sample is evicted, not silently dropped.
/// assert_eq!(q.offer(s(2.0)), Offer::Evicted(s(0.0)));
/// assert_eq!(q.evicted(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IngestQueue {
    buf: VecDeque<Sample>,
    capacity: usize,
    policy: BackpressurePolicy,
    evicted: u64,
    blocked: u64,
}

impl IngestQueue {
    /// Creates an empty queue.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity queue could never
    /// accept a sample and a blocking producer would spin forever.
    pub fn new(capacity: usize, policy: BackpressurePolicy) -> IngestQueue {
        assert!(capacity > 0, "ingest queue capacity must be positive");
        IngestQueue {
            buf: VecDeque::with_capacity(capacity.min(crate::constants::DEFAULT_QUEUE_CAPACITY)),
            capacity,
            policy,
            evicted: 0,
            blocked: 0,
        }
    }

    /// Offers a sample under this queue's backpressure policy.
    #[inline]
    pub fn offer(&mut self, sample: Sample) -> Offer {
        if self.buf.len() < self.capacity {
            self.buf.push_back(sample);
            return Offer::Accepted;
        }
        match self.policy {
            BackpressurePolicy::BlockProducer => {
                self.blocked += 1;
                Offer::Full
            }
            BackpressurePolicy::DropOldest => {
                let Some(oldest) = self.buf.pop_front() else {
                    // Unreachable with capacity > 0; treat as plain accept.
                    self.buf.push_back(sample);
                    return Offer::Accepted;
                };
                self.evicted += 1;
                self.buf.push_back(sample);
                Offer::Evicted(oldest)
            }
        }
    }

    /// Removes and returns the oldest queued sample.
    #[inline]
    pub fn pop(&mut self) -> Option<Sample> {
        self.buf.pop_front()
    }

    /// Empties the queue in FIFO order, handing every sample to `consume`
    /// — the bulk counterpart of [`IngestQueue::pop`] for a flush that
    /// drains the whole queue, without per-pop branching.
    pub fn drain_with(&mut self, mut consume: impl FnMut(Sample)) {
        for sample in self.buf.drain(..) {
            consume(sample);
        }
    }

    /// Number of queued samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples evicted under [`BackpressurePolicy::DropOldest`] so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Offers refused under [`BackpressurePolicy::BlockProducer`] so far.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(at: f64) -> Sample {
        Sample {
            local: 0,
            at: TimeSpan::from_secs(at),
            power: Power::from_watts(100.0),
        }
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = IngestQueue::new(8, BackpressurePolicy::BlockProducer);
        for i in 0..5 {
            assert_eq!(q.offer(s(i as f64)), Offer::Accepted);
        }
        assert_eq!(q.len(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(s(i as f64)));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn block_producer_refuses_at_capacity() {
        let mut q = IngestQueue::new(2, BackpressurePolicy::BlockProducer);
        assert_eq!(q.offer(s(0.0)), Offer::Accepted);
        assert_eq!(q.offer(s(1.0)), Offer::Accepted);
        assert_eq!(q.offer(s(2.0)), Offer::Full);
        assert_eq!(q.blocked(), 1);
        assert_eq!(q.evicted(), 0);
        // Nothing was lost: the refused sample is the caller's to retry.
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.offer(s(2.0)), Offer::Accepted);
    }

    #[test]
    fn drop_oldest_evicts_and_tallies() {
        let mut q = IngestQueue::new(2, BackpressurePolicy::DropOldest);
        q.offer(s(0.0));
        q.offer(s(1.0));
        assert_eq!(q.offer(s(2.0)), Offer::Evicted(s(0.0)));
        assert_eq!(q.offer(s(3.0)), Offer::Evicted(s(1.0)));
        assert_eq!(q.evicted(), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(s(2.0)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = IngestQueue::new(0, BackpressurePolicy::BlockProducer);
    }
}
