//! Simulated meter sources with retry/timeout/backoff on reads.
//!
//! A [`MeterSource`] wraps one named telemetry stream behind a
//! [`FaultInjector`]. A read that *times out* (NVML-style) is retried up
//! to a configurable number of attempts with exponentially backed-off,
//! deterministically jittered delays — the retried read carries a later
//! timestamp, modelling the wall-clock cost of the retry, and the reorder
//! stage re-sequences it. A *dropout* is not retryable (the meter missed
//! the tick entirely; there is nothing to re-read), and a read that
//! exhausts its retries is reported as [`MeterRead::Lost`] so the pipeline
//! degrades the estimate instead of stalling.
//!
//! Jitter is derived with [`sustain_par::task_seed`] from the pipeline
//! seed, the source label, and the (read, attempt) pair — never from
//! scheduling — so a retried run is byte-reproducible at any thread count.

use sustain_core::units::{Power, TimeSpan};
use sustain_telemetry::faults::{FaultInjector, FaultPlan};

/// Outcome of one sampling tick on a source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeterRead {
    /// A (possibly corrupted, possibly retry-delayed) sample to ingest.
    Sample(TimeSpan, Power),
    /// The tick's reading is gone: a dropout, or a timeout that survived
    /// every retry. The pipeline must still account the tick (imputation).
    Lost,
}

/// Maps a 64-bit seed to a uniform value in `[0, 1)` by taking the top 53
/// bits of the mix — the standard double-precision ladder.
fn unit_jitter(seed: u64) -> f64 {
    (seed >> 11) as f64 / (1u64 << 53) as f64
}

/// One simulated meter: a labelled stream, its fault injector, and its
/// retry accounting.
#[derive(Debug, Clone)]
pub struct MeterSource {
    label: String,
    injector: FaultInjector,
    /// Shard this source's samples route to.
    pub(crate) shard: usize,
    /// Index into the shard's sink table.
    pub(crate) local: usize,
    reads: u64,
    retries: u64,
    lost: u64,
    /// Injector timeout tally as of the last failed read — tracked
    /// incrementally so the hot success path never snapshots the full
    /// fault-count struct.
    seen_timeouts: u64,
    backoff_waited: TimeSpan,
}

impl MeterSource {
    /// Creates a source reading the stream `label` through `plan`.
    pub(crate) fn new(label: &str, plan: &FaultPlan, shard: usize, local: usize) -> MeterSource {
        MeterSource {
            label: label.to_owned(),
            injector: FaultInjector::new(plan, label),
            shard,
            local,
            reads: 0,
            retries: 0,
            lost: 0,
            seen_timeouts: 0,
            backoff_waited: TimeSpan::ZERO,
        }
    }

    /// Reads this tick's value through the injector, retrying timeouts.
    ///
    /// `truth` is the ground-truth power at nominal time `at`; `base_seed`
    /// is the pipeline seed the jitter stream is derived from. With a
    /// zero-rate plan the injector passes the sample through untouched
    /// without consulting its RNG, so the read is a strict no-op wrapper.
    pub(crate) fn read(
        &mut self,
        at: TimeSpan,
        interval: TimeSpan,
        truth: Power,
        max_retries: u32,
        backoff: TimeSpan,
        base_seed: u64,
    ) -> MeterRead {
        let read_index = self.reads;
        self.reads += 1;
        let mut attempt: u32 = 0;
        let mut read_at = at;
        loop {
            if let Some((t, p)) = self.injector.corrupt(read_at, interval, truth) {
                return MeterRead::Sample(t, p);
            }
            // Only a failed read can have bumped the timeout tally (a
            // successful corrupt pass never does), so comparing against the
            // incrementally tracked total on the failure path alone is
            // equivalent to snapshotting it before every read.
            let timeouts = self.injector.counts().timeouts;
            let timed_out = timeouts > self.seen_timeouts;
            self.seen_timeouts = timeouts;
            if !timed_out || attempt >= max_retries {
                // Dropouts are not retryable, and a timeout that exhausted
                // its retries is a lost tick either way.
                self.lost += 1;
                return MeterRead::Lost;
            }
            // Exponential backoff with deterministic jitter in [0.5, 1)×:
            // the retried read happens later, and the reorder stage
            // re-sequences it against the other sources' samples.
            let seed = sustain_par::task_seed(
                base_seed ^ crate::source_shard_hash(&self.label),
                (read_index << 8) | u64::from(attempt),
            );
            let scale = (1u64 << attempt.min(32)) as f64;
            let delay = backoff * scale * (0.5 + 0.5 * unit_jitter(seed));
            read_at += delay;
            self.backoff_waited += delay;
            self.retries += 1;
            attempt += 1;
        }
    }

    /// The injector's fault tallies so far.
    pub fn fault_counts(&self) -> sustain_core::quality::FaultCounts {
        self.injector.counts()
    }

    /// Retry attempts issued after timed-out reads.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Ticks whose reading was lost (dropout or retries exhausted).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Total simulated time spent in retry backoff.
    pub fn backoff_waited(&self) -> TimeSpan {
        self.backoff_waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(src: &mut MeterSource, n: u64, max_retries: u32) -> Vec<MeterRead> {
        let interval = TimeSpan::from_secs(1.0);
        let backoff = TimeSpan::from_secs(0.05);
        (0..n)
            .map(|i| {
                src.read(
                    interval * i as f64,
                    interval,
                    Power::from_watts(100.0),
                    max_retries,
                    backoff,
                    7,
                )
            })
            .collect()
    }

    #[test]
    fn clean_plan_reads_are_a_strict_noop() {
        let mut src = MeterSource::new("rack0/host0", &FaultPlan::none(), 0, 0);
        let out = read_all(&mut src, 50, 3);
        for (i, r) in out.iter().enumerate() {
            let at = TimeSpan::from_secs(i as f64);
            assert_eq!(*r, MeterRead::Sample(at, Power::from_watts(100.0)));
        }
        assert_eq!(src.retries(), 0);
        assert_eq!(src.lost(), 0);
        assert_eq!(src.backoff_waited(), TimeSpan::ZERO);
    }

    #[test]
    fn retries_recover_most_timeouts() {
        let plan = FaultPlan::none().with_seed(3).with_timeout(0.2);
        let mut no_retry = MeterSource::new("m", &plan, 0, 0);
        let mut with_retry = MeterSource::new("m", &plan, 0, 0);
        let lost_without = read_all(&mut no_retry, 2000, 0)
            .iter()
            .filter(|r| matches!(r, MeterRead::Lost))
            .count();
        let lost_with = read_all(&mut with_retry, 2000, 3)
            .iter()
            .filter(|r| matches!(r, MeterRead::Lost))
            .count();
        assert!(lost_without > 300, "timeouts must bite: {lost_without}");
        assert!(
            lost_with * 10 < lost_without,
            "retries must recover the bulk: {lost_with} vs {lost_without}"
        );
        assert!(with_retry.retries() > 0);
        assert!(with_retry.backoff_waited() > TimeSpan::ZERO);
    }

    #[test]
    fn retried_reads_carry_later_timestamps() {
        let plan = FaultPlan::none().with_seed(5).with_timeout(0.5);
        let mut src = MeterSource::new("m", &plan, 0, 0);
        let mut saw_delayed = false;
        for r in read_all(&mut src, 500, 4) {
            if let MeterRead::Sample(t, _) = r {
                let nominal = t.as_secs().floor();
                if t.as_secs() > nominal {
                    saw_delayed = true;
                    // Bounded: 0.05 × (1 + 2 + 4 + 8) < 1 s keeps retries
                    // inside the tick.
                    assert!(t.as_secs() - nominal < 1.0, "{t:?}");
                }
            }
        }
        assert!(saw_delayed, "some retried read must carry its backoff");
    }

    #[test]
    fn reads_are_deterministic() {
        let plan = FaultPlan::degraded().with_seed(11);
        let mut a = MeterSource::new("rack0/host3", &plan, 0, 0);
        let mut b = MeterSource::new("rack0/host3", &plan, 0, 0);
        assert_eq!(read_all(&mut a, 500, 3), read_all(&mut b, 500, 3));
        let mut c = MeterSource::new("rack0/host4", &plan, 0, 0);
        assert_ne!(
            read_all(&mut a, 500, 3),
            read_all(&mut c, 500, 3),
            "labels must decorrelate streams"
        );
    }

    #[test]
    fn dropouts_are_not_retried() {
        let plan = FaultPlan::none().with_seed(9).with_dropout(0.3);
        let mut src = MeterSource::new("m", &plan, 0, 0);
        let lost = read_all(&mut src, 1000, 5)
            .iter()
            .filter(|r| matches!(r, MeterRead::Lost))
            .count();
        assert!(lost > 200, "dropouts stay lost: {lost}");
        assert_eq!(src.retries(), 0, "no retry budget burned on dropouts");
        assert_eq!(src.lost(), lost as u64);
    }
}
