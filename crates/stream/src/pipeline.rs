//! The bounded-memory streaming ingestion pipeline.
//!
//! A [`StreamPipeline`] carries counter samples from [`MeterSource`]s into
//! per-source [`FaultTolerantIntegrator`]s, through three bounded stages
//! per shard:
//!
//! 1. an [`IngestQueue`] with an explicit [`BackpressurePolicy`] — a full
//!    queue either stalls the producer (which, in simulated time, drains
//!    the shard synchronously) or evicts its oldest sample with a
//!    [`FaultKind::QueueDrop`] tally;
//! 2. a [`ReorderBuffer`] releasing samples behind a lateness watermark,
//!    routing too-late samples to imputation with a
//!    [`FaultKind::LateArrival`] tally;
//! 3. the monotone integration sinks, which tally anything still
//!    out-of-order after reordering as [`FaultKind::OutOfOrder`].
//!
//! **Conservation.** Every `(tick, source)` pair ends in exactly one
//! integrator push: an observed sample, or a `None` tombstone for a lost
//! read, an evicted sample, or a late arrival. The merged
//! [`DataQualityReport`] therefore satisfies `expected_samples = ticks ×
//! sources`, and every missing observation is attributed to a tallied
//! fault class — [`StreamReport::is_conserved`] checks both.
//!
//! **Bounded memory.** A source's state does not grow with the stream:
//! its integrator folds each sample into running totals, and a sample
//! lives only in the queue, the reorder buffer and the flush batch that
//! integrates it. Nothing keeps the samples afterwards.
//!
//! **Roll-ups on demand.** [`StreamPipeline::rollup`] builds an
//! [`EnergyRollup`] from the integrator totals in global source order
//! each time it is called, so rack- and cluster-level totals are readable
//! *while the stream runs*; a flush keeps none. [`StreamReport::rollup`]
//! is the one built at finish.
//!
//! **Determinism.** Shard flushes fan out through
//! [`sustain_par::ParPool::map_indexed`], whose submission-order join and
//! per-shard state make every report byte-identical at any thread count;
//! results are merged in global source order so even the floating-point
//! summation order is fixed.

use serde::{Deserialize, Serialize};

use sustain_core::quality::{DataQualityReport, FaultKind};
use sustain_core::units::{Energy, Power, TimeSpan};
use sustain_obs::Obs;
use sustain_par::ParPool;
use sustain_telemetry::faults::{FaultPlan, ImputationPolicy};
use sustain_telemetry::hierarchy::EnergyRollup;
use sustain_telemetry::meter::FaultTolerantIntegrator;

use crate::constants;
use crate::queue::{BackpressurePolicy, IngestQueue, Offer, Sample};
use crate::reorder::{Admission, ReorderBuffer};
use crate::source::{MeterRead, MeterSource};

/// Configuration of a [`StreamPipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Number of ingest shards (sources are hashed across them).
    pub shards: usize,
    /// Per-shard ingest queue capacity, in samples.
    pub queue_capacity: usize,
    /// Per-shard reorder buffer capacity, in samples.
    pub reorder_capacity: usize,
    /// What a full ingest queue does.
    pub backpressure: BackpressurePolicy,
    /// Reorder lateness bound (`None` = infinite: nothing is ever late).
    pub lateness: Option<TimeSpan>,
    /// Nominal sampling interval of every source.
    pub interval: TimeSpan,
    /// Gap-bridging policy of the per-source integrators.
    pub imputation: ImputationPolicy,
    /// Retry budget for timed-out meter reads.
    pub max_retries: u32,
    /// Base retry backoff (doubled per attempt, jittered).
    pub retry_backoff: TimeSpan,
    /// Ingest ticks between scheduled flushes in [`StreamPipeline::run`].
    pub flush_every: u64,
    /// Seed for the deterministic retry-jitter stream.
    pub seed: u64,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            shards: constants::DEFAULT_SHARDS,
            queue_capacity: constants::DEFAULT_QUEUE_CAPACITY,
            reorder_capacity: constants::DEFAULT_REORDER_CAPACITY,
            backpressure: BackpressurePolicy::BlockProducer,
            lateness: Some(TimeSpan::from_secs(constants::DEFAULT_LATENESS_SECS)),
            interval: TimeSpan::from_secs(1.0),
            imputation: ImputationPolicy::LastObservation,
            max_retries: constants::DEFAULT_MAX_RETRIES,
            retry_backoff: TimeSpan::from_secs(constants::DEFAULT_RETRY_BACKOFF_SECS),
            flush_every: constants::DEFAULT_FLUSH_EVERY,
            seed: 0,
        }
    }
}

impl StreamConfig {
    /// Sets the shard count (builder style).
    // lint:allow(test-only-pub) benchmark: only benchmark/'s stream_ingest sets the shard count
    pub fn with_shards(mut self, shards: usize) -> StreamConfig {
        self.shards = shards;
        self
    }

    /// Sets the per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> StreamConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the backpressure policy.
    pub fn with_backpressure(mut self, policy: BackpressurePolicy) -> StreamConfig {
        self.backpressure = policy;
        self
    }

    /// Sets the lateness bound (`None` = infinite).
    pub fn with_lateness(mut self, bound: Option<TimeSpan>) -> StreamConfig {
        self.lateness = bound;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> StreamConfig {
        self.seed = seed;
        self
    }
}

/// Consumer-side state of one source: its label, integrator, streaming
/// fault tallies and flush batch. None of it grows with the stream.
#[derive(Debug, Clone)]
struct SourceSink {
    label: String,
    integrator: FaultTolerantIntegrator,
    faults: sustain_core::quality::FaultCounts,
    /// Reusable per-flush batch of released ticks for this sink — cleared,
    /// never dropped, so the steady state allocates nothing. Dense
    /// `(time, power)` pairs: a released sample is always observed (lost
    /// ticks become tombstones at ingest, not here), so the batch carries
    /// no `Option` tag and stays 16 bytes per entry.
    batch: Vec<(TimeSpan, Power)>,
}

/// One ingest shard: queue → reorder buffer → this shard's sinks.
#[derive(Debug, Clone)]
struct Shard {
    queue: IngestQueue,
    reorder: ReorderBuffer,
    sinks: Vec<SourceSink>,
    /// Samples still out-of-order at the sink after reordering.
    emitted_out_of_order: u64,
}

impl Shard {
    /// Drains the queue into the reorder buffer, then releases every ready
    /// sample and integrates it through the batched kernel. With `force`
    /// set, the watermark is ignored and the buffer empties entirely
    /// (end-of-stream).
    ///
    /// The batched path is byte-identical to pushing each released sample
    /// through `FaultTolerantIntegrator::push` in release order: per-sink
    /// subsequences preserve release order, and the kernel accumulates in
    /// the same float-expression order.
    ///
    /// Each released sample is one unit of work on the handle's clock, so
    /// a work profile charges the stage for the samples it integrated.
    fn flush(&mut self, force: bool) {
        // The whole shard flush is one fused batched stage — queue drain
        // feeding the reorder admit, time-ordered release regrouped into
        // per-sink columnar batches, and the integration kernel over each —
        // so one named span covers it end to end and profiles can attribute
        // the stage inside `stream.flush`. The ambient handle is this
        // task's obs fork when flushing under `ParPool::map_indexed`,
        // which re-parents the span into the caller's trace
        // deterministically.
        let obs = sustain_obs::handle();
        let _span = obs.span("telemetry.integrate.batch");
        {
            let reorder = &mut self.reorder;
            let sinks = &mut self.sinks;
            self.queue.drain_with(|sample| match reorder.admit(sample) {
                Admission::Admitted => {}
                Admission::Late => {
                    if let Some(sink) = sinks.get_mut(sample.local) {
                        sink.integrator.push(sample.at, None);
                        sink.faults.record(FaultKind::LateArrival);
                    }
                }
            });
        }
        // Regroup the time-ordered release directly into per-sink batches
        // as the reorder buffer drains — no staging buffer in between;
        // within a sink the release order is preserved.
        for sink in &mut self.sinks {
            sink.batch.clear();
        }
        let mut released = 0usize;
        let sinks = &mut self.sinks;
        let consume = |sample: Sample| {
            released += 1;
            if let Some(sink) = sinks.get_mut(sample.local) {
                sink.batch.push((sample.at, sample.power));
            }
        };
        if force {
            self.reorder.drain_all_with(consume);
        } else {
            self.reorder.drain_ready_with(consume);
        }
        if released == 0 {
            return;
        }
        obs.add_work(released as u64);
        let mut out_of_order = 0;
        for sink in &mut self.sinks {
            let batch = sink.batch.as_slice();
            if batch.is_empty() {
                continue;
            }
            // The integrator's kernel splits the batch itself: clean runs
            // integrate branch-free, and anything out-of-order is rejected
            // and tallied exactly as per-sample pushes would. The batch is
            // all observed samples, so `len - accepted` is that rejection
            // count.
            let accepted = sink.integrator.push_batch_observed(batch);
            out_of_order += (batch.len() - accepted) as u64;
        }
        self.emitted_out_of_order += out_of_order;
    }
}

/// The final accounting of a finished stream.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Merged data-quality accounting across every source, including the
    /// injector fault tallies and the streaming fault classes.
    pub quality: DataQualityReport,
    /// Total accounted energy (measured + imputed), summed in source order.
    pub energy: Energy,
    /// Ingest ticks driven through the pipeline.
    pub ticks: u64,
    /// Number of sources.
    pub sources: usize,
    /// The per-source hierarchy at finish: each source's accounted
    /// (measured + imputed) energy as a leaf at its label, summed into
    /// every prefix above it. Sources with no energy have no leaf.
    pub rollup: EnergyRollup,
    /// Ticks whose reading was lost at the meter (dropout or exhausted
    /// retries).
    pub lost_reads: u64,
    /// Retry attempts issued after timed-out reads.
    pub retries: u64,
    /// Offers refused by full queues under `BlockProducer`.
    pub blocked_offers: u64,
    /// Samples released past the watermark by reorder-capacity pressure.
    pub forced_releases: u64,
}

impl StreamReport {
    /// Whether every `(tick, source)` pair is accounted for: expected
    /// samples equal `ticks × sources`, and the shortfall between expected
    /// and observed equals the tallied losses (lost reads, queue drops,
    /// late arrivals, residual out-of-order rejections).
    pub fn is_conserved(&self) -> bool {
        let faults = &self.quality.faults;
        self.quality.expected_samples == self.ticks * self.sources as u64
            && self.quality.expected_samples - self.quality.observed_samples
                == self.lost_reads + faults.queue_drops + faults.late_arrivals + faults.out_of_order
    }

    /// Streaming-estimate error relative to a reference energy, as a
    /// fraction of the reference (0 when the reference is zero).
    pub fn relative_error(&self, reference: Energy) -> f64 {
        let reference_j = reference.as_joules();
        // lint:allow(float-eq) exact-zero guard against division by zero
        if reference_j == 0.0 {
            return 0.0;
        }
        ((self.energy.as_joules() - reference_j) / reference_j).abs()
    }
}

/// The streaming ingestion pipeline. See the module docs for the stage
/// model and the conservation/determinism contracts.
///
/// ```rust
/// use sustain_stream::pipeline::{StreamConfig, StreamPipeline};
/// use sustain_telemetry::faults::FaultPlan;
/// use sustain_core::units::{Power, TimeSpan};
///
/// let mut pipe = StreamPipeline::new(StreamConfig::default());
/// pipe.add_source("rack0/host0", &FaultPlan::none());
/// pipe.add_source("rack0/host1", &FaultPlan::none());
/// pipe.run(600, |_source, _at| Power::from_watts(250.0));
/// let report = pipe.finish();
/// assert!(report.is_conserved());
/// assert_eq!(report.quality.expected_samples, 1200);
/// // 2 sources × 250 W × 599 s of covered window.
/// assert!((report.energy.as_joules() - 2.0 * 250.0 * 599.0).abs() < 1e-6);
/// ```
#[derive(Debug)]
pub struct StreamPipeline {
    config: StreamConfig,
    sources: Vec<MeterSource>,
    shards: Vec<Shard>,
    ticks: u64,
    published_late: u64,
    published_ooo: u64,
}

impl StreamPipeline {
    /// Creates an empty pipeline.
    ///
    /// # Panics
    ///
    /// Panics if any of `shards`, `queue_capacity`, `reorder_capacity`, or
    /// `flush_every` is zero, or if `interval` is not positive and finite.
    pub fn new(config: StreamConfig) -> StreamPipeline {
        assert!(config.shards > 0, "shard count must be positive");
        assert!(config.flush_every > 0, "flush_every must be positive");
        assert!(
            config.interval.is_finite() && config.interval.as_secs() > 0.0,
            "sampling interval must be positive and finite"
        );
        let shards = (0..config.shards)
            .map(|_| Shard {
                queue: IngestQueue::new(config.queue_capacity, config.backpressure),
                reorder: ReorderBuffer::new(config.reorder_capacity, config.lateness),
                sinks: Vec::new(),
                emitted_out_of_order: 0,
            })
            .collect();
        StreamPipeline {
            config,
            sources: Vec::new(),
            shards,
            ticks: 0,
            published_late: 0,
            published_ooo: 0,
        }
    }

    /// Registers a meter stream. `label` becomes the source's node path in
    /// the [`EnergyRollup`]; `plan` is its fault mixture (per-stream
    /// decorrelated from the plan seed by the label, as in
    /// [`sustain_telemetry::faults::FaultInjector`]).
    pub fn add_source(&mut self, label: &str, plan: &FaultPlan) -> &mut StreamPipeline {
        let shard = (crate::source_shard_hash(label) % self.config.shards as u64) as usize;
        let Some(shard_state) = self.shards.get_mut(shard) else {
            return self; // unreachable: shard is reduced modulo len
        };
        let local = shard_state.sinks.len();
        shard_state.sinks.push(SourceSink {
            label: label.to_owned(),
            integrator: FaultTolerantIntegrator::new(self.config.interval, self.config.imputation),
            faults: sustain_core::quality::FaultCounts::default(),
            batch: Vec::new(),
        });
        self.sources
            .push(MeterSource::new(label, plan, shard, local));
        self
    }

    /// Total samples currently buffered across every shard's queue and
    /// reorder buffer — the pipeline's steady-state memory footprint in
    /// samples, bounded by `shards × (queue + reorder capacity)`.
    pub fn buffered(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue.len() + s.reorder.len())
            .sum()
    }

    /// Ingests one sampling tick: reads every source at the current
    /// nominal time and routes the samples (or their tombstones) through
    /// the shards.
    pub fn ingest_tick<F>(&mut self, truth: F)
    where
        F: Fn(usize, TimeSpan) -> Power,
    {
        let at = self.config.interval * self.ticks as f64;
        for idx in 0..self.sources.len() {
            let power = truth(idx, at);
            let Some(source) = self.sources.get_mut(idx) else {
                continue;
            };
            let (shard, local) = (source.shard, source.local);
            match source.read(
                at,
                self.config.interval,
                power,
                self.config.max_retries,
                self.config.retry_backoff,
                self.config.seed,
            ) {
                MeterRead::Sample(t, p) => self.route(
                    shard,
                    Sample {
                        local,
                        at: t,
                        power: p,
                    },
                ),
                MeterRead::Lost => {
                    // Tombstone: the tick is expected but unobserved, so
                    // the integrator's gap detection will impute across it.
                    if let Some(sink) = self
                        .shards
                        .get_mut(shard)
                        .and_then(|s| s.sinks.get_mut(local))
                    {
                        sink.integrator.push(at, None);
                    }
                }
            }
        }
        self.ticks += 1;
    }

    /// Routes one sample into its shard's queue, honouring backpressure.
    fn route(&mut self, shard_idx: usize, sample: Sample) {
        loop {
            let Some(shard) = self.shards.get_mut(shard_idx) else {
                return;
            };
            match shard.queue.offer(sample) {
                Offer::Accepted => return,
                Offer::Evicted(old) => {
                    // The evicted sample is lost before any consumer saw
                    // it: tombstone its tick and tally the drop.
                    if let Some(sink) = shard.sinks.get_mut(old.local) {
                        sink.integrator.push(old.at, None);
                        sink.faults.record(FaultKind::QueueDrop);
                    }
                    return;
                }
                Offer::Full => {
                    // BlockProducer: the producer waits for the consumer —
                    // in simulated time, drain this shard now and retry.
                    shard.flush(false);
                }
            }
        }
    }

    /// Flushes every shard in parallel: queues drain through the reorder
    /// buffers and ready samples integrate into their sinks. Shards are
    /// independent, so [`ParPool`]'s submission-order join keeps the
    /// result byte-identical at any thread count.
    pub fn flush(&mut self) {
        let obs = sustain_obs::handle();
        let _span = obs.span("stream.flush");
        let shards = std::mem::take(&mut self.shards);
        self.shards = ParPool::current().map_indexed(shards, |_, mut shard| {
            shard.flush(false);
            shard
        });
        self.publish_metrics(&obs);
    }

    /// The energy roll-up of everything integrated so far: each source's
    /// accounted energy as a leaf at its label, summed into every prefix
    /// (rack, cluster, …). Built from the integrator totals **in global
    /// source order**, so it is a pure function of the per-source energies —
    /// byte-identical at any shard or thread count. Sources with no energy
    /// have no leaf.
    // lint:allow(obs-coverage) pure fold over the integrator totals that
    // reports no work; finish, its one shipped caller, runs it inside stream.finish
    pub fn rollup(&self) -> EnergyRollup {
        let mut rollup = EnergyRollup::new();
        for source in &self.sources {
            let Some(sink) = self
                .shards
                .get(source.shard)
                .and_then(|s| s.sinks.get(source.local))
            else {
                continue;
            };
            let energy = sink.integrator.energy();
            if !energy.is_zero() {
                rollup.add(&sink.label, energy);
            }
        }
        rollup
    }

    /// Drives `ticks` sampling ticks with periodic flushes (every
    /// `flush_every` ticks), under a `stream.run` span.
    pub fn run<F>(&mut self, ticks: u64, truth: F)
    where
        F: Fn(usize, TimeSpan) -> Power,
    {
        let _span = sustain_obs::handle().span("stream.run");
        for i in 0..ticks {
            self.ingest_tick(&truth);
            if (i + 1) % self.config.flush_every == 0 {
                self.flush();
            }
        }
    }

    /// Publishes accumulated shard tallies as obs counters, in shard order
    /// (deterministic: called only from the single-threaded control path).
    /// Runs once per flush — per-sample and per-tick obs work is amortized
    /// here so the hot path pays nothing for observability.
    fn publish_metrics(&mut self, obs: &Obs) {
        if !obs.enabled() {
            return;
        }
        obs.gauge("stream_buffered_samples")
            .set(self.buffered() as f64);
        let late: u64 = self.shards.iter().map(|s| s.reorder.late()).sum();
        let ooo: u64 = self.shards.iter().map(|s| s.emitted_out_of_order).sum();
        let drops: u64 = self.shards.iter().map(|s| s.queue.evicted()).sum();
        let blocked: u64 = self.shards.iter().map(|s| s.queue.blocked()).sum();
        let retries: u64 = self.sources.iter().map(|s| s.retries()).sum();
        let lost: u64 = self.sources.iter().map(|s| s.lost()).sum();
        obs.counter("stream_late_samples_total")
            .add((late - self.published_late) as f64);
        obs.counter("stream_out_of_order_total")
            .add((ooo - self.published_ooo) as f64);
        self.published_late = late;
        self.published_ooo = ooo;
        // Queue/source tallies are monotone snapshots; gauges carry them.
        obs.gauge("stream_queue_drops").set(drops as f64);
        obs.gauge("stream_blocked_offers").set(blocked as f64);
        obs.gauge("stream_retries").set(retries as f64);
        obs.gauge("stream_lost_reads").set(lost as f64);
    }

    /// Finishes the stream: drains every shard completely (watermark
    /// ignored), folds the injector fault tallies into the per-source
    /// reports, and merges everything **in global source order** so the
    /// result is independent of sharding. The report's roll-up is
    /// [`StreamPipeline::rollup`] after the final drain.
    pub fn finish(mut self) -> StreamReport {
        let obs = sustain_obs::handle();
        let rollup = {
            let _span = obs.span("stream.finish");
            let shards = std::mem::take(&mut self.shards);
            self.shards = ParPool::current().map_indexed(shards, |_, mut shard| {
                shard.flush(true);
                shard
            });
            self.publish_metrics(&obs);
            self.rollup()
        };

        let mut quality = DataQualityReport::default();
        let mut energy = Energy::ZERO;
        for source in &self.sources {
            let Some(sink) = self
                .shards
                .get_mut(source.shard)
                .and_then(|s| s.sinks.get_mut(source.local))
            else {
                continue;
            };
            sink.integrator.merge_faults(&source.fault_counts());
            let streaming_faults = sink.faults;
            sink.integrator.merge_faults(&streaming_faults);
            quality.merge(&sink.integrator.report());
            energy += sink.integrator.energy();
        }

        let report = StreamReport {
            quality,
            energy,
            ticks: self.ticks,
            sources: self.sources.len(),
            rollup,
            lost_reads: self.sources.iter().map(|s| s.lost()).sum(),
            retries: self.sources.iter().map(|s| s.retries()).sum(),
            blocked_offers: self.shards.iter().map(|s| s.queue.blocked()).sum(),
            forced_releases: self
                .shards
                .iter()
                .map(|s| s.reorder.forced_releases())
                .sum(),
        };
        if obs.enabled() {
            obs.event(
                "stream.finished",
                &[
                    ("ticks", (report.ticks as f64).into()),
                    ("sources", (report.sources as f64).into()),
                    ("energy_j", report.energy.as_joules().into()),
                    ("coverage", report.quality.coverage().value().into()),
                ],
            );
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_truth(_source: usize, _at: TimeSpan) -> Power {
        Power::from_watts(200.0)
    }

    fn small_config() -> StreamConfig {
        StreamConfig {
            shards: 2,
            queue_capacity: 32,
            reorder_capacity: 16,
            flush_every: 16,
            ..StreamConfig::default()
        }
    }

    #[test]
    fn clean_stream_is_pristine_and_conserved() {
        let mut pipe = StreamPipeline::new(small_config());
        for i in 0..5 {
            pipe.add_source(&format!("rack0/host{i}"), &FaultPlan::none());
        }
        pipe.run(200, constant_truth);
        let report = pipe.finish();
        assert!(report.is_conserved());
        assert!(report.quality.is_pristine());
        assert_eq!(report.quality.expected_samples, 1000);
        assert_eq!(report.quality.observed_samples, 1000);
        // 5 sources × 200 W × 199 s.
        assert!((report.energy.as_joules() - 5.0 * 200.0 * 199.0).abs() < 1e-6);
        assert_eq!(report.rollup.children("rack0").len(), 5);
        assert_eq!(report.retries, 0);
        assert_eq!(report.lost_reads, 0);
    }

    #[test]
    fn faulty_stream_stays_conserved() {
        let plan = FaultPlan::degraded().with_seed(17).with_dropout(0.05);
        let mut pipe = StreamPipeline::new(small_config());
        for i in 0..6 {
            pipe.add_source(&format!("rack{}/host{}", i / 3, i % 3), &plan);
        }
        pipe.run(400, constant_truth);
        let report = pipe.finish();
        assert!(report.is_conserved(), "conservation: {report:?}");
        assert!(report.lost_reads > 0, "dropouts must lose some reads");
        assert!(!report.quality.is_pristine());
        assert!(report.quality.coverage().value() < 1.0);
        assert!(report.quality.imputed_energy > Energy::ZERO);
    }

    #[test]
    fn drop_oldest_under_tiny_queue_tallies_queue_drops() {
        let config = StreamConfig {
            shards: 1,
            queue_capacity: 4,
            reorder_capacity: 4,
            backpressure: BackpressurePolicy::DropOldest,
            // Flush far less often than the queue fills.
            flush_every: 1000,
            ..StreamConfig::default()
        };
        let mut pipe = StreamPipeline::new(config);
        pipe.add_source("host0", &FaultPlan::none());
        pipe.run(100, constant_truth);
        let report = pipe.finish();
        assert!(report.is_conserved(), "conservation: {report:?}");
        assert!(
            report.quality.faults.queue_drops > 0,
            "tiny queue must evict: {report:?}"
        );
        assert!(report.quality.coverage().value() < 1.0);
    }

    #[test]
    fn block_producer_never_loses_a_sample() {
        let config = StreamConfig {
            shards: 1,
            queue_capacity: 4,
            reorder_capacity: 4,
            backpressure: BackpressurePolicy::BlockProducer,
            flush_every: 1000,
            ..StreamConfig::default()
        };
        let mut pipe = StreamPipeline::new(config);
        pipe.add_source("host0", &FaultPlan::none());
        pipe.run(100, constant_truth);
        let report = pipe.finish();
        assert!(report.is_conserved());
        assert!(report.blocked_offers > 0, "the producer must have stalled");
        assert!(report.quality.is_pristine(), "but nothing may be lost");
        assert_eq!(report.quality.observed_samples, 100);
    }

    #[test]
    fn tight_lateness_with_skew_routes_late_samples_to_imputation() {
        // Heavy clock skew with a sub-interval lateness bound: some
        // samples must arrive behind the watermark.
        let plan = FaultPlan::none().with_seed(23).with_clock_skew(1.0);
        let config = StreamConfig {
            shards: 1,
            queue_capacity: 8,
            reorder_capacity: 8,
            lateness: Some(TimeSpan::from_secs(0.05)),
            flush_every: 4,
            ..StreamConfig::default()
        };
        let mut pipe = StreamPipeline::new(config);
        for i in 0..4 {
            pipe.add_source(&format!("host{i}"), &plan);
        }
        pipe.run(500, constant_truth);
        let report = pipe.finish();
        assert!(report.is_conserved(), "conservation: {report:?}");
        let f = &report.quality.faults;
        assert!(
            f.late_arrivals + f.out_of_order > 0,
            "skew against a 50 ms bound must strand someone: {report:?}"
        );
    }

    #[test]
    fn buffered_memory_stays_bounded() {
        let config = StreamConfig {
            shards: 2,
            queue_capacity: 8,
            reorder_capacity: 4,
            backpressure: BackpressurePolicy::DropOldest,
            flush_every: 10_000,
            ..StreamConfig::default()
        };
        let bound = 2 * (8 + 4);
        let mut pipe = StreamPipeline::new(config);
        for i in 0..8 {
            pipe.add_source(&format!("host{i}"), &FaultPlan::none());
        }
        for _ in 0..500 {
            pipe.ingest_tick(constant_truth);
            assert!(
                pipe.buffered() <= bound,
                "buffered {} > {bound}",
                pipe.buffered()
            );
        }
        let report = pipe.finish();
        assert!(report.is_conserved());
    }

    #[test]
    fn obs_counters_and_events_flow() {
        let obs = sustain_obs::ObsConfig::enabled().build();
        let plan = FaultPlan::none().with_seed(3).with_clock_skew(1.0);
        let config = StreamConfig {
            shards: 1,
            queue_capacity: 16,
            reorder_capacity: 8,
            lateness: Some(TimeSpan::from_secs(0.01)),
            flush_every: 8,
            ..StreamConfig::default()
        };
        let report = sustain_obs::with_task_handle(&obs, || {
            let mut pipe = StreamPipeline::new(config);
            for i in 0..4 {
                pipe.add_source(&format!("host{i}"), &plan);
            }
            pipe.run(300, constant_truth);
            pipe.finish()
        });
        let late_counter = obs.counter("stream_late_samples_total").value();
        assert!(
            (late_counter - report.quality.faults.late_arrivals as f64).abs() < 1e-9,
            "counter {late_counter} vs report {}",
            report.quality.faults.late_arrivals
        );
        let events = obs.events();
        assert!(events.iter().any(|e| matches!(
            e,
            sustain_obs::EventRecord::Instant { name, .. } if *name == "stream.finished"
        )));
        // The pipeline's own spans and its shards' batch spans land in the
        // one recording.
        let spans = |wanted: &str| {
            events
                .iter()
                .filter(
                    |e| matches!(e, sustain_obs::EventRecord::Span { name, .. } if *name == wanted),
                )
                .count()
        };
        assert_eq!(spans("stream.run"), 1);
        assert!(spans("stream.flush") > 0, "no flush spans recorded");
        assert!(
            spans("telemetry.integrate.batch") >= spans("stream.flush"),
            "batch spans missing from the pipeline's recording"
        );
    }

    #[test]
    fn report_is_identical_for_any_shard_count() {
        let plan = FaultPlan::degraded().with_seed(29);
        let run = |shards: usize| {
            let config = StreamConfig {
                shards,
                queue_capacity: 64,
                reorder_capacity: 32,
                flush_every: 16,
                ..StreamConfig::default()
            };
            let mut pipe = StreamPipeline::new(config);
            for i in 0..6 {
                pipe.add_source(&format!("rack{}/host{}", i / 3, i % 3), &plan);
            }
            pipe.run(300, constant_truth);
            pipe.finish()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.quality, four.quality);
        assert_eq!(one.energy, four.energy);
        // The roll-up accumulates on the control path in source order, so
        // it is byte-identical too — not merely close.
        assert_eq!(one.rollup, four.rollup);
    }

    #[test]
    fn rollup_is_readable_mid_stream() {
        let mut pipe = StreamPipeline::new(small_config());
        for i in 0..4 {
            pipe.add_source(&format!("rack{}/host{}", i / 2, i % 2), &FaultPlan::none());
        }
        // Drive past several flush boundaries, then peek before finishing.
        pipe.run(100, constant_truth);
        let mid_total = pipe.rollup().energy("");
        let mid_rack0 = pipe.rollup().energy("rack0");
        assert!(
            mid_total.as_joules() > 0.0,
            "roll-up must accrue before finish"
        );
        assert!(mid_rack0 > Energy::ZERO && mid_rack0 < mid_total);
        let report = pipe.finish();
        assert!(report.rollup.energy("") >= mid_total);
    }

    #[test]
    fn rollup_agrees_with_reference_and_report_energy() {
        use crate::validate;
        let plan = FaultPlan::none();
        let config = small_config();
        let report = validate::run_stream(&plan, config, 20, 300);
        let sync = validate::run_synchronous(&plan, 20, 300, config.interval, config.imputation);
        // On the clean path the stream's roll-up is the synchronous
        // reference's, leaf for leaf and prefix for prefix, to the bit.
        assert_eq!(report.rollup, sync.rollup);
        assert_eq!(report.rollup.energy(""), report.energy);
        // The rack view is available without touching any sample.
        assert_eq!(report.rollup.children("").len(), 3);
        assert_eq!(report.rollup.children("rack0").len(), 8);
    }

    #[test]
    fn rollup_totals_match_report_energy_under_faults() {
        let plan = FaultPlan::degraded().with_seed(41).with_dropout(0.05);
        let mut pipe = StreamPipeline::new(small_config());
        for i in 0..6 {
            pipe.add_source(&format!("rack{}/host{}", i / 3, i % 3), &plan);
        }
        pipe.run(400, constant_truth);
        let report = pipe.finish();
        // Accounted energy includes imputation, and the roll-up tracks the
        // integrators, so the totals still agree.
        assert!((report.rollup.energy("").as_joules() - report.energy.as_joules()).abs() < 1e-6);
    }

    /// Under a work clock a span's width is the work reported inside it, so
    /// the batch spans must hold one unit per released sample: every
    /// observed sample plus every release the integrator rejected as out of
    /// order. Inline flushes (a blocked producer) count like scheduled ones.
    #[test]
    fn batch_spans_report_one_unit_of_work_per_released_sample() {
        // A retry backoff near one interval can stamp a retried read after
        // its source's next one. A two-sample reorder buffer may
        // force-release the retried read first, and the sink then rejects
        // the next read as out of order.
        let retried = FaultPlan::none()
            .with_seed(23)
            .with_clock_skew(1.0)
            .with_timeout(0.3);
        let plans = [
            (FaultPlan::none(), None),
            (FaultPlan::degraded().with_seed(5), Some(1.0)),
            (retried, None),
        ];
        let run = |plan: &FaultPlan, lateness: Option<f64>| {
            let obs = sustain_obs::ObsConfig::enabled().build();
            let config = StreamConfig {
                shards: 3,
                queue_capacity: 4,
                reorder_capacity: 2,
                lateness: lateness.map(TimeSpan::from_secs),
                retry_backoff: TimeSpan::from_secs(0.9),
                flush_every: 7,
                ..StreamConfig::default()
            };
            let report = sustain_obs::with_task_handle(&obs, || {
                let mut pipe = StreamPipeline::new(config);
                for i in 0..6 {
                    pipe.add_source(&format!("rack{}/host{}", i / 3, i % 3), plan);
                }
                pipe.run(300, constant_truth);
                pipe.finish()
            });
            let work: f64 = obs
                .events()
                .iter()
                .filter_map(|e| match e {
                    sustain_obs::EventRecord::Span {
                        name, start, end, ..
                    } if *name == "telemetry.integrate.batch" => Some((*end - *start).as_secs()),
                    _ => None,
                })
                .sum();
            (work, report)
        };
        // The thread override is process-global; every other test in this
        // binary is thread-count invariant, so it cannot change theirs.
        let mut out_of_order = 0;
        for (plan, lateness) in &plans {
            let mut works = Vec::new();
            for threads in [1usize, 4] {
                ParPool::set_threads(threads);
                let (work, report) = run(plan, *lateness);
                let released = report.quality.observed_samples + report.quality.faults.out_of_order;
                assert_eq!(work, released as f64, "{threads} threads: {report:?}");
                assert!(report.blocked_offers > 0, "inline flushes must run");
                out_of_order += report.quality.faults.out_of_order;
                works.push(work);
            }
            assert_eq!(works[0], works[1], "work must not depend on threads");
        }
        ParPool::set_threads(0);
        assert!(out_of_order > 0, "no plan released out of order");
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = StreamPipeline::new(StreamConfig {
            shards: 0,
            ..StreamConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "interval must be positive and finite")]
    fn infinite_interval_rejected() {
        let _ = StreamPipeline::new(StreamConfig {
            interval: TimeSpan::from_secs(f64::INFINITY),
            ..StreamConfig::default()
        });
    }
}
