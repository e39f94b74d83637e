//! Telemetry data-quality accounting.
//!
//! The paper's fleet numbers rest on power telemetry that is lossy in
//! practice: meters drop samples, RAPL counters wrap, hosts die mid-job.
//! A [`DataQualityReport`] makes that loss *visible* in every carbon figure —
//! how much of the energy behind a number was actually measured, how much was
//! imputed across gaps, and which fault classes were observed — so a
//! downstream reader can judge whether a footprint is metered fact or
//! gap-filled estimate.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::units::{Energy, Fraction};

/// A class of telemetry fault observed while collecting an energy series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// A sample was silently dropped (meter or collector missed a tick).
    Dropout,
    /// A cumulative hardware counter wrapped around its register width.
    CounterWrap,
    /// A read (e.g. an NVML power query) timed out and returned nothing.
    ReadTimeout,
    /// The counter froze and repeated a stale value for several reads.
    StuckCounter,
    /// A sample's timestamp was skewed off the nominal sampling grid.
    ClockSkew,
    /// A burst of Gaussian noise corrupted the reading.
    NoiseBurst,
    /// A host crashed and restarted, losing in-flight work and telemetry.
    HostCrash,
    /// A sample arrived with a timestamp older than one already integrated
    /// and was rejected by the monotone reading path.
    OutOfOrder,
    /// A sample was evicted from a bounded ingest queue under backpressure
    /// before any consumer saw it.
    QueueDrop,
    /// A sample arrived behind the reorder watermark — too late to admit —
    /// and was routed to imputation instead of integration.
    LateArrival,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Dropout => f.write_str("dropout"),
            FaultKind::CounterWrap => f.write_str("counter-wrap"),
            FaultKind::ReadTimeout => f.write_str("read-timeout"),
            FaultKind::StuckCounter => f.write_str("stuck-counter"),
            FaultKind::ClockSkew => f.write_str("clock-skew"),
            FaultKind::NoiseBurst => f.write_str("noise-burst"),
            FaultKind::HostCrash => f.write_str("host-crash"),
            FaultKind::OutOfOrder => f.write_str("out-of-order"),
            FaultKind::QueueDrop => f.write_str("queue-drop"),
            FaultKind::LateArrival => f.write_str("late-arrival"),
        }
    }
}

/// Per-class fault tallies for one telemetry stream (or a merge of several).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Samples silently dropped.
    pub dropouts: u64,
    /// Counter wraparounds detected (and corrected).
    pub wraparounds: u64,
    /// Reads that timed out.
    pub timeouts: u64,
    /// Reads that returned a frozen/stale value.
    pub stuck_reads: u64,
    /// Samples with skewed timestamps.
    pub skewed_timestamps: u64,
    /// Readings hit by a noise burst.
    pub noise_bursts: u64,
    /// Host crash/restart events.
    pub host_crashes: u64,
    /// Samples rejected for arriving out of timestamp order.
    pub out_of_order: u64,
    /// Samples evicted from a bounded ingest queue under backpressure.
    pub queue_drops: u64,
    /// Samples that arrived behind the reorder watermark.
    pub late_arrivals: u64,
}

impl FaultCounts {
    /// Records one occurrence of a fault class.
    pub fn record(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Dropout => self.dropouts += 1,
            FaultKind::CounterWrap => self.wraparounds += 1,
            FaultKind::ReadTimeout => self.timeouts += 1,
            FaultKind::StuckCounter => self.stuck_reads += 1,
            FaultKind::ClockSkew => self.skewed_timestamps += 1,
            FaultKind::NoiseBurst => self.noise_bursts += 1,
            FaultKind::HostCrash => self.host_crashes += 1,
            FaultKind::OutOfOrder => self.out_of_order += 1,
            FaultKind::QueueDrop => self.queue_drops += 1,
            FaultKind::LateArrival => self.late_arrivals += 1,
        }
    }

    /// The tally for one fault class.
    pub fn count(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Dropout => self.dropouts,
            FaultKind::CounterWrap => self.wraparounds,
            FaultKind::ReadTimeout => self.timeouts,
            FaultKind::StuckCounter => self.stuck_reads,
            FaultKind::ClockSkew => self.skewed_timestamps,
            FaultKind::NoiseBurst => self.noise_bursts,
            FaultKind::HostCrash => self.host_crashes,
            FaultKind::OutOfOrder => self.out_of_order,
            FaultKind::QueueDrop => self.queue_drops,
            FaultKind::LateArrival => self.late_arrivals,
        }
    }

    /// Total faults across all classes.
    pub fn total(&self) -> u64 {
        self.dropouts
            + self.wraparounds
            + self.timeouts
            + self.stuck_reads
            + self.skewed_timestamps
            + self.noise_bursts
            + self.host_crashes
            + self.out_of_order
            + self.queue_drops
            + self.late_arrivals
    }

    /// Whether no faults were observed.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &FaultCounts) {
        self.dropouts += other.dropouts;
        self.wraparounds += other.wraparounds;
        self.timeouts += other.timeouts;
        self.stuck_reads += other.stuck_reads;
        self.skewed_timestamps += other.skewed_timestamps;
        self.noise_bursts += other.noise_bursts;
        self.host_crashes += other.host_crashes;
        self.out_of_order += other.out_of_order;
        self.queue_drops += other.queue_drops;
        self.late_arrivals += other.late_arrivals;
    }
}

/// How much of an energy figure was measured versus imputed, and why.
///
/// ```rust
/// use sustain_core::quality::{DataQualityReport, FaultKind};
/// use sustain_core::units::Energy;
///
/// let mut q = DataQualityReport::default();
/// q.expected_samples = 100;
/// q.observed_samples = 90;
/// q.measured_energy = Energy::from_kilowatt_hours(9.0);
/// q.imputed_energy = Energy::from_kilowatt_hours(1.0);
/// q.faults.record(FaultKind::Dropout);
/// assert!((q.coverage().value() - 0.9).abs() < 1e-12);
/// assert!((q.imputed_share().value() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DataQualityReport {
    /// Samples the collector should have seen over the window.
    pub expected_samples: u64,
    /// Samples actually observed.
    pub observed_samples: u64,
    /// Energy integrated from contiguous, observed samples.
    pub measured_energy: Energy,
    /// Energy back-filled across gaps by an imputation policy.
    pub imputed_energy: Energy,
    /// Fault tallies behind the gaps and corruption.
    pub faults: FaultCounts,
}

impl DataQualityReport {
    /// Fraction of expected samples that were observed (1 when nothing was
    /// expected — an empty stream is vacuously complete).
    pub fn coverage(&self) -> Fraction {
        if self.expected_samples == 0 {
            return Fraction::ONE;
        }
        Fraction::saturating(self.observed_samples as f64 / self.expected_samples as f64)
    }

    /// Imputed share of the accounted energy (0 when no energy was accounted).
    pub fn imputed_share(&self) -> Fraction {
        let total = self.accounted_energy();
        if total.is_zero() {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.imputed_energy / total)
    }

    /// Total energy the report stands behind: measured plus imputed.
    pub fn accounted_energy(&self) -> Energy {
        self.measured_energy + self.imputed_energy
    }

    /// Whether every expected sample arrived and nothing was imputed.
    // lint:allow(test-only-pub) (b) stream and meter tests observe clean runs through it
    pub fn is_pristine(&self) -> bool {
        self.observed_samples >= self.expected_samples
            && self.imputed_energy.is_zero()
            && self.faults.is_empty()
    }

    /// Merges another stream's quality accounting into this one.
    pub fn merge(&mut self, other: &DataQualityReport) {
        self.expected_samples += other.expected_samples;
        self.observed_samples += other.observed_samples;
        self.measured_energy += other.measured_energy;
        self.imputed_energy += other.imputed_energy;
        self.faults.merge(&other.faults);
    }
}

impl fmt::Display for DataQualityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coverage {:.1}%, imputed {:.1}% of {} ({} faults)",
            self.coverage().as_percent(),
            self.imputed_share().as_percent(),
            self.accounted_energy(),
            self.faults.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_record_and_total() {
        let mut c = FaultCounts::default();
        assert!(c.is_empty());
        c.record(FaultKind::Dropout);
        c.record(FaultKind::Dropout);
        c.record(FaultKind::CounterWrap);
        c.record(FaultKind::HostCrash);
        assert_eq!(c.count(FaultKind::Dropout), 2);
        assert_eq!(c.count(FaultKind::CounterWrap), 1);
        assert_eq!(c.total(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn counts_merge_sums_classes() {
        let mut a = FaultCounts::default();
        a.record(FaultKind::ReadTimeout);
        let mut b = FaultCounts::default();
        b.record(FaultKind::ReadTimeout);
        b.record(FaultKind::StuckCounter);
        a.merge(&b);
        assert_eq!(a.count(FaultKind::ReadTimeout), 2);
        assert_eq!(a.count(FaultKind::StuckCounter), 1);
    }

    #[test]
    fn empty_report_is_pristine_with_full_coverage() {
        let q = DataQualityReport::default();
        assert!(q.is_pristine());
        assert_eq!(q.coverage(), Fraction::ONE);
        assert_eq!(q.imputed_share(), Fraction::ZERO);
    }

    #[test]
    fn coverage_and_imputed_share() {
        let q = DataQualityReport {
            expected_samples: 200,
            observed_samples: 150,
            measured_energy: Energy::from_kilowatt_hours(3.0),
            imputed_energy: Energy::from_kilowatt_hours(1.0),
            ..DataQualityReport::default()
        };
        assert!((q.coverage().value() - 0.75).abs() < 1e-12);
        assert!((q.imputed_share().value() - 0.25).abs() < 1e-12);
        assert_eq!(q.accounted_energy(), Energy::from_kilowatt_hours(4.0));
        assert!(!q.is_pristine());
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = DataQualityReport {
            expected_samples: 10,
            observed_samples: 8,
            measured_energy: Energy::from_joules(100.0),
            imputed_energy: Energy::from_joules(10.0),
            ..DataQualityReport::default()
        };
        let mut b = DataQualityReport {
            expected_samples: 10,
            observed_samples: 10,
            measured_energy: Energy::from_joules(50.0),
            ..DataQualityReport::default()
        };
        b.faults.record(FaultKind::NoiseBurst);
        a.merge(&b);
        assert_eq!(a.expected_samples, 20);
        assert_eq!(a.observed_samples, 18);
        assert_eq!(a.measured_energy, Energy::from_joules(150.0));
        assert_eq!(a.faults.count(FaultKind::NoiseBurst), 1);
    }

    #[test]
    fn serde_round_trip() {
        let mut q = DataQualityReport {
            expected_samples: 5,
            ..DataQualityReport::default()
        };
        q.faults.record(FaultKind::ClockSkew);
        let json = serde_json::to_string(&q).unwrap();
        let back: DataQualityReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn display_mentions_coverage() {
        let q = DataQualityReport::default();
        let text = q.to_string();
        assert!(text.contains("coverage"), "{text}");
    }

    #[test]
    fn kind_display_names_are_stable() {
        assert_eq!(FaultKind::Dropout.to_string(), "dropout");
        assert_eq!(FaultKind::HostCrash.to_string(), "host-crash");
        assert_eq!(FaultKind::OutOfOrder.to_string(), "out-of-order");
        assert_eq!(FaultKind::QueueDrop.to_string(), "queue-drop");
        assert_eq!(FaultKind::LateArrival.to_string(), "late-arrival");
    }

    #[test]
    fn streaming_fault_classes_tally_and_merge() {
        let mut a = FaultCounts::default();
        a.record(FaultKind::QueueDrop);
        a.record(FaultKind::LateArrival);
        a.record(FaultKind::OutOfOrder);
        assert_eq!(a.count(FaultKind::QueueDrop), 1);
        assert_eq!(a.total(), 3);
        let mut b = FaultCounts::default();
        b.record(FaultKind::QueueDrop);
        a.merge(&b);
        assert_eq!(a.count(FaultKind::QueueDrop), 2);
        assert_eq!(a.total(), 4);
    }
}
