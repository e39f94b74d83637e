//! Federated-learning round simulation.
//!
//! [`FlApp`] describes a production FL application (round cadence, cohort
//! size, update size, local workload); [`FlApp::simulate`] runs the rounds
//! over a heterogeneous device fleet and folds each session into the 90-day
//! [`ClientLog`] totals the published estimation methodology consumes. The
//! `fl1`/`fl2` presets are calibrated so their estimated footprints land in
//! the Figure 11 band (comparable to centralized Transformer_Big training).
//!
//! A run records on [`sustain_obs::handle`], like every instrumented layer:
//! a caller that wants the spans scopes the run with
//! [`sustain_obs::with_task_handle`]. Each round reports its client
//! sessions as work, so on the work clock an `fl.round` span is as wide as
//! its cohort.

use rand::Rng;
use serde::{Deserialize, Serialize};

use sustain_core::stats::{LogNormal, Sampler};
use sustain_core::units::{DataVolume, Fraction, TimeSpan};

use crate::comm::CommModel;
use crate::device::{ClientDevice, DeviceTier};
use crate::log::{ClientLog, ClientLogEntry};

/// A federated-learning application configuration.
///
/// ```rust
/// use sustain_edge::fl::FlApp;
/// use sustain_core::units::{DataVolume, TimeSpan};
/// use rand::SeedableRng;
///
/// let app = FlApp::new("demo", 5, 20, DataVolume::from_bytes(1e6), TimeSpan::from_minutes(1.0));
/// let log = app.simulate(&mut rand::rngs::StdRng::seed_from_u64(1));
/// assert_eq!(log.len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlApp {
    name: String,
    rounds: u32,
    clients_per_round: u32,
    update_size: DataVolume,
    mid_tier_compute: TimeSpan,
    dropout: Fraction,
}

impl FlApp {
    /// Creates an application.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` or `clients_per_round` is zero.
    pub fn new(
        name: impl Into<String>,
        rounds: u32,
        clients_per_round: u32,
        update_size: DataVolume,
        mid_tier_compute: TimeSpan,
    ) -> FlApp {
        assert!(rounds > 0, "need at least one round");
        assert!(clients_per_round > 0, "need at least one client per round");
        FlApp {
            name: name.into(),
            rounds,
            clients_per_round,
            update_size,
            mid_tier_compute,
            dropout: Fraction::ZERO,
        }
    }

    /// Production preset FL-1: a keyboard-prediction-class application.
    pub fn fl1() -> FlApp {
        FlApp::new(
            "FL-1",
            2_000,
            500,
            DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        )
        .with_dropout(Fraction::saturating(0.10))
    }

    /// Production preset FL-2: a heavier application (larger model, longer
    /// local epochs).
    pub fn fl2() -> FlApp {
        FlApp::new(
            "FL-2",
            1_500,
            800,
            DataVolume::from_bytes(40e6),
            TimeSpan::from_minutes(6.0),
        )
        .with_dropout(Fraction::saturating(0.15))
    }

    /// Sets the per-round client dropout fraction (dropouts compute half a
    /// round on average and never upload).
    pub fn with_dropout(mut self, dropout: Fraction) -> FlApp {
        self.dropout = dropout;
        self
    }

    /// Simulates all rounds, producing a 90-day client log.
    ///
    /// Per session: a tier is drawn from the fleet mix, the local compute
    /// time is the tier-adjusted mid-tier workload with log-normal jitter,
    /// and transfer times follow the device's link rates. Dropouts compute
    /// half a round and skip the upload.
    ///
    /// Records on [`sustain_obs::handle`] (disabled unless a caller scoped
    /// an enabled one): one `fl.simulate` span over the run, one `fl.round`
    /// span per round crediting one work unit per client session, and
    /// session/dropout counters. The RNG draws do not depend on the handle.
    pub fn simulate<R: Rng + ?Sized>(&self, rng: &mut R) -> ClientLog {
        let obs = sustain_obs::handle();
        // lint:allow(panic-discipline) fixed, known-good jitter parameters
        let jitter = LogNormal::from_median_p99(1.0, 3.0).expect("valid jitter");
        let comm = CommModel::paper_default();
        let mut log = ClientLog::ninety_day();
        // Per-run invariants hoisted out of the session loop: every paper
        // reference device shares the same residential link rates, so the
        // download/upload transfer times are session-independent, and the
        // tier-adjusted base compute time takes only |ALL| values. The
        // hoisted expressions are the exact per-session ones, so every
        // summed time is bitwise what the in-loop computation produced —
        // and no RNG draw moves.
        let reference = ClientDevice::paper_reference(DeviceTier::Mid);
        let download = comm.transfer_time(self.update_size, reference.download_rate());
        let upload = comm.transfer_time(self.update_size, reference.upload_rate());
        let base_compute = DeviceTier::ALL
            .map(|tier| ClientDevice::paper_reference(tier).compute_time(self.mid_tier_compute));
        let _run = obs.span("fl.simulate");
        let mut dropouts = 0u64;
        for _ in 0..self.rounds {
            let _round = obs.span("fl.round");
            for _ in 0..self.clients_per_round {
                let tier = sample_tier(rng);
                let compute = base_compute[tier as usize] * jitter.sample(rng);
                let dropped = rng.gen::<f64>() < self.dropout.value();
                let entry = if dropped {
                    dropouts += 1;
                    ClientLogEntry {
                        compute: compute * 0.5,
                        download,
                        upload: TimeSpan::ZERO,
                    }
                } else {
                    ClientLogEntry {
                        compute,
                        download,
                        upload,
                    }
                };
                log.push(entry);
            }
            obs.add_work(u64::from(self.clients_per_round));
        }
        if obs.enabled() {
            obs.counter("fl_sessions_total").add(log.len() as f64);
            obs.counter("fl_dropouts_total").add(dropouts as f64);
        }
        log
    }
}

fn sample_tier<R: Rng + ?Sized>(rng: &mut R) -> DeviceTier {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for tier in DeviceTier::ALL {
        acc += tier.fleet_share();
        if u < acc {
            return tier;
        }
    }
    DeviceTier::High
}

/// Aggregate statistics of one simulated FL run (see
/// [`EdgeCarbonEstimator`](crate::carbon::EdgeCarbonEstimator) for the
/// carbon conversion).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlSimReport {
    /// Total client sessions.
    pub sessions: u64,
    /// Total device compute time.
    pub compute: TimeSpan,
    /// Total communication time.
    pub communication: TimeSpan,
}

impl FlSimReport {
    /// Summarizes a client log.
    pub fn from_log(log: &ClientLog) -> FlSimReport {
        FlSimReport {
            sessions: log.len() as u64,
            compute: log.total_compute(),
            communication: log.total_communication(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn one_session_per_client_and_round() {
        let small = FlApp::new(
            "t",
            20,
            50,
            DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        );
        let log = small.simulate(&mut StdRng::seed_from_u64(1));
        assert_eq!(log.len(), 1000);
    }

    #[test]
    fn compute_dominates_communication_time() {
        let app = FlApp::new(
            "t",
            20,
            50,
            DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        );
        let log = app.simulate(&mut StdRng::seed_from_u64(2));
        let report = FlSimReport::from_log(&log);
        assert!(report.compute > report.communication);
        assert!(report.communication > TimeSpan::ZERO);
    }

    #[test]
    fn dropout_reduces_communication_and_compute_time() {
        let base = FlApp::new(
            "t",
            30,
            60,
            DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        );
        let dropped = base.clone().with_dropout(Fraction::saturating(0.9));
        let log_a = base.simulate(&mut StdRng::seed_from_u64(3));
        let log_b = dropped.simulate(&mut StdRng::seed_from_u64(3));
        // Dropouts draw the same tiers and jitter, so the runs differ only
        // in the dropped sessions' halved compute and missing uploads.
        assert_eq!(log_a.len(), log_b.len());
        assert!(log_b.total_communication() < log_a.total_communication());
        assert!(log_b.total_compute() < log_a.total_compute() * 0.7);
    }

    #[test]
    fn heterogeneity_spreads_compute_times() {
        // One session per log, so each total is one client's compute time.
        let app = FlApp::new(
            "t",
            1,
            1,
            DataVolume::from_bytes(1e6),
            TimeSpan::from_minutes(4.0),
        );
        let times: Vec<f64> = (0..2_000)
            .map(|seed| {
                let log = app.simulate(&mut StdRng::seed_from_u64(seed));
                assert_eq!(log.len(), 1);
                log.total_compute().as_minutes()
            })
            .collect();
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        // Low-tier 2× slower than mid, high-tier 2× faster, plus jitter.
        assert!(max / min > 3.0, "spread {}..{}", min, max);
    }

    /// Under the work clock a span's width is the work reported inside it,
    /// so the `fl.round` spans must hold one unit per client session.
    #[test]
    fn round_spans_report_one_unit_of_work_per_session() {
        let app = FlApp::new(
            "t",
            7,
            13,
            DataVolume::from_bytes(1e6),
            TimeSpan::from_minutes(1.0),
        )
        .with_dropout(Fraction::saturating(0.2));
        let obs = sustain_obs::ObsConfig::enabled().build();
        let log =
            sustain_obs::with_task_handle(&obs, || app.simulate(&mut StdRng::seed_from_u64(6)));
        let rounds: Vec<f64> = obs
            .events()
            .iter()
            .filter_map(|e| match e {
                sustain_obs::EventRecord::Span {
                    name, start, end, ..
                } if *name == "fl.round" => Some((*end - *start).as_secs()),
                _ => None,
            })
            .collect();
        assert_eq!(rounds.len(), 7);
        assert_eq!(rounds.iter().sum::<f64>(), log.len() as f64);
    }

    #[test]
    fn deterministic_with_seed() {
        let app = FlApp::new(
            "t",
            5,
            20,
            DataVolume::from_bytes(1e6),
            TimeSpan::from_minutes(1.0),
        );
        let a = app.simulate(&mut StdRng::seed_from_u64(5));
        let b = app.simulate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn rejects_zero_rounds() {
        let _ = FlApp::new("bad", 0, 1, DataVolume::ZERO, TimeSpan::ZERO);
    }
}
