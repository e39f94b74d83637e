//! Federated-learning round simulation.
//!
//! [`FlApp`] describes a production FL application (round cadence, cohort
//! size, update size, local workload); [`FlApp::simulate`] runs the rounds
//! over a heterogeneous device fleet and emits the 90-day [`ClientLog`] the
//! published estimation methodology consumes. The `fl1`/`fl2` presets are
//! calibrated so their estimated footprints land in the Figure 11 band
//! (comparable to centralized Transformer_Big training).

use rand::Rng;
use serde::{Deserialize, Serialize};

use sustain_core::stats::{LogNormal, Sampler};
use sustain_core::units::{DataVolume, Fraction, TimeSpan};
use sustain_obs::Obs;

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
    /// Observability goes through [`sustain_obs::handle`] (disabled unless
    /// a caller scoped an enabled one); use [`FlApp::simulate_with_obs`] for
    /// explicit injection.
    pub fn simulate<R: Rng + ?Sized>(&self, rng: &mut R) -> ClientLog {
        self.simulate_with_obs(rng, &sustain_obs::handle())
    }

    /// [`FlApp::simulate`] reporting through an explicit [`Obs`] handle:
    /// one `fl.simulate` span over the run, one `fl.round` span per round,
    /// and session/dropout counters. `FlApp` itself stays a plain
    /// serializable config, so the handle is passed per call rather than
    /// stored.
    pub fn simulate_with_obs<R: Rng + ?Sized>(&self, rng: &mut R, obs: &Obs) -> ClientLog {
        // lint:allow(panic-discipline) fixed, known-good jitter parameters
        let jitter = LogNormal::from_median_p99(1.0, 3.0).expect("valid jitter");
        let comm = CommModel::paper_default();
        let mut log = ClientLog::ninety_day();
        // Per-run invariants hoisted out of the session loop: every paper
        // reference device shares the same residential link rates, so the
        // download/upload transfer times are session-independent, and the
        // tier-adjusted base compute time takes only |ALL| values. The
        // hoisted expressions are the exact per-session ones, so every
        // logged time is bitwise what the in-loop computation produced —
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
    fn dropout_reduces_upload_time() {
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
        let ul_a: TimeSpan = log_a.entries().iter().map(|e| e.upload).sum();
        let ul_b: TimeSpan = log_b.entries().iter().map(|e| e.upload).sum();
        assert!(ul_b < ul_a * 0.5);
    }

    #[test]
    fn heterogeneity_spreads_compute_times() {
        let app = FlApp::new(
            "t",
            10,
            200,
            DataVolume::from_bytes(1e6),
            TimeSpan::from_minutes(4.0),
        );
        let log = app.simulate(&mut StdRng::seed_from_u64(4));
        let times: Vec<f64> = log
            .entries()
            .iter()
            .map(|e| e.compute.as_minutes())
            .collect();
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0f64, f64::max);
        // Low-tier 2× slower than mid, high-tier 2× faster, plus jitter.
        assert!(max / min > 3.0, "spread {}..{}", min, max);
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
