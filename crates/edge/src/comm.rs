//! Wireless communication energy.
//!
//! "The wireless communication energy cost takes up a significant portion of
//! the overall energy footprint of federated learning." Transfers keep the
//! home router (7.5 W per the paper) busy for the transfer duration.

use serde::{Deserialize, Serialize};

use sustain_core::units::{DataRate, DataVolume, Energy, Power, TimeSpan};

/// The communication-energy model of the paper's methodology.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommModel {
    router_power: Power,
}

impl CommModel {
    /// The paper's parameters: 7.5 W router; the device-radio draw is folded
    /// into the router figure (0 W) exactly as the published methodology does
    /// ("we multiplied ... upload/download time with the estimated router
    /// power, and omitted other energy").
    pub fn paper_default() -> CommModel {
        CommModel {
            router_power: Power::from_watts(crate::constants::ROUTER_WATTS),
        }
    }

    /// Total power while transferring.
    pub fn active_power(&self) -> Power {
        self.router_power
    }

    /// Time to transfer `volume` at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    pub fn transfer_time(&self, volume: DataVolume, rate: DataRate) -> TimeSpan {
        assert!(rate.as_bytes_per_sec() > 0.0, "rate must be positive");
        TimeSpan::from_secs(volume.as_bytes() / rate.as_bytes_per_sec())
    }

    /// Energy for a communication window of known duration.
    pub fn energy_for(&self, duration: TimeSpan) -> Energy {
        self.active_power() * duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_matches_methodology() {
        let m = CommModel::paper_default();
        assert_eq!(m.active_power(), Power::from_watts(7.5));
    }

    #[test]
    fn transfer_time_and_energy() {
        let m = CommModel::paper_default();
        // 75 MB at 2.5 MB/s = 30 s at 7.5 W = 225 J.
        let vol = DataVolume::from_bytes(75e6);
        let rate = DataRate::from_bytes_per_sec(2.5e6);
        let t = m.transfer_time(vol, rate);
        assert!((t.as_secs() - 30.0).abs() < 1e-9);
        let e = m.energy_for(t);
        assert!((e.as_joules() - 225.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let m = CommModel::paper_default();
        let _ = m.transfer_time(
            DataVolume::from_bytes(1.0),
            DataRate::from_bytes_per_sec(0.0),
        );
    }
}
