//! The 90-day client-log format (Appendix B).
//!
//! "We collected the 90-day log data for federated learning production use
//! cases at Facebook, which recorded the time spent on computation, data
//! downloading, and data uploading per client device." The Appendix-B
//! estimate multiplies only the *summed* compute and communication times by
//! constant powers, so [`ClientLog`] keeps that record's totals, not its
//! rows: a session count and two running sums, O(1) however many sessions
//! are pushed. The production logs are proprietary, so [`fl`](crate::fl)
//! generates synthetic sessions with the same schema.

use serde::{Deserialize, Serialize};

use sustain_core::units::TimeSpan;

/// One client's accumulated activity over the logging window.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClientLogEntry {
    /// Total on-device computation time.
    pub compute: TimeSpan,
    /// Total data-download time.
    pub download: TimeSpan,
    /// Total data-upload time.
    pub upload: TimeSpan,
}

impl ClientLogEntry {
    /// Total communication time (download + upload).
    pub fn communication(&self) -> TimeSpan {
        self.download + self.upload
    }
}

/// The totals of a windowed client log: how many entries were pushed and
/// their summed compute and communication times.
///
/// Each sum starts at [`TimeSpan::ZERO`] and adds the entries in push
/// order, so a non-empty log's totals equal, bit for bit, an in-order sum
/// over its entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientLog {
    window: TimeSpan,
    sessions: usize,
    compute: TimeSpan,
    communication: TimeSpan,
}

impl ClientLog {
    /// Creates an empty log with the paper's 90-day window.
    pub fn ninety_day() -> ClientLog {
        ClientLog::with_window(TimeSpan::from_days(90.0))
    }

    /// Creates an empty log with a custom window.
    ///
    /// # Panics
    ///
    /// Panics if the window is not positive.
    pub fn with_window(window: TimeSpan) -> ClientLog {
        assert!(window.as_secs() > 0.0, "window must be positive");
        ClientLog {
            window,
            sessions: 0,
            compute: TimeSpan::ZERO,
            communication: TimeSpan::ZERO,
        }
    }

    /// Adds a client's entry to the totals.
    pub fn push(&mut self, entry: ClientLogEntry) -> &mut ClientLog {
        self.sessions += 1;
        self.compute += entry.compute;
        self.communication += entry.communication();
        self
    }

    /// Number of client entries pushed.
    pub fn len(&self) -> usize {
        self.sessions
    }

    /// Whether no entry was pushed.
    pub fn is_empty(&self) -> bool {
        self.sessions == 0
    }

    /// Total computation time across clients.
    pub fn total_compute(&self) -> TimeSpan {
        self.compute
    }

    /// Total communication time across clients.
    pub fn total_communication(&self) -> TimeSpan {
        self.communication
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entry(c: f64, d: f64, u: f64) -> ClientLogEntry {
        ClientLogEntry {
            compute: TimeSpan::from_minutes(c),
            download: TimeSpan::from_minutes(d),
            upload: TimeSpan::from_minutes(u),
        }
    }

    #[test]
    fn entry_totals() {
        let e = entry(10.0, 2.0, 3.0);
        assert!((e.communication().as_minutes() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn log_aggregates_across_clients() {
        let mut log = ClientLog::ninety_day();
        log.push(entry(10.0, 1.0, 1.0));
        log.push(entry(20.0, 2.0, 2.0));
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert!((log.total_compute().as_minutes() - 30.0).abs() < 1e-12);
        assert!((log.total_communication().as_minutes() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_log_has_positive_zero_totals() {
        let log = ClientLog::ninety_day();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        // The sums start at `TimeSpan::ZERO`, not at `f64::sum`'s −0.0.
        let zero = 0.0f64.to_bits();
        assert_eq!(log.total_compute().as_secs().to_bits(), zero);
        assert_eq!(log.total_communication().as_secs().to_bits(), zero);
    }

    /// A non-negative finite time in seconds: exact zeros and a wide
    /// dynamic range, so the sums round at every scale.
    fn seconds((zero, raw): (bool, f64)) -> TimeSpan {
        TimeSpan::from_secs(if zero { 0.0 } else { raw.abs() })
    }

    proptest! {
        #[test]
        fn totals_equal_the_in_order_fold_of_the_rows(
            rows in prop::collection::vec(
                (
                    (any::<bool>(), any::<f64>()),
                    (any::<bool>(), any::<f64>()),
                    (any::<bool>(), any::<f64>()),
                ),
                0..200,
            ),
        ) {
            let entries: Vec<ClientLogEntry> = rows
                .into_iter()
                .map(|(c, d, u)| ClientLogEntry {
                    compute: seconds(c),
                    download: seconds(d),
                    upload: seconds(u),
                })
                .collect();
            let mut log = ClientLog::ninety_day();
            for e in &entries {
                log.push(*e);
            }
            // The in-order fold of the rows themselves.
            let compute = entries.iter().fold(TimeSpan::ZERO, |acc, e| acc + e.compute);
            let communication = entries
                .iter()
                .fold(TimeSpan::ZERO, |acc, e| acc + (e.download + e.upload));
            prop_assert_eq!(log.len(), entries.len());
            prop_assert_eq!(log.total_compute().as_secs().to_bits(), compute.as_secs().to_bits());
            prop_assert_eq!(
                log.total_communication().as_secs().to_bits(),
                communication.as_secs().to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn rejects_zero_window() {
        let _ = ClientLog::with_window(TimeSpan::ZERO);
    }

    #[test]
    fn serde_round_trip() {
        let mut log = ClientLog::ninety_day();
        log.push(entry(1.0, 2.0, 3.0));
        let json = serde_json::to_string(&log).unwrap();
        let back: ClientLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, log);
    }
}
