//! The 90-day client-log format (Appendix B).
//!
//! "We collected the 90-day log data for federated learning production use
//! cases at Facebook, which recorded the time spent on computation, data
//! downloading, and data uploading per client device." [`ClientLog`] is that
//! record; the production logs are proprietary, so [`fl`](crate::fl)
//! generates synthetic logs with the same schema.

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

/// A windowed collection of client log entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientLog {
    window: TimeSpan,
    entries: Vec<ClientLogEntry>,
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
            entries: Vec::new(),
        }
    }

    /// Appends a client's entry.
    pub fn push(&mut self, entry: ClientLogEntry) -> &mut ClientLog {
        self.entries.push(entry);
        self
    }

    /// The entries.
    pub fn entries(&self) -> &[ClientLogEntry] {
        &self.entries
    }

    /// Number of client entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total computation time across clients.
    pub fn total_compute(&self) -> TimeSpan {
        self.entries.iter().map(|e| e.compute).sum()
    }

    /// Total communication time across clients.
    pub fn total_communication(&self) -> TimeSpan {
        self.entries.iter().map(|e| e.communication()).sum()
    }
}

impl Extend<ClientLogEntry> for ClientLog {
    fn extend<I: IntoIterator<Item = ClientLogEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn extend_appends_entries() {
        let mut log = ClientLog::ninety_day();
        log.extend(vec![entry(1.0, 0.0, 0.0); 5]);
        assert_eq!(log.len(), 5);
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
