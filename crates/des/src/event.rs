//! The event taxonomy shared by every discrete-event system in the
//! workspace.

use serde::{Deserialize, Serialize};

/// Simulated time, in whole seconds since the start of the run.
///
/// Integer seconds keep heap ordering exact (no float comparison enters the
/// queue) while still being fine-grained enough for per-job attribution;
/// an hour boundary is `hour * 3600`.
pub type Timestamp = u64;

/// One schedulable occurrence.
///
/// Every variant carries a single free-form `id` payload; its meaning is
/// defined by the system that registers for the kind (an hour index for
/// periodic ticks, a job identifier for per-job events). The derived `Ord`
/// is only there so the event can ride inside the heap tuple — ordering is
/// decided by `(timestamp, seq)` alone, and `seq` is unique, so the event
/// component never breaks a tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Event {
    /// A job (or a batch-arrival process tick) enters the system.
    JobArrival {
        /// System-defined payload (job id or arrival-tick index).
        id: u64,
    },
    /// A periodic checkpoint/progress boundary.
    CheckpointTick {
        /// System-defined payload (tick index or job id).
        id: u64,
    },
    /// A host crashed and must recover from its last checkpoint.
    HostCrash {
        /// System-defined payload (crash index or host id).
        id: u64,
    },
    /// Silent data corruption detected; completed work must re-run.
    SdcDetected {
        /// System-defined payload (detection index or host id).
        id: u64,
    },
    /// A carbon-intensity feed sample boundary (hourly in the fleet sim).
    IntensityTick {
        /// System-defined payload (feed sample index).
        id: u64,
    },
}

impl Event {
    /// The kind used for handler dispatch.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::JobArrival { .. } => EventKind::JobArrival,
            Event::CheckpointTick { .. } => EventKind::CheckpointTick,
            Event::HostCrash { .. } => EventKind::HostCrash,
            Event::SdcDetected { .. } => EventKind::SdcDetected,
            Event::IntensityTick { .. } => EventKind::IntensityTick,
        }
    }

    /// The free-form payload carried by every variant.
    pub fn id(&self) -> u64 {
        match self {
            Event::JobArrival { id }
            | Event::CheckpointTick { id }
            | Event::HostCrash { id }
            | Event::SdcDetected { id }
            | Event::IntensityTick { id } => *id,
        }
    }
}

/// The discriminant of an [`Event`], used to register handler systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// [`Event::JobArrival`].
    JobArrival,
    /// [`Event::CheckpointTick`].
    CheckpointTick,
    /// [`Event::HostCrash`].
    HostCrash,
    /// [`Event::SdcDetected`].
    SdcDetected,
    /// [`Event::IntensityTick`].
    IntensityTick,
}

impl EventKind {
    /// Every kind, in dispatch-table order.
    pub const ALL: [EventKind; EventKind::COUNT] = [
        EventKind::JobArrival,
        EventKind::CheckpointTick,
        EventKind::HostCrash,
        EventKind::SdcDetected,
        EventKind::IntensityTick,
    ];

    /// Number of kinds — the length of the handler dispatch array.
    pub const COUNT: usize = 5;

    /// The kind's slot in the handler dispatch array: its declaration
    /// position, which is also its position in [`EventKind::ALL`].
    ///
    /// An explicit array index (not a hash) so registration and dispatch
    /// order never depend on hasher state — the property the workspace's
    /// `determinism-taint` lint enforces for simulation crates.
    pub fn index(self) -> usize {
        self as usize
    }

    /// A static counter name for the per-kind dispatch tally.
    pub(crate) fn counter_name(self) -> &'static str {
        match self {
            EventKind::JobArrival => "des_events_job_arrival_total",
            EventKind::CheckpointTick => "des_events_checkpoint_tick_total",
            EventKind::HostCrash => "des_events_host_crash_total",
            EventKind::SdcDetected => "des_events_sdc_detected_total",
            EventKind::IntensityTick => "des_events_intensity_tick_total",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_through_index() {
        for (slot, kind) in EventKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), slot, "{kind:?} out of slot");
        }
    }

    #[test]
    fn every_event_maps_to_its_kind() {
        let events = [
            Event::JobArrival { id: 1 },
            Event::CheckpointTick { id: 2 },
            Event::HostCrash { id: 3 },
            Event::SdcDetected { id: 4 },
            Event::IntensityTick { id: 5 },
        ];
        for (event, kind) in events.iter().zip(EventKind::ALL) {
            assert_eq!(event.kind(), kind);
            assert_eq!(event.id(), kind.index() as u64 + 1);
        }
    }

    #[test]
    fn names_are_unique() {
        for a in EventKind::ALL {
            for b in EventKind::ALL {
                if a != b {
                    assert_ne!(a.counter_name(), b.counter_name());
                }
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let event = Event::HostCrash { id: 42 };
        let json = serde_json::to_string(&event).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }
}
