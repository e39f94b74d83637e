//! The deterministic event queue and per-kind handler dispatch loop.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::fmt;

use serde::{Deserialize, Serialize};
use sustain_obs::{Counter, Obs};

use crate::event::{Event, EventKind, Timestamp};

/// A handle to a scheduled event, usable to [`Timeline::cancel`] it.
///
/// Wraps the event's unique sequence number; ids are never reused within a
/// run, so a stale handle can at worst name an event that already fired
/// (cancelling it is then a no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventId(u64);

/// One dispatched event, as recorded when logging is enabled.
///
/// The log is the replay artifact: two runs with the same initial schedule
/// and handler behaviour must produce equal logs, element for element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoggedEvent {
    /// Simulated time the event fired at.
    pub at: Timestamp,
    /// The event's unique, monotone sequence number.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// The scheduling surface handed to handlers (and owned by the [`Engine`]).
///
/// Ordering contract: the heap entry is `Reverse<(timestamp, seq, Event)>`,
/// so events pop in nondecreasing timestamp order and same-timestamp events
/// pop in the order they were scheduled (`seq` is monotone and unique — the
/// `Event` component never decides a comparison).
#[derive(Debug)]
pub struct Timeline {
    queue: BinaryHeap<Reverse<(Timestamp, u64, Event)>>,
    next_seq: u64,
    now: Timestamp,
    cancelled: BTreeSet<u64>,
    log: Option<Vec<LoggedEvent>>,
    dispatched: u64,
}

impl Timeline {
    fn new() -> Timeline {
        Timeline {
            queue: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
            cancelled: BTreeSet::new(),
            log: None,
            dispatched: 0,
        }
    }

    /// Current simulated time: the timestamp of the event being dispatched
    /// (0 before the first dispatch).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Schedules `event` at absolute time `at`, returning a cancellation
    /// handle.
    ///
    /// A timestamp in the past is clamped to [`Timeline::now`] — the event
    /// still fires (after everything already due at `now`), so simulated
    /// time never runs backwards.
    pub fn schedule_at(&mut self, at: Timestamp, event: Event) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse((at, seq, event)));
        EventId(seq)
    }

    /// Schedules `event` at `now + delta` seconds.
    pub fn schedule_after(&mut self, delta: u64, event: Event) -> EventId {
        let at = self.now.saturating_add(delta);
        self.schedule_at(at, event)
    }

    /// Cancels a pending event; it will be skipped instead of dispatched.
    ///
    /// Cancelling an event that already fired (or was already cancelled) is
    /// a no-op. A handler uses it to retire an event scheduled earlier.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Number of events still queued (including cancelled-but-unpopped
    /// entries).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

type Handler<'h, S> = Box<dyn FnMut(&mut S, Event, &mut Timeline) + 'h>;

/// A deterministic discrete-event engine over shared state `S`.
///
/// Systems register per [`EventKind`] with [`Engine::on`]; registration
/// lives in a fixed array indexed by [`EventKind::index`] (never a
/// hash-keyed map), so dispatch order is reproducible by construction.
/// Multiple handlers on one kind run in registration order.
///
/// The engine draws no randomness of its own — systems that need it thread
/// a seeded RNG through `S`. The `'h` lifetime bounds the handlers; it is
/// inferred, and only matters when `S` itself borrows from the caller (an
/// adapter whose shared state holds `&mut R` for an external RNG, say).
pub struct Engine<'h, S> {
    timeline: Timeline,
    handlers: Vec<Vec<Handler<'h, S>>>,
    obs: Obs,
}

impl<S> fmt::Debug for Engine<'_, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let registered: usize = self.handlers.iter().map(Vec::len).sum();
        f.debug_struct("Engine")
            .field("timeline", &self.timeline)
            .field("handlers", &registered)
            .finish()
    }
}

impl<'h, S> Default for Engine<'h, S> {
    fn default() -> Engine<'h, S> {
        Engine::new()
    }
}

impl<'h, S> Engine<'h, S> {
    /// An engine with no handlers and an empty queue, reporting through the
    /// ambient [`sustain_obs::handle`].
    pub fn new() -> Engine<'h, S> {
        Engine::with_obs(&sustain_obs::handle())
    }

    /// An engine reporting through an explicit [`Obs`] handle.
    pub fn with_obs(obs: &Obs) -> Engine<'h, S> {
        let mut handlers = Vec::with_capacity(EventKind::COUNT);
        for _ in 0..EventKind::COUNT {
            handlers.push(Vec::new());
        }
        Engine {
            timeline: Timeline::new(),
            handlers,
            obs: obs.clone(),
        }
    }

    /// Turns on event logging; every dispatched event is appended to the
    /// replay log returned by [`Engine::log`].
    pub fn record_log(&mut self) {
        if self.timeline.log.is_none() {
            self.timeline.log = Some(Vec::new());
        }
    }

    /// The replay log recorded so far (empty unless [`Engine::record_log`]
    /// was called before [`Engine::run`]).
    pub fn log(&self) -> &[LoggedEvent] {
        self.timeline.log.as_deref().unwrap_or(&[])
    }

    /// Registers a handler system for one event kind.
    pub fn on<F>(&mut self, kind: EventKind, handler: F)
    where
        F: FnMut(&mut S, Event, &mut Timeline) + 'h,
    {
        if let Some(slot) = self.handlers.get_mut(kind.index()) {
            slot.push(Box::new(handler));
        }
    }

    /// Schedules `event` at absolute time `at` (pre-run seeding of the
    /// queue; handlers use the [`Timeline`] they are handed instead).
    pub fn schedule_at(&mut self, at: Timestamp, event: Event) -> EventId {
        self.timeline.schedule_at(at, event)
    }

    /// Cancels a pending event by handle.
    pub fn cancel(&mut self, id: EventId) {
        self.timeline.cancel(id);
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.timeline.now()
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.timeline.dispatched()
    }

    /// Drains the queue to exhaustion, dispatching each event to the
    /// handlers registered for its kind.
    ///
    /// The whole drain runs under a `des.drain` span. When recording is
    /// enabled, each dispatch counts one unit of obs work and bumps
    /// `des_events_total` and its kind's counter (resolved once per run, a
    /// kind's on its first dispatch). The [replay log](Engine::record_log)
    /// is the record of the event train.
    pub fn run(&mut self, state: &mut S) {
        let obs = self.obs.clone();
        let _drain = obs.span("des.drain");
        let total = obs.enabled().then(|| obs.counter("des_events_total"));
        let mut by_kind: [Option<Counter>; EventKind::COUNT] = Default::default();
        while let Some(Reverse((at, seq, event))) = self.timeline.queue.pop() {
            if self.timeline.cancelled.remove(&seq) {
                continue;
            }
            self.timeline.now = at;
            self.timeline.dispatched += 1;
            if let Some(log) = self.timeline.log.as_mut() {
                log.push(LoggedEvent { at, seq, event });
            }
            if let Some(total) = &total {
                obs.add_work(1);
                total.inc();
                let kind = event.kind();
                by_kind[kind.index()]
                    .get_or_insert_with(|| obs.counter(kind.counter_name()))
                    .inc();
            }
            if let Some(systems) = self.handlers.get_mut(event.kind().index()) {
                for system in systems.iter_mut() {
                    system(state, event, &mut self.timeline);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_timestamp_then_seq_order() {
        let mut engine: Engine<Vec<(Timestamp, u64)>> = Engine::new();
        for kind in EventKind::ALL {
            engine.on(kind, |seen: &mut Vec<(Timestamp, u64)>, event, timeline| {
                seen.push((timeline.now(), event.id()));
            });
        }
        engine.schedule_at(5, Event::JobArrival { id: 0 });
        engine.schedule_at(1, Event::HostCrash { id: 1 });
        engine.schedule_at(5, Event::CheckpointTick { id: 2 });
        engine.schedule_at(0, Event::IntensityTick { id: 3 });
        let mut seen = Vec::new();
        engine.run(&mut seen);
        assert_eq!(seen, vec![(0, 3), (1, 1), (5, 0), (5, 2)]);
    }

    #[test]
    fn handler_scheduling_interleaves_correctly() {
        let mut engine: Engine<Vec<u64>> = Engine::new();
        engine.on(
            EventKind::JobArrival,
            |_: &mut Vec<u64>, event, timeline| {
                timeline.schedule_after(2, Event::CheckpointTick { id: event.id() });
            },
        );
        engine.on(
            EventKind::CheckpointTick,
            |seen: &mut Vec<u64>, event, _| {
                seen.push(event.id());
            },
        );
        engine.schedule_at(0, Event::JobArrival { id: 10 });
        engine.schedule_at(1, Event::JobArrival { id: 11 });
        let mut seen = Vec::new();
        engine.run(&mut seen);
        // Checkpoints land at t=2 and t=3, in arrival order.
        assert_eq!(seen, vec![10, 11]);
    }

    #[test]
    fn cancelled_event_never_fires() {
        let mut engine: Engine<u64> = Engine::new();
        engine.on(EventKind::CheckpointTick, |count: &mut u64, _, _| {
            *count += 1;
        });
        engine.schedule_at(1, Event::CheckpointTick { id: 0 });
        let doomed = engine.schedule_at(2, Event::CheckpointTick { id: 1 });
        engine.schedule_at(3, Event::CheckpointTick { id: 2 });
        engine.cancel(doomed);
        let mut count = 0;
        engine.run(&mut count);
        assert_eq!(count, 2);
        assert_eq!(engine.dispatched(), 2);
    }

    #[test]
    fn past_timestamp_clamps_to_now() {
        let mut engine: Engine<Vec<(Timestamp, u64)>> = Engine::new();
        engine.on(
            EventKind::JobArrival,
            |_: &mut Vec<(Timestamp, u64)>, _, timeline| {
                // Asks for the past; must fire at now(), not rewind the clock.
                timeline.schedule_at(0, Event::CheckpointTick { id: 99 });
            },
        );
        engine.on(
            EventKind::CheckpointTick,
            |seen: &mut Vec<(Timestamp, u64)>, event, timeline| {
                seen.push((timeline.now(), event.id()));
            },
        );
        engine.schedule_at(7, Event::JobArrival { id: 0 });
        let mut seen = Vec::new();
        engine.run(&mut seen);
        assert_eq!(seen, vec![(7, 99)]);
    }

    #[test]
    fn log_records_every_dispatch_in_order() {
        let mut engine: Engine<()> = Engine::new();
        engine.record_log();
        engine.schedule_at(3, Event::SdcDetected { id: 1 });
        engine.schedule_at(3, Event::HostCrash { id: 2 });
        engine.run(&mut ());
        let log = engine.log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].event, Event::SdcDetected { id: 1 });
        assert_eq!(log[1].event, Event::HostCrash { id: 2 });
        assert!(log[0].seq < log[1].seq);
        assert_eq!(log[0].at, 3);
        assert_eq!(log[1].at, 3);
    }

    #[test]
    fn multiple_handlers_run_in_registration_order() {
        let mut engine: Engine<Vec<&'static str>> = Engine::new();
        engine.on(
            EventKind::IntensityTick,
            |seen: &mut Vec<&'static str>, _, _| {
                seen.push("first");
            },
        );
        engine.on(
            EventKind::IntensityTick,
            |seen: &mut Vec<&'static str>, _, _| {
                seen.push("second");
            },
        );
        engine.schedule_at(0, Event::IntensityTick { id: 0 });
        let mut seen = Vec::new();
        engine.run(&mut seen);
        assert_eq!(seen, vec!["first", "second"]);
    }
}
