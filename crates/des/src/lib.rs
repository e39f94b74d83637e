//! # sustain-des
//!
//! Deterministic discrete-event simulation core for the `sustainai`
//! workspace.
//!
//! The fleet-level carbon accounting of the source paper (operational +
//! embodied emissions over the Data/Experimentation/Training split) was
//! first reproduced with an hour-stepped loop. That caps everything the
//! roadmap wants next: per-job carbon attribution at second granularity,
//! million-job traces, and carbon-aware scheduling decisions at *event*
//! time instead of hour boundaries. This crate is the engine under that
//! migration:
//!
//! * [`Event`] — the workspace's event taxonomy, five kinds (job
//!   arrivals, checkpoint ticks, host crashes, SDC detections,
//!   intensity-feed ticks), each carrying one free-form `id` payload whose
//!   meaning is defined by the registering system.
//! * [`Engine`] — a `BinaryHeap<Reverse<(timestamp, seq, Event)>>` priority
//!   queue with a monotone sequence number for stable tie-breaking, plus
//!   handler "systems" registered per [`EventKind`] that may schedule (and
//!   cancel) future events through the [`Timeline`].
//! * [`Timeline`] — the scheduling surface handed to handlers: `now()`,
//!   `schedule_at` / `schedule_after`, and `cancel`.
//!
//! ## Determinism contract
//!
//! Two runs with the same initial schedule and the same handler behaviour
//! dispatch byte-identical event sequences: ordering is `(timestamp, seq)`
//! and `seq` is unique, so the `Event` component of the heap entry never
//! decides. Handlers are stored in a fixed array indexed by
//! [`EventKind::index`] — never a hash-keyed registry — so registration
//! and dispatch order are reproducible by construction. The engine draws
//! no randomness of its own; systems that need it thread a seeded RNG
//! through their shared state (`sustain_par::task_seed` is the workspace's
//! seed-derivation convention).
//!
//! ## Observability
//!
//! A `des.drain` span brackets every [`Engine::run`]. On a recording
//! [`sustain_obs::Obs`] handle each dispatch counts one unit of obs work
//! and bumps `des_events_total` and a per-kind `des_events` counter, so
//! `des.drain`'s self work equals `des_events_total`. The opt-in replay
//! log ([`Engine::record_log`]) records the event train itself.
//!
//! ## Example
//!
//! ```rust
//! use sustain_des::{Engine, Event, EventKind};
//!
//! struct Tally {
//!     checkpoints: u64,
//! }
//!
//! let mut engine: Engine<Tally> = Engine::new();
//! engine.on(EventKind::JobArrival, |state: &mut Tally, event, timeline| {
//!     // Each arrival checkpoints three seconds later.
//!     timeline.schedule_after(3, Event::CheckpointTick { id: event.id() });
//!     let _ = state;
//! });
//! engine.on(EventKind::CheckpointTick, |state: &mut Tally, _event, _timeline| {
//!     state.checkpoints += 1;
//! });
//! engine.schedule_at(0, Event::JobArrival { id: 0 });
//! engine.schedule_at(5, Event::JobArrival { id: 1 });
//! let mut state = Tally { checkpoints: 0 };
//! engine.run(&mut state);
//! assert_eq!(state.checkpoints, 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod engine;
mod event;

pub use engine::{Engine, EventId, LoggedEvent, Timeline};
pub use event::{Event, EventKind, Timestamp};
