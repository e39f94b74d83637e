//! Property tests for the deterministic event queue: ordering, in-handler
//! scheduling, replay, and cancellation invariants.

use proptest::prelude::*;

use sustain_des::{Engine, Event, EventId, EventKind, LoggedEvent, Timestamp};

/// Builds an event of the kind at `slot` (wrapping) carrying `id`.
fn event_for(slot: usize, id: u64) -> Event {
    match slot % EventKind::COUNT {
        0 => Event::JobArrival { id },
        1 => Event::CheckpointTick { id },
        2 => Event::HostCrash { id },
        3 => Event::SdcDetected { id },
        _ => Event::IntensityTick { id },
    }
}

/// splitmix64 — a tiny deterministic stream for the replay property, so the
/// "same seed" phrasing is literal without the engine (or this test)
/// depending on a full RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs a batch through an engine with logging on, dispatching to a no-op
/// handler for every kind, and returns the replay log.
fn drain_logged(batch: &[(Timestamp, usize)]) -> Vec<LoggedEvent> {
    let mut engine: Engine<()> = Engine::new();
    for kind in EventKind::ALL {
        engine.on(kind, |_: &mut (), _, _| {});
    }
    engine.record_log();
    for (i, (at, slot)) in batch.iter().enumerate() {
        engine.schedule_at(*at, event_for(*slot, i as u64));
    }
    engine.run(&mut ());
    engine.log().to_vec()
}

proptest! {
    /// Arbitrary batches pop in nondecreasing timestamp order; equal
    /// timestamps pop in scheduling order (monotone seq tie-break).
    #[test]
    fn pops_in_nondecreasing_time_with_stable_ties(
        batch in proptest::collection::vec((0u64..50, 0usize..7), 0..64),
    ) {
        let log = drain_logged(&batch);
        prop_assert_eq!(log.len(), batch.len());
        for pair in log.windows(2) {
            prop_assert!(
                pair[0].at < pair[1].at
                    || (pair[0].at == pair[1].at && pair[0].seq < pair[1].seq),
                "out of order: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        // Stable tie-break = scheduling order: within one timestamp the
        // event ids (their scheduling index) must be increasing.
        for pair in log.windows(2) {
            if pair[0].at == pair[1].at {
                prop_assert!(pair[0].event.id() < pair[1].event.id());
            }
        }
    }

    /// A handler scheduling new events never reorders events that were
    /// already due: everything scheduled before the run still pops in its
    /// original relative order.
    #[test]
    fn in_handler_scheduling_never_reorders_due_events(
        batch in proptest::collection::vec((0u64..30, 0usize..6), 1..48),
        extra_delay in 0u64..5,
    ) {
        // Baseline: the batch alone.
        let baseline: Vec<u64> = drain_logged(&batch)
            .into_iter()
            .map(|e| e.event.id())
            .collect();

        // Same batch, but every JobArrival handler injects an
        // IntensityTick into the future. Injected ids start at 1000, past
        // every batch id, so the record filters them out by id.
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for kind in EventKind::ALL {
            engine.on(kind, |seen: &mut Vec<u64>, event, _| {
                if event.id() < 1000 {
                    seen.push(event.id());
                }
            });
        }
        let delay = extra_delay;
        engine.on(EventKind::JobArrival, move |_: &mut Vec<u64>, event, timeline| {
            timeline.schedule_after(delay, Event::IntensityTick { id: event.id() + 1000 });
        });
        for (i, (at, slot)) in batch.iter().enumerate() {
            engine.schedule_at(*at, event_for(*slot, i as u64));
        }
        let mut seen = Vec::new();
        engine.run(&mut seen);
        prop_assert_eq!(seen, baseline);
    }

    /// Replaying the same seed yields an identical event log, element for
    /// element — the engine's replay contract.
    #[test]
    fn same_seed_replays_identical_log(seed in 0u64..1_000_000, n in 1usize..64) {
        let gen_batch = |seed: u64| {
            let mut s = seed;
            (0..n)
                .map(|_| {
                    let word = splitmix64(&mut s);
                    ((word % 40) as Timestamp, (word >> 32) as usize % EventKind::COUNT)
                })
                .collect::<Vec<_>>()
        };
        let first = drain_logged(&gen_batch(seed));
        let second = drain_logged(&gen_batch(seed));
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first.len(), n);
    }

    /// A crashed job's pending checkpoint, once cancelled, never fires —
    /// for any interleaving of due times.
    #[test]
    fn cancelled_checkpoint_never_fires(
        crash_at in 0u64..20,
        checkpoint_offset in 1u64..20,
        noise in proptest::collection::vec(0u64..40, 0..16),
    ) {
        struct JobState {
            checkpoint: Option<EventId>,
            checkpoint_fired: bool,
            crashed: bool,
        }
        let mut engine: Engine<JobState> = Engine::new();
        engine.on(EventKind::HostCrash, |state: &mut JobState, _, timeline| {
            state.crashed = true;
            if let Some(id) = state.checkpoint.take() {
                timeline.cancel(id);
            }
        });
        engine.on(EventKind::CheckpointTick, |state: &mut JobState, event, _| {
            if event.id() == 7 {
                state.checkpoint_fired = true;
            }
        });
        engine.on(EventKind::JobArrival, |_: &mut JobState, _, _| {});
        // The job's checkpoint is strictly after its crash, so the crash
        // handler always cancels it before it is due.
        let checkpoint = engine.schedule_at(
            crash_at + checkpoint_offset,
            Event::CheckpointTick { id: 7 },
        );
        engine.schedule_at(crash_at, Event::HostCrash { id: 7 });
        for (i, at) in noise.iter().enumerate() {
            engine.schedule_at(*at, Event::JobArrival { id: i as u64 });
        }
        let mut state = JobState {
            checkpoint: Some(checkpoint),
            checkpoint_fired: false,
            crashed: false,
        };
        engine.run(&mut state);
        prop_assert!(state.crashed);
        prop_assert!(!state.checkpoint_fired, "cancelled checkpoint fired");
    }
}
