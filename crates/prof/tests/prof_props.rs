//! Property tests for profile conservation and the folded export.
//!
//! Two generators drive these: a *well-nested* generator that records
//! arbitrary span programs through a real `Obs` handle (open/close/work
//! ops, plus task forks adopted back), and a *hostile* generator that
//! fabricates raw `EventRecord`s with arbitrary parents and timestamps
//! (overlaps, orphans, inverted spans).
//! Conservation must hold exactly on the first and degrade only via
//! reported clamping on the second. A third feeds arbitrary bytes to every
//! loader of persisted text, which must return rather than panic.

use proptest::prelude::*;

use sustain_core::units::TimeSpan;
use sustain_obs::{EventRecord, ObsConfig};
use sustain_prof::{parse_folded, profile_records, to_folded, Profile, SpanTree};

const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Replays an op program through a real recorder: op 0 opens a span
/// (name picked by `value`), op 1 closes the innermost open span, op 2
/// adds `value` work units, and op 3 records a span with `value` work
/// units into a task fork and adopts it under the innermost open span.
/// Well-nested by construction.
fn record_program(ops: &[(u8, u64)]) -> Vec<EventRecord> {
    let obs = ObsConfig::enabled().build();
    let mut open = Vec::new();
    for &(op, value) in ops {
        match op {
            0 => open.push(obs.span(NAMES[(value % 4) as usize])),
            1 => {
                open.pop();
            }
            2 => obs.add_work(value % 50),
            _ => {
                let fork = obs.fork();
                {
                    let _task = fork.span(NAMES[(value % 4) as usize]);
                    fork.add_work(value % 50);
                }
                obs.adopt(&fork, obs.current_span_id());
            }
        }
    }
    // Close in reverse-open order.
    while open.pop().is_some() {}
    obs.events()
}

/// Fabricates raw records: parents may be self, missing, later spans, or
/// absent; starts and ends are arbitrary (including inverted).
fn fabricate(specs: &[(u64, u64, u64)]) -> Vec<EventRecord> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(parent_sel, start, end))| EventRecord::Span {
            id: i as u64,
            parent: (parent_sel % 4 != 0).then_some(parent_sel % (specs.len() as u64 + 1)),
            name: NAMES[(start % 4) as usize],
            start: TimeSpan::from_secs(start as f64 / 8.0),
            end: TimeSpan::from_secs(end as f64 / 8.0),
        })
        .collect()
}

proptest! {
    /// Well-nested recordings conserve exactly, adopted forks included:
    /// nothing clamps, every per-name self time is non-negative, and the
    /// self times sum to the root totals.
    #[test]
    fn well_nested_programs_conserve(ops in prop::collection::vec((0u8..4, 0u64..100), 1..150)) {
        let profile = profile_records(&record_program(&ops));
        prop_assert_eq!(profile.clamped_spans(), 0);
        prop_assert!(profile.conserves(), "self {:?} vs root {:?}",
            profile.self_total(), profile.root_total());
        for (name, stats) in profile.by_name() {
            prop_assert!(stats.self_time >= TimeSpan::ZERO, "{name} negative self");
            prop_assert!(stats.min <= stats.median && stats.median <= stats.max,
                "{name} order stats out of order");
            prop_assert!(stats.self_time <= stats.total, "{name} self above total");
        }
    }

    /// Hostile trees never yield negative self time, and whenever nothing
    /// clamped, the telescoping identity Σself == Σroot-totals still holds
    /// — conservation fails only via *reported* clamping.
    #[test]
    fn hostile_trees_clamp_rather_than_go_negative(
        specs in prop::collection::vec((0u64..40, 0u64..80, 0u64..80), 1..80),
    ) {
        let profile = profile_records(&fabricate(&specs));
        for (name, stats) in profile.by_name() {
            prop_assert!(stats.self_time >= TimeSpan::ZERO, "{name} negative self");
        }
        if profile.clamped_spans() == 0 {
            prop_assert!(profile.conserves(), "unclamped but self {:?} != root {:?}",
                profile.self_total(), profile.root_total());
        } else {
            prop_assert!(!profile.conserves());
        }
    }

    /// The folded export round-trips: parse returns the same stacks and
    /// counts, re-rendering reproduces the text byte-for-byte, and the
    /// counts sum to the profile's total self time (work units are whole
    /// seconds, so the microsecond rounding is exact).
    #[test]
    fn folded_export_round_trips(ops in prop::collection::vec((0u8..3, 0u64..100), 1..150)) {
        let records = record_program(&ops);
        let tree = SpanTree::from_records(&records);
        let folded = to_folded(&tree);
        let counts = parse_folded(&folded).expect("own export parses");
        let rerendered: String = counts
            .iter()
            .map(|(stack, micros)| format!("{stack} {micros}\n"))
            .collect();
        prop_assert_eq!(&rerendered, &folded);
        let folded_micros: u128 = counts.values().sum();
        let self_micros = (Profile::from_tree(&tree).self_total().as_secs() * 1e6).round() as u128;
        prop_assert_eq!(folded_micros, self_micros);
    }

    /// Profiles are insensitive to record order: shuffling the span records
    /// (profiling is a pure function of the set of spans) changes nothing.
    #[test]
    fn profile_is_order_insensitive(
        ops in prop::collection::vec((0u8..3, 0u64..100), 1..100),
        pivot in 0usize..100,
    ) {
        let records = record_program(&ops);
        let forward = profile_records(&records);
        let mut rotated = records;
        let split = (pivot % (rotated.len() + 1).max(1)).min(rotated.len());
        rotated.rotate_left(split);
        prop_assert_eq!(forward, profile_records(&rotated));
    }

    /// Arbitrary bytes, read as lossy UTF-8, go through the folded-stack
    /// parser, the `events.jsonl` loader and the JSON parser under it: each
    /// returns `Ok` or `Err`, and none panics.
    #[test]
    fn text_loaders_survive_arbitrary_input(bytes in prop::collection::vec(0u16..256, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|byte| byte as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_folded(&text);
        let _ = SpanTree::from_jsonl(&text);
        let _ = serde_json::parse(&text);
    }
}
