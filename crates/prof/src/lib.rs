//! Profiling analysis over `sustain-obs` recordings.
//!
//! The paper's waterfall argument (Fig 7) is a profiling argument: each
//! optimization layer was found by measuring where time actually went, then
//! attacking the largest *self-time* contributor. This crate closes that
//! loop for the workspace itself — it turns the span recordings that
//! `all_figures --obs` already exports into actionable profiles:
//!
//! - [`SpanTree`] rebuilds the span forest from in-process records or an
//!   `events.jsonl` export.
//! - [`Profile`] aggregates per span name — calls, inclusive total,
//!   **self time** (total minus direct children), min/median/max — with a
//!   conservation guarantee: for well-nested recordings the self times sum
//!   exactly to the root totals, so hotspot rankings account for 100% of
//!   measured time.
//! - [`report::render`] emits a deterministic top-k hotspot report with the
//!   critical path.
//! - [`flame::to_folded`] exports collapsed stacks for any stock
//!   flamegraph renderer.
//!
//! Two profile flavors share all of this machinery, differing only in the
//! clock behind the recorder:
//!
//! - **Work-counter profiles** run on the default work clock: instrumented
//!   layers call [`Obs::add_work`](sustain_obs::Obs::add_work) in their own
//!   unit (events dispatched, job-hours integrated, cache requests) and
//!   span durations count those units and nothing else. Forked pool tasks
//!   are adopted as if they ran in sequence, so the profile conserves and
//!   is byte-identical across thread counts — safe to diff in CI.
//! - **Wall-clock profiles** run on
//!   [`ObsConfig::with_wall_clock`](sustain_obs::ObsConfig::with_wall_clock):
//!   durations are real elapsed time, for finding actual hotspots.
//!
//! ```rust
//! use sustain_obs::ObsConfig;
//! use sustain_prof::{profile_records, report};
//!
//! let obs = ObsConfig::enabled().build();
//! {
//!     let _outer = obs.span("outer");
//!     obs.add_work(3);
//!     {
//!         let _inner = obs.span("inner");
//!         obs.add_work(7);
//!     }
//! }
//! let profile = profile_records(&obs.events());
//! assert!(profile.conserves());
//! let text = report::render(&profile, 10);
//! assert!(text.contains("inner"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod flame;
pub mod profile;
pub mod report;
pub mod tree;

pub use flame::{parse_folded, to_folded};
pub use profile::{PathStep, Profile, SpanStats};
pub use tree::{SpanNode, SpanTree};

use sustain_obs::EventRecord;

/// Profiles an in-process recording in one call.
// lint:allow(test-only-pub) benchmark: only benchmark/ profiles its traced runs through it
pub fn profile_records(records: &[EventRecord]) -> Profile {
    Profile::from_tree(&SpanTree::from_records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::units::TimeSpan;
    use sustain_obs::ObsConfig;

    #[test]
    fn records_and_their_jsonl_export_profile_alike() {
        let obs = ObsConfig::enabled().build();
        {
            let _s = obs.span("work");
            obs.add_work(5);
        }
        let from_records = profile_records(&obs.events());
        let from_jsonl =
            Profile::from_tree(&SpanTree::from_jsonl(&obs.export_jsonl()).expect("valid export"));
        assert_eq!(from_records, from_jsonl);
        let stats = from_records.stats("work").expect("work span");
        assert_eq!(stats.total, TimeSpan::from_secs(5.0));
    }

    #[test]
    fn work_counter_profile_measures_work_not_wall_time() {
        let obs = ObsConfig::enabled().build();
        {
            let _outer = obs.span("outer");
            obs.add_work(3);
            {
                let _inner = obs.span("inner");
                obs.add_work(7);
            }
        }
        let profile = profile_records(&obs.events());
        let outer = profile.stats("outer").expect("outer");
        let inner = profile.stats("inner").expect("inner");
        assert_eq!(outer.total, TimeSpan::from_secs(10.0));
        assert_eq!(outer.self_time, TimeSpan::from_secs(3.0));
        assert_eq!(inner.self_time, TimeSpan::from_secs(7.0));
        assert!(profile.conserves());
    }
}
