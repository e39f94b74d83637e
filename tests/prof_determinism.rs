//! Profiling determinism suite: the work-counter profile of an
//! `all_figures --obs` run conserves and equals the committed
//! `work_profile.txt` at any thread count, and the wall-clock profile
//! attributes the fig07 hot path to a named inner span instead of leaving
//! it as unexplained self time.

use sustain_bench::figs;
use sustainai::obs::{Obs, ObsConfig};
use sustainai::par::ParPool;
use sustainai::prof;

/// Regenerates every figure on `pool` under a fresh recording scoped to
/// this thread, exactly as `all_figures --obs <dir> --threads <n>` does
/// before its coverage sweep.
fn instrumented_figures(obs: &Obs, pool: &ParPool) {
    let tables = sustainai::obs::with_task_handle(obs, || figs::all_with_pool(pool));
    assert!(!tables.is_empty(), "figure catalogue must regenerate");
}

/// The work-clock profile of what
/// `all_figures --obs <dir> --obs-clock sim --threads <n>` runs: the figure
/// catalogue, then the coverage sweep (FleetSim replicas, chaos and gap
/// imputation on nested pools, and a tracker demo).
fn sim_profile(threads: usize) -> (String, String) {
    let obs = ObsConfig::enabled().build();
    let pool = ParPool::new(threads);
    instrumented_figures(&obs, &pool);
    sustainai::obs::with_task_handle(&obs, || figs::coverage_sweep(&pool, &figs::catalogue()));
    let tree = prof::SpanTree::from_records(&obs.events());
    let profile = prof::Profile::from_tree(&tree);
    assert_eq!(profile.clamped_spans(), 0, "{threads} threads");
    assert!(
        profile.conserves(),
        "{threads} threads: self {:?} vs root {:?}",
        profile.self_total(),
        profile.root_total()
    );
    (prof::report::render(&profile, 64), prof::to_folded(&tree))
}

#[test]
fn work_counter_profile_is_byte_identical_across_thread_counts() {
    let golden = include_str!("../work_profile.txt");
    let (report_one, folded_one) = sim_profile(1);
    let (report_four, folded_four) = sim_profile(4);
    assert!(
        report_one.contains("optim.cache.simulate"),
        "instrumented fig07 hot path must appear: {report_one}"
    );
    assert!(
        report_one.contains("conservation: ok"),
        "the work profile must conserve: {report_one}"
    );
    for (threads, report) in [(1, &report_one), (4, &report_four)] {
        assert!(
            report == golden,
            "the {threads}-thread profile differs from work_profile.txt; a change in work \
             counts regenerates it with `all_figures --obs <dir> --obs-clock sim`:\n{report}"
        );
    }
    assert_eq!(
        folded_one, folded_four,
        "flame.folded must not depend on threads"
    );
    assert!(!folded_one.is_empty(), "work counters must produce stacks");
}

#[test]
fn wall_clock_profile_attributes_the_fig07_hot_path() {
    let obs = ObsConfig::enabled().with_wall_clock().build();
    instrumented_figures(&obs, &ParPool::new(2));
    let profile = prof::profile_records(&obs.events());
    // The acceptance bar from the profiling work: at least 90% of the
    // fig07_waterfall figure's inclusive time must land in a *named* inner
    // span, so a hotspot report points at code, not at a figure label.
    let covered = profile.attribution("figure.fig07_waterfall", "optim.cache.simulate");
    assert!(
        covered >= 0.9,
        "optim.cache.simulate covers only {:.1}% of figure.fig07_waterfall",
        covered * 100.0
    );
    let fig = profile
        .stats("figure.fig07_waterfall")
        .expect("fig07 span recorded");
    assert!(
        fig.total.as_secs() > 0.0,
        "wall clock must measure real time"
    );
}
