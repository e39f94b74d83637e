//! Observability smoke tests for the bench harness: the committed
//! `figures_output.txt`, `faults_output.txt` and `stream_output.txt` track
//! the default catalogue and the `faults` and `stream` families exactly,
//! and an obs-enabled run produces parseable exports covering every
//! instrumented subsystem.

use sustain_bench::figs::{self, NamedFigure};
use sustain_par::ParPool;

/// The tables exactly as `all_figures` prints them.
fn render(tables: &[NamedFigure]) -> String {
    figs::fan_out(&ParPool::current(), tables, None)
        .iter()
        .map(|t| format!("{t}\n"))
        .collect()
}

/// The committed reference output must match what `all_figures` prints
/// today (`cargo run -p sustain-bench --bin all_figures` regenerates it).
#[test]
fn committed_figures_output_is_current() {
    let expected = include_str!("../../../figures_output.txt");
    assert!(
        render(&figs::catalogue()) == expected,
        "figures_output.txt is stale; regenerate with \
         `cargo run --release -p sustain-bench --bin all_figures > figures_output.txt`"
    );
}

/// The committed fault-injection tables must match what
/// `all_figures --only faults` prints today.
#[test]
fn committed_faults_output_is_current() {
    let expected = include_str!("../../../faults_output.txt");
    assert!(
        render(figs::faults::TABLES) == expected,
        "faults_output.txt is stale; regenerate with `cargo run --release -p sustain-bench \
         --bin all_figures -- --only faults > faults_output.txt`"
    );
}

/// The committed streaming-ingestion tables must match what
/// `all_figures --only stream` prints today.
#[test]
fn committed_stream_output_is_current() {
    let expected = include_str!("../../../stream_output.txt");
    assert!(
        render(figs::stream::TABLES) == expected,
        "stream_output.txt is stale; regenerate with `cargo run --release -p sustain-bench \
         --bin all_figures -- --only stream > stream_output.txt`"
    );
}

/// Runs what `all_figures --obs` runs: scope an enabled recorder to this
/// thread, regenerate the figure catalogue, then the coverage sweep (the
/// robustness tables and a tracker demo), and check the exports parse and
/// cover the instrumented subsystems. The scope is this thread's, so the
/// other tests' figures, fanned out on other test threads, stay out of the
/// recording.
#[test]
fn obs_enabled_run_exports_all_subsystems() {
    let obs = sustain_obs::ObsConfig::enabled().build();
    let pool = ParPool::current();
    let catalogue = figs::catalogue();
    let swept = sustain_obs::with_task_handle(&obs, || {
        figs::all_with_pool(&pool);
        figs::coverage_sweep(&pool, &catalogue)
    });

    // Each traced regenerator counts itself once, as `all_figures` checks.
    let generated = obs.counter("figures_generated_total").value();
    let expected = (catalogue.len() + swept) as f64;
    assert!(
        (generated - expected).abs() < 0.5,
        "figures_generated_total = {generated}, expected {expected}: a figure was \
         skipped, double-counted or recorded from another test"
    );

    // The Chrome trace is valid JSON with a traceEvents array.
    let trace = serde_json::parse(&obs.export_chrome_trace()).expect("trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Every JSONL line parses, and the names cover all six instrumented
    // subsystems: fleet phases, chaos, telemetry faults, gap imputation,
    // FL rounds, carbon tracking, and the figure regenerators.
    let jsonl = obs.export_jsonl();
    for line in jsonl.lines() {
        serde_json::parse(line).expect("JSONL line parses");
    }
    for prefix in [
        "\"fleet_sim.",
        "\"chaos.",
        "\"telemetry.fault\"",
        "\"meter.imputed_gap\"",
        "\"fl.",
        "\"tracker.",
        "\"figure.",
    ] {
        assert!(
            jsonl.contains(prefix),
            "exports must cover subsystem {prefix}"
        );
    }

    // The Prometheus exposition carries the headline counters.
    let prom = obs.export_prometheus();
    for metric in [
        "figures_generated_total",
        "fleet_jobs_arrived_total",
        "fl_sessions_total",
        "tracker_records_total",
        "meter_imputed_gaps_total",
    ] {
        assert!(prom.contains(metric), "missing metric {metric}");
    }
}
