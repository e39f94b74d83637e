//! Observability smoke tests for the bench harness: the committed
//! `figures_output.txt`, `faults_output.txt` and `stream_output.txt` track
//! `figs::all()`, `figs::faults::all()` and `figs::stream::all()` exactly,
//! and an obs-enabled run produces parseable exports covering every
//! instrumented subsystem.

use sustain_bench::figs;

/// The committed reference output must match what `all_figures` prints
/// today (`cargo run -p sustain-bench --bin all_figures` regenerates it).
#[test]
fn committed_figures_output_is_current() {
    let expected = include_str!("../../../figures_output.txt");
    let actual: String = figs::all().iter().map(|t| format!("{t}\n")).collect();
    assert!(
        actual == expected,
        "figures_output.txt is stale; regenerate with \
         `cargo run --release -p sustain-bench --bin all_figures > figures_output.txt`"
    );
}

/// The committed fault-injection tables must match what `fig_faults`
/// prints today.
#[test]
fn committed_faults_output_is_current() {
    let expected = include_str!("../../../faults_output.txt");
    let actual: String = figs::faults::all()
        .iter()
        .map(|t| format!("{t}\n"))
        .collect();
    assert!(
        actual == expected,
        "faults_output.txt is stale; regenerate with \
         `cargo run --release -p sustain-bench --bin fig_faults > faults_output.txt`"
    );
}

/// The committed streaming-ingestion tables must match what `fig_stream`
/// prints today.
#[test]
fn committed_stream_output_is_current() {
    let expected = include_str!("../../../stream_output.txt");
    let actual: String = figs::stream::all()
        .iter()
        .map(|t| format!("{t}\n"))
        .collect();
    assert!(
        actual == expected,
        "stream_output.txt is stale; regenerate with \
         `cargo run --release -p sustain-bench --bin fig_stream > stream_output.txt`"
    );
}

/// Mirrors `all_figures --obs`: install an enabled recorder, regenerate the
/// figure set plus the robustness tables and a tracker demo, then check the
/// exports parse and cover the instrumented subsystems. Kept as ONE test fn:
/// the global handle is process-wide, so splitting this up would race.
#[test]
fn obs_enabled_run_exports_all_subsystems() {
    use sustain_core::intensity::{AccountingBasis, CarbonIntensity};
    use sustain_core::lifecycle::MlPhase;
    use sustain_core::operational::OperationalAccount;
    use sustain_core::pue::Pue;
    use sustain_core::units::{Energy, TimeSpan};
    use sustain_obs::ObsConfig;
    use sustain_telemetry::tracker::CarbonTracker;

    let obs = ObsConfig::enabled().build();
    sustain_obs::install(&obs);
    for table in figs::all() {
        let _ = table.to_string();
    }
    for table in figs::faults::all() {
        let _ = table.to_string();
    }
    let account = OperationalAccount::new(
        CarbonIntensity::US_AVERAGE_2021,
        Pue::new(1.1).expect("valid PUE"),
    );
    let tracker = CarbonTracker::new("smoke", account);
    tracker.record_energy(
        "gpu0",
        MlPhase::OfflineTraining,
        Energy::from_kilowatt_hours(1.0),
    );
    tracker.record_machine_time(TimeSpan::from_hours(1.0));
    let _ = tracker.report(AccountingBasis::LocationBased);
    // Leave later obs interactions in this process disabled again.
    sustain_obs::install(&sustain_obs::Obs::disabled());

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
