//! Streaming-ingestion validation tables: the `sustain-stream` pipeline
//! replayed against exact integration, swept along its three degradation
//! axes (fault scale, lateness bound, queue capacity) plus a fleet-chaos
//! feed. Printed by `all_figures --only stream`; intentionally *not* part
//! of [`crate::figs::catalogue`], so the paper-figure outputs stay
//! byte-identical.

use sustain_core::units::TimeSpan;
use sustain_fleet::chaos::ChaosConfig;
use sustain_stream::pipeline::{StreamConfig, StreamPipeline};
use sustain_stream::validate::{self, ValidationPoint};

use crate::table::{num, Table};

/// The streaming tables by name, in narrative order.
pub const TABLES: &[super::NamedFigure] = &[
    ("figure.stream_fault_sweep", fault_sweep),
    ("figure.stream_lateness_sweep", lateness_sweep),
    ("figure.stream_capacity_sweep", capacity_sweep),
    ("figure.stream_chaos_fleet", chaos_fed_stream),
];

const SOURCES: usize = 16;
const TICKS: u64 = 1200;

fn sweep_config() -> StreamConfig {
    StreamConfig {
        shards: 4,
        queue_capacity: 256,
        reorder_capacity: 128,
        flush_every: 32,
        ..StreamConfig::default()
    }
}

fn point_row(label: String, p: &ValidationPoint) -> Vec<String> {
    vec![
        label,
        format!("{:.2}%", p.error * 100.0),
        format!("{:.1}%", p.coverage * 100.0),
        p.queue_drops.to_string(),
        p.late.to_string(),
        p.retries.to_string(),
        p.lost_reads.to_string(),
    ]
}

const POINT_COLUMNS: &[&str] = &[
    "knob",
    "energy error",
    "coverage",
    "queue drops",
    "late",
    "retries",
    "lost reads",
];

/// §V-A (streaming): chaos scale vs streaming-estimate error. Every fault
/// rate of the degraded-collector plan is multiplied up together; the
/// pipeline must degrade gracefully, never collapse.
pub fn fault_sweep() -> Table {
    let scales = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];
    let points = validate::fault_rate_sweep(&scales, sweep_config(), SOURCES, TICKS);
    let mut table = Table::new(
        "SV-A (streaming): fault scale vs estimate error (16 meters, 1200 ticks, sharded ingest)",
        POINT_COLUMNS,
    );
    for p in &points {
        table.row(&point_row(format!("{:.1}x degraded", p.knob), p));
    }
    let worst = points.iter().map(|p| p.error).fold(0.0f64, f64::max);
    table.claim(format!(
        "imputation holds the streaming estimate within {:.1}% of exact integration up to 8x chaos",
        worst * 100.0
    ));
    table.claim("every row conserves its samples: observed + lost + dropped + late = expected");
    table
}

/// Streaming ingestion's memory/latency/loss triangle, axis one: the
/// lateness bound. Tighter watermarks release earlier and hold less
/// memory, but strand more stragglers on the imputation path.
pub fn lateness_sweep() -> Table {
    let bounds = [0.05, 0.25, 0.5, 1.0, 2.0, 5.0];
    let points = validate::lateness_sweep(&bounds, sweep_config(), SOURCES, TICKS);
    let mut table = Table::new(
        "streaming lateness bound vs stranded samples (degraded collector, 1 s sampling)",
        POINT_COLUMNS,
    );
    for p in &points {
        table.row(&point_row(format!("{:.2} s bound", p.knob), p));
    }
    table.claim("late arrivals are tallied and imputed, never silently lost");
    table.claim(
        "bounds beyond the worst skew-plus-backoff strand nobody: the reorder buffer absorbs them",
    );
    table
}

/// Axis two: queue capacity under `DropOldest` backpressure with
/// infrequent flushes. Small queues shed load explicitly — every shed
/// sample is a tallied `queue-drop` feeding imputation.
pub fn capacity_sweep() -> Table {
    let capacities = [4usize, 16, 64, 256, 1024];
    let config = StreamConfig {
        flush_every: 256,
        ..sweep_config()
    };
    let points = validate::capacity_sweep(&capacities, config, SOURCES, TICKS);
    let mut table = Table::new(
        "streaming queue capacity vs shed load (drop-oldest backpressure, flush every 256 ticks)",
        POINT_COLUMNS,
    );
    for p in &points {
        table.row(&point_row(format!("{} samples", p.knob as usize), p));
    }
    let shed: Vec<u64> = points.iter().map(|p| p.queue_drops).collect();
    table.claim(format!(
        "drops fall monotonically with capacity: {shed:?} across {capacities:?}"
    ));
    table.claim("bounded memory is explicit: capacity x shards caps in-flight samples");
    table
}

/// The fleet chaos harness feeding the stream: every host's meter gets a
/// per-host decorrelated [`FaultPlan`] derived from one
/// [`ChaosConfig::datacenter_default`] seed via
/// [`ChaosConfig::stream_plan`], and the merged report must conserve every
/// sample the fleet expected.
///
/// [`FaultPlan`]: sustain_telemetry::faults::FaultPlan
pub fn chaos_fed_stream() -> Table {
    let chaos = ChaosConfig::datacenter_default();
    let mut pipe = StreamPipeline::new(sweep_config());
    for host in 0..SOURCES {
        pipe.add_source(
            &validate::source_label(host),
            &chaos.stream_plan(host as u64),
        );
    }
    pipe.run(TICKS, validate::synthetic_power);
    let report = pipe.finish();
    let exact = validate::exact_energy(SOURCES, TICKS, TimeSpan::from_secs(1.0));
    // Each metered host is a leaf under its rack in the report's roll-up.
    let host_leaves: usize = report
        .rollup
        .children("")
        .keys()
        .map(|rack| report.rollup.children(rack).len())
        .sum();

    let mut table = Table::new(
        "fleet chaos feeding the stream (datacenter default, per-host decorrelated plans)",
        &["quantity", "value"],
    );
    let faults = &report.quality.faults;
    let rows: Vec<(String, String)> = vec![
        ("meters".into(), report.sources.to_string()),
        ("ticks".into(), report.ticks.to_string()),
        (
            "expected samples".into(),
            report.quality.expected_samples.to_string(),
        ),
        (
            "observed samples".into(),
            report.quality.observed_samples.to_string(),
        ),
        (
            "coverage".into(),
            format!("{:.1}%", report.quality.coverage().as_percent()),
        ),
        ("lost reads".into(), report.lost_reads.to_string()),
        ("queue drops".into(), faults.queue_drops.to_string()),
        ("late arrivals".into(), faults.late_arrivals.to_string()),
        ("out-of-order".into(), faults.out_of_order.to_string()),
        ("retries".into(), report.retries.to_string()),
        (
            "imputed share".into(),
            format!("{:.1}%", report.quality.imputed_share().as_percent()),
        ),
        (
            "energy error vs exact".into(),
            format!("{:.2}%", report.relative_error(exact) * 100.0),
        ),
        (
            "conserved".into(),
            if report.is_conserved() { "yes" } else { "NO" }.to_string(),
        ),
        ("roll-up host leaves".into(), num(host_leaves as f64, 0)),
    ];
    for (k, v) in rows {
        table.row(&[k, v]);
    }
    table.claim("one chaos seed reproduces every host's fault stream bit-for-bit");
    table.claim("paper: telemetry at fleet scale is lossy — account the loss, don't hide it");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_sweep_zero_scale_is_near_exact() {
        let t = fault_sweep();
        let first = &t.rows()[0];
        assert_eq!(first[0], "0.0x degraded");
        // Scale 0 keeps the bounded clock skew, so near-exact, not zero.
        let error: f64 = first[1].trim_end_matches('%').parse().expect("error cell");
        assert!(error < 0.1, "zero-scale error {error}%");
        assert_eq!(first[3], "0");
        assert_eq!(first[6], "0");
    }

    #[test]
    fn capacity_sweep_drops_fall_with_capacity() {
        let t = capacity_sweep();
        let drops: Vec<u64> = t
            .rows()
            .iter()
            .map(|r| r[3].parse().expect("drops cell"))
            .collect();
        for pair in drops.windows(2) {
            assert!(pair[1] <= pair[0], "drops must not rise with capacity");
        }
        assert!(drops[0] > 0, "the smallest queue must shed load");
        assert_eq!(drops[drops.len() - 1], 0, "the largest must not");
    }

    #[test]
    fn chaos_fed_stream_conserves() {
        let t = chaos_fed_stream();
        let conserved = t
            .rows()
            .iter()
            .find(|r| r[0] == "conserved")
            .expect("conserved row");
        assert_eq!(conserved[1], "yes");
    }
}
