//! # sustain-benchmark
//!
//! The layered end-to-end benchmark of the workspace. Four workloads each
//! stress a different set of layers through the crates' public API:
//!
//! * `figures` — the figure fan-out (`optim`, `edge`, `par`, rendering);
//! * `fleet_year` — year-long chaos fleet replicas (`fleet`, `des`,
//!   the per-sample meter in `telemetry`, `core` accounting, `par`);
//! * `stream_ingest` — live metering through `stream` and the batched
//!   `telemetry` kernel;
//! * `sweep_cache` — replica sessions against a fresh `cache` (in memory
//!   when timed; on disk as well in the traced run).
//!
//! An untraced run reports the end-to-end metrics; a separate traced run
//! records spans around each layer call on a benchmark-owned recorder and
//! reports per-layer self times and counts. Every op's output is checked,
//! and a wrong output or a panic counts as a failed op. See `README.md`.

pub mod compare;
pub mod golden;
pub mod measure;
pub mod stats;
pub mod workloads;

use serde_json::Value;

use crate::measure::{Metric, Outcome};

/// The result line of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics` (each metric as `{"value", "unit"}`).
pub fn result_json(outcome: &Outcome) -> Value {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".to_owned(), Value::Float(m.value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        (
            "correct".to_owned(),
            Value::Bool(outcome.tally.failed == 0 && outcome.tally.attempted > 0),
        ),
        (
            "attempted".to_owned(),
            Value::Int(i128::from(outcome.tally.attempted)),
        ),
        (
            "failed".to_owned(),
            Value::Int(i128::from(outcome.tally.failed)),
        ),
        ("metrics".to_owned(), Value::Object(metrics)),
    ])
}

/// The human-readable line of one metric:
/// `<workload> <metric> <value> <unit>[ n=<samples>][ exact]`.
pub fn metric_line(workload: &str, metric: &Metric) -> String {
    let mut line = format!(
        "{workload} {} {} {}",
        metric.name, metric.value, metric.unit
    );
    if metric.samples > 0 {
        line.push_str(&format!(" n={}", metric.samples));
    }
    if metric.exact {
        line.push_str(" exact");
    }
    line
}
