//! `stream_ingest`: live telemetry accounting. One op is one flush window
//! on [`METERS`] meters, from the window's first `ingest_tick` to the end
//! of its `flush()`. Each run drives [`WINDOWS_PER_RUN`] windows plus
//! `finish()` through a fresh pipeline under a degraded fault plan, and is
//! checked against the exact energy of the uncorrupted signal.

use std::time::Instant;

use sustain_core::units::Energy;
use sustain_obs::Obs;
use sustain_stream::pipeline::{StreamConfig, StreamPipeline, StreamReport};
use sustain_stream::validate;
use sustain_telemetry::faults::FaultPlan;

use crate::golden::fingerprint;
use crate::measure::{
    self, drive, ensure, ms_since, Chunk, Driven, Metric, Outcome, Plan, RunConfig, Tracer,
    DEFAULT_SEED,
};

/// Workload name.
pub const NAME: &str = "stream_ingest";

const METERS: usize = 1024;
/// 64 meters per shard, the sizing `stream/constants.rs` documents for the
/// default queue capacity.
const SHARDS: usize = METERS / 64;
const WINDOWS_PER_RUN: usize = 64;
/// Largest accepted streaming error against the exact energy (0.1%).
const MAX_RELATIVE_ERROR: f64 = 1e-3;
/// Set-up repetitions per run; set-up computes the exact reference energy
/// in one single-threaded loop of 30–50 ms, and 50 of them leave five
/// above the 90th percentile.
const SETUP_REPS: usize = 50;

fn config(seed: u64) -> StreamConfig {
    StreamConfig::default().with_shards(SHARDS).with_seed(seed)
}

fn windows(cfg: &RunConfig) -> usize {
    if cfg.smoke {
        measure::SMOKE_OPS
    } else {
        WINDOWS_PER_RUN
    }
}

/// Exact energy of `windows` windows of the uncorrupted signal.
fn reference(windows: usize) -> Energy {
    let ticks = windows as u64 * StreamConfig::default().flush_every;
    validate::exact_energy(METERS, ticks, StreamConfig::default().interval)
}

/// One run's report and the largest in-flight sample count seen.
struct Run {
    report: StreamReport,
    peak_buffered: usize,
}

/// One run on a fresh pipeline; each window's latency goes to `window_ms`.
fn run(obs: &Obs, seed: u64, windows: usize, window_ms: &mut Vec<f64>) -> Run {
    let _run = obs.span("bench.stream_ingest.run");
    let config = config(seed);
    let mut pipe = StreamPipeline::new(config);
    {
        let _span = obs.span("stream.add_sources");
        let plan = FaultPlan::degraded().with_seed(seed);
        for i in 0..METERS {
            pipe.add_source(&validate::source_label(i), &plan);
        }
    }
    let mut peak_buffered = 0;
    for _ in 0..windows {
        let started = Instant::now();
        for _ in 0..config.flush_every {
            let _span = obs.span("stream.ingest_tick");
            pipe.ingest_tick(validate::synthetic_power);
            peak_buffered = peak_buffered.max(pipe.buffered());
        }
        {
            let _span = obs.span("stream.flush");
            pipe.flush();
        }
        window_ms.push(ms_since(started));
    }
    let _span = obs.span("stream.finish");
    Run {
        report: pipe.finish(),
        peak_buffered,
    }
}

/// Conservation, roll-up consistency and accuracy of one run; returns its
/// relative error.
fn check(report: &StreamReport, exact: Energy) -> Result<f64, String> {
    ensure(report.is_conserved(), || "samples not conserved".to_owned())?;
    let rollup = report.rollup.energy("");
    ensure(rollup == report.energy, || {
        format!(
            "roll-up {rollup} differs from report energy {}",
            report.energy
        )
    })?;
    let error = report.relative_error(exact);
    ensure(error <= MAX_RELATIVE_ERROR, || {
        format!("relative error {error} above {MAX_RELATIVE_ERROR}")
    })?;
    Ok(error)
}

/// The report fields the golden fingerprint covers (the per-sample traces
/// are left out: they are large, and the energies summarise them).
fn report_fingerprint(report: &StreamReport) -> u64 {
    fingerprint(&(
        (report.quality, report.energy, &report.rollup),
        (report.ticks, report.sources),
        (report.lost_reads, report.retries),
        (report.blocked_offers, report.forced_releases),
    ))
}

/// The default-seed run fingerprint the golden file commits.
pub fn golden_fingerprint() -> Result<u64, String> {
    let exact = reference(WINDOWS_PER_RUN);
    let run = run(
        &Obs::disabled(),
        DEFAULT_SEED,
        WINDOWS_PER_RUN,
        &mut Vec::new(),
    );
    check(&run.report, exact)?;
    Ok(report_fingerprint(&run.report))
}

/// The measured loop: one fresh pipeline run per chunk, each seeded from
/// the run seed and its index, and checked against the exact energy.
fn run_all(cfg: &RunConfig, tracer: Option<&Tracer>) -> Driven<Energy, (Run, f64)> {
    let windows = windows(cfg);
    let plan = Plan {
        setup_reps: SETUP_REPS,
        setup_batch: 1,
        ops_per_chunk: windows,
        work_per_chunk: (windows * METERS) as f64 * StreamConfig::default().flush_every as f64,
    };
    drive(
        cfg,
        plan,
        tracer,
        |_| Ok(reference(windows)),
        |exact, obs, index, window_ms| {
            let started = Instant::now();
            let run = run(
                obs,
                sustain_par::task_seed(cfg.seed, index),
                windows,
                window_ms,
            );
            let seconds = started.elapsed().as_secs_f64();
            let error = check(&run.report, *exact)?;
            Ok(Chunk {
                value: (run, error),
                seconds,
            })
        },
    )
}

/// The untraced run behind the end-to-end metrics.
pub fn measure(cfg: &RunConfig) -> Outcome {
    run_all(cfg, None).outcome()
}

/// The traced run.
pub fn profile(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::default();
    let mut driven = run_all(cfg, Some(&tracer));
    let profile = tracer.profile();
    let n = driven.traced_ms.len();
    let per_call = |name: &str, span: &str, scale: f64, unit: &'static str| {
        Metric::new(name, measure::self_ms(&profile, span) * scale, unit).over(n)
    };
    let mut metrics = vec![
        per_call(
            "stream_ingest.stream.ingest_tick_us",
            "stream.ingest_tick",
            1e3,
            "us",
        ),
        per_call("stream_ingest.stream.flush_ms", "stream.flush", 1.0, "ms"),
        per_call("stream_ingest.stream.finish_ms", "stream.finish", 1.0, "ms"),
        per_call(
            "stream_ingest.stream.add_sources_ms",
            "stream.add_sources",
            1.0,
            "ms",
        ),
    ];
    if let Some((run, error)) = &driven.first {
        let r = &run.report;
        let exact =
            |name: &str, value: f64, unit: &'static str| Metric::new(name, value, unit).exact();
        metrics.extend([
            exact(
                "stream_ingest.stream.blocked_offers",
                r.blocked_offers as f64,
                "count",
            ),
            exact(
                "stream_ingest.stream.forced_releases",
                r.forced_releases as f64,
                "count",
            ),
            exact(
                "stream_ingest.stream.lost_reads",
                r.lost_reads as f64,
                "count",
            ),
            exact("stream_ingest.stream.retries", r.retries as f64, "count"),
            exact(
                "stream_ingest.stream.peak_buffered_samples",
                run.peak_buffered as f64,
                "count",
            ),
            exact(
                "stream_ingest.telemetry.imputed_share_pct",
                r.quality.imputed_share().as_percent(),
                "%",
            ),
            exact("stream_ingest.accounting_error_pct", error * 100.0, "%"),
        ]);
    }
    metrics.extend(measure::traced_common(NAME, &profile, &mut driven));
    Outcome::new(metrics, driven.tally)
}
