//! `fleet_year`: Monte Carlo replicas of a year-long fleet simulation under
//! chaos and a solar-day grid-intensity feed with gaps. One op is one
//! replica; replicas are issued [`BATCH`] per `ParPool::map_seeded` batch,
//! and each replica is timed inside its own task.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sustain_core::intensity::{AccountingBasis, GridRegion};
use sustain_core::units::{Fraction, Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::scheduler::IntensitySeries;
use sustain_fleet::sim::{FleetSim, FleetSimReport, ReplicaSummary};
use sustain_fleet::utilization::UtilizationModel;
use sustain_obs::Obs;
use sustain_par::{task_seed, ParPool};
use sustain_workload::training::{JobClass, JobGenerator};

use crate::golden::fingerprint;
use crate::measure::{
    self, drive, ensure, ms_since, Chunk, Driven, Metric, Outcome, Plan, RunConfig, Tracer,
    DEFAULT_SEED, THREADS,
};

/// Workload name.
pub const NAME: &str = "fleet_year";

const SERVERS: u32 = 100;
const ARRIVALS_PER_DAY: f64 = 100.0;
const DAYS: usize = 365;
/// Share of hours the intensity feed is missing.
const INTENSITY_GAP: f64 = 0.02;
/// Replicas per pool batch: eight tasks per worker, so one slow replica
/// cannot leave a worker idle for most of a batch.
const BATCH: usize = 16;
/// Set-up repetitions per run: 100 leave ten above the 90th percentile.
const SETUP_REPS: usize = 100;
/// Scenario builds per set-up repetition: one build takes 12–20 µs, so a
/// repetition of 256 takes milliseconds, long enough to time steadily.
const SETUP_BATCH: usize = 256;

/// Everything a replica needs, built once per run.
#[derive(Debug)]
struct Scenario {
    sim: FleetSim,
    series: IntensitySeries,
    chaos: ChaosConfig,
}

/// Builds the scenario, with the intensity feed and the job generator each
/// in its own span.
fn scenario(obs: &Obs) -> Result<Scenario, String> {
    let _setup = obs.span("bench.fleet_year.setup");
    let series = {
        let _span = obs.span("fleet.intensity_series");
        IntensitySeries::solar_day(DAYS)
    };
    let jobs = {
        let _span = obs.span("workload.job_generator");
        JobGenerator::calibrated(JobClass::Research).map_err(|err| err.to_string())?
    };
    let sim = FleetSim::new(
        Cluster::gpu_training(SERVERS),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        jobs,
        UtilizationModel::research_cluster(),
        ARRIVALS_PER_DAY,
        TimeSpan::from_days(DAYS as f64),
    );
    let chaos =
        ChaosConfig::datacenter_default().with_intensity_gap(Fraction::saturating(INTENSITY_GAP));
    Ok(Scenario { sim, series, chaos })
}

/// Per-replica checks: finite, non-negative energy and carbon, market
/// basis at most location basis, and a data-quality report present.
fn check_replica(obs: &Obs, report: &FleetSimReport) -> Result<(), String> {
    let (location, market) = {
        let _span = obs.span("core.footprint");
        (
            report.footprint(AccountingBasis::LocationBased),
            report.footprint(AccountingBasis::MarketBased),
        )
    };
    let joules = report.it_energy.as_joules();
    ensure(joules.is_finite() && joules >= 0.0, || {
        format!("it energy {joules} J")
    })?;
    for (what, kg) in [
        ("location", location.total().as_kilograms()),
        ("market", market.total().as_kilograms()),
        ("embodied", report.embodied.as_kilograms()),
    ] {
        ensure(kg.is_finite() && kg >= 0.0, || {
            format!("{what} carbon {kg} kg")
        })?;
    }
    let (loc, mkt) = (
        report.operational_location.as_kilograms(),
        report.operational_market.as_kilograms(),
    );
    ensure(mkt <= loc * (1.0 + 1e-12), || {
        format!("market {mkt} kg exceeds location {loc} kg")
    })?;
    ensure(report.quality.is_some(), || {
        "no data-quality report".to_owned()
    })
}

/// One batch of `n` replicas seeded from `base_seed`, each timed (and, on
/// an enabled handle, traced) inside its own pool task. Task spans go to
/// per-task forks adopted as separate roots, so parallel spans never nest.
fn batch(
    s: &Scenario,
    obs: &Obs,
    base_seed: u64,
    n: usize,
) -> Result<Vec<(FleetSimReport, f64)>, String> {
    let _batch = obs.span("bench.fleet_year.batch");
    let forks: Vec<Obs> = (0..n).map(|_| obs.fork()).collect();
    let out = {
        let _span = obs.span("par.map_seeded");
        ParPool::new(THREADS).map_seeded(n, base_seed, |i, seed| {
            let _span = forks[i].span("fleet.simulate");
            let started = Instant::now();
            let report = s.sim.run_with_chaos_and_intensity(
                &mut StdRng::seed_from_u64(seed),
                &s.series,
                &s.chaos,
            );
            (report, ms_since(started))
        })
    };
    for fork in &forks {
        obs.adopt(fork, None);
    }
    for (report, _) in &out {
        check_replica(obs, report)?;
    }
    let reports = reports_of(&out);
    let summary = {
        let _span = obs.span("fleet.replica_summary");
        ReplicaSummary::from_reports(&reports)
    };
    ensure(summary.is_some_and(|s| s.replicas == n as u64), || {
        "replica summary does not cover the batch".to_owned()
    })?;
    Ok(out)
}

fn reports_of(out: &[(FleetSimReport, f64)]) -> Vec<FleetSimReport> {
    out.iter().map(|(r, _)| r.clone()).collect()
}

/// The default-seed batch 0 fingerprint the golden file commits.
pub fn golden_fingerprint() -> Result<u64, String> {
    let s = scenario(&Obs::disabled())?;
    let out = batch(&s, &Obs::disabled(), task_seed(DEFAULT_SEED, 0), BATCH)?;
    Ok(fingerprint(&reports_of(&out)))
}

/// The measured loop, then batch 0 re-run and compared byte for byte.
fn run(cfg: &RunConfig, tracer: Option<&Tracer>) -> Driven<Scenario, Vec<FleetSimReport>> {
    let n = if cfg.smoke { measure::SMOKE_OPS } else { BATCH };
    let plan = Plan {
        setup_reps: SETUP_REPS,
        setup_batch: SETUP_BATCH,
        ops_per_chunk: n,
        work_per_chunk: (n * DAYS * 24) as f64,
    };
    let mut driven = drive(cfg, plan, tracer, scenario, |s, obs, index, op_ms| {
        let started = Instant::now();
        let out = batch(s, obs, task_seed(cfg.seed, index), n)?;
        let seconds = started.elapsed().as_secs_f64();
        op_ms.extend(out.iter().map(|(_, ms)| *ms));
        Ok(Chunk {
            value: reports_of(&out),
            seconds,
        })
    });
    if let (Some(s), Some(first)) = (&driven.setup, &driven.first) {
        driven.tally.run(1, "fleet_year batch 0 re-run", || {
            let again = batch(s, &Obs::disabled(), task_seed(cfg.seed, 0), n)?;
            ensure(
                fingerprint(&reports_of(&again)) == fingerprint(first),
                || "batch 0 re-run differs".to_owned(),
            )
        });
    }
    driven
}

/// The untraced run behind the end-to-end metrics.
pub fn measure(cfg: &RunConfig) -> Outcome {
    run(cfg, None).outcome()
}

/// The traced run.
pub fn profile(cfg: &RunConfig) -> Outcome {
    let tracer = Tracer::default();
    let mut driven = run(cfg, Some(&tracer));
    let profile = tracer.profile();
    let first = driven.first.clone().unwrap_or_default();
    let replicas = first.len().max(1) as f64;
    let sum = |f: &dyn Fn(&FleetSimReport) -> f64| first.iter().map(f).sum::<f64>();
    let n = driven.traced_ms.len();
    let per_call = |name: &str, span: &str, scale: f64, unit: &'static str| {
        Metric::new(name, measure::self_ms(&profile, span) * scale, unit).over(n)
    };
    let mut metrics = vec![
        per_call("fleet_year.fleet.simulate_ms", "fleet.simulate", 1.0, "ms"),
        per_call(
            "fleet_year.fleet.intensity_series_ms",
            "fleet.intensity_series",
            1.0,
            "ms",
        ),
        per_call(
            "fleet_year.workload.job_generator_ms",
            "workload.job_generator",
            1.0,
            "ms",
        ),
        per_call("fleet_year.core.footprint_us", "core.footprint", 1e3, "us"),
        per_call(
            "fleet_year.fleet.replica_summary_us",
            "fleet.replica_summary",
            1e3,
            "us",
        ),
        Metric::new(
            "fleet_year.par.busy_share",
            measure::total_ms(&profile, "fleet.simulate")
                / (THREADS as f64 * measure::total_ms(&profile, "par.map_seeded")),
            "ratio",
        )
        .over(n),
        Metric::new(
            "fleet_year.fleet.jobs_completed",
            sum(&|r| r.jobs_completed as f64),
            "count",
        )
        .exact(),
        Metric::new(
            "fleet_year.fleet.host_crashes",
            sum(&|r| r.host_crashes as f64),
            "count",
        )
        .exact(),
        Metric::new(
            "fleet_year.fleet.recomputed_gpu_hours",
            sum(&|r| r.recomputed_gpu_hours),
            "gpu-h",
        )
        .exact(),
        Metric::new(
            "fleet_year.telemetry.meter_coverage_pct",
            sum(&|r| r.quality.map_or(100.0, |q| q.coverage().as_percent())) / replicas,
            "%",
        )
        .exact(),
        Metric::new(
            "fleet_year.accounting_error_pct",
            sum(&|r| {
                let it = r.it_energy.as_joules();
                let accounted = r.quality.map_or(it, |q| q.accounted_energy().as_joules());
                (accounted - it).abs() / it * 100.0
            }) / replicas,
            "%",
        )
        .exact(),
    ];
    metrics.extend(measure::traced_common(NAME, &profile, &mut driven));
    Outcome::new(metrics, driven.tally)
}
