//! Robustness experiments: fault injection through the telemetry reading
//! path and the fleet simulator — fault rate vs accounting error, chaos
//! recovery energy, and renewable-feed gaps degrading market-based
//! accounting. Printed by `all_figures --only faults`; intentionally *not*
//! part of [`crate::figs::catalogue`], so the paper-figure outputs stay
//! byte-identical with or without this module.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sustain_core::intensity::GridRegion;
use sustain_core::units::{Fraction, Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::scheduler::IntensitySeries;
use sustain_fleet::sim::{FleetSim, FleetSimReport, ReplicaSummary, Scenario};
use sustain_fleet::utilization::UtilizationModel;
use sustain_par::ParPool;
use sustain_telemetry::device::DeviceSpec;
use sustain_telemetry::estimation::{validate_estimator, EstimationMethod};
use sustain_telemetry::faults::{FaultInjector, FaultPlan, ImputationPolicy};
use sustain_telemetry::meter::FaultTolerantIntegrator;
use sustain_workload::training::{JobClass, JobGenerator};

use crate::table::{num, Table};
use crate::SEED;

/// The robustness tables by name, in narrative order.
pub const TABLES: &[super::NamedFigure] = &[
    ("figure.faults_telemetry_sweep", telemetry_fault_sweep),
    ("figure.faults_chaos_fleet", chaos_fleet),
    ("figure.faults_renewable_gaps", renewable_gaps),
];

/// One day of minutely samples from a smooth synthetic load curve.
fn synthetic_day() -> (TimeSpan, Vec<Power>) {
    let interval = TimeSpan::from_secs(60.0);
    let samples = (0..=1440)
        .map(|i| Power::from_watts(300.0 * (1.0 + 0.3 * (i as f64 * 0.05).sin())))
        .collect();
    (interval, samples)
}

/// A composite fault plan whose severity scales with `rate` (dropout-led,
/// with proportional timeouts, noise bursts and stuck episodes).
fn scaled_plan(rate: f64) -> FaultPlan {
    let plan = FaultPlan::none()
        .with_seed(SEED)
        .with_dropout(rate)
        .with_timeout(rate / 4.0)
        .with_noise_burst(rate / 2.0, Power::from_watts(50.0))
        .with_stuck(rate / 10.0, 5);
    if rate > 0.0 {
        plan.with_clock_skew(0.25)
    } else {
        plan
    }
}

/// §V-A: fault rate vs accounting error through the degradation-tolerant
/// reading path, benchmarked against unmetered estimation.
pub fn telemetry_fault_sweep() -> Table {
    let (interval, samples) = synthetic_day();
    let mut truth = FaultTolerantIntegrator::new(interval, ImputationPolicy::Linear);
    for (i, p) in samples.iter().enumerate() {
        truth.push(interval * i as f64, Some(*p));
    }
    let truth_energy = truth.energy();

    let mut table = Table::new(
        "SV-A: fault rate vs accounting error (1 day of minutely samples, linear imputation)",
        &["fault rate", "coverage", "imputed share", "faults", "error"],
    );
    let rates = [0.0, 0.01, 0.05, 0.10, 0.20, 0.40];
    // One fault rate per pool task: each task owns its injector and meter,
    // and the ordered join keeps rows in sweep order.
    let swept = ParPool::current().map_indexed(rates.to_vec(), |_, rate| {
        let mut inj = FaultInjector::new(&scaled_plan(rate), "fig-faults");
        let mut meter = FaultTolerantIntegrator::new(interval, ImputationPolicy::Linear);
        for (i, p) in samples.iter().enumerate() {
            let at = interval * i as f64;
            match inj.corrupt(at, interval, *p) {
                Some((t, seen)) => meter.push(t, Some(seen)),
                None => meter.push(at, None),
            };
        }
        meter.merge_faults(&inj.counts());
        let q = meter.report();
        let error = q.accounted_energy() / truth_energy - 1.0;
        let row = vec![
            format!("{:.0}%", rate * 100.0),
            format!("{:.1}%", q.coverage().as_percent()),
            format!("{:.1}%", q.imputed_share().as_percent()),
            q.faults.total().to_string(),
            format!("{:+.2}%", error * 100.0),
        ];
        (row, (rate, error))
    });
    let mut errors = Vec::new();
    for (row, rate_error) in swept {
        table.row(&row);
        errors.push(rate_error);
    }

    // The unmetered alternative from the SV-A estimator table: how badly
    // does tdp x utilization err on a device we could have metered?
    let device = DeviceSpec::V100.power_model();
    let est = validate_estimator(
        &device,
        Power::from_watts(300.0),
        EstimationMethod::TdpTimesUtilization,
        |t| Fraction::saturating(0.35 + 0.1 * (t.as_minutes() / 11.0).sin()),
        TimeSpan::from_hours(4.0),
        TimeSpan::from_secs(60.0),
    );
    let est_err = est.relative_error().abs();
    let worst = errors.iter().map(|(_, e)| e.abs()).fold(0.0f64, f64::max);
    match errors.iter().find(|(_, e)| e.abs() >= est_err) {
        Some((rate, _)) => table.claim(format!(
            "imputed metering beats tdp x utilization ({:+.1}%) until faults reach {:.0}%",
            est.relative_error() * 100.0,
            rate * 100.0
        )),
        None => table.claim(format!(
            "gap-filled metering stays within {:.2}% of truth even at 40% faults — \
             still beating unmetered tdp x utilization ({:+.1}%)",
            worst * 100.0,
            est.relative_error() * 100.0
        )),
    };
    table.claim("paper: no standard telemetry — degraded meters must degrade gracefully");
    table
}

/// The fleet used by the chaos tables (matches the e2e determinism suite).
fn fleet() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(20),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        20.0,
        TimeSpan::from_days(30.0),
    )
}

fn fleet_row(name: &str, r: &FleetSimReport) -> Vec<String> {
    let coverage = match &r.quality {
        Some(q) => format!("{:.1}%", q.coverage().as_percent()),
        None => "100.0%".into(),
    };
    vec![
        name.into(),
        r.it_energy.to_string(),
        r.operational_location.to_string(),
        num(r.recomputed_gpu_hours, 0),
        r.host_crashes.to_string(),
        r.sdc_events.to_string(),
        coverage,
    ]
}

/// Appendix B: crash/SDC recovery as real extra energy and carbon.
pub fn chaos_fleet() -> Table {
    // The undisturbed and chaos baselines are independent whole sims — run
    // them as two pool tasks.
    let chaotic = Scenario::default().with_chaos(ChaosConfig::datacenter_default());
    let mut runs = ParPool::current()
        .map_indexed(vec![Scenario::default(), chaotic.clone()], |_, scenario| {
            fleet().simulate(&scenario, &mut StdRng::seed_from_u64(SEED))
        });
    let chaos = runs.pop().expect("chaos run");
    let plain = runs.pop().expect("undisturbed run");
    let replicas = fleet().simulate_replicas(&chaotic, 8, SEED);
    let summary = ReplicaSummary::from_reports(&replicas).expect("eight replicas");
    let mut table = Table::new(
        "Appendix B: fleet chaos harness (20 servers, 30 days, OPT-logbook failure rates)",
        &[
            "scenario",
            "it energy",
            "location co2",
            "recomputed gpu-h",
            "crashes",
            "sdc",
            "metered coverage",
        ],
    );
    table.row(&fleet_row("undisturbed", &plain));
    table.row(&fleet_row("chaos", &chaos));
    table.row(&[
        "chaos x8 replicas (mean)".into(),
        summary.mean_it_energy.to_string(),
        summary.mean_operational_location.to_string(),
        num(summary.mean_recomputed_gpu_hours, 0),
        summary.total_host_crashes.to_string(),
        summary.total_sdc_events.to_string(),
        "n/a".into(),
    ]);
    table.claim(format!(
        "8-replica Monte Carlo (ParPool): IT energy spread {} .. {}",
        summary.min_it_energy, summary.max_it_energy
    ));
    table.claim(format!(
        "recovery recomputes {:.0} gpu-hours: {:+.1}% energy vs the undisturbed run",
        chaos.recomputed_gpu_hours,
        (chaos.it_energy / plain.it_energy - 1.0) * 100.0
    ));
    if let Some(q) = &chaos.quality {
        table.claim(format!(
            "the fleet's own meter saw only {:.1}% of samples; {:.1}% of accounted energy is imputed",
            q.coverage().as_percent(),
            q.imputed_share().as_percent()
        ));
    }
    table.claim("paper: OPT-175B logbook — hardware failures are a routine part of training");
    table
}

/// §IV-C: grid-intensity feed gaps degrading market-based accounting.
pub fn renewable_gaps() -> Table {
    let series = IntensitySeries::solar_day(30);
    let mut table = Table::new(
        "SIV-C: intensity-feed gaps vs market-based accounting (solar day, 30 days)",
        &["gap rate", "gap hours", "market co2", "location co2"],
    );
    // One gap rate per pool task; the ordered join keeps sweep order.
    let rows = ParPool::current().map_indexed(vec![0.0, 0.02, 0.10, 0.30], |_, rate| {
        let scenario = Scenario::default()
            .with_chaos(ChaosConfig::none().with_intensity_gap(Fraction::saturating(rate)))
            .with_intensity(series.clone());
        let r = fleet().simulate(&scenario, &mut StdRng::seed_from_u64(SEED));
        vec![
            format!("{:.0}%", rate * 100.0),
            r.intensity_gap_hours.to_string(),
            r.operational_market.to_string(),
            r.operational_location.to_string(),
        ]
    });
    for row in rows {
        table.row(&row);
    }
    table.claim(
        "hours the feed cannot prove renewable-matched fall back to location-based accounting",
    );
    table.claim("paper: 24/7 carbon-free accounting needs a trustworthy intensity signal");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_zero_rate_row_is_pristine() {
        let t = telemetry_fault_sweep();
        let first = &t.rows()[0];
        assert_eq!(first[0], "0%");
        assert_eq!(first[1], "100.0%", "zero faults must leave full coverage");
        assert_eq!(first[3], "0");
        assert_eq!(first[4], "+0.00%", "zero faults must leave zero error");
    }

    #[test]
    fn sweep_coverage_degrades_with_rate() {
        let t = telemetry_fault_sweep();
        let coverage: Vec<f64> = t
            .rows()
            .iter()
            .map(|r| r[1].trim_end_matches('%').parse().expect("coverage cell"))
            .collect();
        for pair in coverage.windows(2) {
            assert!(pair[1] <= pair[0], "coverage must not rise with fault rate");
        }
        assert!(coverage[coverage.len() - 1] < 90.0);
    }

    #[test]
    fn chaos_burns_more_energy_than_undisturbed() {
        let t = chaos_fleet();
        assert_eq!(t.rows().len(), 3);
        assert!(t.claims().iter().any(|c| c.contains('%')));
        // The chaos row records crash and SDC events.
        assert_ne!(t.rows()[1][4], "0");
        // The Monte Carlo row aggregates eight chaos replicas.
        let replicas = &t.rows()[2];
        assert!(replicas[0].contains("x8 replicas"));
        let total_crashes: u64 = replicas[4].parse().expect("crash total cell");
        let single_crashes: u64 = t.rows()[1][4].parse().expect("crash cell");
        assert!(
            total_crashes > single_crashes,
            "8 replicas sum more crashes"
        );
    }

    #[test]
    fn gap_free_feed_keeps_market_at_floor() {
        let t = renewable_gaps();
        assert_eq!(
            t.rows()[0][1],
            "0",
            "zero gap rate must record zero gap hours"
        );
        let gaps: Vec<u64> = t
            .rows()
            .iter()
            .map(|r| r[1].parse().expect("gap-hours cell"))
            .collect();
        assert!(gaps[gaps.len() - 1] > gaps[0]);
    }
}
