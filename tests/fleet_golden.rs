//! Golden suite for the hour-stepped `FleetSim`: `simulate` and
//! `simulate_replicas` against the reports frozen in
//! `tests/golden/fleet_reports.jsonl`.
//!
//! The golden holds one line per input, a label, a tab, then the report's
//! serde JSON, and every comparison is on those bytes, not approximate. Its
//! 68 lines cover five seeds × four chaos presets × two intensity feeds on
//! a small fleet, an 8-server fleet, a busy 100-server chaos fleet (the
//! input with many crash and SDC victims), and three replica batches, run
//! here at 1 and 4 threads. The lines were generated by the untraced
//! hour-stepped reference loop the simulation was once checked against,
//! with chaos absent altogether for the `no chaos` lines, so they also pin
//! that `ChaosConfig::none()` reproduces the undisturbed run. A change
//! that means to move a result edits the golden and says why.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustainai::core::intensity::GridRegion;
use sustainai::core::units::{Fraction, Power, TimeSpan};
use sustainai::fleet::chaos::ChaosConfig;
use sustainai::fleet::cluster::Cluster;
use sustainai::fleet::datacenter::DataCenter;
use sustainai::fleet::scheduler::IntensitySeries;
use sustainai::fleet::sim::{FleetSim, FleetSimReport, Scenario};
use sustainai::fleet::utilization::UtilizationModel;
use sustainai::par::ParPool;
use sustainai::telemetry::faults::FaultPlan;
use sustainai::workload::training::{JobClass, JobGenerator};

const SEEDS: [u64; 5] = [1, 7, 29, 0xDE5, 0xFEED_F00D];

const GOLDEN: &str = include_str!("golden/fleet_reports.jsonl");

fn sim(servers: u32, arrivals_per_day: f64, days: f64) -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(servers),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        arrivals_per_day,
        TimeSpan::from_days(days),
    )
}

/// The golden report JSON labelled `key`.
fn golden(key: &str) -> &'static str {
    GOLDEN
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('\t'))
        .unwrap_or_else(|| panic!("no golden line labelled {key:?}"))
}

/// Asserts `report` serializes to the golden line `key`, with a
/// seed-labelled failure message.
fn assert_golden(report: &FleetSimReport, key: &str, label: &str) {
    assert_eq!(
        serde_json::to_string(report).expect("report serializes"),
        golden(key),
        "report diverged from the golden line {key:?} ({label})"
    );
}

#[test]
fn reports_match_golden_across_seeds_without_chaos() {
    for seed in SEEDS {
        let report =
            sim(10, 12.0, 5.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(seed));
        assert_golden(
            &report,
            &format!("small fleet, seed {seed}, no chaos, static intensity"),
            &format!("seed {seed}, no chaos"),
        );
    }
}

#[test]
fn reports_match_golden_across_seeds_with_chaos() {
    let scenario = Scenario::default().with_chaos(ChaosConfig::datacenter_default());
    for seed in SEEDS {
        let report = sim(10, 12.0, 5.0).simulate(&scenario, &mut StdRng::seed_from_u64(seed));
        assert_golden(
            &report,
            &format!("small fleet, seed {seed}, datacenter chaos, static intensity"),
            &format!("seed {seed}, chaos"),
        );
    }
}

#[test]
fn reports_match_golden_with_zero_chaos() {
    // ChaosConfig::none() must be byte-for-byte the run without chaos.
    let none = Scenario::default().with_chaos(ChaosConfig::none());
    for seed in SEEDS {
        let report = sim(8, 10.0, 4.0).simulate(&none, &mut StdRng::seed_from_u64(seed));
        assert_golden(
            &report,
            &format!("8-server fleet, seed {seed}, no chaos"),
            &format!("seed {seed}, zero chaos"),
        );
    }
}

#[test]
fn reports_match_golden_under_variable_intensity() {
    let scenario = Scenario::default().with_intensity(IntensitySeries::solar_day(6));
    for seed in SEEDS {
        let report = sim(10, 12.0, 5.0).simulate(&scenario, &mut StdRng::seed_from_u64(seed));
        assert_golden(
            &report,
            &format!("small fleet, seed {seed}, no chaos, solar feed"),
            &format!("seed {seed}, intensity"),
        );
    }
}

#[test]
fn reports_match_golden_under_chaos_and_intensity_gaps() {
    // The small fleet sees a crash or two per seed. The busy one (about
    // 700 crashes and 1,200 completions per seed) draws crash and SDC
    // victims from a running set that completions compact every hour.
    let fleets = [
        (
            "small fleet",
            "small fleet, seed {seed}, datacenter chaos, 25% feed gaps, solar feed",
            sim(10, 12.0, 5.0),
            IntensitySeries::solar_day(6),
            ChaosConfig::datacenter_default().with_intensity_gap(Fraction::saturating(0.25)),
        ),
        (
            "busy fleet",
            "busy fleet, seed {seed}, chaos+intensity",
            sim(100, 100.0, 14.0),
            IntensitySeries::solar_day(14),
            ChaosConfig {
                crash_rate_per_server_day: 0.5,
                ..ChaosConfig::datacenter_default()
            }
            .with_intensity_gap(Fraction::saturating(0.02)),
        ),
    ];
    for (label, key, fleet, series, chaos) in &fleets {
        let scenario = Scenario::default()
            .with_chaos(*chaos)
            .with_intensity(series.clone());
        for seed in SEEDS {
            let report = fleet.simulate(&scenario, &mut StdRng::seed_from_u64(seed));
            assert_golden(
                &report,
                &key.replace("{seed}", &seed.to_string()),
                &format!("seed {seed}, {label}, chaos+intensity"),
            );
        }
    }
}

#[test]
fn reports_match_golden_over_the_scenario_grid() {
    // Every chaos preset against every intensity feed.
    let chaos_presets = [
        ("no chaos", ChaosConfig::none()),
        ("datacenter chaos", ChaosConfig::datacenter_default()),
        (
            "datacenter chaos, 25% feed gaps",
            ChaosConfig::datacenter_default().with_intensity_gap(Fraction::saturating(0.25)),
        ),
        (
            "degraded telemetry only",
            ChaosConfig {
                telemetry: FaultPlan::degraded(),
                ..ChaosConfig::none()
            },
        ),
    ];
    let feeds = [
        ("static intensity", None),
        ("solar feed", Some(IntensitySeries::solar_day(6))),
    ];
    for seed in SEEDS {
        for (chaos_label, chaos) in &chaos_presets {
            for (feed_label, series) in &feeds {
                let mut scenario = Scenario::default().with_chaos(*chaos);
                if let Some(series) = series {
                    scenario = scenario.with_intensity(series.clone());
                }
                let report =
                    sim(10, 12.0, 5.0).simulate(&scenario, &mut StdRng::seed_from_u64(seed));
                let label = format!("seed {seed}, {chaos_label}, {feed_label}");
                assert_golden(&report, &format!("small fleet, {label}"), &label);
            }
        }
    }
}

#[test]
fn replicas_match_golden_across_thread_counts() {
    // The joined batch must be byte-identical for 1 and 4 threads, and
    // each replica must equal its golden line (the run under its derived
    // seed).
    let fleet = sim(10, 10.0, 5.0);
    let cases = [
        ("no chaos", Scenario::default()),
        (
            "chaos",
            Scenario::default().with_chaos(ChaosConfig::datacenter_default()),
        ),
        (
            "solar feed",
            Scenario::default().with_intensity(IntensitySeries::solar_day(6)),
        ),
    ];
    for (label, scenario) in cases {
        ParPool::set_threads(1);
        let serial = fleet.simulate_replicas(&scenario, 6, 29);
        ParPool::set_threads(4);
        let parallel = fleet.simulate_replicas(&scenario, 6, 29);
        ParPool::set_threads(0);
        assert_eq!(serial, parallel, "thread-count drift ({label})");
        for (i, replica) in serial.iter().enumerate() {
            let label = format!("replica {i}, {label}");
            assert_golden(replica, &label, &label);
        }
    }
}
