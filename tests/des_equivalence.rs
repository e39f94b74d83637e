//! Differential equivalence suite: the event-driven `FleetSim` (the
//! `sustain-des` engine behind `simulate` and `simulate_replicas`) against
//! `FleetSim::run_reference`, the retired hour-stepped loop kept verbatim
//! as the rollup adapter's executable specification.
//!
//! Every comparison is on the *serialized* `FleetSimReport` — byte
//! equality, not approximate — across seeds × chaos presets × intensity
//! feeds, and across thread counts {1, 4} for replica batches. A scenario
//! with `ChaosConfig::none()` is compared with the reference's `None`, so
//! the no-chaos guarantee is proven against the spec, not against another
//! run of the same code. If any of these fail, the DES adapter has drifted
//! from the hourly model and `figures_output.txt` is about to drift with
//! it.

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

fn bytes(report: &FleetSimReport) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Asserts the DES report and the reference report serialize to the same
/// bytes, with a seed-labelled failure message.
fn assert_byte_identical(des: &FleetSimReport, reference: &FleetSimReport, label: &str) {
    assert_eq!(
        bytes(des),
        bytes(reference),
        "DES path diverged from hour-stepped reference ({label})"
    );
}

#[test]
fn des_matches_reference_across_seeds_without_chaos() {
    for seed in SEEDS {
        let des =
            sim(10, 12.0, 5.0).simulate(&Scenario::default(), &mut StdRng::seed_from_u64(seed));
        let reference =
            sim(10, 12.0, 5.0).run_reference(&mut StdRng::seed_from_u64(seed), None, None);
        assert_byte_identical(&des, &reference, &format!("seed {seed}, no chaos"));
    }
}

#[test]
fn des_matches_reference_across_seeds_with_chaos() {
    let chaos = ChaosConfig::datacenter_default();
    let scenario = Scenario::default().with_chaos(chaos);
    for seed in SEEDS {
        let des = sim(10, 12.0, 5.0).simulate(&scenario, &mut StdRng::seed_from_u64(seed));
        let reference =
            sim(10, 12.0, 5.0).run_reference(&mut StdRng::seed_from_u64(seed), None, Some(&chaos));
        assert_byte_identical(&des, &reference, &format!("seed {seed}, chaos"));
    }
}

#[test]
fn des_matches_reference_with_zero_chaos() {
    // ChaosConfig::none() must be byte-for-byte the no-chaos run on both
    // the DES path and the reference path.
    let none = Scenario::default().with_chaos(ChaosConfig::none());
    for seed in SEEDS {
        let des = sim(8, 10.0, 4.0).simulate(&none, &mut StdRng::seed_from_u64(seed));
        let reference =
            sim(8, 10.0, 4.0).run_reference(&mut StdRng::seed_from_u64(seed), None, None);
        assert_byte_identical(&des, &reference, &format!("seed {seed}, zero chaos"));
    }
}

#[test]
fn des_matches_reference_under_variable_intensity() {
    let series = IntensitySeries::solar_day(6);
    let scenario = Scenario::default().with_intensity(series.clone());
    for seed in SEEDS {
        let des = sim(10, 12.0, 5.0).simulate(&scenario, &mut StdRng::seed_from_u64(seed));
        let reference =
            sim(10, 12.0, 5.0).run_reference(&mut StdRng::seed_from_u64(seed), Some(&series), None);
        assert_byte_identical(&des, &reference, &format!("seed {seed}, intensity"));
    }
}

#[test]
fn des_matches_reference_under_chaos_and_intensity_gaps() {
    // The small fleet sees a crash or two per seed. The busy one (about
    // 700 crashes and 1,200 completions per seed) draws crash and SDC
    // victims from a running set that completions compact every hour.
    let fleets = [
        (
            "small fleet",
            sim(10, 12.0, 5.0),
            IntensitySeries::solar_day(6),
            ChaosConfig::datacenter_default().with_intensity_gap(Fraction::saturating(0.25)),
        ),
        (
            "busy fleet",
            sim(100, 100.0, 14.0),
            IntensitySeries::solar_day(14),
            ChaosConfig::datacenter_default()
                .with_crash_rate(0.5)
                .with_intensity_gap(Fraction::saturating(0.02)),
        ),
    ];
    for (label, fleet, series, chaos) in &fleets {
        let scenario = Scenario::default()
            .with_chaos(*chaos)
            .with_intensity(series.clone());
        for seed in SEEDS {
            let des = fleet.simulate(&scenario, &mut StdRng::seed_from_u64(seed));
            let reference =
                fleet.run_reference(&mut StdRng::seed_from_u64(seed), Some(series), Some(chaos));
            assert_byte_identical(
                &des,
                &reference,
                &format!("seed {seed}, {label}, chaos+intensity"),
            );
        }
    }
}

#[test]
fn des_matches_reference_over_the_scenario_grid() {
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
            ChaosConfig::none().with_telemetry(FaultPlan::degraded()),
        ),
    ];
    let feeds = [
        ("static intensity", None),
        ("solar feed", Some(IntensitySeries::solar_day(6))),
    ];
    for seed in SEEDS {
        for (chaos_label, chaos) in &chaos_presets {
            // The reference's `None` is the undisturbed loop, which
            // `ChaosConfig::none()` must reproduce.
            let reference_chaos = (!chaos.is_none()).then_some(chaos);
            for (feed_label, series) in &feeds {
                let mut scenario = Scenario::default().with_chaos(*chaos);
                if let Some(series) = series {
                    scenario = scenario.with_intensity(series.clone());
                }
                let des = sim(10, 12.0, 5.0).simulate(&scenario, &mut StdRng::seed_from_u64(seed));
                let reference = sim(10, 12.0, 5.0).run_reference(
                    &mut StdRng::seed_from_u64(seed),
                    series.as_ref(),
                    reference_chaos,
                );
                assert_byte_identical(
                    &des,
                    &reference,
                    &format!("seed {seed}, {chaos_label}, {feed_label}"),
                );
            }
        }
    }
}

#[test]
fn des_replicas_match_reference_across_thread_counts() {
    // The DES path runs inside every replica task; the joined batch must be
    // byte-identical for 1 and 4 threads, and each replica must equal the
    // reference loop under its derived seed.
    let fleet = sim(10, 10.0, 5.0);
    let chaos = ChaosConfig::datacenter_default();
    let solar = IntensitySeries::solar_day(6);
    let cases = [
        ("no chaos", Scenario::default(), None, None),
        (
            "chaos",
            Scenario::default().with_chaos(chaos),
            None,
            Some(&chaos),
        ),
        (
            "solar feed",
            Scenario::default().with_intensity(solar.clone()),
            Some(&solar),
            None,
        ),
    ];
    for (label, scenario, series, reference_chaos) in cases {
        ParPool::set_threads(1);
        let serial = fleet.simulate_replicas(&scenario, 6, 29);
        ParPool::set_threads(4);
        let parallel = fleet.simulate_replicas(&scenario, 6, 29);
        ParPool::set_threads(0);
        assert_eq!(serial, parallel, "thread-count drift ({label})");
        for (i, replica) in serial.iter().enumerate() {
            let seed = sustainai::par::task_seed(29, i as u64);
            let reference =
                fleet.run_reference(&mut StdRng::seed_from_u64(seed), series, reference_chaos);
            assert_byte_identical(replica, &reference, &format!("replica {i}, {label}"));
        }
    }
}
