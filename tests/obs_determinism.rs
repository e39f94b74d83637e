//! Observability determinism suite: under a fixed seed and the simulated
//! clock, instrumenting a full simulation twice yields byte-identical
//! exports — and leaving the default (disabled) handle in place leaves
//! simulation results untouched.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustainai::core::intensity::GridRegion;
use sustainai::core::units::{Power, TimeSpan};
use sustainai::edge::fl::FlApp;
use sustainai::fleet::chaos::ChaosConfig;
use sustainai::fleet::cluster::Cluster;
use sustainai::fleet::datacenter::DataCenter;
use sustainai::fleet::sim::{FleetSim, Scenario};
use sustainai::fleet::utilization::UtilizationModel;
use sustainai::obs::{Obs, ObsConfig};
use sustainai::workload::training::{JobClass, JobGenerator};

const SEED: u64 = 0x0B5_DE7;

fn chaos() -> Scenario {
    Scenario::default().with_chaos(ChaosConfig::datacenter_default())
}

fn sim() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(8),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(5.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        8.0,
        TimeSpan::from_days(7.0),
    )
}

/// One instrumented end-to-end run: chaos fleet simulation (fault injection
/// and gap imputation included) followed by an FL simulation, all reporting
/// into a fresh sim-clocked recording.
fn instrumented_run() -> Obs {
    let obs = ObsConfig::enabled().build();
    let report = sim()
        .with_obs(&obs)
        .simulate(&chaos(), &mut StdRng::seed_from_u64(SEED));
    assert!(report.it_energy.as_joules() > 0.0);
    let log = FlApp::fl1().simulate_with_obs(&mut StdRng::seed_from_u64(SEED), &obs);
    assert!(!log.is_empty());
    obs
}

#[test]
fn exports_are_byte_identical_across_identical_runs() {
    let a = instrumented_run();
    let b = instrumented_run();
    assert!(a.event_count() > 0, "instrumented run must record events");
    assert_eq!(a.export_jsonl(), b.export_jsonl());
    assert_eq!(a.export_chrome_trace(), b.export_chrome_trace());
    assert_eq!(a.export_prometheus(), b.export_prometheus());
}

#[test]
fn instrumentation_does_not_perturb_results() {
    // The same seeded simulation must produce identical reports whether it
    // records into an enabled handle or the default disabled one.
    let obs = ObsConfig::enabled().build();
    let with = sim()
        .with_obs(&obs)
        .simulate(&chaos(), &mut StdRng::seed_from_u64(SEED));
    let without = sim().simulate(&chaos(), &mut StdRng::seed_from_u64(SEED));
    assert_eq!(format!("{with:?}"), format!("{without:?}"));

    let traced = FlApp::fl2().simulate_with_obs(&mut StdRng::seed_from_u64(SEED), &obs);
    let plain = FlApp::fl2().simulate(&mut StdRng::seed_from_u64(SEED));
    assert_eq!(traced, plain);
}

#[test]
fn disabled_handle_records_nothing() {
    let report = sim().simulate(&chaos(), &mut StdRng::seed_from_u64(SEED));
    assert!(report.it_energy.as_joules() > 0.0);
    let obs = sustainai::obs::handle();
    assert!(!obs.enabled());
    assert_eq!(obs.event_count(), 0);
    assert_eq!(obs.registry().len(), 0);
}

#[test]
fn sim_clock_timestamps_span_the_simulated_horizon() {
    let obs = instrumented_run();
    let jsonl = obs.export_jsonl();
    // The fleet run span covers the whole 7-day horizon in *simulated*
    // seconds — proof the exports are on the sim clock, not the wall clock.
    let run_line = jsonl
        .lines()
        .find(|l| l.contains("\"fleet_sim.run\""))
        .expect("fleet_sim.run span in JSONL");
    let horizon_secs = TimeSpan::from_days(7.0).as_secs();
    assert!(
        run_line.contains(&format!("\"end_s\":{horizon_secs}")),
        "span must end at the simulated horizon: {run_line}"
    );
}
