//! Observability determinism suite: under a fixed seed and the work clock,
//! instrumenting a full simulation twice yields byte-identical exports,
//! the recording's profile conserves, and leaving the default (disabled)
//! handle in place leaves simulation results untouched.

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
use sustainai::obs::{AttrValue, EventRecord, Obs, ObsConfig};
use sustainai::prof;
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
/// into a fresh work-clocked recording.
fn instrumented_run() -> Obs {
    let obs = ObsConfig::enabled().build();
    let report = sim()
        .with_obs(&obs)
        .simulate(&chaos(), &mut StdRng::seed_from_u64(SEED));
    assert!(report.it_energy.as_joules() > 0.0);
    let log = sustainai::obs::with_task_handle(&obs, || {
        FlApp::fl1().simulate(&mut StdRng::seed_from_u64(SEED))
    });
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

    let traced = sustainai::obs::with_task_handle(&obs, || {
        FlApp::fl2().simulate(&mut StdRng::seed_from_u64(SEED))
    });
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
fn work_profile_conserves_and_simulated_time_is_an_attribute() {
    let obs = ObsConfig::enabled().build();
    sim()
        .with_obs(&obs)
        .simulate(&chaos(), &mut StdRng::seed_from_u64(SEED));
    let profile = prof::profile_records(&obs.events());
    assert_eq!(profile.clamped_spans(), 0);
    assert!(
        profile.conserves(),
        "self {:?} vs root {:?}",
        profile.self_total(),
        profile.root_total()
    );
    // Each simulated hour opens its phases once, in a fixed order, however
    // many jobs arrive or finish; crashes and SDC re-runs each open a
    // recovery phase every hour the chaos preset runs them.
    let horizon_hours = TimeSpan::from_days(7.0).as_hours() as u64;
    for phase in ["arrivals", "placement", "integrate", "rollup"] {
        let name = format!("fleet_sim.{phase}");
        let calls = profile.stats(&name).map(|stats| stats.calls);
        assert_eq!(calls, Some(horizon_hours), "{name}");
    }
    let recovery = profile
        .stats("fleet_sim.chaos_recovery")
        .map(|stats| stats.calls);
    assert_eq!(recovery, Some(2 * horizon_hours));

    // Job-hours are a run's only work: the run's total is its integrate
    // phases', so no per-hour or per-job dispatch can add work unnoticed.
    let run = profile.stats("fleet_sim.run").expect("fleet_sim.run span");
    let integrate = profile
        .stats("fleet_sim.integrate")
        .expect("integrate span");
    assert!(run.total > TimeSpan::ZERO);
    assert_eq!(run.total, integrate.total);
    assert!(obs.counter("fleet_jobs_completed_total").value() > 0.0);
    assert!(
        !profile.by_name().keys().any(|name| name.starts_with("des")),
        "{:?}",
        profile.by_name().keys()
    );
    assert!(!obs
        .export_prometheus()
        .lines()
        .any(|line| line.trim_start_matches("# TYPE ").starts_with("des")));

    // Simulated time rides on the chaos events as an attribute.
    let mut chaos_events = 0;
    for record in obs.events() {
        if let EventRecord::Instant { name, attrs, .. } = record {
            if name == "chaos.crash" || name == "chaos.sdc" {
                chaos_events += 1;
                let hour = attrs.iter().find(|(key, _)| *key == "hour");
                assert!(
                    matches!(hour, Some((_, AttrValue::U64(h))) if *h < horizon_hours),
                    "{name} must carry an `hour` inside the horizon: {attrs:?}"
                );
            }
        }
    }
    assert!(chaos_events > 0, "the chaos preset must inject faults");

    // Tracing stays proportionate: six phase spans an hour plus the chaos
    // events. A per-job record would break this bound.
    assert!(
        obs.event_count() as u64 <= 8 * horizon_hours,
        "{} records over {horizon_hours} simulated hours",
        obs.event_count()
    );
}
