//! End-to-end chaos determinism: the same seed and [`ChaosConfig`] must
//! yield a byte-identical serialized [`FleetSimReport`], a zero-rate config
//! must reproduce the undisturbed hour-stepped reference exactly, and a
//! nonzero fault plan must surface in the report as sub-unity coverage with
//! imputed energy accounted separately from measured. The workspace's
//! `des_equivalence` suite extends the zero-rate check to every seed,
//! chaos preset and intensity feed it covers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustain_core::intensity::GridRegion;
use sustain_core::units::{Energy, Power, TimeSpan};
use sustain_fleet::chaos::ChaosConfig;
use sustain_fleet::cluster::Cluster;
use sustain_fleet::datacenter::DataCenter;
use sustain_fleet::sim::{FleetSim, FleetSimReport, Scenario};
use sustain_fleet::utilization::UtilizationModel;
use sustain_telemetry::faults::FaultPlan;
use sustain_workload::training::{JobClass, JobGenerator};

fn sim() -> FleetSim {
    FleetSim::new(
        Cluster::gpu_training(20),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(10.0)),
        JobGenerator::calibrated(JobClass::Research).expect("calibrated generator"),
        UtilizationModel::research_cluster(),
        20.0,
        TimeSpan::from_days(30.0),
    )
}

fn run(chaos: ChaosConfig, seed: u64) -> FleetSimReport {
    sim().simulate(
        &Scenario::default().with_chaos(chaos),
        &mut StdRng::seed_from_u64(seed),
    )
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let chaos =
        ChaosConfig::datacenter_default().with_telemetry(FaultPlan::degraded().with_seed(99));
    let a = run(chaos, 42);
    let b = run(chaos, 42);
    let ja = serde_json::to_string(&a).expect("report serializes");
    let jb = serde_json::to_string(&b).expect("report serializes");
    assert_eq!(ja, jb, "same FaultPlan seed must give byte-identical JSON");
}

#[test]
fn different_seeds_diverge() {
    let chaos = ChaosConfig::datacenter_default();
    let a = run(chaos, 1);
    let b = run(chaos, 2);
    assert_ne!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes")
    );
}

#[test]
fn zero_rate_config_matches_undisturbed_run_byte_for_byte() {
    let plain = sim().run_reference(&mut StdRng::seed_from_u64(7), None, None);
    let chaotic = run(ChaosConfig::none(), 7);
    assert_eq!(
        serde_json::to_string(&plain).expect("serializes"),
        serde_json::to_string(&chaotic).expect("serializes"),
        "ChaosConfig::none() must be a strict no-op"
    );
    assert!(plain.quality.is_none());
    assert_eq!(plain.host_crashes, 0);
    assert_eq!(plain.recomputed_gpu_hours, 0.0);
}

#[test]
fn nonzero_plan_reports_degraded_coverage_and_separate_imputation() {
    let chaos = ChaosConfig::datacenter_default()
        .with_telemetry(FaultPlan::degraded().with_seed(5).with_dropout(0.1));
    let report = run(chaos, 21);
    let q = report
        .quality
        .expect("nonzero plan attaches a quality report");
    assert!(
        q.coverage().value() < 1.0,
        "coverage must drop below 1, got {}",
        q.coverage()
    );
    assert!(q.imputed_energy > Energy::ZERO, "gaps must be imputed");
    assert!(q.measured_energy > Energy::ZERO, "most hours still metered");
    assert_eq!(q.accounted_energy(), q.measured_energy + q.imputed_energy);
    assert!(q.faults.total() > 0, "fault tallies must be recorded");
    // The quality section survives a serde round-trip with the split intact.
    let json = serde_json::to_string(&report).expect("serializes");
    let back: FleetSimReport = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back.quality, report.quality);
}
