//! End-to-end chaos determinism: the same seed and [`ChaosConfig`] must
//! yield a byte-identical serialized [`FleetSimReport`], a zero-rate config
//! must inject nothing, and a nonzero fault plan must surface in the report
//! as sub-unity coverage with imputed energy accounted separately from
//! measured. The workspace's `fleet_golden` suite pins the zero-rate
//! config byte for byte to reports generated with no chaos at all.

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
    let chaos = ChaosConfig {
        telemetry: FaultPlan::degraded().with_seed(99),
        ..ChaosConfig::datacenter_default()
    };
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
fn zero_rate_config_is_inert() {
    let report = run(ChaosConfig::none(), 7);
    assert!(report.quality.is_none());
    assert_eq!(report.host_crashes, 0);
    assert_eq!(report.recomputed_gpu_hours, 0.0);
}

#[test]
fn nonzero_plan_reports_degraded_coverage_and_separate_imputation() {
    let chaos = ChaosConfig {
        telemetry: FaultPlan::degraded().with_seed(5).with_dropout(0.1),
        ..ChaosConfig::datacenter_default()
    };
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
