//! JSON round-trip tests for the public data structures — reports and traces
//! are meant to be persisted to model cards and dashboards (paper §V-A).

use serde_json as json;

use sustainai::core::footprint::{CarbonFootprint, FootprintReport};
use sustainai::core::intensity::{AccountingBasis, CarbonIntensity, EnergyMix, EnergySource};
use sustainai::core::lifecycle::MlPhase;
use sustainai::core::units::{Co2e, Energy, Power, TimeSpan};
use sustainai::edge::log::{ClientLog, ClientLogEntry};
use sustainai::telemetry::trace::PowerTrace;

fn round_trip<T>(value: &T)
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug,
{
    let encoded = json::to_string(value).expect("serialize");
    let decoded: T = json::from_str(&encoded).expect("deserialize");
    assert_eq!(&decoded, value);
}

#[test]
fn footprint_report_round_trips() {
    let mut report = FootprintReport::new(
        "LM",
        AccountingBasis::LocationBased,
        Energy::from_megawatt_hours(3.0),
        CarbonFootprint::new(Co2e::from_tonnes(1.0), Co2e::from_tonnes(0.5)),
    );
    report.record_phase(MlPhase::Inference, Co2e::from_tonnes(0.65));
    report.record_phase(MlPhase::OfflineTraining, Co2e::from_tonnes(0.35));
    round_trip(&report);
}

#[test]
fn power_trace_round_trips() {
    let trace: PowerTrace = (0..100)
        .map(|i| (TimeSpan::from_secs(i as f64), Power::from_watts(i as f64)))
        .collect();
    round_trip(&trace);
}

#[test]
fn energy_mix_round_trips() {
    let mix = EnergyMix::new(vec![
        (EnergySource::Solar, 0.3),
        (EnergySource::Wind, 0.2),
        (EnergySource::Gas, 0.5),
    ])
    .unwrap();
    round_trip(&mix);
    // Intensity is preserved.
    let encoded = json::to_string(&mix).unwrap();
    let decoded: EnergyMix = json::from_str(&encoded).unwrap();
    assert_eq!(decoded.intensity(), mix.intensity());
}

#[test]
fn client_log_round_trips() {
    let mut log = ClientLog::ninety_day();
    for i in 0..20 {
        log.push(ClientLogEntry {
            compute: TimeSpan::from_minutes(i as f64),
            download: TimeSpan::from_secs(8.0),
            upload: TimeSpan::from_secs(32.0),
        });
    }
    round_trip(&log);
}

#[test]
fn model_registry_round_trips() {
    use sustainai::workload::models::{MlModel, OssModel, ProductionModel};
    round_trip(&OssModel::Gpt3.model());
    round_trip(&ProductionModel::Rm1);
    let m: MlModel = json::from_str(&json::to_string(&OssModel::Meena.model()).unwrap()).unwrap();
    assert_eq!(m.name(), "Meena");
}

#[test]
fn quantities_serialize_as_plain_numbers() {
    // Interop: other tools should read the JSON without wrapper objects.
    assert_eq!(json::to_string(&Energy::from_joules(5.5)).unwrap(), "5.5");
    assert_eq!(json::to_string(&Co2e::from_grams(2.0)).unwrap(), "2.0");
    assert_eq!(
        json::to_string(&CarbonIntensity::from_grams_per_kwh(429.0)).unwrap(),
        "429.0"
    );
}

#[test]
fn fleet_sim_report_round_trips() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustainai::core::intensity::GridRegion;
    use sustainai::fleet::cluster::Cluster;
    use sustainai::fleet::datacenter::DataCenter;
    use sustainai::fleet::sim::{FleetSim, Scenario};
    use sustainai::fleet::utilization::UtilizationModel;
    use sustainai::workload::training::{JobClass, JobGenerator};

    let sim = FleetSim::new(
        Cluster::gpu_training(5),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(1.0)),
        JobGenerator::calibrated(JobClass::Research).unwrap(),
        UtilizationModel::research_cluster(),
        5.0,
        TimeSpan::from_days(3.0),
    );
    let report = sim.simulate(&Scenario::default(), &mut StdRng::seed_from_u64(5));
    round_trip(&report);
}
