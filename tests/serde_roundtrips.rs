//! JSON round-trip tests for the public data structures — reports and logs
//! are meant to be persisted to model cards and dashboards (paper §V-A).

use serde_json as json;

use sustainai::core::footprint::{CarbonFootprint, FootprintReport};
use sustainai::core::intensity::{AccountingBasis, CarbonIntensity, EnergyMix, EnergySource};
use sustainai::core::lifecycle::MlPhase;
use sustainai::core::units::{Co2e, Energy, Power, TimeSpan};
use sustainai::edge::log::{ClientLog, ClientLogEntry};

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

fn small_fleet() -> sustainai::fleet::sim::FleetSim {
    use sustainai::core::intensity::GridRegion;
    use sustainai::fleet::cluster::Cluster;
    use sustainai::fleet::datacenter::DataCenter;
    use sustainai::fleet::sim::FleetSim;
    use sustainai::fleet::utilization::UtilizationModel;
    use sustainai::workload::training::{JobClass, JobGenerator};

    FleetSim::new(
        Cluster::gpu_training(5),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(1.0)),
        JobGenerator::calibrated(JobClass::Research).unwrap(),
        UtilizationModel::research_cluster(),
        5.0,
        TimeSpan::from_days(3.0),
    )
}

#[test]
fn fleet_sim_report_round_trips() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustainai::fleet::sim::Scenario;

    let report = small_fleet().simulate(&Scenario::default(), &mut StdRng::seed_from_u64(5));
    round_trip(&report);
}

#[test]
fn persisted_json_parsers_survive_truncation_and_bit_flips() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustainai::cache::CacheValue;
    use sustainai::fleet::chaos::ChaosConfig;
    use sustainai::fleet::sim::{FleetSimReport, Scenario};
    use sustainai::obs::ObsConfig;
    use sustainai::prof::SpanTree;

    // A cached replica report, data-quality report included: no strict
    // prefix decodes, and no single-bit flip panics the decoder.
    let report = small_fleet().simulate(
        &Scenario::default().with_chaos(ChaosConfig::datacenter_default()),
        &mut StdRng::seed_from_u64(5),
    );
    assert!(report.quality.is_some(), "chaos telemetry attaches quality");
    let bytes = report.to_cache_bytes();
    assert_eq!(FleetSimReport::from_cache_bytes(&bytes), Some(report));
    for cut in 0..bytes.len() {
        assert_eq!(
            FleetSimReport::from_cache_bytes(&bytes[..cut]),
            None,
            "prefix of {cut} bytes decoded"
        );
    }
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << bit;
            let _ = FleetSimReport::from_cache_bytes(&flipped);
        }
    }

    // A small events.jsonl export: every prefix, and every flip of the low
    // seven bits of each byte (the text stays ASCII), loads or errors.
    let obs = ObsConfig::enabled().build();
    {
        let _outer = obs.span("outer");
        obs.add_work(2);
        let _inner = obs.span("inner");
        obs.event(
            "chaos.crash",
            &[("lost_gpu_hours", 0.5.into()), ("hour", 3u64.into())],
        );
        obs.add_work(1);
    }
    let jsonl = obs.export_jsonl();
    assert!(jsonl.is_ascii());
    assert_eq!(SpanTree::from_jsonl(&jsonl).map(|tree| tree.len()), Ok(2));
    for cut in 0..=jsonl.len() {
        let _ = SpanTree::from_jsonl(&jsonl[..cut]);
    }
    for i in 0..jsonl.len() {
        for bit in 0..7 {
            let mut flipped = jsonl.clone().into_bytes();
            flipped[i] ^= 1 << bit;
            let text = String::from_utf8(flipped).expect("ASCII stays ASCII");
            let _ = SpanTree::from_jsonl(&text);
        }
    }
}
