//! Cross-crate integration tests: telemetry → accounting → fleet → reports,
//! exercised through the umbrella `sustainai` API exactly as a downstream
//! user would.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sustainai::core::embodied::{AllocationPolicy, EmbodiedModel};
use sustainai::core::intensity::{AccountingBasis, CarbonIntensity, GridRegion};
use sustainai::core::lifecycle::MlPhase;
use sustainai::core::operational::OperationalAccount;
use sustainai::core::pue::Pue;
use sustainai::core::units::{Co2e, Energy, Fraction, Power, TimeSpan};
use sustainai::fleet::cluster::Cluster;
use sustainai::fleet::datacenter::DataCenter;
use sustainai::fleet::sim::{FleetSim, Scenario};
use sustainai::fleet::utilization::UtilizationModel;
use sustainai::telemetry::device::{DeviceSpec, PowerModel};
use sustainai::telemetry::meter::sample_profile;
use sustainai::telemetry::tracker::CarbonTracker;
use sustainai::workload::training::{JobClass, JobGenerator};

#[test]
fn trace_to_tracker_to_report_pipeline() {
    // Sample a GPU's power over a bursty utilization signal, feed the trace's
    // energy into a tracker, and confirm the report matches hand math.
    let model = DeviceSpec::A100.power_model();
    let trace = sample_profile(
        &model,
        |t| {
            if t.as_minutes() < 30.0 {
                Fraction::ONE
            } else {
                Fraction::ZERO
            }
        },
        TimeSpan::from_hours(1.0),
        TimeSpan::from_secs(10.0),
    );
    let account = OperationalAccount::new(
        CarbonIntensity::from_grams_per_kwh(400.0),
        Pue::new(1.1).unwrap(),
    );
    let tracker = CarbonTracker::new("trace-job", account);
    tracker.record_energy("gpu0", MlPhase::Experimentation, trace.energy());
    let report = tracker.report(AccountingBasis::LocationBased);

    // ~30 min at 400 W + ~30 min at 50 W ≈ 225 Wh.
    let wh = report.energy.as_watt_hours();
    assert!((wh - 225.0).abs() < 5.0, "energy {wh} Wh");
    let expected_g = wh / 1000.0 * 1.1 * 400.0;
    assert!((report.footprint.operational().as_grams() - expected_g).abs() < 1.0);
    assert!(report.is_phase_consistent(Co2e::from_grams(0.001)));
}

#[test]
fn fleet_sim_energy_is_bounded_by_power_envelope() {
    let servers = 20;
    let days = 10.0;
    let cluster = Cluster::gpu_training(servers);
    let sim = FleetSim::new(
        cluster.clone(),
        DataCenter::hyperscale("dc", GridRegion::UsAverage, Power::from_megawatts(5.0)),
        JobGenerator::calibrated(JobClass::Production).unwrap(),
        UtilizationModel::research_cluster(),
        30.0,
        TimeSpan::from_days(days),
    );
    let report = sim.simulate(&Scenario::default(), &mut StdRng::seed_from_u64(77));
    // Energy can never exceed every server at peak for the whole horizon,
    // nor drop below every server idle.
    let peak = cluster.power_at(Fraction::ONE) * TimeSpan::from_days(days);
    let idle = cluster.power_at(Fraction::ZERO) * TimeSpan::from_days(days);
    assert!(report.it_energy <= peak);
    assert!(report.it_energy >= idle * 0.9);
}

#[test]
fn market_based_fleet_footprint_is_pure_embodied() {
    let sim = FleetSim::new(
        Cluster::gpu_training(10),
        DataCenter::hyperscale("dc", GridRegion::Nordic, Power::from_megawatts(2.0)),
        JobGenerator::calibrated(JobClass::Research).unwrap(),
        UtilizationModel::research_cluster(),
        10.0,
        TimeSpan::from_days(7.0),
    );
    let report = sim.simulate(&Scenario::default(), &mut StdRng::seed_from_u64(78));
    let fp = report.footprint(AccountingBasis::MarketBased);
    assert!(fp.operational().is_zero());
    assert!(fp.embodied() > Co2e::ZERO);
    // Embodied matches a direct amortization of the cluster over the horizon.
    let expected = Co2e::from_kilograms(2000.0 * 10.0) * (7.0 / (4.0 * 365.25));
    assert!((fp.embodied().as_kilograms() - expected.as_kilograms()).abs() < 1.0);
}

#[test]
fn regional_placement_changes_location_based_only() {
    let run = |region: GridRegion| {
        let sim = FleetSim::new(
            Cluster::gpu_training(10),
            DataCenter::hyperscale("dc", region, Power::from_megawatts(2.0)),
            JobGenerator::calibrated(JobClass::Research).unwrap(),
            UtilizationModel::research_cluster(),
            20.0,
            TimeSpan::from_days(7.0),
        );
        sim.simulate(&Scenario::default(), &mut StdRng::seed_from_u64(79))
    };
    let nordic = run(GridRegion::Nordic);
    let india = run(GridRegion::India);
    // Identical workload (same seed): same energy, very different carbon.
    assert_eq!(nordic.it_energy, india.it_energy);
    assert!(india.operational_location > nordic.operational_location * 5.0);
    assert_eq!(nordic.embodied, india.embodied);
}

#[test]
fn tracker_embodied_matches_core_amortization() {
    let account = OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::IDEAL);
    let embodied = EmbodiedModel::gpu_server().unwrap();
    let tracker =
        CarbonTracker::new("job", account).with_embodied(embodied, AllocationPolicy::UsageShare);
    let span = TimeSpan::from_days(10.0);
    tracker.record_machine_time(span);
    let direct = embodied
        .amortize(span, AllocationPolicy::UsageShare)
        .unwrap();
    assert_eq!(tracker.embodied_co2(), direct);
}

#[test]
fn workload_flops_bridge_is_consistent_with_device_power() {
    use sustainai::workload::flops::{training_flops, DeviceThroughput};
    let throughput = DeviceThroughput::for_spec(DeviceSpec::A100).unwrap();
    let mfu = Fraction::new(0.4).unwrap();
    let flops = training_flops(1_000_000_000, 10_000_000_000);
    let time = throughput.time_for(flops, mfu);
    let energy = throughput.energy_for(flops, mfu);
    // Energy equals the device's power at that MFU times the runtime.
    let power = DeviceSpec::A100.power_model().power(mfu);
    assert!((energy.as_joules() - (power * time).as_joules()).abs() < 1e-3);
}

#[test]
fn production_models_reported_through_tracker_match_registry() {
    use sustainai::workload::models::ProductionModel;
    // Feed each model's registry footprint through a FootprintReport and
    // confirm phase consistency end-to-end.
    for m in ProductionModel::ALL {
        let b = m.footprint_by_phase();
        let mut report = sustainai::core::footprint::FootprintReport::new(
            m.to_string(),
            AccountingBasis::LocationBased,
            Energy::ZERO,
            sustainai::core::footprint::CarbonFootprint::operational_only(m.total_co2()),
        );
        for (phase, co2) in b.iter() {
            report.record_phase(phase, co2);
        }
        assert!(report.is_phase_consistent(Co2e::from_grams(1.0)), "{m}");
    }
}
