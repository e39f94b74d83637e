//! Integration tests for the extension modules (§IV-C / §V / Appendix B):
//! geo placement, data pipeline, lifetime economics, multi-tenancy,
//! compression, client selection, metrics, and model cards — exercised
//! together the way a sustainability team would compose them.

use sustainai::core::footprint::CarbonFootprint;
use sustainai::core::intensity::{AccountingBasis, CarbonIntensity};
use sustainai::core::metrics::{Leaderboard, MeasuredCandidate, Ranking};
use sustainai::core::modelcard::CarbonCard;
use sustainai::core::pue::Pue;
use sustainai::core::units::{Co2e, DataVolume, Energy, Fraction, Power, TimeSpan};

#[test]
fn geo_and_temporal_shifting_compose() {
    // The two §IV-C axes: shifting in time (scheduler) and in space (geo).
    // Both beat the naive baseline; spatial shifting helps even with zero
    // slack, temporal shifting helps even with one region.
    use sustainai::fleet::geo::{follow_the_sun_fleet, place, GeoJob, GeoPolicy};
    use sustainai::fleet::scheduler::{schedule, IntensitySeries, Policy, ScheduledJob};

    let jobs_geo: Vec<GeoJob> = (0..12)
        .map(|i| GeoJob {
            id: i,
            arrival_hour: (i as usize * 4) % 48,
            duration_hours: 2,
            energy: Energy::from_kilowatt_hours(100.0),
        })
        .collect();
    let regions = follow_the_sun_fleet(3, 64);
    let spatial = place(&jobs_geo, &regions, GeoPolicy::FollowTheSun);
    let naive = place(&jobs_geo, &regions, GeoPolicy::HomeRegion);
    assert!(spatial.total_co2() < naive.total_co2());

    let jobs_time: Vec<ScheduledJob> = (0..12)
        .map(|i| {
            ScheduledJob::new(
                i,
                (i as usize * 4) % 48,
                2,
                Energy::from_kilowatt_hours(100.0),
            )
        })
        .collect();
    let series = IntensitySeries::solar_day(3);
    let temporal = schedule(
        &jobs_time,
        &series,
        Policy::CarbonAware {
            max_delay_hours: 12,
        },
        None,
    );
    let immediate = schedule(&jobs_time, &series, Policy::Immediate, None);
    assert!(temporal.total_co2() < immediate.total_co2());
}

#[test]
fn data_pipeline_feeds_fig3_share() {
    use sustainai::workload::datapipeline::DataPipeline;
    use sustainai::workload::phases::PipelineEnergySplit;

    let pipeline = DataPipeline::rm1_scale();
    let split = PipelineEnergySplit::rm1();
    // Back out the other stages from the published split and check the
    // bottom-up data stage reproduces its own share.
    let data_power = pipeline.total_power();
    let training = data_power * (split.experimentation_training().value() / split.data().value());
    let inference = data_power * (split.inference().value() / split.data().value());
    let share = pipeline.share_of_pipeline(training, inference);
    assert!((share.value() - split.data().value()).abs() < 0.01);
}

#[test]
fn pipeline_growth_outpaces_efficiency_cycle() {
    // Jevons at the data layer: Fig 2b growth (2.4x data / 3.2x bandwidth
    // per 2y) overwhelms the 20%/6mo efficiency cadence applied to the
    // pipeline (0.41x over 2y): net demand still rises.
    use sustainai::optim::stack::OptimizationCycle;
    use sustainai::workload::datapipeline::DataPipeline;

    let base = DataPipeline::rm1_scale();
    let grown = base.grown(2.4, 3.2);
    let efficiency = OptimizationCycle::paper_default()
        .retained()
        .value()
        .powi(4);
    let net = grown.total_power().as_watts() * efficiency / base.total_power().as_watts();
    assert!(
        net > 1.0,
        "net pipeline power factor {net} should still grow"
    );
}

#[test]
fn lifetime_extension_interacts_with_embodied_rate() {
    use sustainai::core::embodied::{AllocationPolicy, EmbodiedModel};
    use sustainai::fleet::lifetime::{optimal_lifetime, LifetimeTradeoff};

    let grid: Vec<f64> = (1..=10).map(|y| y as f64).collect();
    let best = optimal_lifetime(&LifetimeTradeoff::gpu_server(), &grid);
    // Using the optimal life in the core embodied model lowers the per-job
    // embodied rate versus the 4-year default.
    let default = EmbodiedModel::gpu_server().unwrap();
    let extended = default.with_lifetime(best.lifetime).unwrap();
    if best.lifetime > default.lifetime() {
        assert!(
            extended.rate(AllocationPolicy::TimeShare) < default.rate(AllocationPolicy::TimeShare)
        );
    }
}

#[test]
fn multitenancy_and_utilization_tell_the_same_story() {
    // Packing four quarter-GPU tenants onto one device is a 4x utilization
    // improvement; Figure 9's sweep must agree on the embodied saving factor.
    use sustainai::core::embodied::{AllocationPolicy, EmbodiedModel};
    use sustainai::optim::multitenancy::{evaluate, Tenant};

    let tenants: Vec<Tenant> = (0..4)
        .map(|_| Tenant::new(Fraction::saturating(0.25), 12.0))
        .collect();
    let report = evaluate(
        &tenants,
        Power::from_watts(300.0),
        Fraction::saturating(0.05),
    );
    assert_eq!(report.dedicated_devices, 4);
    assert_eq!(report.shared_devices, 1);

    let embodied = EmbodiedModel::gpu_server().unwrap();
    let low = embodied
        .with_expected_utilization(Fraction::saturating(0.25))
        .unwrap();
    let high = embodied
        .with_expected_utilization(Fraction::saturating(1.0))
        .unwrap();
    let day = TimeSpan::from_days(1.0);
    let ratio = low.amortize(day, AllocationPolicy::UsageShare).unwrap()
        / high.amortize(day, AllocationPolicy::UsageShare).unwrap();
    assert!((ratio - 4.0).abs() < 1e-9, "usage-share agrees: {ratio}");
}

#[test]
fn compression_report_feeds_leaderboard() {
    use sustainai::optim::compression::{apply, CompressionTechnique};
    use sustainai::workload::recsys::DlrmConfig;

    let rm = DlrmConfig::production_scale();
    let memory = DataVolume::from_gigabytes(80.0);
    let mut board = Leaderboard::new();
    for (name, technique, quality) in [
        ("uncompressed", CompressionTechnique::None, 0.8010),
        ("tt-rec", CompressionTechnique::tt_rec_paper(), 0.8005),
        ("dhe", CompressionTechnique::dhe_paper(), 0.7990),
    ] {
        let r = apply(&rm, technique, memory);
        // Stylized: embodied ∝ systems, operational ∝ training time.
        let footprint = CarbonFootprint::new(
            Co2e::from_tonnes(100.0 * r.relative_operational()),
            Co2e::from_tonnes(50.0 * r.relative_embodied()),
        );
        board.add(
            MeasuredCandidate::new(
                name,
                quality,
                Energy::from_megawatt_hours(10.0),
                footprint,
                1e9,
            )
            .unwrap(),
        );
    }
    // Quality-only crowns the uncompressed model; a carbon budget flips it.
    assert_eq!(
        board.winner(Ranking::QualityOnly).unwrap().name,
        "uncompressed"
    );
    let winner = board
        .winner(Ranking::QualityWithinBudget {
            budget: Co2e::from_tonnes(130.0),
        })
        .unwrap();
    assert_eq!(winner.name, "tt-rec");
}

#[test]
fn fl_selection_feeds_edge_estimator() {
    // Energy-aware selection's savings survive the full carbon conversion.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustainai::edge::selection::{simulate_selection, SelectionPolicy};

    let run = |policy| {
        simulate_selection(
            &mut StdRng::seed_from_u64(42),
            policy,
            30,
            150,
            30,
            DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        )
    };
    let random = run(SelectionPolicy::Random);
    let aware = run(SelectionPolicy::EnergyAware);
    let intensity = CarbonIntensity::WORLD_AVERAGE_2021;
    let random_co2 = intensity.emissions(random.total_energy);
    let aware_co2 = intensity.emissions(aware.total_energy);
    assert!(aware_co2 < random_co2);
}

#[test]
fn model_card_round_trips_through_json_with_metrics() {
    let card = CarbonCard::builder("RM2")
        .hardware("128x GPU training servers", 128, TimeSpan::from_days(5.0))
        .energy(Energy::from_megawatt_hours(180.0))
        .accounting(
            CarbonIntensity::US_AVERAGE_2021,
            Pue::new(1.1).unwrap(),
            AccountingBasis::LocationBased,
        )
        .training(CarbonFootprint::new(
            Co2e::from_tonnes(85.0),
            Co2e::from_tonnes(42.0),
        ))
        .build()
        .unwrap();
    let json = serde_json::to_string(&card).unwrap();
    let back: CarbonCard = serde_json::from_str(&json).unwrap();
    assert_eq!(back, card);
    assert!(back.to_markdown().contains("128"));
    // The card's totals feed a leaderboard candidate directly.
    let candidate = MeasuredCandidate::new(
        back.model_name(),
        0.81,
        back.energy(),
        back.training(),
        2.0e12,
    )
    .unwrap();
    assert_eq!(candidate.footprint.total(), Co2e::from_tonnes(127.0));
}

#[test]
fn estimator_error_propagates_to_carbon_error() {
    // §V-A: methodology perturbs the measure — quantify it in CO2 terms.
    use sustainai::telemetry::device::DeviceSpec;
    use sustainai::telemetry::estimation::{validate_estimator, EstimationMethod};

    let device = DeviceSpec::V100.power_model();
    let err = validate_estimator(
        &device,
        Power::from_watts(300.0),
        EstimationMethod::TdpTimesUtilization,
        |_| Fraction::saturating(0.3),
        TimeSpan::from_days(1.0),
        TimeSpan::from_minutes(5.0),
    );
    let intensity = CarbonIntensity::US_AVERAGE_2021;
    let true_co2 = intensity.emissions(err.metered);
    let est_co2 = intensity.emissions(err.estimated);
    // The CO2 relative error equals the energy relative error.
    let co2_err = est_co2 / true_co2 - 1.0;
    assert!((co2_err - err.relative_error()).abs() < 1e-9);
    assert!(co2_err < -0.1, "underestimate propagates, got {co2_err}");
}
