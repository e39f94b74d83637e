//! The paper's headline quantitative claims, asserted end-to-end through the
//! public API. Each test names the figure/section it validates; `EXPERIMENTS.md`
//! records the same comparisons in prose.

use sustainai::core::units::{Fraction, TimeSpan};

#[test]
fn fig2_growth_constants() {
    use sustainai::workload::datagrowth::GrowthTrend;
    let two = TimeSpan::from_years(2.0);
    assert!((GrowthTrend::recsys_data_primary().factor_over(two) - 2.4).abs() < 1e-9);
    assert!((GrowthTrend::ingestion_bandwidth().factor_over(two) - 3.2).abs() < 1e-9);
    assert!((GrowthTrend::rm_model_size().factor_over(two) - 20.0).abs() < 1e-9);
}

#[test]
fn fig3_capacity_and_pipeline_splits() {
    use sustainai::workload::phases::{PhaseCapacitySplit, PipelineEnergySplit};
    let cap = PhaseCapacitySplit::paper_default();
    assert_eq!(
        (
            cap.experimentation().as_percent().round() as u32,
            cap.training().as_percent().round() as u32,
            cap.inference().as_percent().round() as u32
        ),
        (10, 20, 70)
    );
    let pipe = PipelineEnergySplit::rm1();
    assert_eq!(
        (
            pipe.data().as_percent().round() as u32,
            pipe.experimentation_training().as_percent().round() as u32,
            pipe.inference().as_percent().round() as u32
        ),
        (31, 29, 40)
    );
}

#[test]
fn fig4_fleet_average_vs_oss_models() {
    use sustainai::workload::models::{fleet_average_training_co2, OssModel};
    let avg = fleet_average_training_co2();
    assert!((avg / OssModel::Meena.training_co2() - 1.8).abs() < 0.1);
    assert!((avg / OssModel::Gpt3.training_co2() - 0.3).abs() < 0.05);
}

#[test]
fn fig5_embodied_split() {
    use sustainai::workload::models::ProductionModel;
    for m in ProductionModel::ALL {
        let fp = m.overall_footprint();
        // "roughly 30% / 70%" embodied/operational.
        assert!((fp.embodied_share().value() - 0.333).abs() < 0.01);
        assert!(m.overall_footprint_cfe().embodied_share().value() > 0.5);
    }
}

#[test]
fn fig6_twenty_percent_per_half_year() {
    use sustainai::optim::stack::OptimizationCycle;
    let r = OptimizationCycle::paper_default().total_reduction().value();
    assert!((r - 0.20).abs() < 0.01);
}

#[test]
fn fig7_waterfall_exceeds_800x() {
    use sustainai::optim::pass::Pipeline;
    let gain = Pipeline::lm_paper().total_gain();
    assert!(gain > 800.0 && gain < 830.0);
}

#[test]
fn fig8_net_28_5_percent_over_two_years() {
    use sustainai::fleet::jevons::JevonsModel;
    let net = JevonsModel::paper_default().net_power_factor(TimeSpan::from_years(2.0));
    assert!((1.0 - net - 0.285).abs() < 1e-6);
}

#[test]
fn fig9_utilization_sweep_shape() {
    let sweep = sustain_bench_fig9_sweep();
    let low = sweep.at(Fraction::saturating(0.3));
    let high = sweep.at(Fraction::saturating(0.8));
    let ratio = low.grid.total() / high.grid.total();
    assert!(ratio > 2.0 && ratio < 3.5, "30->80% ratio {ratio}");
    assert!(high.carbon_free.embodied_share().value() > 0.5);
}

fn sustain_bench_fig9_sweep() -> sustainai::fleet::utilization::UtilizationSweep {
    use sustainai::core::embodied::EmbodiedModel;
    use sustainai::core::intensity::CarbonIntensity;
    use sustainai::core::operational::OperationalAccount;
    use sustainai::core::pue::Pue;
    use sustainai::telemetry::device::DeviceSpec;
    sustainai::fleet::utilization::UtilizationSweep::new(
        DeviceSpec::V100.power_model(),
        TimeSpan::from_days(300.0),
        OperationalAccount::new(CarbonIntensity::US_AVERAGE_2021, Pue::new(1.1).unwrap()),
        EmbodiedModel::gpu_server().unwrap(),
    )
}

#[test]
fn fig10_utilization_band() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustainai::fleet::utilization::UtilizationModel;
    let h = UtilizationModel::research_cluster().histogram(&mut StdRng::seed_from_u64(1), 40_000);
    assert!(h.mass_between(0.3, 0.5) > 0.55);
}

#[test]
fn fig11_fl_comparable_to_transformer_big() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sustainai::core::units::DataVolume;
    use sustainai::edge::carbon::{CentralizedBaseline, EdgeCarbonEstimator};
    use sustainai::edge::fl::FlApp;
    let scale = 20.0;
    let app = FlApp::new(
        "FL-1",
        100,
        500,
        DataVolume::from_bytes(20e6),
        TimeSpan::from_minutes(4.0),
    );
    let log = app.simulate(&mut StdRng::seed_from_u64(90));
    let co2 = EdgeCarbonEstimator::paper_default().estimate(&log).co2 * scale;
    let ratio = co2 / CentralizedBaseline::P100Base.co2();
    assert!(ratio > 0.3 && ratio < 5.0, "ratio {ratio}");
}

#[test]
fn fig12_star_economics() {
    use sustainai::workload::scaling::RecsysScalingLaw;
    let law = RecsysScalingLaw::paper_default();
    let y = law.point(2.0, 2.0);
    let g = law.point(8.0, 16.0);
    assert!((g.energy_per_step / y.energy_per_step - 4.0).abs() < 0.05);
    assert!((y.normalized_entropy - g.normalized_entropy - 0.004).abs() < 0.0005);
}

#[test]
fn section3b_quantization_anchors() {
    use sustainai::optim::quantization::{quantize_hottest, rm2_like, NumericFormat};
    let mut rm2 = rm2_like();
    let report = quantize_hottest(&mut rm2, NumericFormat::Fp16, Fraction::saturating(0.41));
    assert!((report.size_reduction().value() - 0.15).abs() < 0.03);
    assert!((report.bandwidth_reduction().value() - 0.207).abs() < 0.03);
}

#[test]
fn section4a_sampling_anchor() {
    use sustainai::optim::sampling::ProxyEvaluation;
    let cfg = ProxyEvaluation::paper_default();
    assert!((cfg.speedup(Fraction::saturating(0.1)) - 5.8).abs() < 1e-9);
}

#[test]
fn section4b_grid_nas_overhead() {
    use sustainai::optim::nas::SearchStrategy;
    assert!(SearchStrategy::Grid.trial_cost(3000) >= 3000.0);
}

#[test]
fn appendix_c_ssl_effort_gap() {
    use sustainai::workload::ssl::TrainingRegime;
    let ratio = TrainingRegime::simclr().effort_ratio_vs(&TrainingRegime::supervised_resnet50());
    assert!(ratio > 10.0 && ratio < 12.0);
}

#[test]
fn meena_vehicle_miles_equivalence() {
    use sustainai::core::equivalence::Equivalences;
    use sustainai::workload::models::OssModel;
    let eq = Equivalences::of(OssModel::Meena.training_co2());
    assert!((eq.vehicle_miles - 242_231.0).abs() / 242_231.0 < 0.05);
}
