//! Extension experiments: the paper's §IV-C and Appendix-B design
//! directions, quantified — life extension, pipeline disaggregation,
//! accelerator multi-tenancy, embedding compression, energy-aware FL client
//! selection, and unmetered-estimator validation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sustain_core::units::{DataVolume, Fraction, Power, TimeSpan};
use sustain_edge::selection::{simulate_selection, SelectionPolicy};
use sustain_fleet::disaggregation::{CheckpointPolicy, PipelineStudy, Topology};
use sustain_fleet::geo::{follow_the_sun_fleet, place, GeoJob, GeoPolicy};
use sustain_fleet::lifetime::{optimal_lifetime, LifetimeTradeoff};
use sustain_optim::compression::{apply, CompressionTechnique};
use sustain_optim::multitenancy::{evaluate, Tenant};
use sustain_telemetry::device::DeviceSpec;
use sustain_telemetry::estimation::{validate_estimator, EstimationMethod};
use sustain_workload::datapipeline::DataPipeline;
use sustain_workload::recsys::DlrmConfig;

use crate::table::{num, Table};
use crate::SEED;

/// The extension tables by name, in print order.
pub const TABLES: &[super::NamedFigure] = &[
    ("figure.ext_lifetime_tradeoff", lifetime_tradeoff),
    ("figure.ext_disaggregation", disaggregation),
    ("figure.ext_multitenancy", multitenancy),
    ("figure.ext_compression", compression),
    ("figure.ext_client_selection", client_selection),
    ("figure.ext_estimation_error", estimation_error),
    ("figure.ext_geo_placement", geo_placement),
    ("figure.ext_data_pipeline", data_pipeline),
];

/// §IV-C: follow-the-sun placement across three timezone-shifted regions.
pub fn geo_placement() -> Table {
    let regions = follow_the_sun_fleet(3, 64);
    let jobs: Vec<GeoJob> = (0..24)
        .map(|i| GeoJob {
            id: i,
            arrival_hour: (i as usize * 3) % 48,
            duration_hours: 2,
            energy: sustain_core::units::Energy::from_kilowatt_hours(100.0),
        })
        .collect();
    let home = place(&jobs, &regions, GeoPolicy::HomeRegion);
    let sun = place(&jobs, &regions, GeoPolicy::FollowTheSun);
    let mut table = Table::new(
        "SIV-C: geo-distributed placement (3 regions, 8h-shifted solar)",
        &["policy", "total co2", "us-west", "europe", "asia"],
    );
    for (name, r) in [("home-region", &home), ("follow-the-sun", &sun)] {
        table.row(&[
            name.into(),
            r.total_co2().to_string(),
            r.count_in("us-west").to_string(),
            r.count_in("europe").to_string(),
            r.count_in("asia").to_string(),
        ]);
    }
    table.claim(format!(
        "spatial shifting alone cuts emissions {:.1}x with zero delay",
        home.total_co2() / sun.total_co2()
    ));
    table.claim("paper: carbon-aware scheduling 'in and across datacenters'");
    table
}

/// §I / Fig 3b bottom-up: the data storage + ingestion pipeline's power.
pub fn data_pipeline() -> Table {
    let base = DataPipeline::rm1_scale();
    let grown = base.grown(2.4, 3.2);
    let mut table = Table::new(
        "SI: data storage + ingestion pipeline power (RM1 scale)",
        &["configuration", "storage", "preprocessing", "total"],
    );
    for (name, p) in [
        ("2019 baseline", &base),
        ("2021 (2.4x data, 3.2x bw)", &grown),
    ] {
        table.row(&[
            name.into(),
            p.storage_power().to_string(),
            p.preprocessing_power().to_string(),
            p.total_power().to_string(),
        ]);
    }
    let training = base.total_power() * (29.0 / 31.0);
    let inference = base.total_power() * (40.0 / 31.0);
    table.claim(format!(
        "data stage share of end-to-end pipeline: {:.0}% (paper Fig 3b: 31%)",
        base.share_of_pipeline(training, inference).as_percent()
    ));
    table.claim(format!(
        "storage embodied at baseline: {}",
        base.storage_embodied()
    ));
    table
}

/// Appendix B: hardware life extension vs silent-data-corruption mitigation.
pub fn lifetime_tradeoff() -> Table {
    let tradeoff = LifetimeTradeoff::gpu_server();
    let grid: Vec<f64> = (1..=10).map(|y| y as f64).collect();
    let mut table = Table::new(
        "Appendix B: life extension vs SDC mitigation (per server-year)",
        &["service life", "embodied/yr", "mitigation/yr", "total/yr"],
    );
    for p in tradeoff.sweep(&grid) {
        table.row(&[
            format!("{:.0} y", p.lifetime.as_years()),
            p.embodied_per_year.to_string(),
            p.mitigation_per_year.to_string(),
            p.total_per_year().to_string(),
        ]);
    }
    let best = optimal_lifetime(&tradeoff, &grid);
    table.claim(format!(
        "carbon-optimal decommissioning: {:.0} years (beyond the 3-5y fleet norm)",
        best.lifetime.as_years()
    ));
    table.claim("paper: extend lifetime to amortize embodied carbon, but hardware ages");
    table
}

/// Appendix B: ingestion/training disaggregation and checkpointing.
pub fn disaggregation() -> Table {
    let study = PipelineStudy::paper_default();
    let mut table = Table::new(
        "Appendix B: disaggregating the data-ingestion stage",
        &["topology", "goodput", "embodied for 100 units"],
    );
    for topology in [Topology::Colocated, Topology::Disaggregated] {
        table.row(&[
            format!("{topology:?}"),
            num(study.goodput(topology), 3),
            study.embodied_for(topology, 100.0).to_string(),
        ]);
    }
    table.claim(format!(
        "disaggregation speedup: {:.2}x (paper: +56%)",
        study.speedup()
    ));
    let job = TimeSpan::from_days(10.0);
    let policy = CheckpointPolicy {
        interval: TimeSpan::from_hours(6.0),
        overhead: Fraction::saturating(0.02),
    };
    table.claim(format!(
        "2 failures on a 10-day job: {:.2}x compute with 6h checkpoints vs {:.2}x without",
        policy.expected_compute(job, 2.0),
        CheckpointPolicy::baseline_expected_compute(job, 2.0)
    ));
    table
}

/// §IV-C: accelerator multi-tenancy.
pub fn multitenancy() -> Table {
    let tenants: Vec<Tenant> = (0..16)
        .map(|_| Tenant::new(Fraction::saturating(0.25), 12.0))
        .collect();
    let report = evaluate(
        &tenants,
        Power::from_watts(300.0),
        Fraction::saturating(0.05),
    );
    let mut table = Table::new(
        "SIV-C: accelerator multi-tenancy (16 quarter-GPU tenants)",
        &["metric", "value"],
    );
    table.row(&[
        "dedicated devices".into(),
        report.dedicated_devices.to_string(),
    ]);
    table.row(&["shared devices".into(), report.shared_devices.to_string()]);
    table.row(&[
        "embodied saving / year".into(),
        report.embodied_saving_per_year.to_string(),
    ]);
    table.row(&[
        "contention energy / day".into(),
        report.contention_energy_per_day.to_string(),
    ]);
    table.claim("paper: multi-tenancy amortizes embodied carbon at some operational expense");
    table
}

/// §IV-B: TT-Rec / DHE embedding compression.
pub fn compression() -> Table {
    let rm = DlrmConfig::production_scale();
    let memory = DataVolume::from_gigabytes(80.0);
    let mut table = Table::new(
        "SIV-B: memory-efficient embeddings (80 GB training systems)",
        &["technique", "memory", "training time", "relative systems"],
    );
    for technique in [
        CompressionTechnique::None,
        CompressionTechnique::tt_rec_paper(),
        CompressionTechnique::dhe_paper(),
    ] {
        let r = apply(&rm, technique, memory);
        table.row(&[
            technique.to_string(),
            r.memory_after.to_string(),
            format!("{:.2}x", r.relative_operational()),
            num(r.relative_embodied(), 3),
        ]);
    }
    let tt = apply(&rm, CompressionTechnique::tt_rec_paper(), memory);
    table.claim(format!(
        "TT-Rec: {:.0}x memory reduction (paper: >100x) at {:.2}x training time",
        tt.memory_before / tt.memory_after,
        tt.relative_operational()
    ));
    table
}

/// §IV-C: energy-aware FL client selection ablation.
pub fn client_selection() -> Table {
    let run = |policy| {
        simulate_selection(
            &mut StdRng::seed_from_u64(SEED),
            policy,
            40,
            200,
            40,
            DataVolume::from_bytes(20e6),
            TimeSpan::from_minutes(4.0),
        )
    };
    let random = run(SelectionPolicy::Random);
    let aware = run(SelectionPolicy::EnergyAware);
    let mut table = Table::new(
        "SIV-C: FL client selection (40 rounds x 40 of 200 clients)",
        &[
            "policy",
            "total energy",
            "mean round time",
            "high-tier share",
        ],
    );
    for (name, r) in [("random", &random), ("energy-aware", &aware)] {
        table.row(&[
            name.into(),
            r.total_energy.to_string(),
            r.mean_round_time.to_string(),
            format!("{:.0}%", r.high_tier_share * 100.0),
        ]);
    }
    table.claim(format!(
        "energy-aware selection saves {:.0}% energy but over-selects fast devices",
        (1.0 - aware.total_energy / random.total_energy) * 100.0
    ));
    table
}

/// §V-A: unmetered power-estimator error vs simulated ground truth.
pub fn estimation_error() -> Table {
    let device = DeviceSpec::V100.power_model();
    let mut table = Table::new(
        "SV-A: unmetered estimator error vs metered ground truth (V100, 35% mean load)",
        &["estimator", "relative error"],
    );
    let methods: Vec<(String, EstimationMethod)> = vec![
        (
            "tdp x utilization".into(),
            EstimationMethod::TdpTimesUtilization,
        ),
        ("half tdp".into(), EstimationMethod::HalfTdp),
        (
            "linear with idle".into(),
            EstimationMethod::LinearWithIdle {
                idle_fraction: 40.0 / 300.0,
            },
        ),
    ];
    for (name, method) in methods {
        let err = validate_estimator(
            &device,
            Power::from_watts(300.0),
            method,
            |t| Fraction::saturating(0.35 + 0.1 * (t.as_minutes() / 11.0).sin()),
            TimeSpan::from_hours(4.0),
            TimeSpan::from_secs(60.0),
        );
        table.row(&[name, format!("{:+.1}%", err.relative_error() * 100.0)]);
    }
    table.claim("paper: no standard telemetry — estimator choice perturbs the measure");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_table_shows_spatial_gain() {
        let t = geo_placement();
        assert_eq!(t.rows().len(), 2);
        assert!(t.claims()[0].contains("x"));
    }

    #[test]
    fn data_pipeline_share_claim_is_31_percent() {
        let t = data_pipeline();
        assert!(t.claims()[0].contains("31%"), "{}", t.claims()[0]);
    }

    #[test]
    fn disaggregation_claims_56_percent() {
        let t = disaggregation();
        assert!(t.claims().iter().any(|c| c.contains("1.56x")));
    }

    #[test]
    fn lifetime_optimum_is_interior() {
        let t = lifetime_tradeoff();
        assert!(t
            .claims()
            .iter()
            .any(|c| c.contains("6 years") || c.contains("5 years") || c.contains("7 years")));
    }

    #[test]
    fn estimator_table_shows_signed_errors() {
        let t = estimation_error();
        assert_eq!(t.rows().len(), 3);
        // The idle-aware estimator is near-exact for the linear device.
        let exact = &t.rows()[2][1];
        assert!(exact.contains("0.0"), "idle-aware error {exact}");
    }
}
