//! Non-figure experiments the paper reports in prose: RM quantization
//! (§III-B), NAS/HPO search cost (§IV-B), data-sampling proxies (§IV-A),
//! SSL vs supervised effort (Appendix C), and the carbon-aware scheduling
//! ablation (§IV-C).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sustain_core::units::{DataVolume, Energy, Fraction};
use sustain_fleet::scheduler::{schedule, IntensitySeries, Policy, ScheduledJob};
use sustain_optim::nas::{EarlyStopping, SearchStrategy};
use sustain_optim::quantization::{
    deployment_latency_gain, quantize_hottest, rm2_like, NumericFormat,
};
use sustain_optim::sampling::ProxyEvaluation;
use sustain_workload::experimentation::Campaign;
use sustain_workload::ssl::TrainingRegime;

use crate::table::{num, Table};
use crate::SEED;

/// The extra experiment tables by name, in print order.
pub const TABLES: &[super::NamedFigure] = &[
    ("figure.extras_quantization", quantization),
    ("figure.extras_nas_cost", nas_cost),
    ("figure.extras_data_sampling", data_sampling),
    ("figure.extras_ssl_tradeoff", ssl_tradeoff),
    ("figure.extras_carbon_scheduling", carbon_scheduling),
    ("figure.extras_experimentation", experimentation),
];

/// §II-A / §IV-B: experimentation campaigns and early stopping.
pub fn experimentation() -> Table {
    let mut rng = StdRng::seed_from_u64(SEED);
    let base = Campaign::new(100, 20);
    let stopped = base.with_early_stopping(0.25, 0.25);
    let full_days = base.simulate_gpu_days(&mut rng);
    let mut rng = StdRng::seed_from_u64(SEED);
    let stopped_days = stopped.simulate_gpu_days(&mut rng);
    let mut table = Table::new(
        "SII-A: experimentation campaign (100 ideas x 20 workflows)",
        &["configuration", "gpu-days", "vs full"],
    );
    table.row(&[
        "run everything to completion".into(),
        num(full_days, 0),
        "1.00x".into(),
    ]);
    table.row(&[
        "early stop (keep 25% at 25% budget)".into(),
        num(stopped_days, 0),
        format!("{:.2}x", stopped_days / full_days),
    ]);
    table.claim(format!(
        "analytic early-stop cost factor: {:.4}",
        stopped.early_stop_cost_factor()
    ));
    table.claim("paper: stopping under-performing workflows eliminates unnecessary cycles");
    table
}

/// §III-B: RM quantization anchors.
pub fn quantization() -> Table {
    let mut rm2 = rm2_like();
    let report = quantize_hottest(&mut rm2, NumericFormat::Fp16, Fraction::saturating(0.41));
    let mut table = Table::new(
        "SIII-B: RM quantization (fp32 -> fp16)",
        &["metric", "value"],
    );
    table.row(&[
        "RM2 size reduction".into(),
        format!("{:.1}%", report.size_reduction().as_percent()),
    ]);
    table.row(&[
        "RM2 bandwidth reduction".into(),
        format!("{:.1}%", report.bandwidth_reduction().as_percent()),
    ]);
    let latency = deployment_latency_gain(
        DataVolume::from_gigabytes(100.0),
        DataVolume::from_gigabytes(60.0),
        DataVolume::from_gigabytes(64.0),
    );
    table.row(&[
        "RM1 latency gain on small-memory system".into(),
        format!("{latency:.1}x"),
    ]);
    table.claim("paper: -15% size, -20.7% bandwidth, 2.5x latency");
    table
}

/// §IV-B: NAS/HPO search cost in full-training equivalents.
pub fn nas_cost() -> Table {
    let space = 3000;
    let per_trial = Energy::from_megawatt_hours(0.1);
    let mut table = Table::new(
        "SIV-B: NAS/HPO search cost (full-training equivalents)",
        &["strategy", "trials", "energy"],
    );
    let strategies: Vec<(String, f64)> = vec![
        ("grid".into(), SearchStrategy::Grid.trial_cost(space)),
        (
            "random(60)".into(),
            SearchStrategy::Random { trials: 60 }.trial_cost(space),
        ),
        (
            "bayesian(4x)".into(),
            SearchStrategy::Bayesian {
                equivalent_random_trials: 60,
                efficiency: 4.0,
            }
            .trial_cost(space),
        ),
        (
            "random(60)+early-stop".into(),
            EarlyStopping::successive_halving().trial_cost(60),
        ),
    ];
    for (name, trials) in &strategies {
        table.row(&[
            name.clone(),
            num(*trials, 2),
            (per_trial * *trials).to_string(),
        ]);
    }
    let grid = strategies[0].1;
    let best = strategies.last().expect("non-empty").1;
    table.claim(format!(
        "grid is {:.0}x the single-training cost (paper: >3000x overhead)",
        grid
    ));
    table.claim(format!(
        "sample-efficient + early stopping: {:.0}x cheaper than grid",
        grid / best
    ));
    table
}

/// §IV-A: data-sampling proxy evaluation.
pub fn data_sampling() -> Table {
    let cfg = ProxyEvaluation::paper_default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut table = Table::new(
        "SIV-A: proxy evaluation on data sub-samples",
        &["sample fraction", "speedup", "kendall tau"],
    );
    for s in [1.0, 0.5, 0.1, 0.01] {
        let f = Fraction::saturating(s);
        table.row(&[
            format!("{:.0}%", s * 100.0),
            format!("{:.1}x", cfg.speedup(f)),
            num(cfg.mean_tau(&mut rng, f, 200), 3),
        ]);
    }
    table.claim("paper: 10% sample preserves algorithm ranking at 5.8x speedup");
    table
}

/// Appendix C: SSL vs supervised vs PAWS effort/accuracy.
pub fn ssl_tradeoff() -> Table {
    let regimes = [
        TrainingRegime::supervised_resnet50(),
        TrainingRegime::simclr(),
        TrainingRegime::paws_10pct(),
    ];
    let names = ["supervised ResNet-50", "SimCLR (SSL)", "PAWS (10% labels)"];
    let mut table = Table::new(
        "Appendix C: training effort vs accuracy",
        &["regime", "epochs", "top-1", "labels"],
    );
    for (name, r) in names.iter().zip(regimes.iter()) {
        table.row(&[
            (*name).into(),
            num(r.epochs(), 0),
            format!("{:.1}%", r.top1_accuracy().as_percent()),
            format!("{:.0}%", r.label_fraction().as_percent()),
        ]);
    }
    table.claim(format!(
        "supervision is worth {:.1}x training effort (paper: ~10x)",
        TrainingRegime::simclr().effort_ratio_vs(&TrainingRegime::supervised_resnet50())
    ));
    table
}

/// §IV-C ablation: FIFO vs carbon-aware scheduling under a solar day.
pub fn carbon_scheduling() -> Table {
    let jobs: Vec<ScheduledJob> = (0..24)
        .map(|i| ScheduledJob::new(i, i as usize, 2, Energy::from_kilowatt_hours(100.0)))
        .collect();
    let series = IntensitySeries::solar_day(3);
    let mut table = Table::new(
        "SIV-C: carbon-aware scheduling ablation (24 x 2h jobs, solar grid)",
        &["policy", "total co2", "mean delay (h)", "peak concurrency"],
    );
    let configs: Vec<(String, Policy, Option<usize>)> = vec![
        ("immediate".into(), Policy::Immediate, None),
        (
            "carbon-aware (12h slack)".into(),
            Policy::CarbonAware {
                max_delay_hours: 12,
            },
            None,
        ),
        (
            "carbon-aware (24h slack)".into(),
            Policy::CarbonAware {
                max_delay_hours: 24,
            },
            None,
        ),
        (
            "carbon-aware (24h slack, 4 slots)".into(),
            Policy::CarbonAware {
                max_delay_hours: 24,
            },
            Some(4),
        ),
    ];
    let mut results = Vec::new();
    for (name, policy, cap) in &configs {
        let r = schedule(&jobs, &series, *policy, *cap);
        table.row(&[
            name.clone(),
            r.total_co2().to_string(),
            num(r.mean_delay_hours(), 1),
            r.peak_concurrency(&jobs).to_string(),
        ]);
        results.push(r);
    }
    table.claim(format!(
        "carbon-aware (24h) cuts emissions {:.1}x vs immediate",
        results[0].total_co2() / results[2].total_co2()
    ));
    table.claim("paper: shifting needs slack and over-provisioned capacity");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_table_matches_anchors() {
        let t = quantization();
        assert_eq!(t.rows().len(), 3);
        // Size row lands near 15%, bandwidth near 20.7%.
        let size: f64 = t.rows()[0][1].trim_end_matches('%').parse().unwrap();
        let bw: f64 = t.rows()[1][1].trim_end_matches('%').parse().unwrap();
        assert!((size - 15.0).abs() < 3.0, "size {size}");
        assert!((bw - 20.7).abs() < 3.0, "bw {bw}");
    }

    #[test]
    fn nas_grid_dominates_cost() {
        let t = nas_cost();
        assert_eq!(t.rows().len(), 4);
    }

    #[test]
    fn scheduling_ablation_orders_policies() {
        let jobs: Vec<ScheduledJob> = (0..24)
            .map(|i| ScheduledJob::new(i, i as usize, 2, Energy::from_kilowatt_hours(100.0)))
            .collect();
        let series = IntensitySeries::solar_day(3);
        let immediate = schedule(&jobs, &series, Policy::Immediate, None);
        let aware = schedule(
            &jobs,
            &series,
            Policy::CarbonAware {
                max_delay_hours: 24,
            },
            None,
        );
        let capped = schedule(
            &jobs,
            &series,
            Policy::CarbonAware {
                max_delay_hours: 24,
            },
            Some(4),
        );
        assert!(aware.total_co2() < immediate.total_co2());
        // Capacity caps can only hurt (or equal) the uncapped schedule.
        assert!(capped.total_co2() >= aware.total_co2());
        // But carbon-aware needs more concurrent capacity.
        assert!(aware.peak_concurrency(&jobs) > immediate.peak_concurrency(&jobs));
    }
}
