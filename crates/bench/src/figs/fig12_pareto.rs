//! Figure 12: data/model scaling vs energy — the Pareto frontier and the
//! yellow/green stars.

use sustain_optim::pareto::{pareto_frontier, Candidate};
use sustain_par::ParPool;
use sustain_workload::scaling::RecsysScalingLaw;

use crate::table::{num, Table};

/// The scale grid evaluated in both dimensions.
pub const SCALES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// Generates the Figure 12 table.
pub fn generate() -> Table {
    let law = RecsysScalingLaw::paper_default();
    let mut table = Table::new(
        "Figure 12: normalized entropy vs energy per training step",
        &[
            "data scale",
            "model scale",
            "energy/step (kWh)",
            "NE",
            "pareto",
        ],
    );

    // One grid point per pool task, flattened data-outer/model-inner; the
    // submission-order join keeps that row order.
    let pairs: Vec<(f64, f64)> = SCALES
        .iter()
        .flat_map(|&d| SCALES.iter().map(move |&m| (d, m)))
        .collect();
    let points = ParPool::current().map_indexed(pairs, |_, (d, m)| law.point(d, m));
    let candidates: Vec<Candidate> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Candidate::new(
                i as u64,
                p.energy_per_step.as_kilowatt_hours(),
                p.normalized_entropy,
            )
        })
        .collect();
    let frontier = pareto_frontier(&candidates);
    let on_frontier = |i: usize| frontier.iter().any(|c| c.id == i as u64);

    for (i, p) in points.iter().enumerate() {
        table.row(&[
            num(p.data_scale, 0),
            num(p.model_scale, 0),
            num(p.energy_per_step.as_kilowatt_hours(), 3),
            num(p.normalized_entropy, 5),
            if on_frontier(i) {
                "*".into()
            } else {
                "".into()
            },
        ]);
    }

    let yellow = law.point(
        RecsysScalingLaw::YELLOW_STAR.0,
        RecsysScalingLaw::YELLOW_STAR.1,
    );
    let green = law.point(
        RecsysScalingLaw::GREEN_STAR.0,
        RecsysScalingLaw::GREEN_STAR.1,
    );
    table.claim(format!(
        "yellow star (2x,2x) vs green star (8x,16x): {:.2}x energy for {:.4} NE (paper: ~4x, 0.004)",
        green.energy_per_step / yellow.energy_per_step,
        yellow.normalized_entropy - green.normalized_entropy
    ));
    table.claim(format!(
        "power-law exponent between stars: {:.4} (paper: 0.002-0.004)",
        law.effective_exponent(RecsysScalingLaw::YELLOW_STAR, RecsysScalingLaw::GREEN_STAR)
    ));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_5x5() {
        assert_eq!(generate().rows().len(), 25);
    }

    #[test]
    fn frontier_contains_tandem_like_points() {
        // Every frontier point must have balanced scales (no extreme
        // data-only or model-only configuration wins).
        let law = RecsysScalingLaw::paper_default();
        let points: Vec<_> = SCALES
            .iter()
            .flat_map(|&d| SCALES.iter().map(move |&m| law.point(d, m)))
            .collect();
        let candidates: Vec<Candidate> = points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Candidate::new(
                    i as u64,
                    p.energy_per_step.as_kilowatt_hours(),
                    p.normalized_entropy,
                )
            })
            .collect();
        let frontier = pareto_frontier(&candidates);
        assert!(frontier.len() >= 3);
        for c in &frontier {
            let p = &points[c.id as usize];
            let imbalance = (p.data_scale / p.model_scale).max(p.model_scale / p.data_scale);
            assert!(imbalance <= 4.0, "extreme point on frontier: {p:?}");
        }
    }
}
