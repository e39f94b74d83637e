//! Efficiency vs demand: Jevons' paradox at fleet scale (Figure 8, Figure 3c).
//!
//! The paper's dynamic: optimization cuts the operational power footprint of
//! the AI fleet by **20 % every 6 months**, yet AI infrastructure keeps
//! scaling out — the *net* effect over two years is only a **28.5 %**
//! reduction in per-workload power while total electricity demand keeps
//! rising (7.17 million MWh in 2020).

use serde::{Deserialize, Serialize};

use sustain_core::units::{Energy, TimeSpan};

use crate::constants;

/// The compounding efficiency/demand model behind Figure 8.
///
/// ```rust
/// use sustain_fleet::jevons::JevonsModel;
/// use sustain_core::units::TimeSpan;
///
/// let model = JevonsModel::paper_default();
/// let net = model.net_power_factor(TimeSpan::from_years(2.0));
/// assert!((1.0 - net - 0.285).abs() < 1e-6); // the paper's 28.5%
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JevonsModel {
    efficiency_retained_per_period: f64,
    demand_growth_per_period: f64,
    period: TimeSpan,
}

impl JevonsModel {
    /// The paper's calibration: 20 % power reduction per 6 months
    /// (retained factor 0.8) with demand growth calibrated so the *net*
    /// reduction over two years is 28.5 %.
    pub fn paper_default() -> JevonsModel {
        // net(2y) = demand^4 × 0.8^4 = JEVONS_NET_POWER_FACTOR_2Y
        //   ⇒ demand = (net / 0.4096)^(1/4).
        let demand = (constants::JEVONS_NET_POWER_FACTOR_2Y / 0.8f64.powi(4)).powf(0.25);
        JevonsModel {
            efficiency_retained_per_period: 0.8,
            demand_growth_per_period: demand,
            period: TimeSpan::from_days(constants::HALF_YEAR_DAYS),
        }
    }

    /// Creates a model from explicit factors per period.
    ///
    /// # Panics
    ///
    /// Panics unless both factors are positive and the period is positive.
    pub fn new(
        efficiency_retained_per_period: f64,
        demand_growth_per_period: f64,
        period: TimeSpan,
    ) -> JevonsModel {
        assert!(efficiency_retained_per_period > 0.0);
        assert!(demand_growth_per_period > 0.0);
        assert!(period.as_secs() > 0.0);
        JevonsModel {
            efficiency_retained_per_period,
            demand_growth_per_period,
            period,
        }
    }

    /// The per-workload efficiency factor after elapsed time `t`
    /// (1 at t = 0, shrinking as optimizations land).
    pub fn efficiency_factor(&self, t: TimeSpan) -> f64 {
        self.efficiency_retained_per_period.powf(t / self.period)
    }

    /// The demand factor after elapsed time `t` (1 at t = 0, growing).
    pub fn demand_factor(&self, t: TimeSpan) -> f64 {
        self.demand_growth_per_period.powf(t / self.period)
    }

    /// The net fleet power factor: demand × efficiency.
    pub fn net_power_factor(&self, t: TimeSpan) -> f64 {
        self.demand_factor(t) * self.efficiency_factor(t)
    }

    /// The time series of `(years, efficiency, demand, net)` triples at
    /// per-period steps over a horizon.
    pub fn series(&self, periods: usize) -> Vec<JevonsPoint> {
        (0..=periods)
            .map(|i| {
                let t = self.period * i as f64;
                JevonsPoint {
                    years: t.as_years(),
                    efficiency_factor: self.efficiency_factor(t),
                    demand_factor: self.demand_factor(t),
                    net_power_factor: self.net_power_factor(t),
                }
            })
            .collect()
    }
}

/// One sample of the Figure 8 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JevonsPoint {
    /// Elapsed time in years.
    pub years: f64,
    /// Per-workload efficiency factor (≤ 1).
    pub efficiency_factor: f64,
    /// Demand growth factor (≥ 1).
    pub demand_factor: f64,
    /// Net fleet power factor.
    pub net_power_factor: f64,
}

/// The fleet electricity trend of Figure 3c, anchored on Facebook's published
/// sustainability-report figures (million MWh per calendar year).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElectricityTrend {
    /// `(year, annual electricity)` anchors.
    anchors: Vec<(u32, Energy)>,
}

impl ElectricityTrend {
    /// Facebook's published datacenter electricity use, 2016–2020
    /// ([`constants::FACEBOOK_DC_ELECTRICITY_MWH`]).
    pub fn facebook_published() -> ElectricityTrend {
        ElectricityTrend {
            anchors: constants::FACEBOOK_DC_ELECTRICITY_MWH
                .iter()
                .map(|&(y, m)| (y, Energy::from_megawatt_hours(m)))
                .collect(),
        }
    }

    /// The `(year, energy)` anchors.
    pub fn anchors(&self) -> &[(u32, Energy)] {
        &self.anchors
    }

    /// The mean annual growth factor across the anchors.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two anchors are recorded.
    pub fn mean_annual_growth(&self) -> f64 {
        assert!(self.anchors.len() >= 2, "need at least two anchors");
        // lint:allow(panic-discipline) at least two anchors asserted above
        let (y0, e0) = self.anchors[0];
        let (y1, e1) = self.anchors[self.anchors.len() - 1];
        (e1 / e0).powf(1.0 / (y1 - y0) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_reduction_over_two_years_is_28_5_percent() {
        let m = JevonsModel::paper_default();
        let net = m.net_power_factor(TimeSpan::from_years(2.0));
        assert!((net - 0.715).abs() < 1e-6, "net {net}");
    }

    #[test]
    fn efficiency_compounds_20_percent_per_half_year() {
        let m = JevonsModel::paper_default();
        let half_year = TimeSpan::from_days(182.625);
        assert!((m.efficiency_factor(half_year) - 0.8).abs() < 1e-9);
        assert!((m.efficiency_factor(half_year * 4.0) - 0.4096).abs() < 1e-9);
    }

    #[test]
    fn demand_grows_while_per_workload_power_falls() {
        let m = JevonsModel::paper_default();
        let t = TimeSpan::from_years(2.0);
        assert!(m.demand_factor(t) > 1.5, "demand {}", m.demand_factor(t));
        assert!(m.efficiency_factor(t) < 0.5);
    }

    #[test]
    fn series_shape_matches_fig8() {
        let m = JevonsModel::paper_default();
        let s = m.series(4);
        assert_eq!(s.len(), 5);
        // Efficiency strictly falls, demand strictly rises.
        for w in s.windows(2) {
            assert!(w[1].efficiency_factor < w[0].efficiency_factor);
            assert!(w[1].demand_factor > w[0].demand_factor);
        }
        assert!((s[4].net_power_factor - 0.715).abs() < 1e-6);
    }

    #[test]
    fn electricity_reaches_published_2020_figure() {
        let t = ElectricityTrend::facebook_published();
        let (year, e2020) = *t.anchors().last().unwrap();
        assert_eq!(year, 2020);
        assert!((e2020.as_megawatt_hours() - 7.17e6).abs() < 1.0);
    }

    #[test]
    fn electricity_grows_every_year_despite_optimization() {
        // Figure 3c + Figure 8's joint message.
        let t = ElectricityTrend::facebook_published();
        for w in t.anchors().windows(2) {
            assert!(w[1].1 > w[0].1, "electricity must rise year over year");
        }
        let g = t.mean_annual_growth();
        assert!(g > 1.3 && g < 1.5, "annual growth {g}");
    }

    #[test]
    fn jevons_net_can_still_grow_with_fast_demand() {
        // If demand doubles per period while efficiency only gains 20%,
        // net power rises — the paradox in its strong form.
        let m = JevonsModel::new(0.8, 2.0, TimeSpan::from_years(0.5));
        assert!(m.net_power_factor(TimeSpan::from_years(2.0)) > 1.0);
    }
}
