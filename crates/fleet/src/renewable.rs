//! Intermittent renewable generation and the time-varying grid intensity it
//! induces (§IV-C).
//!
//! "As the renewable energy proportion in the electricity grid increases,
//! fluctuations in energy generation will increase due to the intermittent
//! nature of renewable energy sources." [`SolarTrace`] and [`WindTrace`] model
//! that intermittency; [`VariableIntensity`] converts instantaneous renewable
//! share into the grid carbon-intensity signal that carbon-aware schedulers
//! exploit.

use serde::{Deserialize, Serialize};

use sustain_core::intensity::CarbonIntensity;
use sustain_core::units::{Fraction, Power, TimeSpan};

/// A source of time-varying generation.
pub trait GenerationTrace: std::fmt::Debug {
    /// Instantaneous output at time `t` (t = 0 is local midnight).
    fn output_at(&self, t: TimeSpan) -> Power;

    /// Nameplate capacity.
    fn capacity(&self) -> Power;

    /// Capacity factor at `t`.
    fn capacity_factor_at(&self, t: TimeSpan) -> Fraction {
        if self.capacity().is_zero() {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.output_at(t) / self.capacity())
    }
}

/// Solar: a half-sine between 06:00 and 18:00 local, zero at night, with an
/// optional seasonal/cloud derating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolarTrace {
    capacity: Power,
    derate: Fraction,
}

impl SolarTrace {
    /// Creates a solar farm with the given nameplate capacity.
    pub fn new(capacity: Power) -> SolarTrace {
        SolarTrace {
            capacity,
            derate: Fraction::ONE,
        }
    }

    /// Applies a constant derating (clouds/season).
    pub fn with_derate(mut self, derate: Fraction) -> SolarTrace {
        self.derate = derate;
        self
    }
}

impl GenerationTrace for SolarTrace {
    fn output_at(&self, t: TimeSpan) -> Power {
        let hour = t.as_hours().rem_euclid(24.0);
        if !(6.0..18.0).contains(&hour) {
            return Power::ZERO;
        }
        let phase = (hour - 6.0) / 12.0 * std::f64::consts::PI;
        self.capacity * (phase.sin() * self.derate.value())
    }

    fn capacity(&self) -> Power {
        self.capacity
    }
}

/// Wind: a mean capacity factor modulated by two incommensurate sinusoids —
/// deterministic, but irregular on the daily scale like real wind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindTrace {
    capacity: Power,
    mean_cf: Fraction,
    phase: f64,
}

impl WindTrace {
    /// Creates a wind farm with the given capacity and mean capacity factor.
    pub fn new(capacity: Power, mean_cf: Fraction) -> WindTrace {
        WindTrace {
            capacity,
            mean_cf,
            phase: 0.0,
        }
    }
}

impl GenerationTrace for WindTrace {
    fn output_at(&self, t: TimeSpan) -> Power {
        let h = t.as_hours();
        let swing = 0.22 * (2.0 * std::f64::consts::PI * h / 37.0 + self.phase).sin()
            + 0.13 * (2.0 * std::f64::consts::PI * h / 13.0 + 1.7 + self.phase).sin();
        let cf = (self.mean_cf.value() + swing).clamp(0.0, 1.0);
        self.capacity * cf
    }

    fn capacity(&self) -> Power {
        self.capacity
    }
}

/// The grid's effective carbon intensity as a function of renewable supply:
/// at zero renewable output the grid runs at `dirty`; when renewables cover
/// demand entirely it reaches `clean` (the residual life-cycle intensity).
#[derive(Debug)]
pub struct VariableIntensity {
    dirty: CarbonIntensity,
    clean: CarbonIntensity,
    demand: Power,
    sources: Vec<Box<dyn GenerationTrace + Send + Sync>>,
}

impl VariableIntensity {
    /// Creates a signal for a grid with the given fossil intensity, clean
    /// floor, and constant demand.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not positive.
    pub fn new(dirty: CarbonIntensity, clean: CarbonIntensity, demand: Power) -> VariableIntensity {
        assert!(demand.as_watts() > 0.0, "demand must be positive");
        VariableIntensity {
            dirty,
            clean,
            demand,
            sources: Vec::new(),
        }
    }

    /// Adds a renewable source.
    pub fn add_source(
        &mut self,
        source: impl GenerationTrace + Send + Sync + 'static,
    ) -> &mut VariableIntensity {
        self.sources.push(Box::new(source));
        self
    }

    /// Total renewable output at `t`.
    pub fn renewable_output_at(&self, t: TimeSpan) -> Power {
        self.sources
            .iter()
            .map(|s| s.output_at(t))
            .fold(Power::ZERO, |a, b| a + b)
    }

    /// Fraction of demand covered by renewables at `t` (capped at 1).
    pub fn renewable_share_at(&self, t: TimeSpan) -> Fraction {
        Fraction::saturating(self.renewable_output_at(t) / self.demand)
    }

    /// The effective grid intensity at `t`.
    pub fn intensity_at(&self, t: TimeSpan) -> CarbonIntensity {
        let share = self.renewable_share_at(t).value();
        CarbonIntensity::from_grams_per_kwh(
            self.clean.as_grams_per_kwh()
                + (self.dirty.as_grams_per_kwh() - self.clean.as_grams_per_kwh()) * (1.0 - share),
        )
    }

    /// Samples the intensity at `steps`+1 points over `[0, horizon]`.
    pub fn intensity_series(
        &self,
        horizon: TimeSpan,
        steps: usize,
    ) -> Vec<(TimeSpan, CarbonIntensity)> {
        (0..=steps)
            .map(|i| {
                let t = horizon * (i as f64 / steps.max(1) as f64);
                (t, self.intensity_at(t))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solar() -> SolarTrace {
        SolarTrace::new(Power::from_megawatts(100.0))
    }

    #[test]
    fn solar_is_zero_at_night_and_peaks_at_noon() {
        let s = solar();
        assert_eq!(s.output_at(TimeSpan::from_hours(0.0)), Power::ZERO);
        assert_eq!(s.output_at(TimeSpan::from_hours(5.9)), Power::ZERO);
        assert_eq!(s.output_at(TimeSpan::from_hours(19.0)), Power::ZERO);
        let noon = s.output_at(TimeSpan::from_hours(12.0));
        assert!((noon.as_megawatts() - 100.0).abs() < 1e-9);
        let morning = s.output_at(TimeSpan::from_hours(8.0));
        assert!(morning > Power::ZERO && morning < noon);
    }

    #[test]
    fn solar_repeats_daily() {
        let s = solar();
        let a = s.output_at(TimeSpan::from_hours(10.0));
        let b = s.output_at(TimeSpan::from_hours(34.0));
        assert!((a.as_watts() - b.as_watts()).abs() < 1e-6);
    }

    #[test]
    fn solar_derate_scales_output() {
        let s = solar().with_derate(Fraction::saturating(0.5));
        let noon = s.output_at(TimeSpan::from_hours(12.0));
        assert!((noon.as_megawatts() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn wind_fluctuates_but_stays_in_bounds() {
        let w = WindTrace::new(Power::from_megawatts(50.0), Fraction::saturating(0.35));
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        for h in 0..200 {
            let cf = w.capacity_factor_at(TimeSpan::from_hours(h as f64)).value();
            min = min.min(cf);
            max = max.max(cf);
            assert!((0.0..=1.0).contains(&cf));
        }
        assert!(max - min > 0.2, "wind must actually fluctuate");
    }

    #[test]
    fn intensity_drops_when_sun_shines() {
        let mut grid = VariableIntensity::new(
            CarbonIntensity::from_grams_per_kwh(600.0),
            CarbonIntensity::from_grams_per_kwh(30.0),
            Power::from_megawatts(100.0),
        );
        grid.add_source(solar());
        let night = grid.intensity_at(TimeSpan::from_hours(2.0));
        let noon = grid.intensity_at(TimeSpan::from_hours(12.0));
        assert!((night.as_grams_per_kwh() - 600.0).abs() < 1e-9);
        assert!((noon.as_grams_per_kwh() - 30.0).abs() < 1e-9);
        assert!((grid.renewable_share_at(TimeSpan::from_hours(12.0)).value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn renewable_share_caps_at_one() {
        let mut grid = VariableIntensity::new(
            CarbonIntensity::from_grams_per_kwh(600.0),
            CarbonIntensity::from_grams_per_kwh(30.0),
            Power::from_megawatts(10.0),
        );
        grid.add_source(solar()); // 100 MW capacity over 10 MW demand
        assert_eq!(
            grid.renewable_share_at(TimeSpan::from_hours(12.0)),
            Fraction::ONE
        );
    }

    #[test]
    fn multiple_sources_stack() {
        let mut grid = VariableIntensity::new(
            CarbonIntensity::from_grams_per_kwh(600.0),
            CarbonIntensity::from_grams_per_kwh(30.0),
            Power::from_megawatts(100.0),
        );
        grid.add_source(SolarTrace::new(Power::from_megawatts(30.0)));
        grid.add_source(WindTrace::new(
            Power::from_megawatts(40.0),
            Fraction::saturating(0.4),
        ));
        let noon = grid.renewable_output_at(TimeSpan::from_hours(12.0));
        assert!(noon > Power::from_megawatts(30.0), "solar + wind at noon");
    }

    #[test]
    fn intensity_series_has_diurnal_structure() {
        let mut grid = VariableIntensity::new(
            CarbonIntensity::from_grams_per_kwh(600.0),
            CarbonIntensity::from_grams_per_kwh(30.0),
            Power::from_megawatts(200.0),
        );
        grid.add_source(solar());
        let series = grid.intensity_series(TimeSpan::from_hours(24.0), 24);
        assert_eq!(series.len(), 25);
        let noon = series[12].1;
        let midnight = series[0].1;
        assert!(noon < midnight);
    }
}
