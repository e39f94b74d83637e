//! Intermittent renewable generation and the time-varying grid intensity it
//! induces (§IV-C).
//!
//! "As the renewable energy proportion in the electricity grid increases,
//! fluctuations in energy generation will increase due to the intermittent
//! nature of renewable energy sources." [`SolarTrace`] models that
//! intermittency; [`VariableIntensity`] converts instantaneous renewable
//! share into the grid carbon-intensity signal that carbon-aware schedulers
//! exploit.

use serde::{Deserialize, Serialize};

use sustain_core::intensity::CarbonIntensity;
use sustain_core::units::{Fraction, Power, TimeSpan};

/// Solar: a half-sine between 06:00 and 18:00 local, zero at night.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolarTrace {
    capacity: Power,
}

impl SolarTrace {
    /// Creates a solar farm with the given nameplate capacity.
    pub fn new(capacity: Power) -> SolarTrace {
        SolarTrace { capacity }
    }

    /// Instantaneous output at time `t` (t = 0 is local midnight).
    pub fn output_at(&self, t: TimeSpan) -> Power {
        let hour = t.as_hours().rem_euclid(24.0);
        if !(6.0..18.0).contains(&hour) {
            return Power::ZERO;
        }
        let phase = (hour - 6.0) / 12.0 * std::f64::consts::PI;
        self.capacity * phase.sin()
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
    sources: Vec<SolarTrace>,
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
    pub fn add_source(&mut self, source: SolarTrace) -> &mut VariableIntensity {
        self.sources.push(source);
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
        grid.add_source(SolarTrace::new(Power::from_megawatts(40.0)));
        let noon = grid.renewable_output_at(TimeSpan::from_hours(12.0));
        assert!(
            (noon.as_megawatts() - 70.0).abs() < 1e-9,
            "both farms at noon"
        );
    }
}
