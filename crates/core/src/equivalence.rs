//! EPA-style equivalences for communicating carbon footprints.
//!
//! The paper cites the EPA greenhouse-gas equivalencies calculator to translate
//! Meena's training footprint into "242,231 miles driven by an average
//! passenger vehicle". This module provides those translations so reports can
//! speak in human units.
//!
//! Factors (EPA, ~2021):
//! * passenger vehicle: 404 g CO₂e per mile; 4.6 t CO₂e per vehicle-year
//! * US home electricity: ~7.5 t CO₂e per home-year (market mix)
//! * smartphone charge: 8.22 g CO₂e
//! * one-way economy transatlantic flight (per passenger): ~500 kg CO₂e
//! * urban tree seedling grown 10 years: 60 kg CO₂e sequestered

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::units::Co2e;

/// Grams of CO₂e emitted per mile by an average US passenger vehicle.
pub const GRAMS_PER_VEHICLE_MILE: f64 = 404.0;
/// Tonnes of CO₂e per average passenger vehicle per year.
pub const TONNES_PER_VEHICLE_YEAR: f64 = 4.6;
/// Tonnes of CO₂e per average US home's electricity per year.
pub const TONNES_PER_HOME_YEAR: f64 = 7.5;
/// Grams of CO₂e per smartphone charge.
pub const GRAMS_PER_SMARTPHONE_CHARGE: f64 = 8.22;
/// Kilograms of CO₂e per one-way economy transatlantic flight, per passenger.
pub const KG_PER_TRANSATLANTIC_FLIGHT: f64 = 500.0;
/// Kilograms of CO₂e sequestered by an urban tree seedling grown for 10 years.
pub const KG_PER_TREE_SEEDLING_10Y: f64 = 60.0;

/// Human-scale translations of a CO₂e quantity.
///
/// ```rust
/// use sustain_core::equivalence::Equivalences;
/// use sustain_core::units::Co2e;
///
/// // Meena's training footprint (~96.4 t CO2e) ≈ 240k vehicle-miles.
/// let eq = Equivalences::of(Co2e::from_tonnes(96.4));
/// assert!(eq.vehicle_miles > 230_000.0 && eq.vehicle_miles < 250_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Equivalences {
    /// Miles driven by an average passenger vehicle.
    pub vehicle_miles: f64,
    /// Average passenger vehicles driven for one year.
    pub vehicle_years: f64,
    /// Average US homes' electricity use for one year.
    pub home_years: f64,
    /// Smartphone charges.
    pub smartphone_charges: f64,
    /// One-way economy transatlantic flights (per passenger).
    pub transatlantic_flights: f64,
    /// Tree seedlings grown for 10 years needed to sequester it.
    pub tree_seedlings_10y: f64,
}

impl Equivalences {
    /// Computes all equivalences of a CO₂e amount.
    pub fn of(co2: Co2e) -> Equivalences {
        Equivalences {
            vehicle_miles: co2.as_grams() / GRAMS_PER_VEHICLE_MILE,
            vehicle_years: co2.as_tonnes() / TONNES_PER_VEHICLE_YEAR,
            home_years: co2.as_tonnes() / TONNES_PER_HOME_YEAR,
            smartphone_charges: co2.as_grams() / GRAMS_PER_SMARTPHONE_CHARGE,
            transatlantic_flights: co2.as_kilograms() / KG_PER_TRANSATLANTIC_FLIGHT,
            tree_seedlings_10y: co2.as_kilograms() / KG_PER_TREE_SEEDLING_10Y,
        }
    }
}

impl fmt::Display for Equivalences {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "≈ {:.0} vehicle-miles, {:.1} home-years, {:.0} flights",
            self.vehicle_miles, self.home_years, self.transatlantic_flights
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meena_matches_paper_equivalence() {
        // Paper: Meena training ≈ 242,231 vehicle-miles. At 404 g/mile that's
        // ~97.9 t CO2e; Patterson et al. report 96.4 t. Accept the band.
        let eq = Equivalences::of(Co2e::from_tonnes(96.4));
        assert!(
            (eq.vehicle_miles - 242_231.0).abs() / 242_231.0 < 0.05,
            "got {} miles",
            eq.vehicle_miles
        );
    }

    #[test]
    fn zero_is_zero_everywhere() {
        let eq = Equivalences::of(Co2e::ZERO);
        assert_eq!(eq.vehicle_miles, 0.0);
        assert_eq!(eq.smartphone_charges, 0.0);
        assert_eq!(eq.tree_seedlings_10y, 0.0);
    }

    #[test]
    fn magnitudes_are_sensible() {
        let eq = Equivalences::of(Co2e::from_tonnes(4.6));
        assert!((eq.vehicle_years - 1.0).abs() < 1e-9);
        let eq = Equivalences::of(Co2e::from_tonnes(7.5));
        assert!((eq.home_years - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_is_compact() {
        let text = Equivalences::of(Co2e::from_tonnes(1.0)).to_string();
        assert!(text.contains("vehicle-miles"));
    }
}
