//! Operational-carbon accounting: energy × PUE × carbon intensity, with
//! renewable matching.
//!
//! This module implements the paper's operational methodology (§III-A):
//! measure total IT energy, apply a datacenter PUE (1.1 for the Facebook fleet),
//! and convert with a location-based carbon intensity. Market-based figures
//! subtract contractually-matched renewable energy.

use serde::{Deserialize, Serialize};

use crate::intensity::{AccountingBasis, CarbonIntensity};
use crate::pue::Pue;
use crate::units::{Co2e, Energy, Fraction};

/// An operational-emissions calculator for one facility/grid configuration.
///
/// ```rust
/// use sustain_core::operational::OperationalAccount;
/// use sustain_core::intensity::CarbonIntensity;
/// use sustain_core::pue::Pue;
/// use sustain_core::units::{Energy, Fraction};
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let account = OperationalAccount::new(CarbonIntensity::from_grams_per_kwh(400.0), Pue::new(1.1)?)
///     .with_renewable_matching(Fraction::new(1.0)?);
/// let it = Energy::from_megawatt_hours(1.0);
/// // Location-based: 1 MWh × 1.1 × 400 g/kWh = 440 kg.
/// assert!((account.location_based(it).as_kilograms() - 440.0).abs() < 1e-6);
/// // Market-based with 100% matching: zero.
/// assert!(account.market_based(it).is_zero());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperationalAccount {
    intensity: CarbonIntensity,
    pue: Pue,
    renewable_matching: Fraction,
}

impl OperationalAccount {
    /// Creates an account for a grid intensity and facility PUE, with no
    /// renewable matching or offsets.
    pub fn new(intensity: CarbonIntensity, pue: Pue) -> OperationalAccount {
        OperationalAccount {
            intensity,
            pue,
            renewable_matching: Fraction::ZERO,
        }
    }

    /// Sets the fraction of consumption matched with contractual renewable
    /// energy (PPAs/RECs). Facebook's program reaches 100 %.
    pub fn with_renewable_matching(mut self, fraction: Fraction) -> OperationalAccount {
        self.renewable_matching = fraction;
        self
    }

    /// The configured facility PUE.
    pub fn pue(&self) -> Pue {
        self.pue
    }

    /// The configured renewable-matching fraction.
    pub fn renewable_matching(&self) -> Fraction {
        self.renewable_matching
    }

    /// Total facility energy (IT energy grossed up by PUE).
    pub fn facility_energy(&self, it_energy: Energy) -> Energy {
        self.pue.facility_energy(it_energy)
    }

    /// Location-based operational emissions for an IT energy consumption.
    pub fn location_based(&self, it_energy: Energy) -> Co2e {
        self.intensity.emissions(self.facility_energy(it_energy))
    }

    /// Market-based operational emissions: location-based, minus the matched
    /// renewable share.
    pub fn market_based(&self, it_energy: Energy) -> Co2e {
        self.location_based(it_energy) * self.renewable_matching.complement().value()
    }

    /// Emissions under the requested basis.
    pub fn emissions(&self, it_energy: Energy, basis: AccountingBasis) -> Co2e {
        match basis {
            AccountingBasis::LocationBased => self.location_based(it_energy),
            AccountingBasis::MarketBased => self.market_based(it_energy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn account() -> OperationalAccount {
        OperationalAccount::new(
            CarbonIntensity::from_grams_per_kwh(500.0),
            Pue::new(1.2).unwrap(),
        )
    }

    #[test]
    fn location_based_applies_pue() {
        let co2 = account().location_based(Energy::from_kilowatt_hours(10.0));
        // 10 kWh × 1.2 × 500 g = 6 kg
        assert!((co2.as_kilograms() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn market_based_scales_with_matching() {
        let acct = account().with_renewable_matching(Fraction::new(0.75).unwrap());
        let it = Energy::from_kilowatt_hours(10.0);
        let loc = acct.location_based(it);
        let market = acct.market_based(it);
        assert!((market.as_grams() - loc.as_grams() * 0.25).abs() < 1e-9);
    }

    #[test]
    fn emissions_dispatches_on_basis() {
        let acct = account().with_renewable_matching(Fraction::ONE);
        let it = Energy::from_kilowatt_hours(1.0);
        assert!(acct.emissions(it, AccountingBasis::MarketBased).is_zero());
        assert!(!acct.emissions(it, AccountingBasis::LocationBased).is_zero());
    }

    #[test]
    fn zero_energy_is_zero_emissions() {
        assert!(account().location_based(Energy::ZERO).is_zero());
        assert!(account().market_based(Energy::ZERO).is_zero());
    }
}
