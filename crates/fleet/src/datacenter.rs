//! Datacenter descriptors.
//!
//! A [`DataCenter`] binds a grid region (carbon intensity), a facility PUE,
//! a power-capacity envelope, and a renewable-matching program, and produces
//! the [`OperationalAccount`] the accounting layer consumes. The paper's
//! hyperscale reference point: PUE ≈ 1.10, 100 % renewable matching.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::intensity::{CarbonIntensity, GridRegion};
use sustain_core::operational::OperationalAccount;
use sustain_core::pue::Pue;
use sustain_core::units::{Fraction, Power};

/// A datacenter: location, efficiency, capacity and energy program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataCenter {
    name: String,
    region: GridRegion,
    pue: Pue,
    it_capacity: Power,
    renewable_matching: Fraction,
}

impl DataCenter {
    /// Creates a datacenter.
    pub fn new(
        name: impl Into<String>,
        region: GridRegion,
        pue: Pue,
        it_capacity: Power,
    ) -> DataCenter {
        DataCenter {
            name: name.into(),
            region,
            pue,
            it_capacity,
            renewable_matching: Fraction::ZERO,
        }
    }

    /// A hyperscale facility per the paper: PUE 1.10, 100 % renewable matching.
    pub fn hyperscale(
        name: impl Into<String>,
        region: GridRegion,
        it_capacity: Power,
    ) -> DataCenter {
        DataCenter {
            name: name.into(),
            region,
            pue: Pue::HYPERSCALE,
            it_capacity,
            renewable_matching: Fraction::ONE,
        }
    }

    /// The facility PUE.
    pub fn pue(&self) -> Pue {
        self.pue
    }

    /// The location-based grid intensity.
    pub fn grid_intensity(&self) -> CarbonIntensity {
        self.region.intensity()
    }

    /// The renewable-matching fraction.
    pub fn renewable_matching(&self) -> Fraction {
        self.renewable_matching
    }

    /// The operational account for workloads placed here.
    pub fn account(&self) -> OperationalAccount {
        OperationalAccount::new(self.grid_intensity(), self.pue)
            .with_renewable_matching(self.renewable_matching)
    }
}

impl fmt::Display for DataCenter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {}, {} IT)",
            self.name, self.region, self.pue, self.it_capacity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::intensity::AccountingBasis;
    use sustain_core::units::Energy;

    #[test]
    fn hyperscale_preset_matches_paper() {
        let dc = DataCenter::hyperscale(
            "prineville",
            GridRegion::UsAverage,
            Power::from_megawatts(30.0),
        );
        assert_eq!(dc.pue(), Pue::HYPERSCALE);
        assert_eq!(dc.renewable_matching(), Fraction::ONE);
        // Market-based emissions are zero with full matching.
        let acct = dc.account();
        assert!(acct
            .emissions(
                Energy::from_megawatt_hours(1.0),
                AccountingBasis::MarketBased
            )
            .is_zero());
        assert!(!acct
            .emissions(
                Energy::from_megawatt_hours(1.0),
                AccountingBasis::LocationBased
            )
            .is_zero());
    }

    #[test]
    fn region_determines_intensity() {
        let cap = Power::from_megawatts(1.0);
        let nordic = DataCenter::new("n", GridRegion::Nordic, Pue::HYPERSCALE, cap);
        let india = DataCenter::new("i", GridRegion::India, Pue::HYPERSCALE, cap);
        assert!(nordic.grid_intensity() < india.grid_intensity());
        let e = Energy::from_megawatt_hours(10.0);
        assert!(nordic.account().location_based(e) < india.account().location_based(e));
    }

    #[test]
    fn display_contains_name_and_region() {
        let dc = DataCenter::new(
            "dc1",
            GridRegion::France,
            Pue::HYPERSCALE,
            Power::from_megawatts(5.0),
        );
        let s = dc.to_string();
        assert!(s.contains("dc1") && s.contains("france"));
    }
}
