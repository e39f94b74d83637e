//! Carbon intensity of energy: sources, grid mixes, and accounting bases.
//!
//! The operational footprint of a workload is `energy × PUE × carbon intensity`.
//! Which intensity to use is a methodological choice the paper is explicit about:
//!
//! * **Location-based** — the average intensity of the grid the datacenter draws
//!   from (what Figure 4/5 report).
//! * **Market-based** — intensity after contractual instruments (power purchase
//!   agreements, renewable-energy certificates). Facebook's 100 % renewable
//!   matching makes the market-based operational footprint ≈ 0, which is exactly
//!   why Figure 5 and 9 show embodied carbon dominating under carbon-free energy.
//!
//! Default source intensities are IPCC AR5 life-cycle medians (g CO₂e/kWh).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Mul;

use crate::error::{Error, Result};
use crate::units::{Co2e, Energy};

/// Carbon intensity of delivered energy, in grams of CO₂e per kilowatt-hour.
///
/// ```rust
/// use sustain_core::intensity::CarbonIntensity;
/// use sustain_core::units::Energy;
///
/// let grid = CarbonIntensity::from_grams_per_kwh(429.0);
/// let emissions = grid * Energy::from_megawatt_hours(1.0);
/// assert!((emissions.as_kilograms() - 429.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct CarbonIntensity(f64);

impl CarbonIntensity {
    /// Zero-carbon energy (the idealized "green" scenario).
    pub const ZERO: CarbonIntensity = CarbonIntensity(0.0);

    /// US grid average, 2021 (EPA eGRID): ~429 g CO₂e/kWh.
    pub const US_AVERAGE_2021: CarbonIntensity = CarbonIntensity(429.0);

    /// World grid average, ~2021 (IEA): ~475 g CO₂e/kWh.
    pub const WORLD_AVERAGE_2021: CarbonIntensity = CarbonIntensity(475.0);

    /// Creates an intensity from grams of CO₂e per kWh.
    pub fn from_grams_per_kwh(g_per_kwh: f64) -> CarbonIntensity {
        CarbonIntensity(g_per_kwh)
    }

    /// The intensity in grams of CO₂e per kWh.
    pub fn as_grams_per_kwh(&self) -> f64 {
        self.0
    }

    /// Emissions produced by consuming `energy` at this intensity.
    pub fn emissions(&self, energy: Energy) -> Co2e {
        Co2e::from_grams(self.0 * energy.as_kilowatt_hours())
    }
}

impl Mul<Energy> for CarbonIntensity {
    type Output = Co2e;
    fn mul(self, rhs: Energy) -> Co2e {
        self.emissions(rhs)
    }
}

impl Mul<CarbonIntensity> for Energy {
    type Output = Co2e;
    fn mul(self, rhs: CarbonIntensity) -> Co2e {
        rhs.emissions(self)
    }
}

impl fmt::Display for CarbonIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} gCO2e/kWh", self.0)
    }
}

/// A primary energy source with a published life-cycle carbon intensity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EnergySource {
    /// Hard coal.
    Coal,
    /// Natural gas (combined cycle).
    Gas,
    /// Petroleum.
    Oil,
    /// Nuclear fission.
    Nuclear,
    /// Hydroelectric.
    Hydro,
    /// Onshore/offshore wind.
    Wind,
    /// Utility-scale photovoltaic solar.
    Solar,
    /// Biomass.
    Biomass,
    /// Geothermal.
    Geothermal,
}

impl EnergySource {
    /// All sources, in declaration order.
    pub const ALL: [EnergySource; 9] = [
        EnergySource::Coal,
        EnergySource::Gas,
        EnergySource::Oil,
        EnergySource::Nuclear,
        EnergySource::Hydro,
        EnergySource::Wind,
        EnergySource::Solar,
        EnergySource::Biomass,
        EnergySource::Geothermal,
    ];

    /// IPCC AR5 median life-cycle carbon intensity of this source.
    pub fn intensity(&self) -> CarbonIntensity {
        let g = match self {
            EnergySource::Coal => 820.0,
            EnergySource::Gas => 490.0,
            EnergySource::Oil => 650.0,
            EnergySource::Nuclear => 12.0,
            EnergySource::Hydro => 24.0,
            EnergySource::Wind => 11.0,
            EnergySource::Solar => 41.0,
            EnergySource::Biomass => 230.0,
            EnergySource::Geothermal => 38.0,
        };
        CarbonIntensity::from_grams_per_kwh(g)
    }
}

impl fmt::Display for EnergySource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EnergySource::Coal => "coal",
            EnergySource::Gas => "gas",
            EnergySource::Oil => "oil",
            EnergySource::Nuclear => "nuclear",
            EnergySource::Hydro => "hydro",
            EnergySource::Wind => "wind",
            EnergySource::Solar => "solar",
            EnergySource::Biomass => "biomass",
            EnergySource::Geothermal => "geothermal",
        };
        f.write_str(name)
    }
}

/// A weighted blend of energy sources, e.g. a regional grid.
///
/// Shares must sum to 1 (within 1e-6); the blended intensity is the
/// share-weighted mean of the source intensities.
///
/// ```rust
/// use sustain_core::intensity::{EnergyMix, EnergySource};
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let mix = EnergyMix::new(vec![
///     (EnergySource::Gas, 0.4),
///     (EnergySource::Coal, 0.2),
///     (EnergySource::Wind, 0.2),
///     (EnergySource::Nuclear, 0.2),
/// ])?;
/// let i = mix.intensity().as_grams_per_kwh();
/// assert!(i > 300.0 && i < 400.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMix {
    components: Vec<(EnergySource, f64)>,
}

impl EnergyMix {
    /// Creates a mix from `(source, share)` pairs.
    ///
    /// # Errors
    ///
    /// * [`Error::Empty`] if no components are given.
    /// * [`Error::FractionOutOfRange`] if any share is outside `[0, 1]`.
    /// * [`Error::MixNotNormalized`] if shares do not sum to 1 within 1e-6.
    pub fn new(components: Vec<(EnergySource, f64)>) -> Result<EnergyMix> {
        if components.is_empty() {
            return Err(Error::Empty("energy mix"));
        }
        let mut sum = 0.0;
        for &(_, share) in &components {
            if !share.is_finite() || !(0.0..=1.0).contains(&share) {
                return Err(Error::FractionOutOfRange {
                    name: "energy mix share",
                    value: share,
                });
            }
            sum += share;
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(Error::MixNotNormalized { sum });
        }
        Ok(EnergyMix { components })
    }

    /// The component `(source, share)` pairs.
    pub fn components(&self) -> &[(EnergySource, f64)] {
        &self.components
    }

    /// The blended carbon intensity of the mix.
    pub fn intensity(&self) -> CarbonIntensity {
        let g = self
            .components
            .iter()
            .map(|(s, share)| s.intensity().as_grams_per_kwh() * share)
            .sum();
        CarbonIntensity::from_grams_per_kwh(g)
    }
}

/// The GHG-protocol basis for an operational-emissions number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AccountingBasis {
    /// Average intensity of the local grid — what Figures 4/5 report.
    #[default]
    LocationBased,
    /// Intensity after contractual renewable matching and offsets.
    MarketBased,
}

impl fmt::Display for AccountingBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountingBasis::LocationBased => f.write_str("location-based"),
            AccountingBasis::MarketBased => f.write_str("market-based"),
        }
    }
}

/// Well-known grid regions with representative mixes.
///
/// These are illustrative presets, not authoritative grid data; the paper's
/// analyses only require a plausible spread of intensities across regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum GridRegion {
    /// US national average mix.
    UsAverage,
    /// Hydro-heavy US Pacific Northwest.
    UsNorthwest,
    /// Coal-heavy US Midwest.
    UsMidwest,
    /// Nuclear-heavy France.
    France,
    /// Wind-heavy Denmark.
    Denmark,
    /// Coal-heavy India.
    India,
    /// Hydro-dominated Norway/Sweden (near carbon-free).
    Nordic,
}

impl GridRegion {
    /// All regions, in declaration order.
    pub const ALL: [GridRegion; 7] = [
        GridRegion::UsAverage,
        GridRegion::UsNorthwest,
        GridRegion::UsMidwest,
        GridRegion::France,
        GridRegion::Denmark,
        GridRegion::India,
        GridRegion::Nordic,
    ];

    /// The representative energy mix of the region.
    pub fn mix(&self) -> EnergyMix {
        use EnergySource::*;
        let parts: &[(EnergySource, f64)] = match self {
            GridRegion::UsAverage => &[
                (Gas, 0.38),
                (Coal, 0.22),
                (Nuclear, 0.19),
                (Wind, 0.09),
                (Hydro, 0.06),
                (Solar, 0.04),
                (Biomass, 0.02),
            ],
            GridRegion::UsNorthwest => &[
                (Hydro, 0.55),
                (Gas, 0.20),
                (Wind, 0.12),
                (Nuclear, 0.08),
                (Coal, 0.05),
            ],
            GridRegion::UsMidwest => &[(Coal, 0.45), (Gas, 0.25), (Wind, 0.15), (Nuclear, 0.15)],
            GridRegion::France => &[
                (Nuclear, 0.69),
                (Hydro, 0.11),
                (Gas, 0.07),
                (Wind, 0.08),
                (Solar, 0.03),
                (Coal, 0.02),
            ],
            GridRegion::Denmark => &[
                (Wind, 0.55),
                (Biomass, 0.20),
                (Gas, 0.15),
                (Solar, 0.05),
                (Coal, 0.05),
            ],
            GridRegion::India => &[
                (Coal, 0.72),
                (Hydro, 0.10),
                (Wind, 0.05),
                (Solar, 0.05),
                (Gas, 0.05),
                (Nuclear, 0.03),
            ],
            GridRegion::Nordic => &[(Hydro, 0.70), (Nuclear, 0.18), (Wind, 0.12)],
        };
        // lint:allow(panic-discipline) preset shares above are normalized by construction
        EnergyMix::new(parts.to_vec()).expect("region presets are normalized")
    }

    /// The blended intensity of the region's mix.
    pub fn intensity(&self) -> CarbonIntensity {
        self.mix().intensity()
    }
}

impl fmt::Display for GridRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GridRegion::UsAverage => "us-average",
            GridRegion::UsNorthwest => "us-northwest",
            GridRegion::UsMidwest => "us-midwest",
            GridRegion::France => "france",
            GridRegion::Denmark => "denmark",
            GridRegion::India => "india",
            GridRegion::Nordic => "nordic",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_times_energy() {
        let c = CarbonIntensity::from_grams_per_kwh(100.0) * Energy::from_kilowatt_hours(5.0);
        assert_eq!(c, Co2e::from_grams(500.0));
        // Commutative form.
        let c2 = Energy::from_kilowatt_hours(5.0) * CarbonIntensity::from_grams_per_kwh(100.0);
        assert_eq!(c, c2);
    }

    #[test]
    fn zero_intensity_means_zero_emissions() {
        assert_eq!(
            CarbonIntensity::ZERO.emissions(Energy::from_megawatt_hours(1000.0)),
            Co2e::ZERO
        );
    }

    #[test]
    fn source_intensities_ordered_sensibly() {
        // Coal is the dirtiest, wind the cleanest of the presets.
        for s in EnergySource::ALL {
            assert!(s.intensity() <= EnergySource::Coal.intensity());
            assert!(s.intensity() >= EnergySource::Wind.intensity());
        }
    }

    #[test]
    fn mix_requires_normalized_shares() {
        let err =
            EnergyMix::new(vec![(EnergySource::Coal, 0.5), (EnergySource::Gas, 0.2)]).unwrap_err();
        assert!(matches!(err, Error::MixNotNormalized { .. }));
        assert!(matches!(
            EnergyMix::new(vec![]).unwrap_err(),
            Error::Empty(_)
        ));
        assert!(matches!(
            EnergyMix::new(vec![(EnergySource::Coal, 1.5), (EnergySource::Gas, -0.5)]).unwrap_err(),
            Error::FractionOutOfRange { .. }
        ));
    }

    #[test]
    fn blended_intensity_is_weighted_mean() {
        let mix =
            EnergyMix::new(vec![(EnergySource::Coal, 0.5), (EnergySource::Wind, 0.5)]).unwrap();
        let expect = (820.0 + 11.0) / 2.0;
        assert!((mix.intensity().as_grams_per_kwh() - expect).abs() < 1e-9);
    }

    #[test]
    fn region_presets_are_valid_and_spread() {
        for region in GridRegion::ALL {
            let mix = region.mix();
            let sum: f64 = mix.components().iter().map(|(_, s)| s).sum();
            assert!((sum - 1.0).abs() < 1e-6, "{region} not normalized");
        }
        // Nordic is much cleaner than India.
        assert!(
            GridRegion::Nordic.intensity().as_grams_per_kwh()
                < GridRegion::India.intensity().as_grams_per_kwh() / 5.0
        );
        // US Midwest is dirtier than US average.
        assert!(GridRegion::UsMidwest.intensity() > GridRegion::UsAverage.intensity());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            CarbonIntensity::from_grams_per_kwh(429.0).to_string(),
            "429.0 gCO2e/kWh"
        );
        assert_eq!(EnergySource::Solar.to_string(), "solar");
        assert_eq!(AccountingBasis::LocationBased.to_string(), "location-based");
        assert_eq!(GridRegion::Nordic.to_string(), "nordic");
    }
}
