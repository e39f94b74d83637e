//! Power Usage Effectiveness (PUE) of a datacenter.
//!
//! PUE is the ratio of total facility energy to IT-equipment energy. The paper
//! reports Facebook's fleet PUE as ~1.10, about 40 % better than small,
//! typical datacenters (≈1.5–1.6, industry average ~1.57 in 2021).

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::{Error, Result};
use crate::units::Energy;

/// A validated PUE value (≥ 1.0).
///
/// ```rust
/// use sustain_core::pue::Pue;
/// use sustain_core::units::Energy;
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let pue = Pue::new(1.1)?;
/// let facility = pue.facility_energy(Energy::from_kilowatt_hours(100.0));
/// assert!((facility.as_kilowatt_hours() - 110.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Pue(f64);

impl Pue {
    /// The theoretical optimum: every joule goes to IT equipment.
    pub const IDEAL: Pue = Pue(1.0);

    /// Facebook's hyperscale fleet PUE reported in the paper (~1.10).
    pub const HYPERSCALE: Pue = Pue(1.10);

    /// Creates a PUE, validating it is finite and at least 1.0.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidPue`] if `value < 1.0` or non-finite.
    pub fn new(value: f64) -> Result<Pue> {
        if !value.is_finite() || value < 1.0 {
            return Err(Error::InvalidPue(value));
        }
        Ok(Pue(value))
    }

    /// The raw ratio.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Total facility energy needed to deliver `it_energy` to IT equipment.
    pub fn facility_energy(&self, it_energy: Energy) -> Energy {
        it_energy * self.0
    }
}

impl Default for Pue {
    fn default() -> Pue {
        Pue::IDEAL
    }
}

impl fmt::Display for Pue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PUE {:.2}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_lower_bound() {
        assert!(Pue::new(0.99).is_err());
        assert!(Pue::new(f64::NAN).is_err());
        assert!(Pue::new(1.0).is_ok());
        assert!(Pue::new(2.5).is_ok());
    }

    #[test]
    fn facility_energy_scales_it_energy() {
        let pue = Pue::new(1.5).unwrap();
        let it = Energy::from_kilowatt_hours(10.0);
        assert!((pue.facility_energy(it).as_kilowatt_hours() - 15.0).abs() < 1e-9);
        let it = Energy::from_joules(123.0);
        assert_eq!(Pue::IDEAL.facility_energy(it), it);
    }

    #[test]
    fn display() {
        assert_eq!(Pue::HYPERSCALE.to_string(), "PUE 1.10");
    }
}
