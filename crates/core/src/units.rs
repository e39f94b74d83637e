//! Strongly-typed physical quantities used throughout the workspace.
//!
//! Every quantity is a thin newtype over `f64` in a fixed base unit
//! (joules, watts, grams CO₂e, seconds, bytes). The newtypes exist so that the
//! compiler — not a code review — catches unit mistakes like adding megawatt-hours
//! to kilograms, the classic failure mode of carbon-accounting spreadsheets.
//!
//! Arithmetic follows physics: `Power * TimeSpan = Energy`,
//! `Energy / TimeSpan = Power`, `DataVolume / TimeSpan = DataRate`, and dividing
//! two values of the same quantity yields a dimensionless `f64`.
//!
//! ```rust
//! use sustain_core::units::{Power, TimeSpan};
//!
//! let gpu = Power::from_watts(300.0);
//! let day = TimeSpan::from_hours(24.0);
//! let energy = gpu * day;
//! assert!((energy.as_kilowatt_hours() - 7.2).abs() < 1e-9);
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::error::{Error, Result};

/// Implements the shared scalar algebra for a quantity newtype.
macro_rules! impl_quantity {
    ($ty:ident, $quantity_name:expr) => {
        impl $ty {
            /// The zero value of this quantity.
            pub const ZERO: $ty = $ty(0.0);

            /// Returns `true` if the value is exactly zero.
            pub fn is_zero(&self) -> bool {
                self.0 == 0.0
            }

            /// Returns `true` if the underlying value is finite (not NaN/∞).
            pub fn is_finite(&self) -> bool {
                self.0.is_finite()
            }

            /// Returns the smaller of two values.
            pub fn min(self, other: $ty) -> $ty {
                $ty(self.0.min(other.0))
            }

            /// Returns the larger of two values.
            pub fn max(self, other: $ty) -> $ty {
                $ty(self.0.max(other.0))
            }

            /// Returns the absolute value.
            pub fn abs(self) -> $ty {
                $ty(self.0.abs())
            }

            /// Clamps the value between `lo` and `hi`.
            pub fn clamp(self, lo: $ty, hi: $ty) -> $ty {
                $ty(self.0.clamp(lo.0, hi.0))
            }

            /// Validates that the value is finite and non-negative.
            ///
            /// # Errors
            ///
            /// Returns [`Error::NegativeQuantity`] for negative values and
            /// [`Error::NonFiniteQuantity`] for NaN/∞.
            pub fn validated(self) -> Result<$ty> {
                if !self.0.is_finite() {
                    return Err(Error::NonFiniteQuantity {
                        quantity: $quantity_name,
                    });
                }
                if self.0 < 0.0 {
                    return Err(Error::NegativeQuantity {
                        quantity: $quantity_name,
                        value: self.0,
                    });
                }
                Ok(self)
            }
        }

        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }

        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }

        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }

        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }

        impl MulAssign<f64> for $ty {
            fn mul_assign(&mut self, rhs: f64) {
                self.0 *= rhs;
            }
        }

        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }

        impl DivAssign<f64> for $ty {
            fn div_assign(&mut self, rhs: f64) {
                self.0 /= rhs;
            }
        }

        impl Div<$ty> for $ty {
            type Output = f64;
            fn div(self, rhs: $ty) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }

        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }

        impl<'a> Sum<&'a $ty> for $ty {
            fn sum<I: Iterator<Item = &'a $ty>>(iter: I) -> $ty {
                $ty(iter.map(|v| v.0).sum())
            }
        }

        impl Eq for $ty {}

        #[allow(clippy::derive_ord_xor_partial_ord)]
        impl Ord for $ty {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Approximate comparison
// ---------------------------------------------------------------------------

/// Approximate float equality with the workspace-default tolerance (`1e-9`,
/// relative).
///
/// Exact `==`/`!=` on floats is banned outside this module (`cargo xtask
/// lint`, rule `float-eq`): accounting chains accumulate rounding error, so
/// callers must state a tolerance instead of relying on bit equality.
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_eps(a, b, 1e-9)
}

/// [`approx_eq`] with an explicit tolerance, relative to the larger operand
/// magnitude (absolute near zero, so `approx_eq_eps(0.0, 1e-12, 1e-9)`
/// holds).
pub fn approx_eq_eps(a: f64, b: f64, eps: f64) -> bool {
    if a == b {
        return true; // covers equal infinities and exact matches
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= eps * scale
}

// ---------------------------------------------------------------------------
// Energy
// ---------------------------------------------------------------------------

/// An amount of energy, stored in joules.
///
/// ```rust
/// use sustain_core::units::Energy;
/// let e = Energy::from_kilowatt_hours(1.0);
/// assert_eq!(e.as_joules(), 3.6e6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

impl_quantity!(Energy, "energy");

impl Energy {
    /// Creates an energy from joules.
    ///
    /// Debug builds assert the value is finite: a NaN or infinite energy is
    /// always an upstream accounting bug, never a meaningful quantity.
    pub fn from_joules(joules: f64) -> Energy {
        debug_assert!(joules.is_finite(), "energy must be finite, got {joules} J");
        Energy(joules)
    }

    /// Creates an energy from watt-hours.
    // lint:allow(test-only-pub) (c) the units constructor ladder, kept whole
    pub fn from_watt_hours(wh: f64) -> Energy {
        Energy::from_joules(wh * 3_600.0)
    }

    /// Creates an energy from kilowatt-hours.
    pub fn from_kilowatt_hours(kwh: f64) -> Energy {
        Energy::from_joules(kwh * 3.6e6)
    }

    /// Creates an energy from megawatt-hours.
    pub fn from_megawatt_hours(mwh: f64) -> Energy {
        Energy::from_joules(mwh * 3.6e9)
    }

    /// Creates an energy from gigawatt-hours.
    // lint:allow(test-only-pub) (c) the units constructor ladder, kept whole
    pub fn from_gigawatt_hours(gwh: f64) -> Energy {
        Energy::from_joules(gwh * 3.6e12)
    }

    /// The value in joules.
    pub fn as_joules(&self) -> f64 {
        self.0
    }

    /// The value in watt-hours.
    // lint:allow(test-only-pub) (c) the units constructor ladder, kept whole
    pub fn as_watt_hours(&self) -> f64 {
        self.0 / 3_600.0
    }

    /// The value in kilowatt-hours.
    pub fn as_kilowatt_hours(&self) -> f64 {
        self.0 / 3.6e6
    }

    /// The value in megawatt-hours.
    pub fn as_megawatt_hours(&self) -> f64 {
        self.0 / 3.6e9
    }

    /// The value in gigawatt-hours.
    pub fn as_gigawatt_hours(&self) -> f64 {
        self.0 / 3.6e12
    }
}

impl Div<TimeSpan> for Energy {
    type Output = Power;
    fn div(self, rhs: TimeSpan) -> Power {
        Power(self.0 / rhs.0)
    }
}

impl Div<Power> for Energy {
    type Output = TimeSpan;
    fn div(self, rhs: Power) -> TimeSpan {
        TimeSpan(self.0 / rhs.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kwh = self.as_kilowatt_hours();
        if kwh.abs() >= 1e6 {
            write!(f, "{:.3} GWh", self.as_gigawatt_hours())
        } else if kwh.abs() >= 1e3 {
            write!(f, "{:.3} MWh", self.as_megawatt_hours())
        } else if kwh.abs() >= 1.0 {
            write!(f, "{:.3} kWh", kwh)
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} kJ", self.0 / 1e3)
        } else {
            write!(f, "{:.3} J", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Power
// ---------------------------------------------------------------------------

/// An instantaneous power draw, stored in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(f64);

impl_quantity!(Power, "power");

impl Power {
    /// Creates a power from watts.
    ///
    /// Debug builds assert the value is finite: a NaN or infinite power draw
    /// is always an upstream accounting bug, never a meaningful quantity.
    pub fn from_watts(watts: f64) -> Power {
        debug_assert!(watts.is_finite(), "power must be finite, got {watts} W");
        Power(watts)
    }

    /// Creates a power from kilowatts.
    // lint:allow(test-only-pub) (c) the units constructor ladder, kept whole
    pub fn from_kilowatts(kw: f64) -> Power {
        Power::from_watts(kw * 1e3)
    }

    /// Creates a power from megawatts.
    pub fn from_megawatts(mw: f64) -> Power {
        Power::from_watts(mw * 1e6)
    }

    /// The value in watts.
    pub fn as_watts(&self) -> f64 {
        self.0
    }

    /// The value in kilowatts.
    pub fn as_kilowatts(&self) -> f64 {
        self.0 / 1e3
    }

    /// The value in megawatts.
    pub fn as_megawatts(&self) -> f64 {
        self.0 / 1e6
    }
}

impl Mul<TimeSpan> for Power {
    type Output = Energy;
    fn mul(self, rhs: TimeSpan) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e6 {
            write!(f, "{:.3} MW", self.as_megawatts())
        } else if self.0.abs() >= 1e3 {
            write!(f, "{:.3} kW", self.as_kilowatts())
        } else {
            write!(f, "{:.3} W", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// TimeSpan
// ---------------------------------------------------------------------------

/// A span of time, stored in seconds.
///
/// A dedicated type (rather than [`std::time::Duration`]) because accounting math
/// needs fractional years, division, and negative deltas, none of which
/// `Duration` supports ergonomically.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct TimeSpan(f64);

impl_quantity!(TimeSpan, "time span");

impl TimeSpan {
    /// Seconds per (average Gregorian) year: 365.25 days.
    const SECS_PER_YEAR: f64 = 365.25 * 86_400.0;

    /// Creates a span from seconds.
    pub fn from_secs(secs: f64) -> TimeSpan {
        TimeSpan(secs)
    }

    /// Creates a span from minutes.
    pub fn from_minutes(minutes: f64) -> TimeSpan {
        TimeSpan(minutes * 60.0)
    }

    /// Creates a span from hours.
    pub fn from_hours(hours: f64) -> TimeSpan {
        TimeSpan(hours * 3_600.0)
    }

    /// Creates a span from days.
    pub fn from_days(days: f64) -> TimeSpan {
        TimeSpan(days * 86_400.0)
    }

    /// Creates a span from average Gregorian years (365.25 days).
    pub fn from_years(years: f64) -> TimeSpan {
        TimeSpan(years * Self::SECS_PER_YEAR)
    }

    /// The value in seconds.
    pub fn as_secs(&self) -> f64 {
        self.0
    }

    /// The value in minutes.
    pub fn as_minutes(&self) -> f64 {
        self.0 / 60.0
    }

    /// The value in hours.
    pub fn as_hours(&self) -> f64 {
        self.0 / 3_600.0
    }

    /// The value in days.
    pub fn as_days(&self) -> f64 {
        self.0 / 86_400.0
    }

    /// The value in average years.
    pub fn as_years(&self) -> f64 {
        self.0 / Self::SECS_PER_YEAR
    }
}

impl Mul<Power> for TimeSpan {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        Energy(self.0 * rhs.0)
    }
}

impl From<std::time::Duration> for TimeSpan {
    fn from(d: std::time::Duration) -> TimeSpan {
        TimeSpan(d.as_secs_f64())
    }
}

impl fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= Self::SECS_PER_YEAR {
            write!(f, "{:.2} y", self.as_years())
        } else if abs >= 86_400.0 {
            write!(f, "{:.2} d", self.as_days())
        } else if abs >= 3_600.0 {
            write!(f, "{:.2} h", self.as_hours())
        } else {
            write!(f, "{:.2} s", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Co2e
// ---------------------------------------------------------------------------

/// A mass of CO₂-equivalent emissions, stored in grams.
///
/// Negative values represent avoided or offset emissions, which the paper's
/// market-based accounting produces when renewable purchases exceed consumption.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Co2e(f64);

impl_quantity!(Co2e, "co2e");

impl Co2e {
    /// Creates an emission mass from grams of CO₂e.
    ///
    /// Debug builds assert the value is finite: a NaN or infinite emission
    /// mass is always an upstream accounting bug, never a meaningful
    /// quantity. (Negative values stay legal — see the type docs.)
    pub fn from_grams(grams: f64) -> Co2e {
        debug_assert!(
            grams.is_finite(),
            "emissions must be finite, got {grams} gCO2e"
        );
        Co2e(grams)
    }

    /// Creates an emission mass from kilograms of CO₂e.
    pub fn from_kilograms(kg: f64) -> Co2e {
        Co2e::from_grams(kg * 1e3)
    }

    /// Creates an emission mass from metric tonnes of CO₂e.
    pub fn from_tonnes(tonnes: f64) -> Co2e {
        Co2e::from_grams(tonnes * 1e6)
    }

    /// The value in grams.
    pub fn as_grams(&self) -> f64 {
        self.0
    }

    /// The value in kilograms.
    pub fn as_kilograms(&self) -> f64 {
        self.0 / 1e3
    }

    /// The value in metric tonnes.
    pub fn as_tonnes(&self) -> f64 {
        self.0 / 1e6
    }
}

impl fmt::Display for Co2e {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 1e6 {
            write!(f, "{:.3} t CO2e", self.as_tonnes())
        } else if abs >= 1e3 {
            write!(f, "{:.3} kg CO2e", self.as_kilograms())
        } else {
            write!(f, "{:.3} g CO2e", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// DataVolume / DataRate
// ---------------------------------------------------------------------------

/// An amount of data, stored in bytes.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct DataVolume(f64);

impl_quantity!(DataVolume, "data volume");

impl DataVolume {
    /// Creates a volume from bytes.
    pub fn from_bytes(bytes: f64) -> DataVolume {
        DataVolume(bytes)
    }

    /// Creates a volume from gigabytes (10⁹ bytes).
    pub fn from_gigabytes(gb: f64) -> DataVolume {
        DataVolume(gb * 1e9)
    }

    /// Creates a volume from petabytes (10¹⁵ bytes).
    // lint:allow(test-only-pub) (c) the units constructor ladder, kept whole
    pub fn from_petabytes(pb: f64) -> DataVolume {
        DataVolume(pb * 1e15)
    }

    /// Creates a volume from exabytes (10¹⁸ bytes).
    pub fn from_exabytes(eb: f64) -> DataVolume {
        DataVolume(eb * 1e18)
    }

    /// The value in bytes.
    pub fn as_bytes(&self) -> f64 {
        self.0
    }

    /// The value in gigabytes.
    pub fn as_gigabytes(&self) -> f64 {
        self.0 / 1e9
    }

    /// The value in terabytes.
    pub fn as_terabytes(&self) -> f64 {
        self.0 / 1e12
    }

    /// The value in petabytes.
    pub fn as_petabytes(&self) -> f64 {
        self.0 / 1e15
    }

    /// The value in exabytes.
    pub fn as_exabytes(&self) -> f64 {
        self.0 / 1e18
    }
}

impl Div<TimeSpan> for DataVolume {
    type Output = DataRate;
    fn div(self, rhs: TimeSpan) -> DataRate {
        DataRate(self.0 / rhs.0)
    }
}

impl fmt::Display for DataVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let abs = self.0.abs();
        if abs >= 1e18 {
            write!(f, "{:.3} EB", self.as_exabytes())
        } else if abs >= 1e15 {
            write!(f, "{:.3} PB", self.as_petabytes())
        } else if abs >= 1e12 {
            write!(f, "{:.3} TB", self.as_terabytes())
        } else if abs >= 1e9 {
            write!(f, "{:.3} GB", self.as_gigabytes())
        } else {
            write!(f, "{:.0} B", self.0)
        }
    }
}

/// A data throughput, stored in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct DataRate(f64);

impl_quantity!(DataRate, "data rate");

impl DataRate {
    /// Creates a rate from bytes per second.
    pub fn from_bytes_per_sec(bps: f64) -> DataRate {
        DataRate(bps)
    }

    /// Creates a rate from gigabytes per second.
    pub fn from_gigabytes_per_sec(gbps: f64) -> DataRate {
        DataRate(gbps * 1e9)
    }

    /// The value in bytes per second.
    pub fn as_bytes_per_sec(&self) -> f64 {
        self.0
    }

    /// The value in gigabytes per second.
    pub fn as_gigabytes_per_sec(&self) -> f64 {
        self.0 / 1e9
    }
}

impl Mul<TimeSpan> for DataRate {
    type Output = DataVolume;
    fn mul(self, rhs: TimeSpan) -> DataVolume {
        DataVolume(self.0 * rhs.0)
    }
}

impl fmt::Display for DataRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1e9 {
            write!(f, "{:.3} GB/s", self.as_gigabytes_per_sec())
        } else {
            write!(f, "{:.0} B/s", self.0)
        }
    }
}

// ---------------------------------------------------------------------------
// Fraction
// ---------------------------------------------------------------------------

/// A validated fraction in `[0, 1]`, used for utilizations, shares, and hit rates.
///
/// ```rust
/// use sustain_core::units::Fraction;
/// # fn main() -> Result<(), sustain_core::Error> {
/// let util = Fraction::new(0.45)?;
/// assert_eq!(util.value(), 0.45);
/// assert!((util.complement().value() - 0.55).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Fraction(f64);

impl Fraction {
    /// The zero fraction.
    pub const ZERO: Fraction = Fraction(0.0);
    /// The full fraction (1.0).
    pub const ONE: Fraction = Fraction(1.0);

    /// Creates a fraction, validating that it lies in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FractionOutOfRange`] if `value` is outside `[0, 1]` or
    /// not finite.
    pub fn new(value: f64) -> Result<Fraction> {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            return Err(Error::FractionOutOfRange {
                name: "fraction",
                value,
            });
        }
        Ok(Fraction(value))
    }

    /// Creates a fraction from a percentage in `[0, 100]`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::FractionOutOfRange`] if `pct / 100` is outside `[0, 1]`.
    // lint:allow(test-only-pub) (c) the units constructor ladder, kept whole
    pub fn from_percent(pct: f64) -> Result<Fraction> {
        Fraction::new(pct / 100.0)
    }

    /// Creates a fraction, clamping out-of-range finite values into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn saturating(value: f64) -> Fraction {
        assert!(!value.is_nan(), "fraction must not be NaN");
        Fraction(value.clamp(0.0, 1.0))
    }

    /// The inner value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// The value expressed as a percentage.
    pub fn as_percent(&self) -> f64 {
        self.0 * 100.0
    }

    /// `1 - self`.
    pub fn complement(&self) -> Fraction {
        Fraction(1.0 - self.0)
    }
}

impl Eq for Fraction {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Fraction {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Mul<Fraction> for Fraction {
    type Output = Fraction;
    fn mul(self, rhs: Fraction) -> Fraction {
        Fraction(self.0 * rhs.0)
    }
}

impl Mul<f64> for Fraction {
    type Output = f64;
    fn mul(self, rhs: f64) -> f64 {
        self.0 * rhs
    }
}

impl Mul<Energy> for Fraction {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        rhs * self.0
    }
}

impl Mul<Co2e> for Fraction {
    type Output = Co2e;
    fn mul(self, rhs: Co2e) -> Co2e {
        rhs * self.0
    }
}

impl Mul<Power> for Fraction {
    type Output = Power;
    fn mul(self, rhs: Power) -> Power {
        rhs * self.0
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.as_percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_conversions_round_trip() {
        let e = Energy::from_kilowatt_hours(2.5);
        assert!((e.as_joules() - 9.0e6).abs() < 1e-6);
        assert!((e.as_watt_hours() - 2500.0).abs() < 1e-9);
        assert!((e.as_megawatt_hours() - 0.0025).abs() < 1e-12);
        assert!((Energy::from_gigawatt_hours(1.0).as_megawatt_hours() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_kilowatts(2.0) * TimeSpan::from_hours(3.0);
        assert!((e.as_kilowatt_hours() - 6.0).abs() < 1e-9);
        // Commutative.
        let e2 = TimeSpan::from_hours(3.0) * Power::from_kilowatts(2.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn energy_divided_by_time_is_power() {
        let p = Energy::from_kilowatt_hours(6.0) / TimeSpan::from_hours(3.0);
        assert!((p.as_kilowatts() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_divided_by_power_is_time() {
        let t = Energy::from_kilowatt_hours(6.0) / Power::from_kilowatts(2.0);
        assert!((t.as_hours() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn same_quantity_ratio_is_dimensionless() {
        let ratio = Energy::from_joules(10.0) / Energy::from_joules(4.0);
        assert!((ratio - 2.5).abs() < 1e-12);
    }

    #[test]
    fn sum_of_energies() {
        let total: Energy = vec![
            Energy::from_joules(1.0),
            Energy::from_joules(2.0),
            Energy::from_joules(3.0),
        ]
        .into_iter()
        .sum();
        assert_eq!(total, Energy::from_joules(6.0));
        let by_ref: Energy = [Energy::from_joules(4.0), Energy::from_joules(5.0)]
            .iter()
            .sum();
        assert_eq!(by_ref, Energy::from_joules(9.0));
    }

    #[test]
    fn co2e_conversions() {
        let c = Co2e::from_tonnes(1.5);
        assert!((c.as_kilograms() - 1500.0).abs() < 1e-9);
        assert!((c.as_grams() - 1.5e6).abs() < 1e-6);
    }

    #[test]
    fn negative_co2e_models_offsets() {
        let net = Co2e::from_kilograms(100.0) + Co2e::from_kilograms(-120.0);
        assert!(net < Co2e::ZERO);
        assert_eq!(net.abs(), Co2e::from_kilograms(20.0));
    }

    #[test]
    fn timespan_conversions() {
        let t = TimeSpan::from_days(365.25);
        assert!((t.as_years() - 1.0).abs() < 1e-12);
        assert!((TimeSpan::from_hours(24.0).as_days() - 1.0).abs() < 1e-12);
        assert!((TimeSpan::from_minutes(90.0).as_hours() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timespan_from_std_duration() {
        let t: TimeSpan = std::time::Duration::from_millis(1500).into();
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn data_volume_and_rate() {
        let v = DataVolume::from_exabytes(1.0);
        assert!((v.as_petabytes() - 1000.0).abs() < 1e-6);
        let r = v / TimeSpan::from_secs(1e9);
        assert!((r.as_gigabytes_per_sec() - 1.0).abs() < 1e-9);
        let back = r * TimeSpan::from_secs(1e9);
        assert!((back.as_exabytes() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validated_rejects_negative_and_nan() {
        assert!(Energy::from_joules(-1.0).validated().is_err());
        // Bypass from_joules: its debug_assert rejects NaN at construction,
        // while validated() guards values corrupted after construction.
        assert!(Energy(f64::NAN).validated().is_err());
        assert!(Energy::from_joules(0.0).validated().is_ok());
    }

    #[test]
    fn fraction_validation() {
        assert!(Fraction::new(0.0).is_ok());
        assert!(Fraction::new(1.0).is_ok());
        assert!(Fraction::new(-0.01).is_err());
        assert!(Fraction::new(1.01).is_err());
        assert!(Fraction::new(f64::NAN).is_err());
        assert_eq!(Fraction::from_percent(45.0).unwrap().value(), 0.45);
    }

    #[test]
    fn fraction_saturating_clamps() {
        assert_eq!(Fraction::saturating(1.5), Fraction::ONE);
        assert_eq!(Fraction::saturating(-0.5), Fraction::ZERO);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn fraction_saturating_panics_on_nan() {
        let _ = Fraction::saturating(f64::NAN);
    }

    #[test]
    fn fraction_scales_quantities() {
        let half = Fraction::new(0.5).unwrap();
        assert_eq!(half * Energy::from_joules(10.0), Energy::from_joules(5.0));
        assert_eq!(half * Co2e::from_grams(10.0), Co2e::from_grams(5.0));
        assert_eq!(half * Power::from_watts(10.0), Power::from_watts(5.0));
        assert_eq!(
            (half * half).value(),
            0.25,
            "fraction product composes shares"
        );
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(Energy::from_joules(500.0).to_string(), "500.000 J");
        assert_eq!(Energy::from_kilowatt_hours(2.0).to_string(), "2.000 kWh");
        assert_eq!(
            Energy::from_megawatt_hours(7_170_000.0).to_string(),
            "7170.000 GWh"
        );
        assert_eq!(Co2e::from_tonnes(2.0).to_string(), "2.000 t CO2e");
        assert_eq!(Power::from_megawatts(1.5).to_string(), "1.500 MW");
        assert_eq!(TimeSpan::from_days(3.0).to_string(), "3.00 d");
        assert_eq!(DataVolume::from_exabytes(2.4).to_string(), "2.400 EB");
    }

    #[test]
    fn min_max_clamp_abs() {
        let a = Energy::from_joules(1.0);
        let b = Energy::from_joules(5.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Energy::from_joules(9.0).clamp(a, b), b);
        assert_eq!((-b).abs(), b);
    }

    #[test]
    fn serde_round_trip() {
        let e = Energy::from_joules(42.5);
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, "42.5");
        let back: Energy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn assign_ops() {
        let mut e = Energy::from_joules(1.0);
        e += Energy::from_joules(2.0);
        e -= Energy::from_joules(0.5);
        e *= 2.0;
        e /= 5.0;
        assert!((e.as_joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ordering_total_for_finite() {
        let mut v = [
            Energy::from_joules(3.0),
            Energy::from_joules(1.0),
            Energy::from_joules(2.0),
        ];
        v.sort();
        assert_eq!(v[0], Energy::from_joules(1.0));
        assert_eq!(v[2], Energy::from_joules(3.0));
    }
}
