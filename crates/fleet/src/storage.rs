//! Battery energy storage (§IV-C).
//!
//! "Alternatively, energy storage (e.g. batteries, pumped hydro, flywheels,
//! molten salt) can be used to store renewable energy during peak generation
//! times for use during low generation times." [`Battery`] models a simple
//! storage unit with round-trip efficiency and power limits — one leg of the
//! 24/7 carbon-free design space.

use serde::{Deserialize, Serialize};

use sustain_core::units::{Energy, Fraction, Power, TimeSpan};

/// A battery with capacity, state of charge, round-trip efficiency and a
/// charge/discharge power limit.
///
/// Charging losses are applied on the way in (energy stored = energy drawn ×
/// efficiency); discharge is lossless, so the configured efficiency is the
/// full round-trip figure.
///
/// ```rust
/// use sustain_fleet::storage::Battery;
/// use sustain_core::units::{Energy, Fraction, Power, TimeSpan};
///
/// let mut battery = Battery::new(
///     Energy::from_megawatt_hours(10.0),
///     Power::from_megawatts(5.0),
///     Fraction::saturating(0.9),
/// );
/// let accepted = battery.charge(Power::from_megawatts(4.0), TimeSpan::from_hours(1.0));
/// assert!((accepted.as_megawatt_hours() - 4.0).abs() < 1e-9);
/// assert!((battery.stored().as_megawatt_hours() - 3.6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity: Energy,
    stored: Energy,
    max_power: Power,
    round_trip_efficiency: Fraction,
}

impl Battery {
    /// Creates an empty battery.
    ///
    /// # Panics
    ///
    /// Panics if capacity or power limit is non-positive, or efficiency is zero.
    pub fn new(capacity: Energy, max_power: Power, round_trip_efficiency: Fraction) -> Battery {
        assert!(capacity.as_joules() > 0.0, "capacity must be positive");
        assert!(max_power.as_watts() > 0.0, "power limit must be positive");
        assert!(
            round_trip_efficiency.value() > 0.0,
            "efficiency must be positive"
        );
        Battery {
            capacity,
            stored: Energy::ZERO,
            max_power,
            round_trip_efficiency,
        }
    }

    /// Nameplate capacity.
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Energy currently stored.
    pub fn stored(&self) -> Energy {
        self.stored
    }

    /// State of charge.
    pub fn state_of_charge(&self) -> Fraction {
        Fraction::saturating(self.stored / self.capacity)
    }

    /// Charges from a supply of `power` for `span`; returns the energy
    /// actually *drawn from the supply* (limited by power cap and headroom).
    pub fn charge(&mut self, power: Power, span: TimeSpan) -> Energy {
        let power = power.min(self.max_power).max(Power::ZERO);
        let offered = power * span;
        // Headroom limits how much can be stored after losses.
        let headroom = self.capacity - self.stored;
        let max_drawable = headroom / self.round_trip_efficiency.value();
        let drawn = offered.min(max_drawable);
        self.stored += drawn * self.round_trip_efficiency.value();
        drawn
    }

    /// Discharges to serve `power` for `span`; returns the energy actually
    /// delivered (limited by power cap and state of charge).
    pub fn discharge(&mut self, power: Power, span: TimeSpan) -> Energy {
        let power = power.min(self.max_power).max(Power::ZERO);
        let requested = power * span;
        let delivered = requested.min(self.stored);
        self.stored -= delivered;
        delivered
    }

    /// Whether the battery is full (within 1 J).
    // lint:allow(test-only-pub) (b) battery tests observe charging through it
    pub fn is_full(&self) -> bool {
        (self.capacity - self.stored).as_joules() < 1.0
    }

    /// Whether the battery is empty (within 1 J).
    pub fn is_empty(&self) -> bool {
        self.stored.as_joules() < 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn battery() -> Battery {
        Battery::new(
            Energy::from_megawatt_hours(10.0),
            Power::from_megawatts(5.0),
            Fraction::saturating(0.9),
        )
    }

    #[test]
    fn charge_applies_round_trip_losses() {
        let mut b = battery();
        let drawn = b.charge(Power::from_megawatts(2.0), TimeSpan::from_hours(1.0));
        assert!((drawn.as_megawatt_hours() - 2.0).abs() < 1e-9);
        assert!((b.stored().as_megawatt_hours() - 1.8).abs() < 1e-9);
    }

    #[test]
    fn charge_respects_power_limit() {
        let mut b = battery();
        let drawn = b.charge(Power::from_megawatts(50.0), TimeSpan::from_hours(1.0));
        assert!(
            (drawn.as_megawatt_hours() - 5.0).abs() < 1e-9,
            "capped at 5 MW"
        );
    }

    #[test]
    fn charge_stops_at_capacity() {
        let mut b = battery();
        // Offer far more than fits: 5 MW × 10 h = 50 MWh offered, but only
        // 10/0.9 ≈ 11.1 MWh can be drawn before the pack is full.
        let drawn = b.charge(Power::from_megawatts(5.0), TimeSpan::from_hours(10.0));
        assert!((drawn.as_megawatt_hours() - 10.0 / 0.9).abs() < 1e-9);
        assert!(b.is_full());
        assert_eq!(b.state_of_charge(), Fraction::ONE);
        // Further charging draws nothing.
        let more = b.charge(Power::from_megawatts(5.0), TimeSpan::from_hours(1.0));
        assert!(more.as_joules() < 1e-6);
    }

    #[test]
    fn discharge_respects_state_of_charge() {
        let mut b = battery();
        b.charge(Power::from_megawatts(2.0), TimeSpan::from_hours(1.0)); // 1.8 MWh stored
        let delivered = b.discharge(Power::from_megawatts(5.0), TimeSpan::from_hours(1.0));
        assert!((delivered.as_megawatt_hours() - 1.8).abs() < 1e-9);
        assert!(b.is_empty());
        // Discharging an empty battery delivers nothing.
        assert!(b
            .discharge(Power::from_megawatts(1.0), TimeSpan::from_hours(1.0))
            .is_zero());
    }

    #[test]
    fn discharge_respects_power_limit() {
        let mut b = battery();
        b.charge(Power::from_megawatts(5.0), TimeSpan::from_hours(2.0)); // 9 MWh stored
        let delivered = b.discharge(Power::from_megawatts(50.0), TimeSpan::from_hours(1.0));
        assert!((delivered.as_megawatt_hours() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn negative_power_is_clamped() {
        let mut b = battery();
        assert!(b
            .charge(Power::from_watts(-100.0), TimeSpan::from_hours(1.0))
            .is_zero());
        assert!(b
            .discharge(Power::from_watts(-100.0), TimeSpan::from_hours(1.0))
            .is_zero());
    }

    #[test]
    fn round_trip_loses_expected_energy() {
        let mut b = battery();
        let drawn = b.charge(Power::from_megawatts(5.0), TimeSpan::from_hours(1.0));
        let delivered = b.discharge(Power::from_megawatts(5.0), TimeSpan::from_hours(2.0));
        assert!((delivered / drawn - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = Battery::new(
            Energy::ZERO,
            Power::from_watts(1.0),
            Fraction::saturating(0.9),
        );
    }
}
