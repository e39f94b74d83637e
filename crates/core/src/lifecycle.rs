//! Life-cycle phases of ML model development (paper §II, Figure 3).
//!
//! The paper structures its accounting around two life cycles:
//!
//! * the **ML development cycle** — Data Processing → Experimentation →
//!   Training (offline + online) → Inference;
//! * the **hardware life cycle** — Manufacturing → Transport → Use → Recycling,
//!   of which manufacturing (embodied) and use (operational) dominate; the
//!   `embodied` and `operational` modules account for those two.
//!
//! [`Breakdown`] is the ledger type used everywhere a quantity is split
//! across phases (Figure 3's 10:20:70 power split, Figure 4's training vs
//! inference bars, …).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Index, Mul};

/// A phase of the ML model development cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MlPhase {
    /// Feature extraction, storage and the ingestion pipeline.
    DataProcessing,
    /// Research-cluster exploration of ideas, architectures, hyper-parameters.
    Experimentation,
    /// Production training on full, recent data (includes re-training cadence).
    OfflineTraining,
    /// Continuous parameter refresh from live data (recommendation models).
    OnlineTraining,
    /// Serving production traffic.
    Inference,
}

impl MlPhase {
    /// All phases, in pipeline order.
    pub const ALL: [MlPhase; 5] = [
        MlPhase::DataProcessing,
        MlPhase::Experimentation,
        MlPhase::OfflineTraining,
        MlPhase::OnlineTraining,
        MlPhase::Inference,
    ];
}

impl fmt::Display for MlPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MlPhase::DataProcessing => "data-processing",
            MlPhase::Experimentation => "experimentation",
            MlPhase::OfflineTraining => "offline-training",
            MlPhase::OnlineTraining => "online-training",
            MlPhase::Inference => "inference",
        };
        f.write_str(name)
    }
}

/// A quantity split across the five ML phases.
///
/// Generic over the quantity so the same ledger carries `Energy`, `Co2e`,
/// `Power` or plain `f64` shares.
///
/// ```rust
/// use sustain_core::lifecycle::{Breakdown, MlPhase};
/// use sustain_core::units::Energy;
///
/// let mut ledger = Breakdown::<Energy>::zero();
/// ledger[MlPhase::Inference] += Energy::from_kilowatt_hours(40.0);
/// ledger[MlPhase::OfflineTraining] += Energy::from_kilowatt_hours(29.0);
/// ledger[MlPhase::DataProcessing] += Energy::from_kilowatt_hours(31.0);
/// assert_eq!(ledger.total(), Energy::from_kilowatt_hours(100.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown<T> {
    values: [T; 5],
}

impl<T: Copy + Default> Breakdown<T> {
    /// A breakdown with every phase at `T::default()`.
    pub fn zero() -> Breakdown<T> {
        Breakdown::default()
    }

    /// Creates a breakdown from a function of phase.
    pub fn from_fn(mut f: impl FnMut(MlPhase) -> T) -> Breakdown<T> {
        let mut values = [T::default(); 5];
        for (i, phase) in MlPhase::ALL.iter().enumerate() {
            values[i] = f(*phase);
        }
        Breakdown { values }
    }

    /// The value for a phase.
    pub fn get(&self, phase: MlPhase) -> T {
        self.values[Self::idx(phase)]
    }

    /// Sets the value for a phase.
    pub fn set(&mut self, phase: MlPhase, value: T) -> &mut Breakdown<T> {
        self.values[Self::idx(phase)] = value;
        self
    }

    /// Iterates `(phase, value)` in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (MlPhase, T)> + '_ {
        MlPhase::ALL.iter().map(move |p| (*p, self.get(*p)))
    }

    fn idx(phase: MlPhase) -> usize {
        match phase {
            MlPhase::DataProcessing => 0,
            MlPhase::Experimentation => 1,
            MlPhase::OfflineTraining => 2,
            MlPhase::OnlineTraining => 3,
            MlPhase::Inference => 4,
        }
    }
}

impl<T: Copy + Default + Add<Output = T>> Breakdown<T> {
    /// Sum across all phases.
    pub fn total(&self) -> T {
        self.values
            .iter()
            .copied()
            .fold(T::default(), |acc, v| acc + v)
    }

    /// The paper's coarse three-way grouping: training = offline + online.
    /// Returns `(experimentation, training, inference)`; data processing is
    /// reported separately by [`Breakdown::get`].
    pub fn coarse(&self) -> (T, T, T) {
        (
            self.get(MlPhase::Experimentation),
            self.get(MlPhase::OfflineTraining) + self.get(MlPhase::OnlineTraining),
            self.get(MlPhase::Inference),
        )
    }
}

impl<T: Copy + Default + Add<Output = T>> Add for Breakdown<T> {
    type Output = Breakdown<T>;
    fn add(self, rhs: Breakdown<T>) -> Breakdown<T> {
        Breakdown::from_fn(|p| self.get(p) + rhs.get(p))
    }
}

impl<T: Copy + Default + Add<Output = T>> AddAssign for Breakdown<T> {
    fn add_assign(&mut self, rhs: Breakdown<T>) {
        *self = *self + rhs;
    }
}

impl<T: Copy + Default + Mul<f64, Output = T>> Mul<f64> for Breakdown<T> {
    type Output = Breakdown<T>;
    fn mul(self, rhs: f64) -> Breakdown<T> {
        Breakdown::from_fn(|p| self.get(p) * rhs)
    }
}

impl<T: Copy + Default + Add<Output = T>> Sum for Breakdown<T> {
    fn sum<I: Iterator<Item = Breakdown<T>>>(iter: I) -> Breakdown<T> {
        iter.fold(Breakdown::zero(), |acc, b| acc + b)
    }
}

impl<T: Copy + Default> Index<MlPhase> for Breakdown<T> {
    type Output = T;
    fn index(&self, phase: MlPhase) -> &T {
        &self.values[Self::idx(phase)]
    }
}

impl<T: Copy + Default> std::ops::IndexMut<MlPhase> for Breakdown<T> {
    fn index_mut(&mut self, phase: MlPhase) -> &mut T {
        &mut self.values[Self::idx(phase)]
    }
}

impl<T: Copy + Default> FromIterator<(MlPhase, T)> for Breakdown<T> {
    fn from_iter<I: IntoIterator<Item = (MlPhase, T)>>(iter: I) -> Breakdown<T> {
        let mut b = Breakdown::zero();
        for (p, v) in iter {
            b.set(p, v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Energy;

    #[test]
    fn breakdown_total_and_index() {
        let mut b = Breakdown::<Energy>::zero();
        b[MlPhase::Inference] = Energy::from_joules(4.0);
        b[MlPhase::OfflineTraining] = Energy::from_joules(3.0);
        b[MlPhase::OnlineTraining] = Energy::from_joules(1.0);
        assert_eq!(b.total(), Energy::from_joules(8.0));
        assert_eq!(b[MlPhase::Inference], Energy::from_joules(4.0));
        assert_eq!(b.get(MlPhase::Experimentation), Energy::ZERO);
    }

    #[test]
    fn coarse_groups_training() {
        let mut b = Breakdown::<f64>::zero();
        b[MlPhase::Experimentation] = 10.0;
        b[MlPhase::OfflineTraining] = 15.0;
        b[MlPhase::OnlineTraining] = 5.0;
        b[MlPhase::Inference] = 70.0;
        let (exp, train, inf) = b.coarse();
        assert_eq!((exp, train, inf), (10.0, 20.0, 70.0));
    }

    #[test]
    fn breakdowns_add_and_scale() {
        let a = Breakdown::from_fn(|_| Energy::from_joules(1.0));
        let b = Breakdown::from_fn(|_| Energy::from_joules(2.0));
        let sum = a + b;
        assert_eq!(sum.total(), Energy::from_joules(15.0));
        let scaled = sum * 2.0;
        assert_eq!(scaled.total(), Energy::from_joules(30.0));
        let collected: Breakdown<Energy> = vec![a, b].into_iter().sum();
        assert_eq!(collected, sum);
    }

    #[test]
    fn from_iterator_sets_phases() {
        let b: Breakdown<f64> = vec![(MlPhase::Inference, 0.7), (MlPhase::Experimentation, 0.1)]
            .into_iter()
            .collect();
        assert_eq!(b[MlPhase::Inference], 0.7);
        assert_eq!(b[MlPhase::OfflineTraining], 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(MlPhase::DataProcessing.to_string(), "data-processing");
    }

    #[test]
    fn iter_visits_all_phases_in_order() {
        let b = Breakdown::from_fn(|p| if p == MlPhase::Inference { 1.0 } else { 0.0 });
        let phases: Vec<MlPhase> = b.iter().map(|(p, _)| p).collect();
        assert_eq!(phases, MlPhase::ALL.to_vec());
    }
}
