//! Combined operational + embodied footprints and serializable reports.
//!
//! [`CarbonFootprint`] is the unit of comparison in Figures 4/5/9:
//! an operational part (energy × PUE × intensity) and an embodied part
//! (amortized manufacturing carbon). [`FootprintReport`] adds the metadata a
//! model card or carbon-impact statement needs (paper §V).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

use crate::intensity::AccountingBasis;
use crate::lifecycle::{Breakdown, MlPhase};
use crate::quality::DataQualityReport;
use crate::units::{Co2e, Energy, Fraction};

/// Operational + embodied carbon of a workload, system, or fleet.
///
/// ```rust
/// use sustain_core::footprint::CarbonFootprint;
/// use sustain_core::units::Co2e;
///
/// let fp = CarbonFootprint::new(
///     Co2e::from_tonnes(70.0), // operational
///     Co2e::from_tonnes(30.0), // embodied
/// );
/// assert_eq!(fp.total(), Co2e::from_tonnes(100.0));
/// assert!((fp.embodied_share().value() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CarbonFootprint {
    operational: Co2e,
    embodied: Co2e,
}

impl CarbonFootprint {
    /// The zero footprint.
    pub const ZERO: CarbonFootprint = CarbonFootprint {
        operational: Co2e::ZERO,
        embodied: Co2e::ZERO,
    };

    /// Creates a footprint from its two components.
    pub fn new(operational: Co2e, embodied: Co2e) -> CarbonFootprint {
        CarbonFootprint {
            operational,
            embodied,
        }
    }

    /// The operational component.
    pub fn operational(&self) -> Co2e {
        self.operational
    }

    /// The embodied component.
    pub fn embodied(&self) -> Co2e {
        self.embodied
    }

    /// Total carbon.
    pub fn total(&self) -> Co2e {
        self.operational + self.embodied
    }

    /// Embodied share of the total (0 when the total is zero).
    pub fn embodied_share(&self) -> Fraction {
        if self.total().is_zero() {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.embodied / self.total())
    }

    /// Operational share of the total (0 when the total is zero).
    // lint:allow(test-only-pub) (b) tests read the operational share of remaining footprints
    pub fn operational_share(&self) -> Fraction {
        if self.total().is_zero() {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.operational / self.total())
    }

    /// Returns a footprint with the operational part scaled by `factor` —
    /// used for renewable-energy scenarios where operational carbon shrinks
    /// but embodied carbon stays (Figures 5 and 9).
    pub fn scale_operational(&self, factor: f64) -> CarbonFootprint {
        CarbonFootprint::new(self.operational * factor, self.embodied)
    }
}

impl Add for CarbonFootprint {
    type Output = CarbonFootprint;
    fn add(self, rhs: CarbonFootprint) -> CarbonFootprint {
        CarbonFootprint::new(
            self.operational + rhs.operational,
            self.embodied + rhs.embodied,
        )
    }
}

impl AddAssign for CarbonFootprint {
    fn add_assign(&mut self, rhs: CarbonFootprint) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for CarbonFootprint {
    type Output = CarbonFootprint;
    fn mul(self, rhs: f64) -> CarbonFootprint {
        CarbonFootprint::new(self.operational * rhs, self.embodied * rhs)
    }
}

impl Sum for CarbonFootprint {
    fn sum<I: Iterator<Item = CarbonFootprint>>(iter: I) -> CarbonFootprint {
        iter.fold(CarbonFootprint::ZERO, |acc, fp| acc + fp)
    }
}

impl fmt::Display for CarbonFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} total ({} operational, {} embodied)",
            self.total(),
            self.operational,
            self.embodied
        )
    }
}

/// A carbon-impact report for one workload — the machine-readable counterpart
/// of the paper's call for carbon impact statements and model cards (§V-A).
///
/// Serializable with serde so it can be attached to a model card as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FootprintReport {
    /// Name of the workload/model being reported.
    pub subject: String,
    /// Which accounting basis the operational figure uses.
    pub basis: AccountingBasis,
    /// Total IT energy consumed.
    pub energy: Energy,
    /// The combined footprint.
    pub footprint: CarbonFootprint,
    /// Operational carbon split across ML phases.
    pub by_phase: Breakdown<Co2e>,
    /// Telemetry data quality behind `energy` (`None` = assumed perfect, the
    /// historical default; pre-existing report JSON without the key still
    /// deserializes, as `None`).
    pub quality: Option<DataQualityReport>,
}

impl FootprintReport {
    /// Creates a report; the per-phase ledger starts empty.
    pub fn new(
        subject: impl Into<String>,
        basis: AccountingBasis,
        energy: Energy,
        footprint: CarbonFootprint,
    ) -> FootprintReport {
        FootprintReport {
            subject: subject.into(),
            basis,
            energy,
            footprint,
            by_phase: Breakdown::zero(),
            quality: None,
        }
    }

    /// Records operational carbon for a phase and adds it to the ledger.
    pub fn record_phase(&mut self, phase: MlPhase, co2: Co2e) -> &mut FootprintReport {
        self.by_phase[phase] += co2;
        self
    }

    /// Whether the per-phase ledger is consistent with the operational total
    /// (within `tolerance` grams). An empty ledger is always consistent.
    // lint:allow(test-only-pub) (b) tests check tracker and model reports against their phase ledger
    pub fn is_phase_consistent(&self, tolerance: Co2e) -> bool {
        let ledger = self.by_phase.total();
        if ledger.is_zero() {
            return true;
        }
        (ledger - self.footprint.operational()).abs() <= tolerance
    }
}

impl fmt::Display for FootprintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "carbon report: {}", self.subject)?;
        writeln!(f, "  basis:       {}", self.basis)?;
        writeln!(f, "  energy:      {}", self.energy)?;
        writeln!(f, "  operational: {}", self.footprint.operational())?;
        writeln!(f, "  embodied:    {}", self.footprint.embodied())?;
        match &self.quality {
            Some(q) => {
                writeln!(f, "  total:       {}", self.footprint.total())?;
                write!(f, "  quality:     {q}")
            }
            None => write!(f, "  total:       {}", self.footprint.total()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_shares() {
        let fp = CarbonFootprint::new(Co2e::from_tonnes(7.0), Co2e::from_tonnes(3.0));
        assert_eq!(fp.total(), Co2e::from_tonnes(10.0));
        assert!((fp.embodied_share().value() - 0.3).abs() < 1e-12);
        assert!((fp.operational_share().value() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_footprint_has_zero_shares() {
        assert_eq!(CarbonFootprint::ZERO.embodied_share(), Fraction::ZERO);
        assert_eq!(CarbonFootprint::ZERO.operational_share(), Fraction::ZERO);
    }

    #[test]
    fn scale_operational_keeps_embodied() {
        // The Fig 5/9 mechanic: carbon-free energy shrinks operational carbon,
        // embodied becomes dominant.
        let fp = CarbonFootprint::new(Co2e::from_tonnes(70.0), Co2e::from_tonnes(30.0));
        let green = fp.scale_operational(0.05);
        assert_eq!(green.embodied(), fp.embodied());
        assert!(green.embodied_share().value() > 0.85);
    }

    #[test]
    fn arithmetic() {
        let a = CarbonFootprint::new(Co2e::from_grams(1.0), Co2e::from_grams(2.0));
        let b = CarbonFootprint::new(Co2e::from_grams(3.0), Co2e::from_grams(4.0));
        let sum = a + b;
        assert_eq!(sum.operational(), Co2e::from_grams(4.0));
        assert_eq!(sum.embodied(), Co2e::from_grams(6.0));
        let doubled = sum * 2.0;
        assert_eq!(doubled.total(), Co2e::from_grams(20.0));
        let collected: CarbonFootprint = vec![a, b].into_iter().sum();
        assert_eq!(collected, sum);
    }

    #[test]
    fn report_phase_ledger_consistency() {
        let fp = CarbonFootprint::new(Co2e::from_kilograms(100.0), Co2e::ZERO);
        let mut report = FootprintReport::new(
            "LM",
            AccountingBasis::LocationBased,
            Energy::from_megawatt_hours(1.0),
            fp,
        );
        assert!(report.is_phase_consistent(Co2e::from_grams(1.0)));
        report.record_phase(MlPhase::OfflineTraining, Co2e::from_kilograms(35.0));
        report.record_phase(MlPhase::Inference, Co2e::from_kilograms(65.0));
        assert!(report.is_phase_consistent(Co2e::from_grams(1.0)));
        report.record_phase(MlPhase::Inference, Co2e::from_kilograms(10.0));
        assert!(!report.is_phase_consistent(Co2e::from_grams(1.0)));
    }

    #[test]
    fn report_serializes_to_json() {
        let report = FootprintReport::new(
            "RM1",
            AccountingBasis::MarketBased,
            Energy::from_megawatt_hours(5.0),
            CarbonFootprint::new(Co2e::from_tonnes(1.0), Co2e::from_tonnes(2.0)),
        );
        let json = serde_json::to_string(&report).unwrap();
        let back: FootprintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn quality_free_reports_stay_back_compatible() {
        // Pre-existing report JSON (no `quality` key) still parses, as None,
        // and a quality-free report's Display output is unchanged.
        let report = FootprintReport::new(
            "LM",
            AccountingBasis::LocationBased,
            Energy::from_megawatt_hours(1.0),
            CarbonFootprint::ZERO,
        );
        let json = serde_json::to_string(&report).unwrap();
        let without_key = json.replace(",\"quality\":null", "");
        assert!(!without_key.contains("quality"), "{without_key}");
        let back: FootprintReport = serde_json::from_str(&without_key).unwrap();
        assert_eq!(back.quality, None);
        assert!(!report.to_string().contains("quality"));
    }

    #[test]
    fn attached_quality_round_trips_and_shows_in_display() {
        use crate::quality::{DataQualityReport, FaultKind};
        let mut q = DataQualityReport {
            expected_samples: 10,
            observed_samples: 8,
            imputed_energy: Energy::from_kilowatt_hours(0.5),
            ..DataQualityReport::default()
        };
        q.faults.record(FaultKind::Dropout);
        let report = FootprintReport {
            quality: Some(q),
            ..FootprintReport::new(
                "LM",
                AccountingBasis::LocationBased,
                Energy::from_megawatt_hours(1.0),
                CarbonFootprint::ZERO,
            )
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FootprintReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(report.to_string().contains("quality"));
        assert!(back.quality.unwrap().coverage().value() < 1.0);
    }

    #[test]
    fn display_mentions_both_components() {
        let fp = CarbonFootprint::new(Co2e::from_tonnes(1.0), Co2e::from_tonnes(2.0));
        let text = fp.to_string();
        assert!(text.contains("operational"));
        assert!(text.contains("embodied"));
    }
}
