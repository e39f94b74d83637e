//! Carbon impact statements and model cards (§V-A).
//!
//! "We believe it is important for all published research papers to disclose
//! the operational *and* embodied carbon footprint of proposed design ...
//! describing hardware platforms, the number of machines, total runtime used
//! to produce results presented in a research manuscript is an important
//! first step. In addition, new models must be associated with a model card
//! that ... describes the model's overall carbon footprint to train and
//! conduct inference."
//!
//! [`CarbonCard`] is that disclosure as a typed, serializable artifact with a
//! markdown rendering for paper appendices and model repositories.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::equivalence::Equivalences;
use crate::error::{Error, Result};
use crate::footprint::CarbonFootprint;
use crate::intensity::{AccountingBasis, CarbonIntensity};
use crate::pue::Pue;
use crate::units::{Energy, TimeSpan};

/// The hardware disclosure of a carbon card.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HardwareDisclosure {
    /// Hardware platform, e.g. `"8x NVIDIA V100"`.
    pub platform: String,
    /// Number of machines used.
    pub machines: u32,
    /// Total wall-clock runtime.
    pub runtime: TimeSpan,
}

/// A carbon impact statement for one model or experiment.
///
/// ```rust
/// use sustain_core::modelcard::CarbonCard;
/// use sustain_core::units::TimeSpan;
///
/// # fn main() -> Result<(), sustain_core::Error> {
/// let card = CarbonCard::builder("my-model")
///     .hardware("8x V100", 1, TimeSpan::from_days(2.0))
///     .build()?;
/// assert!(card.to_markdown().contains("my-model"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonCard {
    model_name: String,
    hardware: HardwareDisclosure,
    energy: Energy,
    grid_intensity: CarbonIntensity,
    pue: Pue,
    basis: AccountingBasis,
    training: CarbonFootprint,
    inference_per_day: Option<CarbonFootprint>,
    notes: Vec<String>,
}

/// Builder for [`CarbonCard`].
#[derive(Debug, Clone)]
pub struct CarbonCardBuilder {
    model_name: String,
    hardware: Option<HardwareDisclosure>,
    energy: Energy,
    grid_intensity: CarbonIntensity,
    pue: Pue,
    basis: AccountingBasis,
    training: CarbonFootprint,
    inference_per_day: Option<CarbonFootprint>,
    notes: Vec<String>,
}

impl CarbonCard {
    /// Starts building a card for a model.
    pub fn builder(model_name: impl Into<String>) -> CarbonCardBuilder {
        CarbonCardBuilder {
            model_name: model_name.into(),
            hardware: None,
            energy: Energy::ZERO,
            grid_intensity: CarbonIntensity::US_AVERAGE_2021,
            pue: Pue::IDEAL,
            basis: AccountingBasis::LocationBased,
            training: CarbonFootprint::ZERO,
            inference_per_day: None,
            notes: Vec::new(),
        }
    }

    /// The model name.
    pub fn model_name(&self) -> &str {
        &self.model_name
    }

    /// The training footprint.
    pub fn training(&self) -> CarbonFootprint {
        self.training
    }

    /// Total disclosed energy.
    pub fn energy(&self) -> Energy {
        self.energy
    }

    /// Renders the card as markdown, the format model repositories ingest.
    pub fn to_markdown(&self) -> String {
        let mut md = String::new();
        md.push_str(&format!(
            "# Carbon impact statement: {}\n\n",
            self.model_name
        ));
        md.push_str("## Hardware\n\n");
        md.push_str(&format!(
            "- platform: {}\n- machines: {}\n- total runtime: {}\n\n",
            self.hardware.platform, self.hardware.machines, self.hardware.runtime
        ));
        md.push_str("## Energy & accounting\n\n");
        md.push_str(&format!(
            "- total energy: {}\n- grid intensity: {}\n- {}\n- basis: {}\n\n",
            self.energy, self.grid_intensity, self.pue, self.basis
        ));
        md.push_str("## Footprint\n\n");
        md.push_str(&format!(
            "- training: {} ({} operational, {} embodied)\n",
            self.training.total(),
            self.training.operational(),
            self.training.embodied()
        ));
        if let Some(inf) = self.inference_per_day {
            md.push_str(&format!("- inference: {} per day\n", inf.total()));
        }
        md.push_str(&format!(
            "- equivalences: {}\n",
            Equivalences::of(self.training.total())
        ));
        if !self.notes.is_empty() {
            md.push_str("\n## Notes\n\n");
            for n in &self.notes {
                md.push_str(&format!("- {n}\n"));
            }
        }
        md
    }
}

impl CarbonCardBuilder {
    /// Discloses the hardware platform (required).
    pub fn hardware(
        mut self,
        platform: impl Into<String>,
        machines: u32,
        runtime: TimeSpan,
    ) -> CarbonCardBuilder {
        self.hardware = Some(HardwareDisclosure {
            platform: platform.into(),
            machines,
            runtime,
        });
        self
    }

    /// Discloses the measured IT energy.
    pub fn energy(mut self, energy: Energy) -> CarbonCardBuilder {
        self.energy = energy;
        self
    }

    /// Sets the accounting context.
    pub fn accounting(
        mut self,
        intensity: CarbonIntensity,
        pue: Pue,
        basis: AccountingBasis,
    ) -> CarbonCardBuilder {
        self.grid_intensity = intensity;
        self.pue = pue;
        self.basis = basis;
        self
    }

    /// Sets the training footprint.
    pub fn training(mut self, footprint: CarbonFootprint) -> CarbonCardBuilder {
        self.training = footprint;
        self
    }

    /// Sets the per-day inference footprint.
    pub fn inference_per_day(mut self, footprint: CarbonFootprint) -> CarbonCardBuilder {
        self.inference_per_day = Some(footprint);
        self
    }

    /// Adds a free-form note (methodology caveats, offsets, …).
    pub fn note(mut self, note: impl Into<String>) -> CarbonCardBuilder {
        self.notes.push(note.into());
        self
    }

    /// Finalizes the card.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Empty`] if the hardware disclosure is missing — the
    /// paper is explicit that platform/machines/runtime is the minimum viable
    /// disclosure.
    pub fn build(self) -> Result<CarbonCard> {
        let hardware = self.hardware.ok_or(Error::Empty("hardware disclosure"))?;
        Ok(CarbonCard {
            model_name: self.model_name,
            hardware,
            energy: self.energy,
            grid_intensity: self.grid_intensity,
            pue: self.pue,
            basis: self.basis,
            training: self.training,
            inference_per_day: self.inference_per_day,
            notes: self.notes,
        })
    }
}

impl fmt::Display for CarbonCard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Co2e;

    fn card() -> CarbonCard {
        CarbonCard::builder("LM")
            .hardware("8x NVIDIA V100", 1, TimeSpan::from_days(3.0))
            .energy(Energy::from_megawatt_hours(1.2))
            .accounting(
                CarbonIntensity::US_AVERAGE_2021,
                Pue::HYPERSCALE,
                AccountingBasis::LocationBased,
            )
            .training(CarbonFootprint::new(
                Co2e::from_kilograms(566.0),
                Co2e::from_kilograms(60.0),
            ))
            .note("energy measured via simulated NVML counters")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_hardware_disclosure() {
        let err = CarbonCard::builder("LM").build().unwrap_err();
        assert!(matches!(err, Error::Empty("hardware disclosure")));
    }

    #[test]
    fn markdown_contains_all_disclosures() {
        let md = card().to_markdown();
        for needle in [
            "Carbon impact statement: LM",
            "8x NVIDIA V100",
            "total runtime: 3.00 d",
            "1.200 MWh",
            "PUE 1.10",
            "location-based",
            "operational",
            "embodied",
            "vehicle-miles",
            "simulated NVML",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
    }

    #[test]
    fn accessors() {
        let c = card();
        assert_eq!(c.model_name(), "LM");
        assert!((c.training().total().as_kilograms() - 626.0).abs() < 1e-9);
        assert_eq!(c.energy(), Energy::from_megawatt_hours(1.2));
    }

    #[test]
    fn inference_section_renders_when_deployed() {
        let c = CarbonCard::builder("RM1")
            .hardware("CPU inference tier", 200, TimeSpan::from_days(90.0))
            .inference_per_day(CarbonFootprint::new(Co2e::from_kilograms(50.0), Co2e::ZERO))
            .build()
            .unwrap();
        assert!(c.to_markdown().contains("per day"));
    }

    #[test]
    fn serde_round_trip() {
        let c = card();
        let json = serde_json::to_string(&c).unwrap();
        let back: CarbonCard = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn display_equals_markdown() {
        let c = card();
        assert_eq!(c.to_string(), c.to_markdown());
    }
}
