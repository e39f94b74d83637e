//! Named workload-model constants with provenance.
//!
//! The `cargo xtask lint` rule `magic-constant` bans bare literals in
//! carbon-unit constructors, so every calibrated figure the workload models
//! rely on lives here with a doc comment recording where it comes from.

/// Operating power of a petabyte of HDD storage (drives + enclosures +
/// fans), in watts — order-of-magnitude from datacenter storage TCO studies
/// the paper's data-growth discussion (§II-B) leans on.
pub const HDD_POWER_PER_PB_WATTS: f64 = 900.0;

/// Operating power of a petabyte of NAND-flash SSD storage, in watts —
/// flash idles far below spinning media.
pub const SSD_POWER_PER_PB_WATTS: f64 = 350.0;

/// Embodied carbon of a deployed petabyte of HDD, in tonnes CO₂e.
pub const HDD_EMBODIED_PER_PB_TONNES: f64 = 3.0;

/// Embodied carbon of a deployed petabyte of SSD, in tonnes CO₂e — NAND
/// fabrication dominates, so flash embodied ≫ HDD per byte ("Chasing
/// Carbon" [Gupta et al., 2021]).
pub const SSD_EMBODIED_PER_PB_TONNES: f64 = 25.0;
