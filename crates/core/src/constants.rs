//! Named physical constants used by the core accounting models.
//!
//! Every figure here is a *provenanced* number: the doc comment records where
//! it comes from (paper section, cited study, or stated assumption). The
//! `cargo xtask lint` rule `magic-constant` bans bare literals in carbon-unit
//! constructors everywhere else, so this module is the single place to audit
//! when a constant looks wrong in a reproduced figure.

/// Embodied manufacturing footprint of the paper's default GPU training
/// server, in kg CO₂e (Wu et al. §5.1, drawing on "Chasing Carbon"
/// [Gupta et al., 2021] LCA figures for accelerator-dense servers).
pub const GPU_SERVER_EMBODIED_KG: f64 = 2000.0;

/// Embodied footprint of a CPU-only web/storage server, in kg CO₂e — the
/// paper treats it as roughly half the GPU server's manufacturing cost.
pub const CPU_SERVER_EMBODIED_KG: f64 = 1000.0;
