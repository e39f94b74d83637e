//! # sustain-workload
//!
//! ML workload models: everything the paper measures, as parametric Rust types.
//!
//! * [`models`] — descriptors for the paper's production models (LM, RM1–RM5)
//!   and the open-source comparison set (BERT-NAS, T5, Meena, GShard-600B,
//!   Switch Transformer, GPT-3) with published training footprints.
//! * [`recsys`] — the DLRM structure: dense MLP + sparse embedding tables,
//!   memory footprints and bandwidth demands (§III-B).
//! * [`training`] — training-job distributions calibrated to the paper's
//!   published percentiles.
//! * [`inference`] — inference serving: predictions/day, per-prediction energy.
//! * [`scaling`] — model/data scaling laws: quality vs size (Fig 2a) and the
//!   normalized-entropy energy frontier (Fig 12).
//! * [`datagrowth`] — growth trends behind Fig 2b–d and Fig 8.
//! * [`growth`] — the arXiv publication-growth model behind Fig 1.
//! * [`phases`] — phase capacity/energy splits behind Fig 3.
//! * [`ssl`] — the supervised vs self-supervised training-effort trade-off
//!   (Appendix C).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod constants;
pub mod datagrowth;
pub mod datapipeline;
pub mod experimentation;
pub mod growth;
pub mod inference;
pub mod models;
pub mod phases;
pub mod recsys;
pub mod scaling;
pub mod ssl;
pub mod training;

pub use models::{MlModel, ModelKind, OssModel, ProductionModel};
