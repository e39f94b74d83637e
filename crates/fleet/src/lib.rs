//! # sustain-fleet
//!
//! A datacenter-fleet simulator for carbon accounting at scale.
//!
//! * [`server`] — server SKUs (compute, memcached, storage, GPU training,
//!   inference) with power envelopes and embodied footprints.
//! * [`datacenter`] — datacenter descriptors: region, PUE, capacity,
//!   renewable matching; produce [`OperationalAccount`](sustain_core::operational::OperationalAccount)s.
//! * [`cluster`] — GPU clusters and their aggregate power/energy behaviour.
//! * [`sim`] — an hour-stepped fleet simulation: job arrivals from
//!   calibrated generators, placement, utilization and energy tracking.
//! * [`chaos`] — failure injection for the simulator: host crashes with
//!   checkpoint recovery, wear-out SDC re-runs, intensity-feed gaps, and
//!   degraded power metering.
//! * [`renewable`] — intermittent solar generation traces and the
//!   time-varying grid carbon intensity they induce.
//! * [`storage`] — battery energy storage for 24/7 carbon-free operation.
//! * [`scheduler`] — FIFO vs carbon-aware job scheduling under a varying
//!   intensity signal (the paper's §IV-C design space).
//! * [`utilization`] — GPU utilization distributions (Fig 10) and the
//!   utilization sweep behind Fig 9.
//! * [`jevons`] — efficiency-vs-demand dynamics (Fig 8) and the fleet
//!   electricity trend (Fig 3c).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod capacity;
pub mod chaos;
pub mod cluster;
pub mod constants;
pub mod datacenter;
pub mod disaggregation;
pub mod geo;
pub mod jevons;
pub mod lifetime;
pub mod renewable;
pub mod scheduler;
pub mod server;
pub mod sim;
pub mod storage;
pub mod utilization;

pub use datacenter::DataCenter;
pub use server::{ServerKind, ServerSku};
