//! Server SKUs (§III-C).
//!
//! Facebook customizes server SKUs per internal workload — compute, memcached,
//! storage tiers, and ML accelerators. Each SKU here carries a power envelope
//! (idle/peak) and an embodied-carbon model, so fleet simulations account for
//! both sides of the footprint.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::embodied::EmbodiedModel;
use sustain_core::units::{Fraction, Power};
use sustain_telemetry::device::{LinearPowerModel, PowerModel};

/// The workload tier a server SKU is customized for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ServerKind {
    /// Web/compute tier.
    Compute,
    /// Memcached tier (DRAM-heavy).
    Memcached,
    /// Storage tier (disk-heavy).
    Storage,
    /// GPU training server (8 accelerators).
    GpuTraining,
    /// CPU inference server.
    Inference,
}

impl ServerKind {
    /// All SKUs, in declaration order.
    pub const ALL: [ServerKind; 5] = [
        ServerKind::Compute,
        ServerKind::Memcached,
        ServerKind::Storage,
        ServerKind::GpuTraining,
        ServerKind::Inference,
    ];
}

impl fmt::Display for ServerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ServerKind::Compute => "compute",
            ServerKind::Memcached => "memcached",
            ServerKind::Storage => "storage",
            ServerKind::GpuTraining => "gpu-training",
            ServerKind::Inference => "inference",
        };
        f.write_str(name)
    }
}

/// A server SKU: power envelope, accelerator count and embodied model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSku {
    kind: ServerKind,
    power: LinearPowerModel,
    accelerators: u32,
    embodied: EmbodiedModel,
}

impl ServerSku {
    /// Creates a SKU from its parts.
    pub fn new(
        kind: ServerKind,
        power: LinearPowerModel,
        accelerators: u32,
        embodied: EmbodiedModel,
    ) -> ServerSku {
        ServerSku {
            kind,
            power,
            accelerators,
            embodied,
        }
    }

    /// The paper-calibrated preset for a kind: GPU training servers carry the
    /// 2000 kg embodied footprint (8×V100-class, ~2.8 kW peak), all others are
    /// CPU-class at 1000 kg.
    pub fn preset(kind: ServerKind) -> ServerSku {
        let (idle_w, peak_w, accels) = match kind {
            ServerKind::Compute => (90.0, 400.0, 0),
            ServerKind::Memcached => (110.0, 350.0, 0),
            ServerKind::Storage => (140.0, 420.0, 0),
            ServerKind::GpuTraining => (420.0, 2800.0, 8),
            ServerKind::Inference => (100.0, 450.0, 0),
        };
        let embodied = if kind == ServerKind::GpuTraining {
            // lint:allow(panic-discipline) preset built from vetted paper constants
            EmbodiedModel::gpu_server().expect("preset parameters are valid")
        } else {
            // lint:allow(panic-discipline) preset built from vetted paper constants
            EmbodiedModel::cpu_server().expect("preset parameters are valid")
        };
        ServerSku::new(
            kind,
            LinearPowerModel::new(Power::from_watts(idle_w), Power::from_watts(peak_w)),
            accels,
            embodied,
        )
    }

    /// Number of accelerators on board.
    pub fn accelerators(&self) -> u32 {
        self.accelerators
    }

    /// The power model.
    pub fn power_model(&self) -> &LinearPowerModel {
        &self.power
    }

    /// Power draw at a utilization.
    pub fn power(&self, utilization: Fraction) -> Power {
        self.power.power(utilization)
    }

    /// The embodied model.
    pub fn embodied(&self) -> &EmbodiedModel {
        self.embodied_ref()
    }

    fn embodied_ref(&self) -> &EmbodiedModel {
        &self.embodied
    }
}

impl fmt::Display for ServerSku {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} sku ({} accelerators, peak {})",
            self.kind,
            self.accelerators,
            self.power.peak_power()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sustain_core::units::Co2e;

    #[test]
    fn presets_exist_for_all_kinds() {
        for kind in ServerKind::ALL {
            let sku = ServerSku::preset(kind);
            assert!(sku.power(Fraction::ONE) > sku.power(Fraction::ZERO));
        }
    }

    #[test]
    fn gpu_training_sku_matches_paper_embodied() {
        let sku = ServerSku::preset(ServerKind::GpuTraining);
        assert_eq!(sku.embodied().total(), Co2e::from_kilograms(2000.0));
        assert_eq!(sku.accelerators(), 8);
        // CPU SKUs carry half.
        let cpu = ServerSku::preset(ServerKind::Compute);
        assert_eq!(cpu.embodied().total(), Co2e::from_kilograms(1000.0));
    }

    #[test]
    fn display() {
        let sku = ServerSku::preset(ServerKind::GpuTraining);
        assert!(sku.to_string().contains("gpu-training"));
        assert_eq!(ServerKind::Memcached.to_string(), "memcached");
    }
}
