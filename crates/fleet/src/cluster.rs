//! GPU clusters: homogeneous groups of training servers.

use serde::{Deserialize, Serialize};

use sustain_core::units::{Co2e, Fraction, Power};

use crate::server::{ServerKind, ServerSku};

/// A homogeneous cluster of servers of one SKU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    sku: ServerSku,
    servers: u32,
}

impl Cluster {
    /// Creates a cluster.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(sku: ServerSku, servers: u32) -> Cluster {
        assert!(servers > 0, "a cluster needs at least one server");
        Cluster { sku, servers }
    }

    /// A GPU training cluster of `servers` preset training servers.
    pub fn gpu_training(servers: u32) -> Cluster {
        Cluster::new(ServerSku::preset(ServerKind::GpuTraining), servers)
    }

    /// The SKU.
    pub fn sku(&self) -> &ServerSku {
        &self.sku
    }

    /// Number of servers.
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Total accelerators in the cluster.
    pub fn total_gpus(&self) -> u32 {
        self.servers * self.sku.accelerators()
    }

    /// Cluster power when every server runs at `utilization`.
    // lint:allow(test-only-pub) (a) the power envelope a FleetSim energy test is held to
    pub fn power_at(&self, utilization: Fraction) -> Power {
        self.sku.power(utilization) * self.servers as f64
    }

    /// Total embodied carbon of the cluster.
    pub fn total_embodied(&self) -> Co2e {
        self.sku.embodied().total() * self.servers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_cluster_counts() {
        let c = Cluster::gpu_training(100);
        assert_eq!(c.servers(), 100);
        assert_eq!(c.total_gpus(), 800);
        assert_eq!(c.total_embodied(), Co2e::from_tonnes(200.0));
    }

    #[test]
    fn power_scales_with_servers_and_utilization() {
        let c = Cluster::gpu_training(10);
        let idle = c.power_at(Fraction::ZERO);
        let full = c.power_at(Fraction::ONE);
        assert!((idle.as_kilowatts() - 4.2).abs() < 1e-9);
        assert!((full.as_kilowatts() - 28.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn rejects_empty_cluster() {
        let _ = Cluster::gpu_training(0);
    }
}
