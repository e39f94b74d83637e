//! The deep-learning recommendation model (DLRM) structure (§III-B).
//!
//! A recommendation model has two sub-nets: a dense fully-connected network
//! (MLPs, compute-bound) and a sparse embedding network projecting hundreds of
//! high-dimensional categorical features to low-dimensional vectors. The
//! embedding tables easily contribute **over 95 % of total model size**, and
//! embedding lookups dominate inference time for many ranking use cases —
//! which is why the paper's RM optimizations (quantization, caching) all
//! target the memory system.

use serde::{Deserialize, Serialize};

use sustain_core::units::DataVolume;

/// One sparse embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EmbeddingTable {
    rows: u64,
    dim: u32,
    bytes_per_element: u32,
    /// Average lookups (pooling factor) per inference.
    lookups_per_query: u32,
}

impl EmbeddingTable {
    /// Creates a table.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any dimension is zero.
    pub fn new(
        rows: u64,
        dim: u32,
        bytes_per_element: u32,
        lookups_per_query: u32,
    ) -> EmbeddingTable {
        debug_assert!(rows > 0 && dim > 0 && bytes_per_element > 0);
        EmbeddingTable {
            rows,
            dim,
            bytes_per_element,
            lookups_per_query,
        }
    }

    /// Number of rows (hash-bucket cardinality).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Storage size of the table.
    pub fn size(&self) -> DataVolume {
        DataVolume::from_bytes(self.rows as f64 * self.dim as f64 * self.bytes_per_element as f64)
    }

    /// Bytes read from this table per inference query.
    pub fn bytes_per_query(&self) -> DataVolume {
        DataVolume::from_bytes(
            self.lookups_per_query as f64 * self.dim as f64 * self.bytes_per_element as f64,
        )
    }

    /// A copy re-encoded at a different element width (quantization).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `bytes` is zero.
    pub fn with_element_bytes(&self, bytes: u32) -> EmbeddingTable {
        debug_assert!(bytes > 0);
        EmbeddingTable {
            bytes_per_element: bytes,
            ..*self
        }
    }
}

/// A DLRM configuration: dense MLPs plus sparse embedding tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DlrmConfig {
    bottom_mlp: Vec<u64>,
    top_mlp: Vec<u64>,
    tables: Vec<EmbeddingTable>,
    dense_bytes_per_param: u32,
}

impl DlrmConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if either MLP has fewer than two layer widths.
    pub fn new(bottom_mlp: Vec<u64>, top_mlp: Vec<u64>, tables: Vec<EmbeddingTable>) -> DlrmConfig {
        assert!(
            bottom_mlp.len() >= 2 && top_mlp.len() >= 2,
            "MLPs need ≥2 widths"
        );
        DlrmConfig {
            bottom_mlp,
            top_mlp,
            tables,
            dense_bytes_per_param: 4,
        }
    }

    /// A representative production-scale RM: hundreds of embedding tables with
    /// tens of millions of rows each, and comparatively tiny MLPs.
    pub fn production_scale() -> DlrmConfig {
        let tables = (0..200)
            .map(|i| {
                // Table cardinalities spread over two orders of magnitude.
                let rows = 1_000_000 * (1 + (i % 40) as u64);
                EmbeddingTable::new(rows, 64, 4, 20)
            })
            .collect();
        DlrmConfig::new(vec![512, 512, 256, 64], vec![512, 384, 256, 1], tables)
    }

    /// The embedding tables.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// Mutable access for optimization passes (e.g. per-table quantization).
    pub fn tables_mut(&mut self) -> &mut Vec<EmbeddingTable> {
        &mut self.tables
    }

    /// Dense (MLP) parameter count.
    pub fn dense_parameters(&self) -> u64 {
        let count = |widths: &[u64]| -> u64 {
            widths
                .iter()
                .zip(widths.iter().skip(1))
                .map(|(&fan_in, &fan_out)| fan_in * fan_out + fan_out)
                .sum()
        };
        count(&self.bottom_mlp) + count(&self.top_mlp)
    }

    /// Dense sub-net storage size.
    pub fn dense_size(&self) -> DataVolume {
        DataVolume::from_bytes(self.dense_parameters() as f64 * self.dense_bytes_per_param as f64)
    }

    /// Embedding storage size.
    pub fn embedding_size(&self) -> DataVolume {
        self.tables.iter().map(|t| t.size()).sum()
    }

    /// Total model size.
    pub fn model_size(&self) -> DataVolume {
        self.dense_size() + self.embedding_size()
    }

    /// Embedding bytes fetched per inference query — the memory-bandwidth
    /// demand that dominates RM inference.
    pub fn bytes_per_query(&self) -> DataVolume {
        self.tables.iter().map(|t| t.bytes_per_query()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_sizes() {
        let t = EmbeddingTable::new(1_000_000, 64, 4, 20);
        assert!((t.size().as_gigabytes() - 0.256).abs() < 1e-9);
        assert_eq!(t.bytes_per_query().as_bytes(), 20.0 * 64.0 * 4.0);
    }

    #[test]
    fn quantization_halves_table_size() {
        let t = EmbeddingTable::new(1_000_000, 64, 4, 20);
        let q = t.with_element_bytes(2);
        assert!((q.size() / t.size() - 0.5).abs() < 1e-12);
        assert!((q.bytes_per_query() / t.bytes_per_query() - 0.5).abs() < 1e-12);
        assert_eq!(q.rows(), t.rows());
        assert_eq!(q.dim(), t.dim());
    }

    #[test]
    fn production_rm_is_embedding_dominated() {
        let rm = DlrmConfig::production_scale();
        // Paper: embeddings "easily contribute over 95% of the total model size".
        let share = rm.embedding_size() / rm.model_size();
        assert!(share > 0.95, "share {share}");
    }

    #[test]
    fn production_rm_scale_is_plausible() {
        let rm = DlrmConfig::production_scale();
        // Hundreds of GB of embeddings.
        assert!(rm.model_size().as_gigabytes() > 100.0);
        assert_eq!(rm.tables().len(), 200);
    }

    #[test]
    fn dense_parameters_count_weights_and_biases() {
        // 2→3: 2*3 weights + 3 biases = 9 per MLP.
        let cfg = DlrmConfig::new(
            vec![2, 3],
            vec![2, 3],
            vec![EmbeddingTable::new(10, 4, 4, 1)],
        );
        assert_eq!(cfg.dense_parameters(), 18);
    }
}
