//! Model quantization (§III-B).
//!
//! The paper's anchors:
//!
//! * converting fp32 → fp16 reduced overall **RM2** model size by **15 %**
//!   and memory-bandwidth consumption by **20.7 %** (quantization is applied
//!   to the *hottest* tables first, so bandwidth falls faster than size);
//! * for **RM1**, the capacity reduction unlocked deployment on power-
//!   efficient systems with smaller on-chip memory, improving end-to-end
//!   inference latency by **2.5×**.

use serde::{Deserialize, Serialize};
use std::fmt;

use sustain_core::units::{DataVolume, Fraction};
use sustain_workload::recsys::DlrmConfig;

/// A numeric storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum NumericFormat {
    /// 32-bit IEEE float.
    Fp32,
    /// 16-bit IEEE float.
    Fp16,
    /// bfloat16.
    Bf16,
    /// 8-bit integer with per-row scales.
    Int8,
}

impl NumericFormat {
    /// Bytes per element.
    pub fn bytes(&self) -> u32 {
        match self {
            NumericFormat::Fp32 => 4,
            NumericFormat::Fp16 | NumericFormat::Bf16 => 2,
            NumericFormat::Int8 => 1,
        }
    }
}

impl fmt::Display for NumericFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            NumericFormat::Fp32 => "fp32",
            NumericFormat::Fp16 => "fp16",
            NumericFormat::Bf16 => "bf16",
            NumericFormat::Int8 => "int8",
        };
        f.write_str(name)
    }
}

/// The measured effect of a quantization pass on a DLRM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantizationReport {
    /// Model size before.
    pub size_before: DataVolume,
    /// Model size after.
    pub size_after: DataVolume,
    /// Per-query bytes before.
    pub bandwidth_before: DataVolume,
    /// Per-query bytes after.
    pub bandwidth_after: DataVolume,
}

impl QuantizationReport {
    /// Fractional size reduction.
    pub fn size_reduction(&self) -> Fraction {
        Fraction::saturating(1.0 - self.size_after / self.size_before)
    }

    /// Fractional bandwidth reduction.
    pub fn bandwidth_reduction(&self) -> Fraction {
        Fraction::saturating(1.0 - self.bandwidth_after / self.bandwidth_before)
    }
}

/// Quantizes the hottest embedding tables (by per-query traffic) until
/// `traffic_share` of the per-query bytes are covered, converting them to
/// `format`. Returns the before/after report.
///
/// ```rust
/// use sustain_optim::quantization::{quantize_hottest, rm2_like, NumericFormat};
/// use sustain_core::units::Fraction;
///
/// let mut rm2 = rm2_like();
/// let report = quantize_hottest(&mut rm2, NumericFormat::Fp16, Fraction::saturating(0.41));
/// assert!(report.bandwidth_reduction() > report.size_reduction());
/// ```
///
/// Quantizing hot-first is why bandwidth savings outpace size savings —
/// the paper's RM2 signature (−20.7 % bandwidth vs −15 % size).
pub fn quantize_hottest(
    config: &mut DlrmConfig,
    format: NumericFormat,
    traffic_share: Fraction,
) -> QuantizationReport {
    let size_before = config.model_size();
    let bandwidth_before = config.bytes_per_query();

    // Order table indices by per-query traffic, hottest first.
    let mut order: Vec<usize> = (0..config.tables().len()).collect();
    order.sort_by(|&a, &b| {
        let ta = config.tables()[a].bytes_per_query().as_bytes();
        let tb = config.tables()[b].bytes_per_query().as_bytes();
        tb.total_cmp(&ta)
    });

    let target = bandwidth_before.as_bytes() * traffic_share.value();
    let mut covered = 0.0;
    for idx in order {
        if covered >= target {
            break;
        }
        let t = config.tables()[idx];
        covered += t.bytes_per_query().as_bytes();
        config.tables_mut()[idx] = t.with_element_bytes(format.bytes());
    }

    QuantizationReport {
        size_before,
        size_after: config.model_size(),
        bandwidth_before,
        bandwidth_after: config.bytes_per_query(),
    }
}

/// The latency effect of fitting a model into on-chip memory (the RM1 story):
/// if the quantized model fits the target system's memory and the original
/// did not, end-to-end latency improves by the published 2.5×.
pub fn deployment_latency_gain(
    before: DataVolume,
    after: DataVolume,
    target_memory: DataVolume,
) -> f64 {
    if after <= target_memory && before > target_memory {
        2.5
    } else {
        1.0
    }
}

/// Builds an RM2-like configuration where the hot tables carry ~41 % of
/// traffic and ~30 % of bytes, so fp16 quantization of the hot set reproduces
/// the paper's −15 % size / −20.7 % bandwidth anchors.
pub fn rm2_like() -> DlrmConfig {
    use sustain_workload::recsys::EmbeddingTable;
    let mut tables = Vec::new();
    // 20 hot tables: large and very high pooling (hot traffic).
    for _ in 0..20 {
        tables.push(EmbeddingTable::new(20_000_000, 64, 4, 60));
    }
    // 180 cold tables: bulk of the bytes, light traffic.
    for _ in 0..180 {
        tables.push(EmbeddingTable::new(3_500_000, 64, 4, 5));
    }
    DlrmConfig::new(vec![512, 256, 64], vec![512, 256, 1], tables)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bytes() {
        assert_eq!(NumericFormat::Fp32.bytes(), 4);
        assert_eq!(NumericFormat::Fp16.bytes(), 2);
        assert_eq!(NumericFormat::Bf16.bytes(), 2);
        assert_eq!(NumericFormat::Int8.bytes(), 1);
    }

    #[test]
    fn rm2_anchor_size_and_bandwidth() {
        // Paper: fp16 quantization → RM2 size −15 %, bandwidth −20.7 %.
        let mut rm2 = rm2_like();
        let report = quantize_hottest(&mut rm2, NumericFormat::Fp16, Fraction::saturating(0.41));
        let size = report.size_reduction().value();
        let bw = report.bandwidth_reduction().value();
        assert!((size - 0.15).abs() < 0.03, "size reduction {size}");
        assert!((bw - 0.207).abs() < 0.03, "bandwidth reduction {bw}");
        // Hot-first quantization makes bandwidth fall faster than size.
        assert!(bw > size);
    }

    #[test]
    fn quantizing_everything_halves_both() {
        let mut rm2 = rm2_like();
        let report = quantize_hottest(&mut rm2, NumericFormat::Fp16, Fraction::ONE);
        // Embeddings dominate, so both approach 50 % (dense stays fp32).
        assert!(report.size_reduction().value() > 0.45);
        assert!((report.bandwidth_reduction().value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_share_is_identity() {
        let mut rm2 = rm2_like();
        let report = quantize_hottest(&mut rm2, NumericFormat::Fp16, Fraction::ZERO);
        assert_eq!(report.size_reduction(), Fraction::ZERO);
        assert_eq!(report.bandwidth_reduction(), Fraction::ZERO);
    }

    #[test]
    fn int8_saves_more_than_fp16() {
        let mut a = rm2_like();
        let mut b = rm2_like();
        let fp16 = quantize_hottest(&mut a, NumericFormat::Fp16, Fraction::ONE);
        let int8 = quantize_hottest(&mut b, NumericFormat::Int8, Fraction::ONE);
        assert!(int8.size_reduction() > fp16.size_reduction());
    }

    #[test]
    fn rm1_latency_gain_when_fitting_memory() {
        // Paper: quantization enabled RM1 on small-memory systems → 2.5×.
        let before = DataVolume::from_gigabytes(100.0);
        let after = DataVolume::from_gigabytes(60.0);
        let memory = DataVolume::from_gigabytes(64.0);
        assert_eq!(deployment_latency_gain(before, after, memory), 2.5);
        // No gain if it already fit, or still doesn't fit.
        assert_eq!(
            deployment_latency_gain(DataVolume::from_gigabytes(50.0), after, memory),
            1.0
        );
        assert_eq!(
            deployment_latency_gain(before, DataVolume::from_gigabytes(70.0), memory),
            1.0
        );
    }

    #[test]
    fn display() {
        assert_eq!(NumericFormat::Bf16.to_string(), "bf16");
    }
}
