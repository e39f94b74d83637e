//! # sustain-cache — content-addressed incremental recomputation
//!
//! Every figure and Monte Carlo replica in this workspace is a pure
//! function of its configuration and seed. Recomputing unchanged results
//! on every run spends exactly the operational energy the source paper
//! (Wu et al., *Sustainable AI: Environmental Implications, Challenges
//! and Opportunities*, MLSys 2022) argues we should be accounting for —
//! the cheapest figure is the one you do not regenerate. This crate is
//! the workspace's memoization layer: computations are keyed by a stable
//! FNV-1a fingerprint of a canonical byte encoding of *all* their inputs,
//! and served from an in-memory store backed by an optional on-disk store
//! (conventionally `target/sustain-cache/`).
//!
//! Accounting results are only trusted when independently re-derivable,
//! so the cache's contract is transparency, not best-effort reuse:
//!
//! - **Keys are content, not provenance.** [`CacheKey`] implementations
//!   encode field values through [`KeyEncoder`]; construction order,
//!   builder style, and thread count cannot reach the fingerprint.
//! - **A bad entry is a miss, never a panic.** Disk entries carry a
//!   versioned header and an FNV-1a payload checksum; any validation or
//!   decode failure evicts the entry and falls through to recomputation.
//! - **Warm output is byte-identical to cold output.** Enforced by the
//!   differential suite in `tests/cache_correctness.rs` at the workspace
//!   root, not by convention.
//!
//! ```
//! use sustain_cache::{Cache, CacheKey, KeyEncoder};
//!
//! struct Square(u64);
//! impl CacheKey for Square {
//!     fn namespace(&self) -> &'static str { "square" }
//!     fn encode_key(&self, enc: &mut KeyEncoder) { enc.write_u64(self.0); }
//! }
//!
//! let cache = Cache::in_memory();
//! let a: String = cache.get_or_compute(&Square(12), || (12u64 * 12).to_string());
//! let b: String = cache.get_or_compute(&Square(12), || unreachable!("served from cache"));
//! assert_eq!(a, b);
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cache;
pub mod key;
pub mod store;

pub use cache::{Cache, CacheValue};
pub use key::{fnv1a, CacheKey, Fingerprint, KeyEncoder};
pub use store::{DiskStore, MemoryStore};
