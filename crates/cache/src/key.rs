//! Content-addressed cache keys: a canonical byte encoding and its FNV-1a
//! fingerprint.
//!
//! A [`CacheKey`] describes the *complete* set of inputs of a memoized
//! computation. Implementations stream their inputs into a [`KeyEncoder`],
//! which folds a canonical, type-tagged byte encoding into a 64-bit FNV-1a
//! hash. Because the encoding is over field *values* (never over how a
//! config was constructed), two semantically identical configurations —
//! whatever builder-call order produced them — always share a
//! [`Fingerprint`], and any single-field change produces a different byte
//! stream and (with FNV-1a's avalanche over the 30-odd keys this workspace
//! caches) a different fingerprint.

use std::fmt;

/// FNV-1a 64-bit offset basis (Fowler–Noll–Vo, as specified at
/// <http://www.isthe.com/chongo/tech/comp/fnv/>).
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64-bit state.
fn fnv1a_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The FNV-1a 64-bit hash of a byte slice (used by the disk store for
/// payload checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET_BASIS, bytes)
}

/// A 64-bit content fingerprint produced by [`KeyEncoder::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// The raw 64-bit hash.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Fixed-width lowercase hex rendering (16 chars), used for entry file
    /// names.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Type tags prefixed to every encoded value so adjacent fields of
/// different types can never alias each other's byte streams.
mod tag {
    pub const U64: u8 = 1;
    pub const F64: u8 = 3;
    pub const STR: u8 = 5;
    pub const SOME: u8 = 7;
    pub const NONE: u8 = 8;
}

/// Streams a canonical, type-tagged byte encoding into an FNV-1a hash.
///
/// Every `write_*` method emits a one-byte type tag followed by a
/// fixed-width little-endian payload (variable-size payloads are length
/// prefixed), so the encoding is prefix-free: no sequence of writes can
/// collide with a different sequence of writes at the byte level.
#[derive(Debug, Clone)]
pub struct KeyEncoder {
    state: u64,
}

impl KeyEncoder {
    /// A fresh encoder at the FNV-1a offset basis.
    pub fn new() -> KeyEncoder {
        KeyEncoder {
            state: FNV_OFFSET_BASIS,
        }
    }

    fn write_raw(&mut self, bytes: &[u8]) {
        self.state = fnv1a_fold(self.state, bytes);
    }

    fn write_tag(&mut self, tag: u8) {
        self.write_raw(&[tag]);
    }

    /// Encodes an unsigned integer.
    pub fn write_u64(&mut self, value: u64) {
        self.write_tag(tag::U64);
        self.write_raw(&value.to_le_bytes());
    }

    /// Encodes a float by its IEEE-754 bits, canonicalizing `-0.0` to `0.0`
    /// and every NaN to one bit pattern so semantically equal inputs share
    /// an encoding.
    pub fn write_f64(&mut self, value: f64) {
        // lint:allow(float-eq) exact comparison intended: 0.0 == -0.0 is the signed-zero canonicalization
        let canonical = if value == 0.0 {
            0.0f64
        } else if value.is_nan() {
            f64::NAN
        } else {
            value
        };
        self.write_tag(tag::F64);
        self.write_raw(&canonical.to_bits().to_le_bytes());
    }

    /// Encodes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, value: &str) {
        self.write_tag(tag::STR);
        self.write_raw(&(value.len() as u64).to_le_bytes());
        self.write_raw(value.as_bytes());
    }

    /// Encodes an optional value: a presence tag, then (when present) the
    /// value via `encode`.
    pub fn write_option<T>(&mut self, value: Option<&T>, encode: impl FnOnce(&mut KeyEncoder, &T)) {
        match value {
            Some(inner) => {
                self.write_tag(tag::SOME);
                encode(self, inner);
            }
            None => self.write_tag(tag::NONE),
        }
    }

    /// Encodes a value through its `Debug` rendering.
    ///
    /// Derived `Debug` is a total, deterministic rendering of a value
    /// (floats print shortest-roundtrip), which makes it a sound canonical
    /// encoding for nested config structs without hand-writing one
    /// `write_*` call per field — any field change shows up in the
    /// rendering, and construction order cannot (the rendering is over the
    /// final value).
    pub fn write_debug<T: fmt::Debug>(&mut self, value: &T) {
        self.write_str(&format!("{value:?}"));
    }

    /// The fingerprint of everything written.
    pub fn finish(self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl Default for KeyEncoder {
    fn default() -> KeyEncoder {
        KeyEncoder::new()
    }
}

/// The complete set of inputs of a memoizable computation.
///
/// `namespace` partitions the key space per computation kind (`"figure"`,
/// `"replica"`, …) and is folded into the fingerprint ahead of the key
/// fields, so equal field encodings in different namespaces never collide.
pub trait CacheKey {
    /// The computation family this key belongs to. Must be filename-safe
    /// (lowercase ASCII and `-`): it becomes part of disk entry names.
    fn namespace(&self) -> &'static str;

    /// Streams every input of the computation into `enc`. Completeness is
    /// the implementor's contract: an input left out of the encoding is an
    /// input whose change the cache will not notice.
    fn encode_key(&self, enc: &mut KeyEncoder);

    /// The content fingerprint: namespace, then the key fields.
    fn fingerprint(&self) -> Fingerprint {
        let mut enc = KeyEncoder::new();
        enc.write_str(self.namespace());
        self.encode_key(&mut enc);
        enc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Pair(u64, u64);
    impl CacheKey for Pair {
        fn namespace(&self) -> &'static str {
            "pair"
        }
        fn encode_key(&self, enc: &mut KeyEncoder) {
            enc.write_u64(self.0);
            enc.write_u64(self.1);
        }
    }

    #[test]
    fn equal_writes_share_a_fingerprint() {
        assert_eq!(Pair(1, 2).fingerprint(), Pair(1, 2).fingerprint());
        assert_eq!(Pair(7, 9).fingerprint().to_hex().len(), 16);
    }

    #[test]
    fn order_and_value_changes_change_the_fingerprint() {
        assert_ne!(Pair(1, 2).fingerprint(), Pair(2, 1).fingerprint());
        assert_ne!(Pair(1, 2).fingerprint(), Pair(1, 3).fingerprint());
    }

    #[test]
    fn string_encoding_is_prefix_free() {
        let split_ab = {
            let mut e = KeyEncoder::new();
            e.write_str("ab");
            e.write_str("c");
            e.finish()
        };
        let split_a = {
            let mut e = KeyEncoder::new();
            e.write_str("a");
            e.write_str("bc");
            e.finish()
        };
        assert_ne!(split_ab, split_a, "length prefixes must disambiguate");
    }

    #[test]
    fn type_tags_disambiguate_equal_payloads() {
        let as_u64 = {
            let mut e = KeyEncoder::new();
            e.write_u64(42.0f64.to_bits());
            e.finish()
        };
        let as_f64 = {
            let mut e = KeyEncoder::new();
            e.write_f64(42.0);
            e.finish()
        };
        assert_ne!(as_u64, as_f64);
    }

    #[test]
    fn float_encoding_canonicalizes_signed_zero_and_nan() {
        let enc = |v: f64| {
            let mut e = KeyEncoder::new();
            e.write_f64(v);
            e.finish()
        };
        assert_eq!(enc(0.0), enc(-0.0));
        assert_eq!(enc(f64::NAN), enc(-f64::NAN));
        assert_ne!(enc(0.0), enc(1.0));
        assert_ne!(enc(1.5), enc(-1.5));
    }

    #[test]
    fn option_encoding_distinguishes_none_from_default() {
        let some_zero = {
            let mut e = KeyEncoder::new();
            e.write_option(Some(&0u64), |e, v| e.write_u64(*v));
            e.finish()
        };
        let none = {
            let mut e = KeyEncoder::new();
            e.write_option(None::<&u64>, |e, v| e.write_u64(*v));
            e.finish()
        };
        assert_ne!(some_zero, none);
    }

    #[test]
    fn namespace_partitions_the_key_space() {
        struct Other(u64, u64);
        impl CacheKey for Other {
            fn namespace(&self) -> &'static str {
                "other"
            }
            fn encode_key(&self, enc: &mut KeyEncoder) {
                enc.write_u64(self.0);
                enc.write_u64(self.1);
            }
        }
        assert_ne!(Pair(1, 2).fingerprint(), Other(1, 2).fingerprint());
    }

    #[test]
    fn debug_encoding_tracks_value_changes() {
        // Fields are read only through the Debug rendering.
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Cfg {
            rate: f64,
            on: bool,
        }
        let enc = |c: &Cfg| {
            let mut e = KeyEncoder::new();
            e.write_debug(c);
            e.finish()
        };
        let base = Cfg {
            rate: 0.25,
            on: true,
        };
        assert_eq!(enc(&base), enc(&Cfg { ..base }));
        assert_ne!(
            enc(&base),
            enc(&Cfg {
                rate: 0.5,
                on: true
            })
        );
        assert_ne!(
            enc(&base),
            enc(&Cfg {
                rate: 0.25,
                on: false
            })
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Reference vectors from the FNV specification page.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
