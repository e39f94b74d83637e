//! Entry storage: a process-local in-memory map and an optional on-disk
//! store whose entries are self-validating.
//!
//! The disk format is deliberately paranoid. Accounting results are only
//! trusted when re-derivable, so a cache that served a stale or mangled
//! entry would silently corrupt every downstream figure. Each entry file
//! therefore carries a versioned header plus an FNV-1a payload checksum,
//! and *every* validation failure — short file, wrong magic, old format,
//! different crate version, fingerprint mismatch, length mismatch,
//! checksum mismatch — degrades to a miss. Loading never panics and never
//! returns bytes it cannot vouch for.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fmt, fs};

use parking_lot::Mutex;

use crate::key::{fnv1a, Fingerprint};

/// Magic bytes opening every entry file: "SUSTain Cache CHunk", version 1.
const MAGIC: &[u8; 8] = b"SUSTCCH1";
/// Bumped whenever the header or payload encoding changes shape; old
/// entries become misses instead of misreads.
const FORMAT_VERSION: u32 = 1;
/// The writing crate's version, folded into the header so entries written
/// by a different build of the workspace invalidate themselves.
const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Process-local entry map, keyed by (namespace, fingerprint).
///
/// Values are the encoded payload bytes; decoding stays the caller's job so
/// a decode failure can be handled as a miss at the cache layer.
pub struct MemoryStore {
    entries: Mutex<BTreeMap<(&'static str, u64), Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> MemoryStore {
        MemoryStore {
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// The stored payload for `fingerprint` in `namespace`, if any.
    pub fn load(&self, namespace: &'static str, fingerprint: Fingerprint) -> Option<Vec<u8>> {
        self.entries
            .lock()
            .get(&(namespace, fingerprint.as_u64()))
            .cloned()
    }

    /// Stores (or replaces) the payload for `fingerprint` in `namespace`.
    pub fn save(&self, namespace: &'static str, fingerprint: Fingerprint, payload: &[u8]) {
        self.entries
            .lock()
            .insert((namespace, fingerprint.as_u64()), payload.to_vec());
    }

    /// Drops the entry for `fingerprint`, if present.
    pub fn evict(&self, namespace: &'static str, fingerprint: Fingerprint) {
        self.entries
            .lock()
            .remove(&(namespace, fingerprint.as_u64()));
    }

    /// Number of live entries (diagnostic).
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MemoryStore {
    fn default() -> MemoryStore {
        MemoryStore::new()
    }
}

impl fmt::Debug for MemoryStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryStore")
            .field("entries", &self.len())
            .finish()
    }
}

/// Monotonic per-process counter distinguishing concurrent tmp files.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// On-disk entry store rooted at one directory (conventionally
/// `target/sustain-cache/`).
///
/// One file per entry, named `<namespace>-<fingerprint-hex>.bin`. Writes go
/// through a temp file in the same directory followed by a rename, so a
/// crash mid-write leaves either the old entry or no entry — never a torn
/// one (and a torn one would fail its checksum anyway).
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        Ok(DiskStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The entry file path for a key.
    pub fn entry_path(&self, namespace: &str, fingerprint: Fingerprint) -> PathBuf {
        self.dir
            .join(format!("{namespace}-{}.bin", fingerprint.to_hex()))
    }

    /// Loads and validates the entry for `fingerprint`; any failure — I/O,
    /// header, checksum — is `None`.
    pub fn load(&self, namespace: &str, fingerprint: Fingerprint) -> Option<Vec<u8>> {
        let bytes = fs::read(self.entry_path(namespace, fingerprint)).ok()?;
        decode_entry(&bytes, fingerprint)
    }

    /// Persists the entry for `fingerprint`. I/O errors are reported, not
    /// panicked: callers treat a failed save as "this entry stays cold".
    pub fn save(
        &self,
        namespace: &str,
        fingerprint: Fingerprint,
        payload: &[u8],
    ) -> io::Result<()> {
        let encoded = encode_entry(fingerprint, payload);
        let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{nonce}-{namespace}-{}.bin",
            std::process::id(),
            fingerprint.to_hex()
        ));
        let result = (|| {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&encoded)?;
            file.sync_all()?;
            fs::rename(&tmp, self.entry_path(namespace, fingerprint))
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Removes the entry file for `fingerprint` (used to repair a
    /// corrupted entry after recomputation).
    pub fn evict(&self, namespace: &str, fingerprint: Fingerprint) {
        let _ = fs::remove_file(self.entry_path(namespace, fingerprint));
    }
}

/// Serializes a payload with the versioned, checksummed header.
fn encode_entry(fingerprint: Fingerprint, payload: &[u8]) -> Vec<u8> {
    let version_bytes = CRATE_VERSION.as_bytes();
    let mut out = Vec::with_capacity(MAGIC.len() + 40 + version_bytes.len() + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(version_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(version_bytes);
    out.extend_from_slice(&fingerprint.as_u64().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates an encoded entry end to end, returning the payload only when
/// every header field and the checksum agree with what a fresh write for
/// `expected` would have produced.
fn decode_entry(bytes: &[u8], expected: Fingerprint) -> Option<Vec<u8>> {
    let mut reader = EntryReader { rest: bytes };
    if reader.take(MAGIC.len())? != MAGIC.as_slice() {
        return None;
    }
    if reader.take_u32()? != FORMAT_VERSION {
        return None;
    }
    let version_len = reader.take_u32()? as usize;
    if reader.take(version_len)? != CRATE_VERSION.as_bytes() {
        return None;
    }
    if reader.take_u64()? != expected.as_u64() {
        return None;
    }
    let payload_len = reader.take_u64()?;
    let checksum = reader.take_u64()?;
    let payload = reader.rest;
    if payload.len() as u64 != payload_len {
        return None;
    }
    if fnv1a(payload) != checksum {
        return None;
    }
    Some(payload.to_vec())
}

/// Bounds-checked cursor over an entry's bytes; every read is an `Option`
/// so a truncated file can never index out of range.
struct EntryReader<'a> {
    rest: &'a [u8],
}

impl<'a> EntryReader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.rest.len() < n {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    fn take_u32(&mut self) -> Option<u32> {
        let mut buf = [0u8; 4];
        buf.copy_from_slice(self.take(4)?);
        Some(u32::from_le_bytes(buf))
    }

    fn take_u64(&mut self) -> Option<u64> {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(self.take(8)?);
        Some(u64::from_le_bytes(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{CacheKey, KeyEncoder};

    struct K(u64);
    impl CacheKey for K {
        fn namespace(&self) -> &'static str {
            "test"
        }
        fn encode_key(&self, enc: &mut KeyEncoder) {
            enc.write_u64(self.0);
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sustain-cache-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_round_trips_and_evicts() {
        let store = MemoryStore::new();
        let fp = K(1).fingerprint();
        assert!(store.load("test", fp).is_none());
        store.save("test", fp, b"payload");
        assert_eq!(
            store.load("test", fp).as_deref(),
            Some(b"payload".as_slice())
        );
        assert_eq!(store.len(), 1);
        store.evict("test", fp);
        assert!(store.load("test", fp).is_none());
        assert!(store.is_empty());
    }

    #[test]
    fn disk_store_round_trips() {
        let dir = tmp_dir("roundtrip");
        let store = DiskStore::open(&dir).unwrap();
        let fp = K(2).fingerprint();
        assert!(store.load("test", fp).is_none());
        store.save("test", fp, b"bytes on disk").unwrap();
        assert_eq!(
            store.load("test", fp).as_deref(),
            Some(b"bytes on disk".as_slice())
        );
        store.evict("test", fp);
        assert!(store.load("test", fp).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_corruption_class_degrades_to_a_miss() {
        let fp = K(3).fingerprint();
        let good = encode_entry(fp, b"sound payload");
        assert!(decode_entry(&good, fp).is_some());

        // Truncation anywhere in the file.
        for cut in 0..good.len() {
            assert!(
                decode_entry(&good[..cut], fp).is_none(),
                "truncated at {cut} must miss"
            );
        }
        // Any single flipped byte: header fields, lengths, checksum, or
        // payload — the checksum or a header check must catch it.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(decode_entry(&bad, fp).is_none(), "flip at {i} must miss");
        }
        // Entry stored under one fingerprint, asked for as another.
        assert!(decode_entry(&good, K(4).fingerprint()).is_none());
        // Trailing garbage breaks the recorded payload length.
        let mut extended = good.clone();
        extended.push(0);
        assert!(decode_entry(&extended, fp).is_none());
    }

    #[test]
    fn version_change_invalidates_entries() {
        let fp = K(5).fingerprint();
        let mut entry = encode_entry(fp, b"old build");
        // Rewrite the format-version field in place.
        entry[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(decode_entry(&entry, fp).is_none());
    }

    #[test]
    fn disk_store_treats_garbage_files_as_misses() {
        let dir = tmp_dir("garbage");
        let store = DiskStore::open(&dir).unwrap();
        let fp = K(6).fingerprint();
        fs::write(store.entry_path("test", fp), b"not a cache entry").unwrap();
        assert!(store.load("test", fp).is_none());
        fs::write(store.entry_path("test", fp), b"").unwrap();
        assert!(store.load("test", fp).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
