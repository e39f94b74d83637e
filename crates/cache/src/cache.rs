//! The cache front-end: `get_or_compute` over the memory and disk stores,
//! with hit/miss accounting and `sustain-obs` instrumentation.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::{fmt, str};

use sustain_obs::AttrValue;

use crate::key::CacheKey;
use crate::store::{DiskStore, MemoryStore};

/// A value that can live in the cache: an owned byte encoding plus a
/// *total* decoder.
///
/// `from_cache_bytes` returns `None` on any malformed input — a decode
/// failure is treated exactly like a checksum failure (the entry is
/// evicted and the value recomputed), so implementations must never panic
/// on hostile bytes.
pub trait CacheValue: Sized {
    /// Serializes the value for storage.
    fn to_cache_bytes(&self) -> Vec<u8>;

    /// Deserializes a stored value; `None` if the bytes are not a valid
    /// encoding.
    fn from_cache_bytes(bytes: &[u8]) -> Option<Self>;
}

impl CacheValue for Vec<u8> {
    fn to_cache_bytes(&self) -> Vec<u8> {
        self.clone()
    }

    fn from_cache_bytes(bytes: &[u8]) -> Option<Vec<u8>> {
        Some(bytes.to_vec())
    }
}

impl CacheValue for String {
    fn to_cache_bytes(&self) -> Vec<u8> {
        self.as_bytes().to_vec()
    }

    fn from_cache_bytes(bytes: &[u8]) -> Option<String> {
        str::from_utf8(bytes).ok().map(str::to_owned)
    }
}

struct Inner {
    memory: MemoryStore,
    disk: Option<DiskStore>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Content-addressed memoization handle.
///
/// Cheap to clone (all clones share the same stores and counters), so one
/// `Cache` can be handed to every parallel task of a fan-out. Lookups
/// consult the in-memory store first, then the disk store when one is
/// configured; computed values are written back to both. Every lookup is
/// wrapped in a `cache.lookup` span and settles as a `cache.hit` or
/// `cache.miss` event plus `cache_hits_total` / `cache_misses_total`
/// counter bump on the ambient [`sustain_obs::handle`], which resolves to
/// the enclosing pool task's fork when running inside `sustain-par`.
#[derive(Clone)]
pub struct Cache {
    inner: Arc<Inner>,
}

impl Cache {
    /// A purely in-memory cache (no persistence across processes).
    // lint:allow(test-only-pub) benchmark: only benchmark/'s sweep_cache builds an in-memory cache
    pub fn in_memory() -> Cache {
        Cache {
            inner: Arc::new(Inner {
                memory: MemoryStore::new(),
                disk: None,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// A cache persisted under `dir` (created if absent), with the
    /// in-memory store layered in front.
    pub fn at_dir(dir: &Path) -> io::Result<Cache> {
        Ok(Cache {
            inner: Arc::new(Inner {
                memory: MemoryStore::new(),
                disk: Some(DiskStore::open(dir)?),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        })
    }

    /// Whether this cache persists to disk.
    pub fn is_persistent(&self) -> bool {
        self.inner.disk.is_some()
    }

    /// Lookups served from cache since construction (shared across
    /// clones).
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the computation since construction.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Returns the cached value for `key`, or runs `compute`, stores its
    /// result, and returns it.
    ///
    /// Correctness contract: for a *complete* key (every input of
    /// `compute` encoded), the returned value is indistinguishable from
    /// calling `compute` directly — a corrupted or undecodable entry is
    /// evicted and recomputed, never surfaced.
    pub fn get_or_compute<K, V, F>(&self, key: &K, compute: F) -> V
    where
        K: CacheKey,
        V: CacheValue,
        F: FnOnce() -> V,
    {
        let obs = sustain_obs::handle();
        let _span = obs.span("cache.lookup");
        let namespace = key.namespace();
        let fingerprint = key.fingerprint();
        let attrs = [
            ("namespace", AttrValue::Str(namespace)),
            ("fingerprint", AttrValue::U64(fingerprint.as_u64())),
        ];

        if let Some(value) = self.lookup(namespace, fingerprint) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            obs.counter("cache_hits_total").inc();
            obs.event("cache.hit", &attrs);
            return value;
        }

        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        obs.counter("cache_misses_total").inc();
        obs.event("cache.miss", &attrs);
        let value = compute();
        self.store(namespace, fingerprint, &value);
        value
    }

    /// First decodable entry across the store layers; evicts entries that
    /// exist but fail to decode (corruption repair).
    fn lookup<V: CacheValue>(
        &self,
        namespace: &'static str,
        fingerprint: crate::key::Fingerprint,
    ) -> Option<V> {
        if let Some(bytes) = self.inner.memory.load(namespace, fingerprint) {
            match V::from_cache_bytes(&bytes) {
                Some(value) => return Some(value),
                None => self.inner.memory.evict(namespace, fingerprint),
            }
        }
        if let Some(disk) = &self.inner.disk {
            // `DiskStore::load` already returns None for header/checksum
            // failures; a decode failure here means a stale-but-intact
            // encoding, which we repair the same way.
            if let Some(bytes) = disk.load(namespace, fingerprint) {
                match V::from_cache_bytes(&bytes) {
                    Some(value) => {
                        self.inner.memory.save(namespace, fingerprint, &bytes);
                        return Some(value);
                    }
                    None => disk.evict(namespace, fingerprint),
                }
            }
        }
        None
    }

    /// Writes a computed value back to every layer. A failed disk write
    /// leaves the entry cold; it does not fail the computation.
    fn store<V: CacheValue>(
        &self,
        namespace: &'static str,
        fingerprint: crate::key::Fingerprint,
        value: &V,
    ) {
        let bytes = value.to_cache_bytes();
        self.inner.memory.save(namespace, fingerprint, &bytes);
        if let Some(disk) = &self.inner.disk {
            let _ = disk.save(namespace, fingerprint, &bytes);
        }
    }
}

impl fmt::Debug for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cache")
            .field("persistent", &self.is_persistent())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyEncoder;
    use std::fs;
    use std::path::PathBuf;

    struct K(&'static str);
    impl CacheKey for K {
        fn namespace(&self) -> &'static str {
            "cachetest"
        }
        fn encode_key(&self, enc: &mut KeyEncoder) {
            enc.write_str(self.0);
        }
    }

    /// Decoder that rejects anything not starting with b"ok:".
    #[derive(Debug, PartialEq)]
    struct Picky(String);
    impl CacheValue for Picky {
        fn to_cache_bytes(&self) -> Vec<u8> {
            format!("ok:{}", self.0).into_bytes()
        }
        fn from_cache_bytes(bytes: &[u8]) -> Option<Picky> {
            let text = str::from_utf8(bytes).ok()?;
            text.strip_prefix("ok:").map(|rest| Picky(rest.to_owned()))
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sustain-cache-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_lookup_is_a_hit_and_skips_compute() {
        let cache = Cache::in_memory();
        let mut calls = 0;
        let a: String = cache.get_or_compute(&K("a"), || {
            calls += 1;
            "computed".to_owned()
        });
        let b: String = cache.get_or_compute(&K("a"), || {
            calls += 1;
            "should not run".to_owned()
        });
        assert_eq!(a, "computed");
        assert_eq!(b, "computed");
        assert_eq!(calls, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_do_not_share_entries() {
        let cache = Cache::in_memory();
        let a: String = cache.get_or_compute(&K("a"), || "va".to_owned());
        let b: String = cache.get_or_compute(&K("b"), || "vb".to_owned());
        assert_eq!((a.as_str(), b.as_str()), ("va", "vb"));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn disk_entries_survive_a_new_handle() {
        let dir = tmp_dir("warm");
        {
            let cold = Cache::at_dir(&dir).unwrap();
            let v: String = cold.get_or_compute(&K("persist"), || "stored".to_owned());
            assert_eq!(v, "stored");
        }
        let warm = Cache::at_dir(&dir).unwrap();
        let v: String = warm.get_or_compute(&K("persist"), || "recomputed".to_owned());
        assert_eq!(v, "stored");
        assert_eq!((warm.hits(), warm.misses()), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_disk_entry_degrades_to_recompute() {
        let dir = tmp_dir("poison");
        {
            let cold = Cache::at_dir(&dir).unwrap();
            let _: String = cold.get_or_compute(&K("target"), || "original".to_owned());
        }
        // Flip one byte in the stored entry file.
        let entry = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "bin"))
            .unwrap();
        let mut bytes = fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&entry, bytes).unwrap();

        let warm = Cache::at_dir(&dir).unwrap();
        let v: String = warm.get_or_compute(&K("target"), || "recomputed".to_owned());
        assert_eq!(v, "recomputed", "poisoned entry must miss and recompute");
        assert_eq!((warm.hits(), warm.misses()), (0, 1));
        // The repaired entry now hits from a fresh handle.
        let again = Cache::at_dir(&dir).unwrap();
        let v: String = again.get_or_compute(&K("target"), || "third".to_owned());
        assert_eq!(v, "recomputed");
        assert_eq!((again.hits(), again.misses()), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_value_is_evicted_and_recomputed() {
        let cache = Cache::in_memory();
        // Seed the entry with bytes Picky's decoder rejects by writing a
        // String under the same key.
        let _: String = cache.get_or_compute(&K("picky"), || "not-prefixed".to_owned());
        let v: Picky = cache.get_or_compute(&K("picky"), || Picky("fresh".to_owned()));
        assert_eq!(v, Picky("fresh".to_owned()));
        // Now the entry holds a valid Picky encoding.
        let v: Picky = cache.get_or_compute(&K("picky"), || Picky("unused".to_owned()));
        assert_eq!(v, Picky("fresh".to_owned()));
    }

    #[test]
    fn counters_visible_on_an_enabled_obs_handle() {
        let obs = sustain_obs::ObsConfig::enabled().build();
        sustain_obs::with_task_handle(&obs, || {
            let cache = Cache::in_memory();
            let _: String = cache.get_or_compute(&K("obs"), || "v".to_owned());
            let _: String = cache.get_or_compute(&K("obs"), || "v".to_owned());
        });
        assert_eq!(obs.counter("cache_hits_total").value(), 1.0);
        assert_eq!(obs.counter("cache_misses_total").value(), 1.0);
    }
}
