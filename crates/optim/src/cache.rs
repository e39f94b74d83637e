//! Embedding-cache simulation: where the 6.7× caching gain comes from.
//!
//! The paper's platform-level caching pre-computes embeddings for frequent
//! translation requests and serves them from DRAM/flash instead of
//! recomputing on CPUs. This module *derives* the gain: an LRU or LFU cache
//! is driven by a zipfian request stream, and the measured hit rate is
//! converted to an energy gain via the cost ratio between recomputing a
//! result and fetching it from cache.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sustain_core::stats::Zipf;
use sustain_core::units::{Energy, Fraction};

/// A multiplicative hasher for the `u64` cache keys: one `wrapping_mul`
/// instead of SipHash's full rounds. The cache never iterates its map, so
/// hash quality only affects bucket spread, and key-dependent behavior
/// stays deterministic regardless.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u64 field hashing (unused by `u64` keys).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing: multiply by 2^64/φ to spread consecutive ids.
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// Cache replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Least-recently-used eviction.
    Lru,
    /// Least-frequently-used eviction.
    Lfu,
}

/// The end of a linked list of entries or buckets.
const NIL: usize = usize::MAX;

/// One resident key, linked into its bucket's recency list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    /// Accesses since the key was (re)admitted.
    count: u64,
    bucket: usize,
    prev: usize,
    next: usize,
}

/// The resident entries at one eviction level, least recently used first,
/// linked into the bucket list in ascending level.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    level: u64,
    head: usize,
    tail: usize,
    prev: usize,
    next: usize,
}

/// A fixed-capacity key cache (keys are item ids).
///
/// Every operation is O(1): resident entries sit in frequency buckets of
/// recency-ordered lists (Shah, Mitra & Matani's constant-time LFU). A
/// bucket holds the entries of one use count under LFU; under LRU every
/// entry shares one bucket. The buckets form a list in ascending count, a
/// hit moves its entry to the tail of the bucket for its new count, and
/// the victim is the head of the lowest bucket — the least recently used
/// of the least used entries. That is exactly the minimum of
/// `(count, last_use)` (LFU) or `last_use` (LRU) over resident entries
/// that a full scan picks; the `ordered_index_matches_full_scan` test and
/// a proptest hold the two to per-access equality. Storage stays within
/// `capacity` entries and no more buckets than resident entries.
#[derive(Debug, Clone)]
pub struct KeyCache {
    policy: CachePolicy,
    capacity: usize,
    /// key → slot in `entries`.
    index: HashMap<u64, usize, BuildHasherDefault<KeyHasher>>,
    /// Resident entries; an evicted entry's slot goes to the key that
    /// displaced it.
    entries: Vec<Entry>,
    /// Bucket slots; freed ones are listed in `free_buckets` for reuse.
    buckets: Vec<Bucket>,
    free_buckets: Vec<usize>,
    /// The lowest-level bucket, or [`NIL`] while the cache is empty.
    lowest: usize,
    hits: u64,
    misses: u64,
}

impl KeyCache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(policy: CachePolicy, capacity: usize) -> KeyCache {
        assert!(capacity > 0, "cache capacity must be positive");
        KeyCache {
            policy,
            capacity,
            index: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            entries: Vec::with_capacity(capacity),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            lowest: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// The bucket level of an entry used `count` times.
    fn level(&self, count: u64) -> u64 {
        match self.policy {
            CachePolicy::Lru => 0,
            CachePolicy::Lfu => count,
        }
    }

    /// Accesses a key; returns `true` on hit.
    pub fn access(&mut self, key: u64) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            self.hits += 1;
            self.promote(slot);
            return true;
        }
        self.misses += 1;
        let admitted = Entry {
            key,
            count: 1,
            bucket: NIL,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.entries.len() < self.capacity {
            self.entries.push(admitted);
            self.entries.len() - 1
        } else {
            let victim = self.evict();
            self.entries[victim] = admitted;
            victim
        };
        self.index.insert(key, slot);
        // A first use is the lowest level there is.
        let level = self.level(1);
        let bucket = match self.lowest {
            lowest if lowest != NIL && self.buckets[lowest].level == level => lowest,
            lowest => self.link_bucket(level, NIL, lowest),
        };
        self.append(slot, bucket);
        false
    }

    /// Moves a hit entry to the tail of the bucket for its new count.
    fn promote(&mut self, slot: usize) {
        self.entries[slot].count += 1;
        let level = self.level(self.entries[slot].count);
        let from = self.entries[slot].bucket;
        let Bucket {
            level: from_level,
            head,
            tail,
            next,
            ..
        } = self.buckets[from];
        let to = if from_level == level {
            from
        } else if next != NIL && self.buckets[next].level == level {
            next
        } else if head == tail {
            // Alone in its bucket: relabel the bucket, which stays below
            // `next` because levels only step up by one.
            self.buckets[from].level = level;
            return;
        } else {
            self.link_bucket(level, from, next)
        };
        self.detach(slot);
        if to != from && self.buckets[from].head == NIL {
            self.unlink_bucket(from);
        }
        self.append(slot, to);
    }

    /// Removes the head of the lowest bucket and returns its slot.
    fn evict(&mut self) -> usize {
        let lowest = self.lowest;
        let victim = self.buckets[lowest].head;
        self.detach(victim);
        if self.buckets[lowest].head == NIL {
            self.unlink_bucket(lowest);
        }
        self.index.remove(&self.entries[victim].key);
        victim
    }

    /// Links a new empty bucket at `level` between `prev` and `next`
    /// (either may be [`NIL`]) and returns its slot.
    fn link_bucket(&mut self, level: u64, prev: usize, next: usize) -> usize {
        let bucket = Bucket {
            level,
            head: NIL,
            tail: NIL,
            prev,
            next,
        };
        let slot = match self.free_buckets.pop() {
            Some(slot) => {
                self.buckets[slot] = bucket;
                slot
            }
            None => {
                self.buckets.push(bucket);
                self.buckets.len() - 1
            }
        };
        match prev {
            NIL => self.lowest = slot,
            prev => self.buckets[prev].next = slot,
        }
        if next != NIL {
            self.buckets[next].prev = slot;
        }
        slot
    }

    /// Unlinks an empty bucket and frees its slot.
    fn unlink_bucket(&mut self, slot: usize) {
        let Bucket { prev, next, .. } = self.buckets[slot];
        match prev {
            NIL => self.lowest = next,
            prev => self.buckets[prev].next = next,
        }
        if next != NIL {
            self.buckets[next].prev = prev;
        }
        self.free_buckets.push(slot);
    }

    /// Removes an entry from its bucket's recency list.
    fn detach(&mut self, slot: usize) {
        let Entry {
            bucket, prev, next, ..
        } = self.entries[slot];
        match prev {
            NIL => self.buckets[bucket].head = next,
            prev => self.entries[prev].next = next,
        }
        match next {
            NIL => self.buckets[bucket].tail = prev,
            next => self.entries[next].prev = prev,
        }
    }

    /// Appends an entry to a bucket as its most recent use.
    fn append(&mut self, slot: usize, bucket: usize) {
        let tail = self.buckets[bucket].tail;
        let entry = &mut self.entries[slot];
        entry.bucket = bucket;
        entry.prev = tail;
        entry.next = NIL;
        match tail {
            NIL => self.buckets[bucket].head = slot,
            tail => self.entries[tail].next = slot,
        }
        self.buckets[bucket].tail = slot;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate so far (0 before any access).
    pub fn hit_rate(&self) -> Fraction {
        let total = self.hits + self.misses;
        if total == 0 {
            return Fraction::ZERO;
        }
        Fraction::saturating(self.hits as f64 / total as f64)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The energy model of a cached serving path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheEnergyModel {
    /// Energy to recompute one result (CPU inference).
    pub miss_energy: Energy,
    /// Energy to serve one result from cache (DRAM/flash fetch).
    pub hit_energy: Energy,
}

impl CacheEnergyModel {
    /// The paper-calibrated default: a CPU recompute costs ~100× a cache
    /// fetch (full Transformer encode vs a DRAM read + network send).
    pub fn paper_default() -> CacheEnergyModel {
        CacheEnergyModel {
            miss_energy: Energy::from_joules(crate::constants::CACHE_MISS_ENERGY_J),
            hit_energy: Energy::from_joules(crate::constants::CACHE_HIT_ENERGY_J),
        }
    }

    /// Mean energy per request at a hit rate.
    pub fn energy_per_request(&self, hit_rate: Fraction) -> Energy {
        self.hit_energy * hit_rate.value() + self.miss_energy * hit_rate.complement().value()
    }

    /// Efficiency gain vs the uncached baseline at a hit rate.
    pub fn gain(&self, hit_rate: Fraction) -> f64 {
        self.miss_energy / self.energy_per_request(hit_rate)
    }
}

/// The outcome of a cache simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSimResult {
    /// Measured hit rate.
    pub hit_rate: Fraction,
    /// Energy per request with the cache.
    pub energy_per_request: Energy,
    /// Efficiency gain over the uncached baseline.
    pub gain: f64,
}

/// Drives a cache with a zipfian request stream and reports the energy gain.
///
/// Instrumented for `sustain-prof`: the run records an
/// `optim.cache.simulate` span on the ambient [`sustain_obs::handle`] that
/// covers the zipf table build too, with two inner phases —
/// `optim.cache.sample` (drawing the zipfian request stream) and
/// `optim.cache.access` (driving the cache) — each crediting one work unit
/// per request to the work counter. The RNG draw sequence is
/// identical whether or not the handle records, so figure outputs do
/// not depend on observability.
///
/// # Panics
///
/// Panics if `requests` is zero.
pub fn simulate_cache<R: Rng + ?Sized>(
    rng: &mut R,
    policy: CachePolicy,
    capacity: usize,
    universe: usize,
    zipf_exponent: f64,
    requests: usize,
    energy: CacheEnergyModel,
) -> CacheSimResult {
    assert!(requests > 0, "need at least one request");
    let obs = sustain_obs::handle();
    let _sim = obs.span("optim.cache.simulate");
    // lint:allow(panic-discipline) documented panic on invalid zipf parameters
    let zipf = Zipf::new(universe, zipf_exponent).expect("valid zipf parameters");
    // The stream buffers 0-based `u32` rank indices, half a `u64` key's
    // bytes; the cache compares keys only for equality, so index keys hit
    // and miss exactly as rank keys would.
    let keys: Vec<u32> = {
        let _sample = obs.span("optim.cache.sample");
        let keys = (0..requests).map(|_| zipf.sample_index(rng)).collect();
        obs.add_work(requests as u64);
        keys
    };
    // The CDF and guide tables are dead once the keys are drawn; freeing
    // them first keeps them and the cache from being resident together.
    drop(zipf);
    let mut cache = KeyCache::new(policy, capacity);
    {
        let _access = obs.span("optim.cache.access");
        for key in keys {
            cache.access(u64::from(key));
        }
        obs.add_work(requests as u64);
    }
    let hit_rate = cache.hit_rate();
    CacheSimResult {
        hit_rate,
        energy_per_request: energy.energy_per_request(hit_rate),
        gain: energy.gain(hit_rate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lru_basics() {
        let mut c = KeyCache::new(CachePolicy::Lru, 2);
        assert!(!c.access(1));
        assert!(!c.access(2));
        assert!(c.access(1)); // hit
        assert!(!c.access(3)); // evicts 2 (LRU)
        assert!(c.access(1));
        assert!(!c.access(2)); // 2 was evicted
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn lfu_keeps_hot_keys() {
        let mut c = KeyCache::new(CachePolicy::Lfu, 2);
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        c.access(3); // evicts 2 (count 1) not 1 (count 3)
        assert!(c.access(1), "hot key must survive");
        assert!(!c.access(2));
    }

    #[test]
    fn hit_rate_zero_before_accesses() {
        let c = KeyCache::new(CachePolicy::Lru, 4);
        assert_eq!(c.hit_rate(), Fraction::ZERO);
    }

    #[test]
    fn zipfian_traffic_yields_high_hit_rate_with_small_cache() {
        // 1% of the universe cached covers most zipfian traffic.
        let mut rng = StdRng::seed_from_u64(21);
        let result = simulate_cache(
            &mut rng,
            CachePolicy::Lru,
            1_000,
            100_000,
            1.1,
            200_000,
            CacheEnergyModel::paper_default(),
        );
        assert!(
            result.hit_rate.value() > 0.5,
            "hit rate {}",
            result.hit_rate
        );
    }

    #[test]
    fn paper_gain_band_is_reachable() {
        // The Fig 7 caching gain (6.7×) emerges for a realistic configuration.
        let mut rng = StdRng::seed_from_u64(22);
        let result = simulate_cache(
            &mut rng,
            CachePolicy::Lfu,
            5_000,
            100_000,
            1.2,
            300_000,
            CacheEnergyModel::paper_default(),
        );
        assert!(
            result.gain > 4.0 && result.gain < 12.0,
            "gain {} (hit rate {})",
            result.gain,
            result.hit_rate
        );
    }

    #[test]
    fn lfu_beats_lru_on_stable_zipf() {
        let energy = CacheEnergyModel::paper_default();
        let lru = simulate_cache(
            &mut StdRng::seed_from_u64(33),
            CachePolicy::Lru,
            500,
            50_000,
            1.0,
            150_000,
            energy,
        );
        let lfu = simulate_cache(
            &mut StdRng::seed_from_u64(33),
            CachePolicy::Lfu,
            500,
            50_000,
            1.0,
            150_000,
            energy,
        );
        assert!(
            lfu.hit_rate >= lru.hit_rate,
            "lfu {} < lru {}",
            lfu.hit_rate,
            lru.hit_rate
        );
    }

    #[test]
    fn gain_increases_with_hit_rate() {
        let m = CacheEnergyModel::paper_default();
        let g50 = m.gain(Fraction::saturating(0.5));
        let g90 = m.gain(Fraction::saturating(0.9));
        let g0 = m.gain(Fraction::ZERO);
        assert!((g0 - 1.0).abs() < 1e-9);
        assert!(g90 > g50 && g50 > g0);
    }

    #[test]
    fn energy_per_request_interpolates() {
        let m = CacheEnergyModel::paper_default();
        let mid = m.energy_per_request(Fraction::saturating(0.5));
        assert!((mid.as_joules() - 10.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = KeyCache::new(CachePolicy::Lru, 0);
    }

    /// The pre-index implementation: a full O(capacity) scan per eviction.
    /// Kept as the executable spec the bucket lists are held to.
    struct ScanCache {
        policy: CachePolicy,
        capacity: usize,
        /// key → (last_use_tick, use_count)
        entries: std::collections::BTreeMap<u64, (u64, u64)>,
        tick: u64,
    }

    impl ScanCache {
        fn new(policy: CachePolicy, capacity: usize) -> ScanCache {
            ScanCache {
                policy,
                capacity,
                entries: std::collections::BTreeMap::new(),
                tick: 0,
            }
        }

        /// The eviction priority: the resident minimum is the next victim.
        fn priority(&self, (last, count): (u64, u64)) -> (u64, u64) {
            match self.policy {
                CachePolicy::Lru => (0, last),
                CachePolicy::Lfu => (count, last),
            }
        }

        fn access(&mut self, key: u64) -> bool {
            self.tick += 1;
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.0 = self.tick;
                entry.1 += 1;
                return true;
            }
            if self.entries.len() >= self.capacity {
                let victim = self
                    .entries
                    .iter()
                    .min_by_key(|(_, state)| self.priority(**state))
                    .map(|(k, _)| *k);
                if let Some(v) = victim {
                    self.entries.remove(&v);
                }
            }
            self.entries.insert(key, (self.tick, 1));
            false
        }

        /// Resident `(key, use_count)` pairs, next victim first.
        fn eviction_order(&self) -> Vec<(u64, u64)> {
            let mut resident: Vec<(u64, (u64, u64))> =
                self.entries.iter().map(|(k, v)| (*k, *v)).collect();
            resident.sort_by_key(|(_, state)| self.priority(*state));
            resident
                .into_iter()
                .map(|(key, (_, count))| (key, count))
                .collect()
        }
    }

    /// Resident `(key, use_count)` pairs, next victim first, read off the
    /// bucket lists while checking their links: levels ascend, every entry
    /// sits in the bucket of its count, and `prev` mirrors `next`.
    fn eviction_order(cache: &KeyCache) -> Vec<(u64, u64)> {
        let mut order = Vec::new();
        let (mut bucket, mut prev_bucket) = (cache.lowest, NIL);
        while bucket != NIL {
            let b = cache.buckets[bucket];
            assert_eq!(b.prev, prev_bucket, "bucket back-link");
            if prev_bucket != NIL {
                assert!(cache.buckets[prev_bucket].level < b.level, "levels ascend");
            }
            assert_ne!(b.head, NIL, "linked bucket is empty");
            let (mut slot, mut prev_slot) = (b.head, NIL);
            while slot != NIL {
                let e = cache.entries[slot];
                assert_eq!((e.bucket, e.prev), (bucket, prev_slot), "entry links");
                assert_eq!(cache.level(e.count), b.level, "entry in its count's bucket");
                assert_eq!(cache.index.get(&e.key), Some(&slot), "index agrees");
                order.push((e.key, e.count));
                (prev_slot, slot) = (slot, e.next);
            }
            assert_eq!(b.tail, prev_slot, "bucket tail");
            (prev_bucket, bucket) = (bucket, b.next);
        }
        assert_eq!(order.len(), cache.len(), "every resident entry is linked");
        order
    }

    #[test]
    fn ordered_index_matches_full_scan() {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut rng = StdRng::seed_from_u64(77);
            let mut fast = KeyCache::new(policy, 16);
            let mut spec = ScanCache::new(policy, 16);
            let zipf = sustain_core::stats::Zipf::new(200, 1.1).expect("valid zipf");
            for step in 0..5_000 {
                let key = zipf.sample_rank(&mut rng) as u64;
                assert_eq!(
                    fast.access(key),
                    spec.access(key),
                    "{policy:?} diverged at step {step} (key {key})"
                );
            }
            assert_eq!(
                eviction_order(&fast),
                spec.eviction_order(),
                "{policy:?} resident sets differ"
            );
        }
    }

    #[test]
    fn index_keys_hit_and_miss_like_rank_keys() {
        let zipf = sustain_core::stats::Zipf::new(1_000, 1.2).expect("valid zipf");
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut rng = StdRng::seed_from_u64(13);
            let mut by_index = KeyCache::new(policy, 32);
            let mut by_rank = KeyCache::new(policy, 32);
            for step in 0..20_000 {
                let index = zipf.sample_index(&mut rng);
                let rank = index as u64 + 1;
                assert_eq!(
                    by_index.access(u64::from(index)),
                    by_rank.access(rank),
                    "{policy:?} diverged at step {step} (index {index})"
                );
            }
            assert_eq!(by_index.hits(), by_rank.hits());
            assert!(by_index.hits() > 0 && by_index.misses() > 0);
        }
    }

    proptest! {
        #[test]
        fn bucket_lists_match_full_scan(
            capacity in 1usize..65,
            universe in 1u64..129,
            stream in prop::collection::vec(any::<u64>(), 0..2001),
        ) {
            for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
                let mut fast = KeyCache::new(policy, capacity);
                let mut spec = ScanCache::new(policy, capacity);
                for (step, raw) in stream.iter().enumerate() {
                    let key = raw % universe;
                    prop_assert_eq!(
                        fast.access(key),
                        spec.access(key),
                        "{:?} diverged at step {} (key {})", policy, step, key
                    );
                }
                prop_assert_eq!(eviction_order(&fast), spec.eviction_order());
            }
        }
    }

    #[test]
    fn bucket_storage_stays_bounded() {
        for policy in [CachePolicy::Lru, CachePolicy::Lfu] {
            let mut c = KeyCache::new(policy, 8);
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..100_000 {
                c.access(rng.gen_index(40) as u64);
                // Evicted slots are reused, and an emptied bucket is freed
                // before a new one is taken.
                assert!(c.entries.len() <= 8, "{} entry slots", c.entries.len());
                let buckets = c.buckets.len() - c.free_buckets.len();
                assert!(
                    buckets <= c.len() && c.buckets.len() <= 8,
                    "{buckets} live of {} bucket slots for {} entries",
                    c.buckets.len(),
                    c.len()
                );
            }
            assert_eq!(c.len(), 8);
        }
    }

    #[test]
    fn instrumented_simulation_records_phases() {
        use sustain_obs::ObsConfig;
        let obs = ObsConfig::enabled().build();
        let events = sustain_obs::with_task_handle(&obs, || {
            let mut rng = StdRng::seed_from_u64(9);
            let _ = simulate_cache(
                &mut rng,
                CachePolicy::Lru,
                64,
                1_000,
                1.1,
                500,
                CacheEnergyModel::paper_default(),
            );
            obs.events()
        });
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                sustain_obs::EventRecord::Span { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(
            names,
            [
                "optim.cache.sample",
                "optim.cache.access",
                "optim.cache.simulate"
            ],
            "spans record in completion order"
        );
    }
}
