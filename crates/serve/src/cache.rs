//! Bounded LRU response cache in front of fold-in.
//!
//! One cache belongs to one server's admission dispatchers (the private
//! `dispatch` module), whose model never changes, so inference is a pure
//! function of (text, seed, iters, top) and a repeated query can be
//! answered from memory instead of burning another fold-in chain. The
//! server's cache holds [`CACHE_CAPACITY`] responses. Entries are keyed by
//! an Fx hash of that tuple; the stored key is compared on every hit, so a
//! hash collision degrades to a miss, never a wrong answer. Eviction is
//! exact LRU via an intrusive doubly-linked list over a slab — O(1)
//! get/put. Hit/miss counters are exposed through [`CacheStats`] (surfaced
//! by `GET /healthz` and `GET /metrics`).

use crate::infer::{DocInference, InferConfig};
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use topmine_util::{FxHashMap, FxHasher};

/// Responses the server's cache holds.
pub const CACHE_CAPACITY: usize = 1024;

/// The full identity of one cacheable inference call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheKey {
    pub seed: u64,
    pub fold_iters: usize,
    pub top_topics: usize,
    pub text: String,
    /// Test seam: a forced hash value, so tests can manufacture the
    /// hash-collision paths (64-bit Fx collisions are not otherwise
    /// reachable from a unit test). Always `None` in production keys.
    hash_override: Option<u64>,
}

impl CacheKey {
    /// Key an inference by its *effective* RNG seed rather than the config
    /// seed. Document `i` of a batch runs with `config.seed_for_index(i)`,
    /// so its result is legitimately shared with any single `/infer` whose
    /// seed equals that derived value (index 0 derives the config seed
    /// itself, the seed a single `/infer` runs with).
    pub(crate) fn new_seeded(text: &str, config: &InferConfig, effective_seed: u64) -> Self {
        Self {
            seed: effective_seed,
            fold_iters: config.fold_iters,
            top_topics: config.top_topics,
            text: text.to_string(),
            hash_override: None,
        }
    }

    #[cfg(test)]
    fn with_forced_hash(mut self, hash: u64) -> Self {
        self.hash_override = Some(hash);
        self
    }

    fn hash(&self) -> u64 {
        if let Some(forced) = self.hash_override {
            return forced;
        }
        let mut h = FxHasher::default();
        h.write_u64(self.seed);
        h.write_u64(self.fold_iters as u64);
        h.write_u64(self.top_topics as u64);
        h.write(self.text.as_bytes());
        h.finish()
    }
}

/// Counter snapshot for observability endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub capacity: usize,
}

const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    value: DocInference,
    prev: usize,
    next: usize,
}

/// Map + recency list, guarded by one mutex (lookups are a hash probe and
/// two pointer swaps — contention is negligible next to a fold-in chain).
struct LruInner {
    map: FxHashMap<u64, usize>,
    slots: Vec<Entry>,
    head: usize,
    tail: usize,
}

impl LruInner {
    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }
}

/// A bounded, thread-safe, exact-LRU map from inference calls to their
/// results.
pub struct ResponseCache {
    inner: Mutex<LruInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a response cache holds at least one entry");
        Self {
            inner: Mutex::new(LruInner {
                map: FxHashMap::default(),
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub(crate) fn get(&self, key: &CacheKey) -> Option<DocInference> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let hit = match inner.map.get(&key.hash()) {
            Some(&slot) if inner.slots[slot].key == *key => {
                inner.detach(slot);
                inner.push_front(slot);
                Some(inner.slots[slot].value.clone())
            }
            _ => None,
        };
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    pub(crate) fn put(&self, key: CacheKey, value: DocInference) {
        let hash = key.hash();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if let Some(&slot) = inner.map.get(&hash) {
            // Same hash: refresh (same key) or displace (collision) — either
            // way the slot now answers for this key.
            inner.slots[slot].key = key;
            inner.slots[slot].value = value;
            inner.detach(slot);
            inner.push_front(slot);
            return;
        }
        let slot = if inner.slots.len() < self.capacity {
            inner.slots.push(Entry {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            inner.slots.len() - 1
        } else {
            // Evict the least recently used entry and reuse its slot.
            let victim = inner.tail;
            let old_hash = inner.slots[victim].key.hash();
            inner.map.remove(&old_hash);
            inner.detach(victim);
            inner.slots[victim].key = key;
            inner.slots[victim].value = value;
            victim
        };
        inner.map.insert(hash, slot);
        inner.push_front(slot);
    }

    /// Structural audit for tests: every slot is linked into the recency
    /// list exactly once, the map covers exactly the slots, and each map
    /// entry's hash matches its slot's key. A violated invariant here is
    /// what an "orphaned slab entry" would look like — a slot the map can
    /// no longer reach, pinned in the slab forever.
    #[cfg(test)]
    fn check_invariants(&self) -> Result<(), String> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        if inner.map.len() != inner.slots.len() {
            return Err(format!(
                "map has {} entries for {} slots",
                inner.map.len(),
                inner.slots.len()
            ));
        }
        let mut seen = vec![false; inner.slots.len()];
        let mut slot = inner.head;
        let mut prev = NIL;
        while slot != NIL {
            if seen[slot] {
                return Err(format!("slot {slot} linked twice"));
            }
            seen[slot] = true;
            if inner.slots[slot].prev != prev {
                return Err(format!("slot {slot} has a stale prev link"));
            }
            prev = slot;
            slot = inner.slots[slot].next;
        }
        if prev != inner.tail {
            return Err("tail does not terminate the list".into());
        }
        if let Some(unlinked) = seen.iter().position(|&s| !s) {
            return Err(format!("slot {unlinked} not reachable from head"));
        }
        for (&hash, &slot) in &inner.map {
            if slot >= inner.slots.len() {
                return Err(format!("map points at out-of-range slot {slot}"));
            }
            if inner.slots[slot].key.hash() != hash {
                return Err(format!("map hash {hash:#x} mismatches slot {slot}'s key"));
            }
        }
        Ok(())
    }

    pub fn stats(&self) -> CacheStats {
        let entries = self.inner.lock().expect("cache lock poisoned").map.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(text: &str, seed: u64) -> CacheKey {
        CacheKey::new_seeded(text, &InferConfig::default(), seed)
    }

    fn value(n: usize) -> DocInference {
        DocInference {
            theta: vec![1.0],
            top_topics: vec![(0, 1.0)],
            phrases: Vec::new(),
            n_tokens: n,
            n_oov: 0,
        }
    }

    #[test]
    fn get_after_put_hits_and_counts() {
        let cache = ResponseCache::new(4);
        assert!(cache.get(&key("a", 1)).is_none());
        cache.put(key("a", 1), value(1));
        assert_eq!(cache.get(&key("a", 1)), Some(value(1)));
        // A different seed is a different key.
        assert!(cache.get(&key("a", 2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
        assert_eq!(stats.capacity, 4);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let cache = ResponseCache::new(2);
        cache.put(key("a", 1), value(1));
        cache.put(key("b", 1), value(2));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.get(&key("a", 1)).is_some());
        cache.put(key("c", 1), value(3));
        assert!(cache.get(&key("a", 1)).is_some(), "recently used survives");
        assert!(cache.get(&key("b", 1)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key("c", 1)).is_some());
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn refreshing_an_existing_key_updates_in_place() {
        let cache = ResponseCache::new(2);
        cache.put(key("a", 1), value(1));
        cache.put(key("a", 1), value(9));
        assert_eq!(cache.get(&key("a", 1)).unwrap().n_tokens, 9);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_slot_cache_cycles() {
        let cache = ResponseCache::new(1);
        for i in 0..10u64 {
            cache.put(key("doc", i), value(i as usize));
            assert_eq!(cache.get(&key("doc", i)).unwrap().n_tokens, i as usize);
            if i > 0 {
                assert!(cache.get(&key("doc", i - 1)).is_none());
            }
        }
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn forced_hash_collision_displaces_without_orphaning() {
        let cache = ResponseCache::new(2);
        let k1 = key("first", 1).with_forced_hash(0xdead);
        let k2 = key("second", 2).with_forced_hash(0xdead);
        cache.put(k1.clone(), value(1));
        cache.check_invariants().unwrap();
        // Colliding put: the slot now answers for k2. One slot, one map
        // entry — nothing stranded in the slab.
        cache.put(k2.clone(), value(2));
        cache.check_invariants().unwrap();
        assert_eq!(
            cache.stats().entries,
            1,
            "collision must displace, not grow"
        );
        // The displaced key degrades to a miss (stored key is compared on
        // every hit), never to k2's answer.
        assert!(cache.get(&k1).is_none());
        assert_eq!(cache.get(&k2).unwrap().n_tokens, 2);
        // Fill past capacity so the colliding slot also survives eviction
        // traffic around it.
        cache.put(key("filler-a", 3), value(3));
        cache.put(key("filler-b", 4), value(4));
        cache.check_invariants().unwrap();
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn collision_and_eviction_workload_keeps_the_slab_exact() {
        // Mixed natural and forced-hash traffic over a small cache: after
        // every operation the map, slab, and recency list must still agree
        // — the audit that `put`'s collision path cannot orphan a slot.
        let cache = ResponseCache::new(3);
        for round in 0u64..40 {
            let k = if round % 3 == 0 {
                // A rotating set of 2 forced hashes guarantees repeated
                // collisions between distinct keys.
                key(&format!("forced-{round}"), round).with_forced_hash(round % 2)
            } else {
                key(&format!("natural-{round}"), round)
            };
            cache.put(k.clone(), value(round as usize));
            cache
                .check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(cache.get(&k).unwrap().n_tokens, round as usize);
            assert!(cache.stats().entries <= 3);
        }
    }

    #[test]
    fn concurrent_access_is_safe_and_exact() {
        use std::sync::Arc;
        let cache = Arc::new(ResponseCache::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let k = key("shared", t * 1000 + i % 4);
                        cache.put(k.clone(), value(1));
                        let _ = cache.get(&k);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(stats.entries <= 8);
        assert!(stats.hits + stats.misses >= 400);
    }
}
