//! Open-addressing `u64 → u64` table for node-id candidate counting and
//! the lexicon's child links.
//!
//! The Algorithm 1 hot loop increments one counter per window occurrence.
//! A general-purpose `HashMap<Box<[u32]>, u64>` pays for that with a heap
//! allocation per *probe miss*, variable-length hashing per probe, and
//! pointer-chasing comparisons. Candidates in the node-id scheme are a
//! single packed `u64` (`prefix_node << 32 | next_word`), so the table
//! below is all a level needs: linear probing over two flat arrays and
//! Fibonacci hashing (one multiply). The lexicon maps the same packed keys
//! to child nodes in one such table.
//!
//! A table must never be filled while smaller than its final size when its
//! keys arrive in another table's slot order. Slot order is sorted by the
//! top hash bits, which are also the home slot here, so every insert into a
//! growing table lands at the end of one cluster that spans the whole
//! table: quadratic. A merge therefore makes room for every entry it will
//! copy before the first insert (`U64Map::reserve`); keys counted in
//! document order arrive in hash-random order and may grow a table freely.
//!
//! `u64::MAX` is the reserved empty-slot sentinel. Packed keys can never
//! collide with it: the lexicon keeps the vocabulary size below
//! `u32::MAX`, so the low half of a key (a word id) is at most
//! `u32::MAX - 2` — a real key is never all-ones.

/// Reserved key marking an empty slot.
pub const EMPTY_KEY: u64 = u64::MAX;

const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci hash of a packed key; also used to shard keys deterministically
/// across merge workers (any function of the key alone works — it just has
/// to be independent of which thread counted the occurrence).
#[inline]
pub fn fib_hash(key: u64) -> u64 {
    key.wrapping_mul(FIB)
}

/// Flat linear-probe `u64 → u64` map with a reserved [`EMPTY_KEY`] sentinel.
#[derive(Debug, Clone)]
pub struct U64Map {
    keys: Vec<u64>,
    vals: Vec<u64>,
    len: usize,
    /// `64 - log2(capacity)`: Fibonacci hashing takes the top bits.
    shift: u32,
}

impl Default for U64Map {
    fn default() -> Self {
        Self::new()
    }
}

impl U64Map {
    pub fn new() -> Self {
        Self::with_capacity(8)
    }

    /// A table that holds `n` entries without growing.
    pub fn with_capacity(n: usize) -> Self {
        let mut map = Self {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
            shift: 0,
        };
        map.reset(n);
        map
    }

    /// The fewest slots (a power of two, at least 8) that hold `n` entries
    /// at the 7/8 load factor [`U64Map::add`] grows at.
    pub(crate) fn slots_for(n: usize) -> usize {
        (n * 8).div_ceil(7).next_power_of_two().max(8)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot count (power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Forget all entries and resize to [`U64Map::slots_for`]`(n)` slots,
    /// keeping the allocation when it is large enough. Costs O(that size),
    /// not O(the table's current size).
    pub(crate) fn reset(&mut self, n: usize) {
        let cap = Self::slots_for(n);
        self.keys.clear();
        self.keys.resize(cap, EMPTY_KEY);
        // A slot's value is written whenever its key is, so stale values
        // in empty slots are harmless.
        self.vals.resize(cap, 0);
        self.len = 0;
        self.shift = 64 - cap.trailing_zeros();
    }

    /// Make room for `additional` more entries, so that inserting them
    /// never grows the table.
    pub(crate) fn reserve(&mut self, additional: usize) {
        let cap = Self::slots_for(self.len + additional);
        if cap > self.capacity() {
            self.rehash(cap);
        }
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (fib_hash(key) >> self.shift) as usize
    }

    /// `map[key] += delta`, inserting at `delta` if absent.
    #[inline]
    pub fn add(&mut self, key: u64, delta: u64) {
        debug_assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved");
        // Grow at 7/8 load; checked up front so the probe loop below always
        // finds an empty slot.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] += delta;
                return;
            }
            if k == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = delta;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// `map[key] = val`, overwriting.
    #[inline]
    pub fn set(&mut self, key: u64, val: u64) {
        debug_assert_ne!(key, EMPTY_KEY, "EMPTY_KEY is reserved");
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.home_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == EMPTY_KEY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        let mask = self.keys.len() - 1;
        let mut i = self.home_slot(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// All occupied `(key, value)` pairs, in table order (not key order).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| (k, v))
    }

    #[cold]
    fn grow(&mut self) {
        self.rehash(self.keys.len() * 2);
    }

    /// Move every entry into a fresh table of `new_cap` slots. The old
    /// slots are read in order, which is home-slot order in any table at
    /// least as large, so each insert probes only its own neighbourhood.
    fn rehash(&mut self, new_cap: usize) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_cap]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0; new_cap]);
        self.shift = 64 - new_cap.trailing_zeros();
        let mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY_KEY {
                continue;
            }
            let mut i = self.home_slot(k);
            while self.keys[i] != EMPTY_KEY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn add_get_roundtrip() {
        let mut m = U64Map::new();
        m.add(3, 1);
        m.add(3, 2);
        m.add(9, 5);
        assert_eq!(m.get(3), Some(3));
        assert_eq!(m.get(9), Some(5));
        assert_eq!(m.get(4), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn set_overwrites() {
        let mut m = U64Map::new();
        m.set(7, 1);
        m.set(7, 42);
        assert_eq!(m.get(7), Some(42));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reset_resizes_to_the_requested_entries() {
        let mut m = U64Map::new();
        for k in 0..1000u64 {
            m.add(k, k);
        }
        assert_eq!(m.capacity(), 2048);
        m.reset(10);
        assert_eq!(m.len(), 0);
        assert_eq!(m.capacity(), U64Map::slots_for(10));
        assert_eq!(m.get(5), None);
        m.add(5, 9);
        assert_eq!(m.get(5), Some(9));
        m.reset(5000);
        assert_eq!(m.capacity(), 8192);
        assert_eq!(m.get(5), None);
    }

    #[test]
    fn slots_for_fills_to_seven_eighths() {
        assert_eq!(U64Map::slots_for(0), 8);
        assert_eq!(U64Map::slots_for(7), 8);
        assert_eq!(U64Map::slots_for(8), 16);
        assert_eq!(U64Map::slots_for(14), 16);
        assert_eq!(U64Map::slots_for(15), 32);
        assert_eq!(U64Map::slots_for(114_688), 131_072);
        assert_eq!(U64Map::slots_for(114_689), 262_144);
        // A table sized for 14 entries takes the 14th without growing.
        let mut m = U64Map::with_capacity(14);
        for k in 0..14u64 {
            m.add(k, 1);
        }
        assert_eq!(m.capacity(), 16);
    }

    #[test]
    fn reserve_rehashes_once_then_never_grows() {
        let mut m = U64Map::new();
        for k in 0..100u64 {
            m.add(k, k);
        }
        m.reserve(10_000);
        let cap = m.capacity();
        assert_eq!(cap, U64Map::slots_for(10_100));
        for k in 100..10_100u64 {
            m.add(k, k);
        }
        assert_eq!(m.capacity(), cap);
        for k in 0..10_100u64 {
            assert_eq!(m.get(k), Some(k));
        }
        m.reserve(0);
        assert_eq!(m.capacity(), cap);
    }

    #[test]
    fn zero_key_works() {
        let mut m = U64Map::new();
        m.add(0, 4);
        assert_eq!(m.get(0), Some(4));
    }

    #[test]
    fn grows_and_matches_std_hashmap() {
        let mut m = U64Map::with_capacity(4);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // Deterministic pseudo-random keys, including clustered ones that
        // stress linear probing.
        let mut x = 0x1234_5678u64;
        for i in 0..5000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = if i % 3 == 0 { i / 7 } else { x >> 16 };
            m.add(key, 1 + i % 5);
            *reference.entry(key).or_insert(0) += 1 + i % 5;
        }
        assert_eq!(m.len(), reference.len());
        for (&k, &v) in &reference {
            assert_eq!(m.get(k), Some(v), "key {k}");
        }
        let collected: HashMap<u64, u64> = m.iter().collect();
        assert_eq!(collected, reference);
    }
}
