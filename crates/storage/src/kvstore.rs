//! The versioned, sharded key-value store backing the on-premise storage.
//!
//! Every key carries a [`Version`] that is bumped on each committed write.
//! Versions are what make the verifier's read-set check (`rw' = rw`,
//! Figure 3 line 32) cheap: instead of comparing full values, the verifier
//! compares the version an executor observed at read time with the current
//! version. The store is sharded and each shard is guarded by a
//! `std::sync::RwLock`, so the thread runtime can drive many executor
//! reads concurrently with verifier writes.
//!
//! # Layout
//!
//! Key `k` lives in shard `k & (shards − 1)`, at slot `k >> log2(shards)`.
//! A shard is one lock over three fields: a slot array (indexed by
//! slot), a map for the keys past the end of that array, and the number
//! of keys the two hold. A slot at version 0 is absent, which is the
//! store's convention anyway: a stored key's version starts at 1, and
//! `version_of` a missing key is `Version(0)`.
//!
//! A slot is 16 bytes: the value's `data` (`u64`), the version (`u32`)
//! and the value's `logical_len` (`u32`), with no padding. [`StoreEntry`]
//! (a [`Value`] and a `u64` [`Version`], 24 bytes with its padding) is
//! what `get` returns and `put` and `load` take apart; only the store
//! holds the narrow form. So a record in its slot costs 16 bytes and
//! nothing more, and a key takes at most `u32::MAX` versions: the write
//! that would pass that bound panics instead of wrapping (no run comes
//! near it — a key written once a microsecond reaches it after 71
//! minutes of simulated time).
//!
//! Two paths size the arrays, and both give a shard one slot per key below
//! a bound `n` that maps to it: `⌈(n − s) / shards⌉` slots in shard `s`.
//! The YCSB table is dense by construction, so `YcsbTable::populate`
//! builds it with [`VersionedStore::dense`]: each shard's array is
//! allocated at that length and filled with keys `s, s + shards, …` in one
//! loop before the shard is wrapped in its lock. An arbitrary record
//! stream goes through [`VersionedStore::load`], which takes `n` from the
//! iterator's lower size bound: keys below `n` are written in any order,
//! and a hole stays absent until something writes it. Either way a key at
//! or above `n` goes to the map, and so does every later write past the
//! end of an array. Only these two paths size an array, and `load` only
//! while its shard holds no key (so no key ever moves between map and
//! array). A write never grows one: clients choose their write keys, and a
//! blind write to `Key(u64::MAX)` must cost one map entry, not an
//! allocation sized by the key.
//!
//! Lock order: `load` is the only path that holds two shard locks. It
//! takes every shard's write lock once, in index order, before its first
//! record, and holds them all until its last; every other path holds one
//! shard lock at a time. `dense` takes no lock: it builds every shard
//! before the store exists.

use sbft_types::{IdMap, Key, Value, Version};
use std::sync::RwLock;

/// A value together with its current version.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreEntry {
    /// The stored value.
    pub value: Value,
    /// Monotonically increasing version, starting at 1 on first insert.
    pub version: Version,
}

/// A record as the store holds it: a [`StoreEntry`] in 16 bytes, its
/// version narrowed to `u32` (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Slot {
    data: u64,
    version: u32,
    logical_len: u32,
}

/// What an absent slot holds: version 0 marks it absent.
const ABSENT: Slot = Slot {
    data: 0,
    version: 0,
    logical_len: 0,
};

impl Slot {
    /// `value` at `version`.
    fn new(value: Value, version: u32) -> Self {
        Slot {
            data: value.data,
            version,
            logical_len: value.logical_len,
        }
    }

    /// The record in its public shape, `None` for an absent slot.
    fn entry(self) -> Option<StoreEntry> {
        (self.version != ABSENT.version).then_some(StoreEntry {
            value: Value::with_len(self.data, self.logical_len),
            version: Version(u64::from(self.version)),
        })
    }
}

/// One shard: the slot array, the map of keys past its end, and how many
/// keys the two hold.
#[derive(Debug, Default)]
struct Shard {
    slots: Vec<Slot>,
    overflow: IdMap<Key, Slot>,
    len: usize,
}

impl Shard {
    fn get(&self, key: Key, slot: usize) -> Option<StoreEntry> {
        match self.slots.get(slot) {
            Some(entry) => entry.entry(),
            None => self.overflow.get(&key).and_then(|entry| entry.entry()),
        }
    }

    /// The slot a write of `key` (at `slot`) goes to, counted as present:
    /// the caller gives it a version.
    fn entry_mut(&mut self, key: Key, slot: usize) -> &mut Slot {
        let entry = match self.slots.get_mut(slot) {
            Some(entry) => entry,
            None => self.overflow.entry(key).or_insert(ABSENT),
        };
        if entry.version == ABSENT.version {
            self.len += 1;
        }
        entry
    }

    /// Loads `key` (at `slot`) at version 1 while the slot array is being
    /// filled to `end`: a slot between the array's length and `end` is
    /// reached by padding the gap with absent slots.
    fn load(&mut self, key: Key, slot: usize, end: usize, value: Value) {
        let entry = Slot::new(value, 1);
        if (self.slots.len()..end).contains(&slot) {
            self.slots.resize(slot, ABSENT);
            self.slots.push(entry);
            self.len += 1;
        } else {
            *self.entry_mut(key, slot) = entry;
        }
    }
}

/// The sharded, versioned key-value store.
#[derive(Debug)]
pub struct VersionedStore {
    shards: Vec<RwLock<Shard>>,
    /// `log2(shards.len())`: a key's slot is the key shifted by it.
    shift: u32,
}

/// Default number of shards; a power of two so the shard index is a mask.
const DEFAULT_SHARDS: usize = 64;

impl Default for VersionedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionedStore {
    /// Creates an empty store with the default shard count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A store with the default shard count holding keys `0..n` at version
    /// 1, key `k` with the value `value_of(k)`: the layout `load` builds
    /// from those records in any order, built shard by shard without a
    /// lock (see the module docs).
    #[must_use]
    pub fn dense(n: u64, value_of: impl Fn(u64) -> Value) -> Self {
        let stride = DEFAULT_SHARDS as u64;
        let shift = stride.trailing_zeros();
        let shards = (0..stride)
            .map(|index| {
                let slots: Vec<Slot> = (0..n.saturating_sub(index).div_ceil(stride))
                    .map(|slot| Slot::new(value_of((slot << shift) | index), 1))
                    .collect();
                RwLock::new(Shard {
                    len: slots.len(),
                    slots,
                    overflow: IdMap::default(),
                })
            })
            .collect();
        VersionedStore { shards, shift }
    }

    /// An empty store with an explicit shard count (rounded up to a power
    /// of two).
    fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        VersionedStore {
            shards: (0..n).map(|_| RwLock::default()).collect(),
            shift: n.trailing_zeros(),
        }
    }

    /// The index of `key`'s shard and its slot there.
    fn place(&self, key: Key) -> (usize, usize) {
        let index = key.0 as usize & (self.shards.len() - 1);
        // A slot past `usize` is past every array: the map holds the key.
        let slot = usize::try_from(key.0 >> self.shift).unwrap_or(usize::MAX);
        (index, slot)
    }

    /// The shard of `key` and its slot there.
    fn locate(&self, key: Key) -> (&RwLock<Shard>, usize) {
        let (index, slot) = self.place(key);
        (&self.shards[index], slot)
    }

    /// Reads a key, returning its value and current version.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<StoreEntry> {
        let (shard, slot) = self.locate(key);
        shard
            .read()
            .expect("a store writer panicked")
            .get(key, slot)
    }

    /// The current version of a key (`Version(0)` if the key is absent;
    /// versions of existing keys start at 1).
    #[must_use]
    pub fn version_of(&self, key: Key) -> Version {
        let (shard, slot) = self.locate(key);
        shard
            .read()
            .expect("a store writer panicked")
            .get(key, slot)
            .map_or(Version(0), |e| e.version)
    }

    /// Writes a key, bumping its version, and returns the new version.
    ///
    /// # Panics
    ///
    /// If the key already holds `u32::MAX` versions, the bound of a
    /// store slot (see the module docs).
    pub fn put(&self, key: Key, value: Value) -> Version {
        let (shard, slot) = self.locate(key);
        let mut shard = shard.write().expect("a store writer panicked");
        let entry = shard.entry_mut(key, slot);
        let Some(version) = entry.version.checked_add(1) else {
            panic!(
                "key {} would pass u32::MAX versions, the bound of a store slot",
                key.0
            );
        };
        *entry = Slot::new(value, version);
        Version(u64::from(version))
    }

    /// Applies a set of writes atomically with respect to each key
    /// (the verifier is the only writer, so per-key atomicity suffices).
    pub fn apply_writes(&self, writes: &[(Key, Value)]) {
        for (key, value) in writes {
            self.put(*key, *value);
        }
    }

    /// Bulk-loads initial records at version 1, from any stream of
    /// records into any store. A shard that holds no key yet sizes its
    /// slot array for the keys below the iterator's lower size bound (see
    /// the module docs); the dense YCSB table is built by [`Self::dense`]
    /// instead.
    ///
    /// The load takes every shard's write lock once, in index order, and
    /// holds them all for its whole pass. It is the only store path that
    /// holds two shard locks; every other one holds one at a time, so the
    /// order cannot deadlock. A sized array is filled in the same pass:
    /// reserved, written in place below its length, padded with absent
    /// slots up to a record past it, and padded to its sized length at the
    /// end.
    pub fn load<I: IntoIterator<Item = (Key, Value)>>(&self, records: I) {
        let records = records.into_iter();
        let bound = records.size_hint().0;
        let mask = self.shards.len() - 1;
        // Each shard's guard, with the length its array is filled to.
        let mut shards: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let mut shard = shard.write().expect("a store writer panicked");
                // The keys below `bound` in shard `index`: `index`, `index
                // + shards`, … — `(bound − index) / shards` rounded up.
                let slots = bound.saturating_add(mask - index) >> self.shift;
                let end = if shard.len == 0 && slots > shard.slots.len() {
                    shard.slots = Vec::with_capacity(slots);
                    slots
                } else {
                    shard.slots.len()
                };
                (shard, end)
            })
            .collect();
        for (key, value) in records {
            let (index, slot) = self.place(key);
            let (shard, end) = &mut shards[index];
            shard.load(key, slot, *end, value);
        }
        for (shard, end) in &mut shards {
            shard.slots.resize(*end, ABSENT);
        }
    }

    /// Number of keys currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("a store writer panicked").len)
            .sum()
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every shard's slot array, as `(len, capacity)`.
    fn array_sizes(store: &VersionedStore) -> Vec<(usize, usize)> {
        store
            .shards
            .iter()
            .map(|s| {
                let s = s.read().expect("a store writer panicked");
                (s.slots.len(), s.slots.capacity())
            })
            .collect()
    }

    #[test]
    fn put_bumps_versions_monotonically() {
        let store = VersionedStore::new();
        assert_eq!(store.version_of(Key(1)), Version(0));
        let v1 = store.put(Key(1), Value::new(10));
        let v2 = store.put(Key(1), Value::new(20));
        assert_eq!(v1, Version(1));
        assert_eq!(v2, Version(2));
        assert_eq!(store.get(Key(1)).unwrap().value, Value::new(20));
    }

    #[test]
    fn a_record_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    #[should_panic(expected = "key 70 would pass u32::MAX versions, the bound of a store slot")]
    fn a_write_past_the_version_bound_panics() {
        let store = VersionedStore::dense(100, Value::new);
        // Key 1 000 goes to shard 40's map, key 70 sits in shard 6's array.
        store.put(Key(1_000), Value::new(1));
        for key in [Key(1_000), Key(70)] {
            let (index, slot) = store.place(key);
            let mut shard = store.shards[index].write().unwrap();
            shard.entry_mut(key, slot).version = u32::MAX - 1;
        }
        assert_eq!(
            store.put(Key(1_000), Value::new(2)),
            Version(u64::from(u32::MAX))
        );
        assert_eq!(
            store.put(Key(70), Value::new(2)),
            Version(u64::from(u32::MAX))
        );
        store.put(Key(70), Value::new(3));
    }

    #[test]
    fn get_missing_key_is_none() {
        let store = VersionedStore::new();
        assert!(store.get(Key(99)).is_none());
    }

    #[test]
    fn load_sets_version_one_for_all_records() {
        let store = VersionedStore::new();
        store.load((0..100).map(|i| (Key(i), Value::new(i))));
        assert_eq!(store.len(), 100);
        for i in 0..100 {
            assert_eq!(store.version_of(Key(i)), Version(1));
        }
    }

    #[test]
    fn apply_writes_touches_every_key() {
        let store = VersionedStore::new();
        store.apply_writes(&[(Key(1), Value::new(1)), (Key(2), Value::new(2))]);
        assert_eq!(store.get(Key(1)).unwrap().value, Value::new(1));
        assert_eq!(store.get(Key(2)).unwrap().value, Value::new(2));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(VersionedStore::with_shards(3).shards.len(), 4);
        assert_eq!(VersionedStore::with_shards(64).shards.len(), 64);
        assert_eq!(VersionedStore::with_shards(0).shards.len(), 1);
    }

    #[test]
    fn dense_keys_fill_every_shard_evenly() {
        let store = VersionedStore::with_shards(16);
        store.load((0..1_000).map(|i| (Key(i), Value::new(i))));
        // 1 000 = 16 × 62 + 8: the first eight shards hold one key more.
        for (index, shard) in store.shards.iter().enumerate() {
            let shard = shard.read().expect("a store writer panicked");
            let expected = if index < 8 { 63 } else { 62 };
            assert_eq!((shard.len, shard.slots.len()), (expected, expected));
            assert_eq!(shard.slots.capacity(), expected, "shard {index}");
            assert!(shard.overflow.is_empty(), "shard {index}");
        }
    }

    #[test]
    fn a_write_far_past_the_loaded_range_grows_no_array() {
        let store = VersionedStore::new();
        store.load((0..1_000).map(|i| (Key(i), Value::new(i))));
        let before = array_sizes(&store);
        assert_eq!(store.put(Key(u64::MAX), Value::new(7)), Version(1));
        assert_eq!(array_sizes(&store), before);
        assert_eq!(store.get(Key(u64::MAX)).unwrap().value, Value::new(7));
        assert_eq!(store.len(), 1_001);
    }

    #[test]
    fn a_write_into_a_hole_counts_one_more_key() {
        let store = VersionedStore::new();
        let records: Vec<_> = (0..100)
            .filter(|&i| i != 50)
            .map(|i| (Key(i), Value::new(i)))
            .collect();
        // The bound is 99, so key 50 has a slot, left absent.
        store.load(records);
        let (shard, slot) = store.locate(Key(50));
        assert!(slot < shard.read().expect("a store writer panicked").slots.len());
        assert_eq!(store.len(), 99);
        assert!(store.get(Key(50)).is_none());
        assert_eq!(store.put(Key(50), Value::new(5)), Version(1));
        assert_eq!(store.len(), 100);
    }

    #[test]
    fn every_load_order_fills_every_array_to_its_sized_length() {
        const N: u64 = 1_000;
        // Dense keys, then keys without those ≡ 3 (mod 7): 857 records,
        // so keys 857.. go to the maps, and shard 4's top slot below the
        // bound (key 836) is a hole.
        for holed in [false, true] {
            let kept = |k: &u64| !holed || k % 7 != 3;
            let record = |k| (Key(k), Value::new(k * 3));
            let ascending: Vec<_> = (0..N).filter(kept).map(record).collect();
            let descending = ascending.iter().rev().copied().collect();
            // A permutation of `0..N`: 7 919 is prime.
            let shuffled = (0..N).map(|i| i * 7_919 % N).filter(kept).map(record);
            let bound = ascending.len();
            // Shard `i` is sized to the keys below the bound that map to it.
            let sized: Vec<_> = (0..64)
                .map(|i| (0..bound).filter(|k| k % 64 == i).count())
                .map(|len| (len, len))
                .collect();
            for records in [ascending, descending, shuffled.collect()] {
                let store = VersionedStore::new();
                store.load(records);
                assert_eq!(array_sizes(&store), sized, "holed: {holed}");
                assert_eq!(store.len(), bound, "holed: {holed}");
                for k in 0..2 * N {
                    let expected = (k < N && kept(&k)).then(|| StoreEntry {
                        value: Value::new(k * 3),
                        version: Version(1),
                    });
                    assert_eq!(store.get(Key(k)), expected, "key {k}, holed: {holed}");
                }
            }
        }
    }

    #[test]
    fn a_load_into_a_shard_that_holds_keys_resizes_nothing() {
        let store = VersionedStore::new();
        store.put(Key(5), Value::new(50));
        store.load((0..1_000).map(|i| (Key(i), Value::new(i))));
        let sizes = array_sizes(&store);
        // Shard 5 held key 5 in its map, so its keys stay there.
        assert_eq!(sizes[5], (0, 0));
        assert_eq!(sizes[4], (16, 16));
        assert_eq!(store.len(), 1_000);
        assert_eq!(store.get(Key(5)).map(|e| e.version), Some(Version(1)));
        assert_eq!(store.get(Key(69)).unwrap().value, Value::new(69));
        // A second load finds every shard holding keys.
        store.load((1_000..2_000).map(|i| (Key(i), Value::new(i))));
        assert_eq!(array_sizes(&store), sizes);
        assert_eq!(store.len(), 2_000);
        for k in 0..2_000 {
            assert_eq!(store.get(Key(k)).unwrap().value, Value::new(k), "key {k}");
        }
    }

    #[test]
    fn a_duplicate_in_one_load_counts_once_at_version_one() {
        let store = VersionedStore::new();
        // The bound is 6: key 3 has a slot, key 70 goes to shard 6's map.
        store.load(
            [(3, 1), (70, 1), (3, 2), (1, 1), (70, 2), (3, 3)]
                .map(|(k, v)| (Key(k), Value::new(v))),
        );
        assert_eq!(store.len(), 3);
        for (k, v) in [(1, 1), (3, 3), (70, 2)] {
            let expected = StoreEntry {
                value: Value::new(v),
                version: Version(1),
            };
            assert_eq!(store.get(Key(k)), Some(expected), "key {k}");
        }
    }

    #[test]
    fn the_dense_constructor_equals_an_ascending_load() {
        let value_of = |k: u64| Value::new(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for n in [0, 1, 63, 64, 65, 1_000, 100_003] {
            let dense = VersionedStore::dense(n, value_of);
            let loaded = VersionedStore::new();
            loaded.load((0..n).map(|k| (Key(k), value_of(k))));
            assert_eq!(array_sizes(&dense), array_sizes(&loaded), "n = {n}");
            assert_eq!(dense.len(), loaded.len(), "n = {n}");
            assert_eq!(dense.len() as u64, n);
            for (d, l) in dense.shards.iter().zip(&loaded.shards) {
                let (d, l) = (d.read().unwrap(), l.read().unwrap());
                assert_eq!((&d.slots, d.len), (&l.slots, l.len), "n = {n}");
                assert!(d.overflow.is_empty(), "n = {n}");
            }
            for k in 0..n {
                let expected = StoreEntry {
                    value: value_of(k),
                    version: Version(1),
                };
                assert_eq!(dense.get(Key(k)), Some(expected), "key {k}, n = {n}");
            }
            for k in (n..n + 130).chain([u64::MAX]) {
                assert_eq!(dense.get(Key(k)), None, "key {k}, n = {n}");
            }
        }
    }

    #[test]
    fn a_put_past_a_dense_array_lands_in_its_map() {
        let store = VersionedStore::dense(1_000, Value::new);
        let before = array_sizes(&store);
        // Key 1 000 is slot 15 of shard 40, whose array ends at 15 slots.
        let (shard, slot) = store.locate(Key(1_000));
        assert_eq!((before[40], slot), ((15, 15), 15));
        assert_eq!(store.put(Key(1_000), Value::new(7)), Version(1));
        assert_eq!(store.put(Key(999), Value::new(8)), Version(2));
        assert_eq!(array_sizes(&store), before);
        let overflow = &shard.read().unwrap().overflow;
        assert_eq!(overflow.keys().collect::<Vec<_>>(), [&Key(1_000)]);
        assert_eq!(store.get(Key(1_000)).unwrap().value, Value::new(7));
        assert_eq!(store.len(), 1_001);
    }

    #[test]
    fn concurrent_reads_and_writes_do_not_lose_updates() {
        use std::sync::Arc;
        let store = Arc::new(VersionedStore::new());
        store.load([(Key(0), Value::new(0))]);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        store.put(Key(0), Value::new(1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 1 initial load (version 1) + 800 writes.
        assert_eq!(store.version_of(Key(0)), Version(801));
    }
}
