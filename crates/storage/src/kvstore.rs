//! The versioned, sharded key-value store backing the on-premise storage.
//!
//! Every key carries a [`Version`] that is bumped on each committed write.
//! Versions are what make the verifier's read-set check (`rw' = rw`,
//! Figure 3 line 32) cheap: instead of comparing full values, the verifier
//! compares the version an executor observed at read time with the current
//! version. The store is sharded and each shard is guarded by a
//! `parking_lot::RwLock`, so the thread runtime can drive many executor
//! reads concurrently with verifier writes.

use parking_lot::RwLock;
use sbft_types::{IdMap, Key, Value, Version};

use crate::stats::StorageStats;

/// A value together with its current version.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StoreEntry {
    /// The stored value.
    pub value: Value,
    /// Monotonically increasing version, starting at 1 on first insert.
    pub version: Version,
}

/// The sharded, versioned key-value store.
#[derive(Debug)]
pub struct VersionedStore {
    shards: Vec<RwLock<IdMap<Key, StoreEntry>>>,
    stats: StorageStats,
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

    /// Creates an empty store with an explicit shard count (rounded up to a
    /// power of two).
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        VersionedStore {
            shards: (0..n).map(|_| RwLock::new(IdMap::default())).collect(),
            stats: StorageStats::new(),
        }
    }

    fn shard_for(&self, key: Key) -> &RwLock<IdMap<Key, StoreEntry>> {
        // Multiplicative hashing spreads dense YCSB keys across shards.
        let idx =
            (key.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Reads a key, returning its value and current version.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<StoreEntry> {
        self.stats.record_read();
        self.shard_for(key).read().get(&key).copied()
    }

    /// The current version of a key (`Version(0)` if the key is absent;
    /// versions of existing keys start at 1).
    #[must_use]
    pub fn version_of(&self, key: Key) -> Version {
        self.shard_for(key)
            .read()
            .get(&key)
            .map_or(Version(0), |e| e.version)
    }

    /// Writes a key, bumping its version, and returns the new version.
    pub fn put(&self, key: Key, value: Value) -> Version {
        self.stats.record_write();
        let mut shard = self.shard_for(key).write();
        let entry = shard.entry(key).or_insert(StoreEntry {
            value,
            version: Version(0),
        });
        entry.value = value;
        entry.version = Version(entry.version.0 + 1);
        entry.version
    }

    /// Applies a set of writes atomically with respect to each key
    /// (the verifier is the only writer, so per-key atomicity suffices).
    pub fn apply_writes(&self, writes: &[(Key, Value)]) {
        for (key, value) in writes {
            self.put(*key, *value);
        }
    }

    /// Bulk-loads initial records without counting them in the statistics.
    /// Every shard reserves its share of the iterator's lower size bound
    /// first (the shard hash spreads keys evenly), so a load grows no
    /// table record by record.
    pub fn load<I: IntoIterator<Item = (Key, Value)>>(&self, records: I) {
        let records = records.into_iter();
        let per_shard = records.size_hint().0.div_ceil(self.shards.len());
        for shard in &self.shards {
            shard.write().reserve(per_shard);
        }
        for (key, value) in records {
            let mut shard = self.shard_for(key).write();
            shard.insert(
                key,
                StoreEntry {
                    value,
                    version: Version(1),
                },
            );
        }
    }

    /// Number of keys currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation statistics collected so far.
    #[must_use]
    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn keys_spread_across_shards() {
        let store = VersionedStore::with_shards(16);
        store.load((0..1_000).map(|i| (Key(i), Value::new(i))));
        // With 1000 dense keys and 16 shards, every shard should hold
        // something if the hash spreads them.
        let occupied = store.shards.iter().filter(|s| !s.read().is_empty()).count();
        assert_eq!(occupied, 16);
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let store = VersionedStore::new();
        store.put(Key(1), Value::new(1));
        let _ = store.get(Key(1));
        let _ = store.get(Key(2));
        assert_eq!(store.stats().reads(), 2);
        assert_eq!(store.stats().writes(), 1);
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
