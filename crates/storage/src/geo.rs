//! The region-partitioned view of the on-premise store.
//!
//! When a deployment geo-partitions its storage, every execution shard's
//! partition is replicated to a *home region* (the deterministic
//! [`RegionPartition`] shared by the whole workspace). The store's data
//! and versioning semantics are untouched — the view only adds the
//! *placement* dimension: which region a key's partition lives in, which
//! regions a read-write footprint touches, and counters separating local
//! from remote accesses. Runtimes that model latency (the simulator)
//! use the classification to charge inter-region round trips on
//! executor ⇄ storage fetches; correctness never depends on it.

use crate::kvstore::VersionedStore;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{Key, Region, RegionPartition};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A [`VersionedStore`] seen through the geo-partitioning lens.
#[derive(Debug)]
pub struct GeoPartitionedStore {
    store: Arc<VersionedStore>,
    partition: RegionPartition,
    /// Fetches served by the fetching executor's own region.
    local_fetches: Counter,
    /// Fetches that crossed regions.
    remote_fetches: Counter,
}

impl GeoPartitionedStore {
    /// Wraps a store with the deployment's shard → region map.
    #[must_use]
    pub fn new(store: Arc<VersionedStore>, partition: RegionPartition) -> Self {
        GeoPartitionedStore {
            store,
            partition,
            local_fetches: Counter::new(),
            remote_fetches: Counter::new(),
        }
    }

    /// Re-homes the locality counters into `registry` under
    /// `storage.geo.*`.
    pub fn register_metrics(&mut self, registry: &Registry) {
        self.local_fetches = registry.counter("storage.geo.local_fetches");
        self.remote_fetches = registry.counter("storage.geo.remote_fetches");
    }

    /// The underlying store.
    #[must_use]
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }

    /// The home region of the partition holding `key` (delegates to the
    /// shared [`RegionPartition`] map).
    #[must_use]
    pub fn home_of_key(&self, key: Key) -> Region {
        self.partition.home_of_key(key)
    }

    /// The set of distinct home regions a key collection touches — what
    /// an executor must reach to fetch a batch's read-write sets.
    #[must_use]
    pub fn regions_touched<I: IntoIterator<Item = Key>>(&self, keys: I) -> BTreeSet<Region> {
        keys.into_iter().map(|k| self.home_of_key(k)).collect()
    }

    /// Records one bulk fetch from the partition homed in `home`, issued
    /// by an accessor running in `from`; returns whether it crossed
    /// regions. Latency-aware runtimes call this once per touched
    /// partition per executor (executors fetch read-write sets in bulk).
    pub fn record_partition_fetch(&self, from: Region, home: Region) -> bool {
        let remote = home != from;
        if remote {
            self.remote_fetches.inc();
        } else {
            self.local_fetches.inc();
        }
        remote
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{RegionSet, ShardId, Value};

    fn view(regions: usize, shards: usize) -> GeoPartitionedStore {
        let store = Arc::new(VersionedStore::new());
        store.load((0..1_000u64).map(|k| (Key(k), Value::new(k))));
        GeoPartitionedStore::new(
            store,
            RegionPartition::new(RegionSet::first_n(regions), shards),
        )
    }

    #[test]
    fn home_of_key_agrees_with_the_canonical_shard_map() {
        let geo = view(3, 8);
        for k in 0..1_000u64 {
            let shard = ShardId::of_key(Key(k), 8);
            assert_eq!(geo.home_of_key(Key(k)), geo.partition.home_of(shard));
        }
    }

    #[test]
    fn regions_touched_collects_distinct_homes() {
        let geo = view(3, 8);
        // Enough dense keys touch every region the 8 shards spread over.
        let all = geo.regions_touched((0..1_000u64).map(Key));
        assert_eq!(all.len(), 3);
        // A key set from one shard touches exactly its home region.
        let home = geo.home_of_key(Key(1));
        let same: Vec<Key> = (0..1_000u64)
            .map(Key)
            .filter(|k| geo.home_of_key(*k) == home)
            .take(10)
            .collect();
        assert_eq!(geo.regions_touched(same), BTreeSet::from([home]));
    }

    #[test]
    fn partition_fetches_are_classified_and_counted_local_vs_remote() {
        let geo = view(3, 8);
        let home = geo.home_of_key(Key(7));
        assert!(!geo.record_partition_fetch(home, home));
        let elsewhere = RegionSet::first_n(3)
            .regions()
            .iter()
            .copied()
            .find(|r| *r != home)
            .unwrap();
        assert!(geo.record_partition_fetch(elsewhere, home));
        assert_eq!(geo.local_fetches.get(), 1);
        assert_eq!(geo.remote_fetches.get(), 1);
    }

    #[test]
    fn single_region_partition_makes_every_fetch_local() {
        let geo = view(1, 4);
        for k in 0..100u64 {
            let home = geo.home_of_key(Key(k));
            assert!(!geo.record_partition_fetch(Region::NorthCalifornia, home));
        }
        assert_eq!(geo.remote_fetches.get(), 0);
    }
}
