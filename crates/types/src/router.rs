//! Deterministic partitioning of the key space into shards.
//!
//! The router is a pure function of `(key, num_shards)`: it uses the same
//! Fibonacci multiplicative hash as the store's internal lock striping, so
//! dense YCSB keys spread evenly, and the mapping is identical across
//! runs, threads and processes — a requirement for the verifier, the
//! simulator and the thread runtime to agree on where a transaction
//! executes.
//!
//! # Ordering-time vs. apply-time routing
//!
//! The same `key → shard` map is consulted at two very different points
//! of a batch's life:
//!
//! * **Ordering time** (the shard-aware planner): the primary classifies
//!   each transaction's *declared* read-write set with [`ShardRouter::plan_keys`]
//!   and steers single-home transactions into per-shard batching lanes,
//!   so whole batches arrive at the verifier already conflict-free per
//!   shard. The spawner classifies a committed batch the same way to
//!   place its executors; no [`ShardPlan`] travels with the batch.
//! * **Apply time**: the verifier counts a batch single-home from the
//!   read-write sets the executors actually observed
//!   ([`ShardRouter::all_on`]). It checks and applies every batch the
//!   same way whatever its home.

use crate::ids::ShardId;
use crate::inline::ShardSet;
use crate::plan::ShardPlan;
use crate::rwset::{Key, ReadWriteSet};

/// Deterministically maps keys to shards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardRouter {
    num_shards: u32,
}

impl ShardRouter {
    /// Creates a router over `num_shards` shards (clamped to at least 1).
    ///
    /// # Panics
    /// Panics beyond [`ShardSet::CAPACITY`] shards: a route set could not
    /// name them (`SystemConfig::validate` rejects such a deployment).
    #[must_use]
    pub fn new(num_shards: usize) -> Self {
        assert!(
            num_shards <= ShardSet::CAPACITY,
            "{num_shards} shards exceed the route-set width"
        );
        ShardRouter {
            num_shards: num_shards.max(1) as u32,
        }
    }

    /// Number of shards this router partitions into.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards as usize
    }

    /// The shard owning `key`. Pure and stable: the same key always maps
    /// to the same shard for a given shard count. Delegates to the one
    /// canonical [`ShardId::of_key`] the geo-partitioned storage view
    /// also uses, so routing and placement can never disagree.
    #[must_use]
    pub fn shard_of(&self, key: Key) -> ShardId {
        ShardId::of_key(key, self.num_shards as usize)
    }

    /// The set of shards a transaction's observed read-write set touches.
    #[must_use]
    pub fn shards_of(&self, rwset: &ReadWriteSet) -> ShardSet {
        let reads = rwset.reads.iter().map(|(k, _)| *k);
        let writes = rwset.writes.iter().map(|(k, _)| *k);
        reads.chain(writes).map(|k| self.shard_of(k)).collect()
    }

    /// Classifies an arbitrary key collection at ordering time: no keys
    /// is [`ShardPlan::Unplanned`], all keys on one shard is
    /// [`ShardPlan::SingleHome`], anything else is
    /// [`ShardPlan::CrossHome`]. No allocation — a fold over the hash.
    #[must_use]
    pub fn plan_keys<I: IntoIterator<Item = Key>>(&self, keys: I) -> ShardPlan {
        keys.into_iter().fold(ShardPlan::Unplanned, |plan, key| {
            plan.merge_shard(self.shard_of(key))
        })
    }

    /// The plan of an *observed* read-write set: [`Self::plan_keys`] over
    /// its reads and writes.
    #[must_use]
    pub fn plan_of(&self, rwset: &ReadWriteSet) -> ShardPlan {
        self.plan_keys(
            rwset
                .reads
                .iter()
                .map(|(k, _)| *k)
                .chain(rwset.writes.iter().map(|(k, _)| *k)),
        )
    }

    /// Whether every key of the collection maps to `home` — the cheap
    /// single-pass check the verifier's single-home count runs (no sets,
    /// no allocation, early exit on the first foreign key).
    #[must_use]
    pub fn all_on<I: IntoIterator<Item = Key>>(&self, home: ShardId, keys: I) -> bool {
        keys.into_iter().all(|k| self.shard_of(k) == home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::{Value, Version};

    #[test]
    fn same_key_same_shard_across_router_instances() {
        let a = ShardRouter::new(8);
        let b = ShardRouter::new(8);
        for k in 0..10_000u64 {
            assert_eq!(a.shard_of(Key(k)), b.shard_of(Key(k)));
        }
    }

    #[test]
    fn shards_are_in_range_and_all_used() {
        let router = ShardRouter::new(8);
        let mut seen = ShardSet::EMPTY;
        for k in 0..10_000u64 {
            let s = router.shard_of(Key(k));
            assert!(s.0 < 8);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 8, "dense keys must spread over every shard");
    }

    #[test]
    fn single_shard_router_maps_everything_to_shard_zero() {
        let router = ShardRouter::new(1);
        for k in [0u64, 1, 42, u64::MAX] {
            assert_eq!(router.shard_of(Key(k)), ShardId(0));
        }
        assert_eq!(ShardRouter::new(0).num_shards(), 1);
    }

    #[test]
    fn spread_is_roughly_uniform() {
        let router = ShardRouter::new(4);
        let mut counts = [0usize; 4];
        for k in 0..100_000u64 {
            counts[router.shard_of(Key(k)).0 as usize] += 1;
        }
        for c in counts {
            assert!((20_000..30_000).contains(&c), "imbalanced: {counts:?}");
        }
    }

    #[test]
    fn plan_keys_classifies_empty_single_and_cross() {
        let router = ShardRouter::new(8);
        assert_eq!(router.plan_keys([]), ShardPlan::Unplanned);
        let k = Key(7);
        let home = router.shard_of(k);
        assert_eq!(router.plan_keys([k, k]), ShardPlan::SingleHome(home));
        let foreign = (8..)
            .map(Key)
            .find(|x| router.shard_of(*x) != home)
            .unwrap();
        assert_eq!(router.plan_keys([k, foreign]), ShardPlan::CrossHome);
    }

    #[test]
    fn plan_of_matches_plan_keys_and_all_on_agrees() {
        let router = ShardRouter::new(16);
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(3), Version(1));
        rw.record_write(Key(3), Value::new(1));
        let home = router.shard_of(Key(3));
        assert_eq!(router.plan_of(&rw), ShardPlan::SingleHome(home));
        assert!(router.all_on(home, [Key(3)]));
        let foreign = (4..)
            .map(Key)
            .find(|x| router.shard_of(*x) != home)
            .unwrap();
        assert!(!router.all_on(home, [Key(3), foreign]));
        rw.record_write(foreign, Value::new(2));
        assert_eq!(router.plan_of(&rw), ShardPlan::CrossHome);
    }

    #[test]
    fn rwset_shard_set_unions_reads_and_writes() {
        let router = ShardRouter::new(ShardSet::CAPACITY);
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1));
        rw.record_write(Key(2), Value::new(9));
        let shards = router.shards_of(&rw);
        assert!(shards.contains(router.shard_of(Key(1))));
        assert!(shards.contains(router.shard_of(Key(2))));
        // At the widest route set two small keys land apart.
        assert_eq!(shards.len(), 2);
        let mut single = ReadWriteSet::new();
        single.record_write(Key(7), Value::new(1));
        assert_eq!(router.shards_of(&single).len(), 1);
        assert!(router.shards_of(&ReadWriteSet::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "exceed the route-set width")]
    fn a_router_wider_than_a_route_set_is_refused() {
        let _ = ShardRouter::new(ShardSet::CAPACITY + 1);
    }
}
