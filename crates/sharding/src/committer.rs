//! The lock-ordered commit engine the worker pool drives.
//!
//! [`ShardedCommitter::commit`] runs the `ccheck` of Figure 3 (lines
//! 30–35), [`ConcurrencyChecker::check_and_apply`], under the execution
//! lock of every shard the transaction touches. The locks are taken in
//! ascending [`ShardId`] order (the route set's iteration order), which
//! makes the path deadlock-free; a single-shard transaction is the
//! one-lock case. Holding every involved lock across validate-and-apply
//! is what lets pool workers on disjoint shards run in parallel while the
//! observable OCC outcomes stay exactly those of one applier running the
//! same sequence.
//!
//! The verifier does not use this type: it is the one applier, and calls
//! [`ConcurrencyChecker::check_and_apply`] itself, without locks.

use sbft_storage::{ConcurrencyChecker, OccOutcome, VersionedStore};
use sbft_types::{ReadWriteSet, ShardId, ShardRouter, ShardSet, ShardingConfig};
use std::sync::{Arc, Mutex};

/// The shared store, the router and one execution lock per shard.
pub struct ShardedCommitter {
    store: Arc<VersionedStore>,
    router: ShardRouter,
    locks: Vec<Mutex<()>>,
}

impl ShardedCommitter {
    /// Creates a committer over the shared store, with one execution lock
    /// per configured shard.
    #[must_use]
    pub fn new(store: Arc<VersionedStore>, config: &ShardingConfig) -> Self {
        let router = ShardRouter::new(config.num_shards);
        let locks = (0..router.num_shards()).map(|_| Mutex::new(())).collect();
        ShardedCommitter {
            store,
            router,
            locks,
        }
    }

    /// The router deciding key placement.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Runs the locked check-then-apply for one transaction.
    ///
    /// When `validate_reads` is false (non-conflicting workloads) the
    /// read-set comparison is skipped, exactly as in
    /// [`ConcurrencyChecker::check_and_apply`].
    pub fn commit(&self, rwset: &ReadWriteSet, validate_reads: bool) -> OccOutcome {
        self.commit_routed(rwset, validate_reads, self.router.shards_of(rwset))
    }

    /// Like [`commit`](Self::commit), with the routing decision already
    /// made: the pool routes a batch once, when it is submitted.
    pub(crate) fn commit_routed(
        &self,
        rwset: &ReadWriteSet,
        validate_reads: bool,
        involved: ShardSet,
    ) -> OccOutcome {
        self.under_locks(involved.iter(), || {
            ConcurrencyChecker::check_and_apply(&self.store, rwset, validate_reads)
        })
    }

    /// Runs `apply` holding the execution lock of every shard `shards`
    /// yields, taken in that order: one stack frame per lock, so no
    /// transaction allocates a guard list.
    fn under_locks<R>(
        &self,
        mut shards: impl Iterator<Item = ShardId>,
        apply: impl FnOnce() -> R,
    ) -> R {
        match shards.next() {
            Some(shard) => {
                let _guard = self.locks[shard.0 as usize]
                    .lock()
                    .expect("a shard executor panicked");
                self.under_locks(shards, apply)
            }
            None => apply(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Key, Value, Version};

    fn store_with(n: u64) -> Arc<VersionedStore> {
        let store = Arc::new(VersionedStore::new());
        store.load((0..n).map(|i| (Key(i), Value::new(i))));
        store
    }

    fn committer(num_shards: usize, store: &Arc<VersionedStore>) -> ShardedCommitter {
        ShardedCommitter::new(Arc::clone(store), &ShardingConfig::with_shards(num_shards))
    }

    /// Two keys guaranteed to live on different shards of an 8-way router.
    fn split_keys(router: &ShardRouter) -> (Key, Key) {
        let a = Key(0);
        let b = (1..)
            .map(Key)
            .find(|k| router.shard_of(*k) != router.shard_of(a))
            .unwrap();
        (a, b)
    }

    #[test]
    fn single_shard_commit_applies_its_writes() {
        let store = store_with(100);
        let c = committer(8, &store);
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1));
        rw.record_write(Key(1), Value::new(99));
        assert_eq!(c.commit(&rw, true), OccOutcome::Applied);
        assert_eq!(store.get(Key(1)).unwrap().value, Value::new(99));
        assert_eq!(store.version_of(Key(1)), Version(2));
    }

    #[test]
    fn stale_single_shard_read_aborts_without_writing() {
        let store = store_with(100);
        let c = committer(8, &store);
        store.put(Key(5), Value::new(50)); // bump to version 2
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(5), Version(1));
        rw.record_write(Key(5), Value::new(1000));
        assert_eq!(c.commit(&rw, true), OccOutcome::StaleReads(vec![Key(5)]));
        assert_eq!(store.get(Key(5)).unwrap().value, Value::new(50));
        assert_eq!(
            store.version_of(Key(5)),
            Version(2),
            "the abort wrote nothing"
        );
    }

    #[test]
    fn cross_shard_commit_applies_on_every_involved_shard() {
        let store = store_with(100);
        let c = committer(8, &store);
        let (a, b) = split_keys(c.router());
        let mut rw = ReadWriteSet::new();
        rw.record_read(a, Version(1));
        rw.record_write(a, Value::new(7));
        rw.record_write(b, Value::new(7));
        assert_eq!(c.router().shards_of(&rw).len(), 2);
        assert_eq!(c.commit(&rw, true), OccOutcome::Applied);
        assert_eq!(store.get(a).unwrap().value, Value::new(7));
        assert_eq!(store.get(b).unwrap().value, Value::new(7));
    }

    #[test]
    fn cross_shard_occ_conflict_aborts_exactly_one_side() {
        let store = store_with(100);
        let c = committer(8, &store);
        let (a, b) = split_keys(c.router());
        // Two transactions read both keys at version 1 and write both.
        let txn = |value: u64| {
            let mut rw = ReadWriteSet::new();
            rw.record_read(a, Version(1));
            rw.record_read(b, Version(1));
            rw.record_write(a, Value::new(value));
            rw.record_write(b, Value::new(value));
            rw
        };
        // Sequential OCC: the first wins, the second sees stale reads.
        assert_eq!(c.commit(&txn(11), true), OccOutcome::Applied);
        assert_eq!(c.commit(&txn(22), true), OccOutcome::StaleReads(vec![a, b]));
        assert_eq!(store.get(a).unwrap().value, Value::new(11));
        assert_eq!(store.get(b).unwrap().value, Value::new(11));
        assert_eq!(store.version_of(a), Version(2));
    }

    #[test]
    fn sharded_commit_matches_unsharded_ccheck_outcomes() {
        // The same transaction sequence through 1 shard and 8 shards must
        // produce identical outcomes and identical final stores.
        let seq: Vec<(u64, u64, u64)> = (0..200).map(|i| (i % 50, (i * 7) % 50, i)).collect();
        let run = |shards: usize| {
            let store = store_with(50);
            let c = committer(shards, &store);
            let outcomes: Vec<bool> = seq
                .iter()
                .map(|&(r, w, v)| {
                    let mut rw = ReadWriteSet::new();
                    rw.record_read(Key(r), store.version_of(Key(r)));
                    rw.record_write(Key(w), Value::new(v));
                    c.commit(&rw, true).is_applied()
                })
                .collect();
            let state: Vec<(u64, u64)> = (0..50)
                .map(|k| {
                    let e = store.get(Key(k)).unwrap();
                    (e.value.data, e.version.0)
                })
                .collect();
            (outcomes, state)
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn parallel_disjoint_commits_do_not_interfere() {
        let store = store_with(1_000);
        let c = Arc::new(committer(8, &store));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let key = Key(t * 100 + i);
                        let mut rw = ReadWriteSet::new();
                        rw.record_read(key, Version(1));
                        rw.record_write(key, Value::new(i));
                        assert_eq!(c.commit(&rw, true), OccOutcome::Applied);
                    }
                });
            }
        });
        for t in 0..8u64 {
            for i in 0..100u64 {
                let entry = store.get(Key(t * 100 + i)).unwrap();
                assert_eq!((entry.value, entry.version), (Value::new(i), Version(2)));
            }
        }
    }
}
