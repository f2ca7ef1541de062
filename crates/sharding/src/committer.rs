//! The sharded commit engine the trusted verifier drives.
//!
//! [`ShardedCommitter::commit`] is the sharded replacement for the global
//! `ccheck` path (Figure 3, lines 30–35). Placement is decided by the
//! [`ShardRouter`]; execution takes one of two paths:
//!
//! * **Single-shard** (the common case on uniform YCSB): the transaction
//!   validates and applies under its own shard's execution lock only, so
//!   disjoint shards proceed fully in parallel.
//! * **Cross-shard**: a two-phase, lock-ordered path — acquire the
//!   execution lock of every involved shard in ascending [`ShardId`]
//!   order (phase one), validate *all* reads and apply *all* writes while
//!   holding them (phase two), then release. The global acquisition order
//!   makes the path deadlock-free, and holding every involved lock across
//!   validate-and-apply makes the check atomic with respect to the
//!   single-shard fast path — so the observable OCC outcomes are exactly
//!   those of an unsharded verifier applying the same sequence.
//!
//! With the ordering-time shard planner, batches usually arrive tagged
//! [`sbft_types::ShardPlan::SingleHome`]: after the verifier re-derives
//! the tag (trust-but-verify, see [`crate::router`]), every transaction
//! of such a batch takes the single-shard fast path below with a
//! pre-computed involved-set of one — no per-transaction routing and no
//! cross-shard locks on the hot path. Cross-home batches were tagged
//! for the lock-ordered path at batching time instead of being
//! discovered here.

use crate::router::{ShardId, ShardRouter, ShardSet};
use crate::state::ShardState;
use sbft_storage::{ConcurrencyChecker, OccOutcome, VersionedStore};
use sbft_types::{Key, ReadWriteSet, ShardingConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The outcome of a sharded commit attempt.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CommitOutcome {
    /// All reads were current; the writes were applied.
    Applied,
    /// At least one read was stale; nothing was written.
    StaleReads(Vec<Key>),
}

impl CommitOutcome {
    /// Whether the transaction's writes were applied.
    #[must_use]
    pub fn is_applied(&self) -> bool {
        matches!(self, CommitOutcome::Applied)
    }
}

/// Routes committed transactions to shards and runs the sharded `ccheck`.
pub struct ShardedCommitter {
    router: ShardRouter,
    shards: Vec<Arc<ShardState>>,
    cross_shard_commits: AtomicU64,
}

impl ShardedCommitter {
    /// Creates a committer over the shared store, with one
    /// [`ShardState`] per configured shard.
    #[must_use]
    pub fn new(store: Arc<VersionedStore>, config: &ShardingConfig) -> Self {
        let router = ShardRouter::new(config.num_shards);
        let shards = (0..router.num_shards() as u32)
            .map(|i| Arc::new(ShardState::new(ShardId(i), Arc::clone(&store), router)))
            .collect();
        ShardedCommitter {
            router,
            shards,
            cross_shard_commits: AtomicU64::new(0),
        }
    }

    /// The router deciding key placement.
    #[must_use]
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The per-shard states (for schedulers, metrics and tests).
    #[must_use]
    pub fn shards(&self) -> &[Arc<ShardState>] {
        &self.shards
    }

    /// Cross-shard transactions committed through the locked path.
    #[must_use]
    pub fn cross_shard_commits(&self) -> u64 {
        self.cross_shard_commits.load(Ordering::Relaxed)
    }

    /// Transactions committed across all shards.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.shards.iter().map(|s| s.committed()).sum()
    }

    /// Transactions aborted across all shards.
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.shards.iter().map(|s| s.aborted()).sum()
    }

    /// Runs the sharded check-then-apply for one transaction.
    ///
    /// When `validate_reads` is false (non-conflicting workloads) the
    /// read-set comparison is skipped, exactly as in the unsharded
    /// [`ConcurrencyChecker::check_and_apply`].
    pub fn commit(&self, rwset: &ReadWriteSet, validate_reads: bool) -> CommitOutcome {
        self.commit_routed(rwset, validate_reads, self.router.shards_of(rwset))
    }

    /// Like [`commit`](Self::commit), but with the routing decision
    /// already made — the verifier routes a batch once, for its
    /// `ShardCcheck` accounting, and that routing reaches this call.
    pub fn commit_routed(
        &self,
        rwset: &ReadWriteSet,
        validate_reads: bool,
        involved: ShardSet,
    ) -> CommitOutcome {
        match (involved.first(), involved.len()) {
            (None, _) => CommitOutcome::Applied, // touches no data; nothing to do
            (Some(home), 1) => {
                let shard = &self.shards[home.0 as usize];
                let _guard = shard.exec_lock();
                Self::commit_single_shard(shard, rwset, validate_reads)
            }
            _ => self.commit_cross_shard(rwset, validate_reads, involved),
        }
    }

    /// The single-shard fast path: every key is owned by `shard`, so the
    /// whole validate-and-apply goes through the shard's store view (whose
    /// debug assertions police exactly that ownership invariant).
    fn commit_single_shard(
        shard: &Arc<ShardState>,
        rwset: &ReadWriteSet,
        validate_reads: bool,
    ) -> CommitOutcome {
        let view = shard.view();
        if validate_reads {
            let stale: Vec<Key> = rwset
                .reads
                .iter()
                .filter(|(key, version)| view.version_of(*key) != *version)
                .map(|(key, _)| *key)
                .collect();
            if !stale.is_empty() {
                view.store().stats().record_stale_read_rejection();
                shard.record_abort();
                return CommitOutcome::StaleReads(stale);
            }
        }
        for (key, value) in &rwset.writes {
            view.put(*key, *value);
        }
        shard.record_commit();
        CommitOutcome::Applied
    }

    /// The two-phase, lock-ordered cross-shard path. Keys span shards, so
    /// the work runs against the shared store through the unsharded
    /// [`ConcurrencyChecker`] — the shard views' per-shard ownership checks
    /// do not apply here; atomicity comes from holding every involved
    /// execution lock instead.
    fn commit_cross_shard(
        &self,
        rwset: &ReadWriteSet,
        validate_reads: bool,
        involved: ShardSet,
    ) -> CommitOutcome {
        let involved_shards = || involved.iter().map(|id| &self.shards[id.0 as usize]);
        let home = involved_shards().next().expect("a cross-shard route");
        involved_shards().for_each(|shard| shard.record_cross_shard());
        // Phase one: acquire every involved execution lock in ascending
        // ShardId order (the route set's iteration order).
        let guards: Vec<_> = involved_shards().map(|s| s.exec_lock()).collect();
        // Phase two: validate and apply while holding all of them, through
        // the same `ccheck` the unsharded verifier ran.
        let store = self.shards[0].view().store();
        let outcome = match ConcurrencyChecker::check_and_apply(store, rwset, validate_reads) {
            OccOutcome::Applied => {
                self.cross_shard_commits.fetch_add(1, Ordering::Relaxed);
                home.record_commit();
                CommitOutcome::Applied
            }
            OccOutcome::StaleReads(stale) => {
                home.record_abort();
                CommitOutcome::StaleReads(stale)
            }
        };
        drop(guards);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Value, Version};

    fn store_with(n: u64) -> Arc<VersionedStore> {
        let store = Arc::new(VersionedStore::new());
        store.load((0..n).map(|i| (Key(i), Value::new(i))));
        store
    }

    fn committer(num_shards: usize, store: &Arc<VersionedStore>) -> ShardedCommitter {
        ShardedCommitter::new(
            Arc::clone(store),
            &ShardingConfig {
                num_shards,
                workers: 1,
                ..ShardingConfig::default()
            },
        )
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
    fn single_shard_commit_applies_and_counts() {
        let store = store_with(100);
        let c = committer(8, &store);
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1));
        rw.record_write(Key(1), Value::new(99));
        assert_eq!(c.commit(&rw, true), CommitOutcome::Applied);
        assert_eq!(store.get(Key(1)).unwrap().value, Value::new(99));
        assert_eq!(c.committed(), 1);
        let home = c.router().shard_of(Key(1));
        assert_eq!(c.shards()[home.0 as usize].committed(), 1);
    }

    #[test]
    fn stale_single_shard_read_aborts_without_writing() {
        let store = store_with(100);
        let c = committer(8, &store);
        store.put(Key(5), Value::new(50)); // bump to version 2
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(5), Version(1));
        rw.record_write(Key(5), Value::new(1000));
        assert_eq!(c.commit(&rw, true), CommitOutcome::StaleReads(vec![Key(5)]));
        assert_eq!(store.get(Key(5)).unwrap().value, Value::new(50));
        assert_eq!(c.aborted(), 1);
    }

    #[test]
    fn cross_shard_commit_goes_through_locked_path() {
        let store = store_with(100);
        let c = committer(8, &store);
        let (a, b) = split_keys(c.router());
        let mut rw = ReadWriteSet::new();
        rw.record_read(a, Version(1));
        rw.record_write(b, Value::new(7));
        assert!(c.commit(&rw, true).is_applied());
        assert_eq!(c.cross_shard_commits(), 1);
        assert_eq!(store.get(b).unwrap().value, Value::new(7));
        // Every involved shard saw the coordination.
        let sa = c.router().shard_of(a);
        let sb = c.router().shard_of(b);
        assert_eq!(c.shards()[sa.0 as usize].cross_shard(), 1);
        assert_eq!(c.shards()[sb.0 as usize].cross_shard(), 1);
    }

    #[test]
    fn cross_shard_occ_conflict_aborts_exactly_one_side() {
        let store = store_with(100);
        let c = committer(8, &store);
        let (a, b) = split_keys(c.router());
        // Two transactions read both keys at version 1 and write both.
        let mut t1 = ReadWriteSet::new();
        t1.record_read(a, Version(1));
        t1.record_read(b, Version(1));
        t1.record_write(a, Value::new(11));
        t1.record_write(b, Value::new(11));
        let t2 = {
            let mut rw = ReadWriteSet::new();
            rw.record_read(a, Version(1));
            rw.record_read(b, Version(1));
            rw.record_write(a, Value::new(22));
            rw.record_write(b, Value::new(22));
            rw
        };
        // Sequential OCC: the first wins, the second sees stale reads.
        assert!(c.commit(&t1, true).is_applied());
        let second = c.commit(&t2, true);
        assert!(matches!(second, CommitOutcome::StaleReads(_)));
        assert_eq!(c.committed(), 1, "exactly one side commits");
        assert_eq!(c.aborted(), 1, "exactly one side aborts");
        assert_eq!(store.get(a).unwrap().value, Value::new(11));
        assert_eq!(store.get(b).unwrap().value, Value::new(11));
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
                        assert!(c.commit(&rw, true).is_applied());
                    }
                });
            }
        });
        assert_eq!(c.committed(), 800);
        assert_eq!(c.aborted(), 0);
    }
}
