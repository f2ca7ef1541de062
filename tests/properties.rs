//! Property-based tests over core invariants, using proptest.

use proptest::prelude::*;
use serverless_bft::consensus::messages::compute_batch_digest;
use serverless_bft::consensus::Batcher;
use serverless_bft::core::planner::{batch_home, home_shard, BatchFootprint, BestEffortPlanner};
use serverless_bft::core::verifier::{Verifier, VerifierConfig};
use serverless_bft::crypto::certificate::commit_digest;
use serverless_bft::crypto::{AggregateSignature, CommitCertificate, CryptoProvider};
use serverless_bft::serverless::{ExecuteRequest, Executor, ExecutorBehavior, Invoker};
use serverless_bft::sharding::{ShardRouter, ShardScheduler, ShardedCommitter};
use serverless_bft::storage::{
    ConcurrencyChecker, OccOutcome, StorageReader, VersionedStore, YcsbTable,
};
use serverless_bft::telemetry::Registry;
use serverless_bft::types::{
    Batch, ClientId, ComponentId, ConflictHandling, Digest, ExecutorId, FaultParams, Key, NodeId,
    Operation, ReadWriteSet, Region, RegionPartition, RegionSet, RwSetKeys, SeqNum, ShardPlan,
    ShardingConfig, Signature, SimDuration, SimTime, Transaction, TxnId, TxnResult, Value, Version,
    ViewNumber,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Builds a verifier over a fresh 256-record store for the placement
/// equivalence suite, its counters registered under `verifier.*`.
fn equivalence_verifier(
    provider: &Arc<CryptoProvider>,
    shards: usize,
) -> (Arc<VersionedStore>, Verifier, Registry) {
    let store = YcsbTable::populate(256).store().clone();
    let mut verifier = Verifier::new(
        provider.handle(ComponentId::Verifier),
        Arc::clone(&store),
        VerifierConfig {
            params: FaultParams::for_shim_size(4),
            conflict_handling: ConflictHandling::KnownRwSets,
            abort_timeout: SimDuration::from_millis(100),
            cert_quorum: 3,
            spawned_per_batch: 3,
            num_shards: shards,
            // Longer than any run of the suite (at most 7 batches), so no
            // retry entry is truncated mid-run.
            checkpoint_interval: 100,
        },
    );
    let registry = Registry::new();
    verifier.register_metrics(&registry);
    (store, verifier, registry)
}

fn arb_ops() -> impl Strategy<Value = Vec<Operation>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..50).prop_map(|k| Operation::Read(Key(k))),
            (0u64..50, any::<u64>()).prop_map(|(k, v)| Operation::Write(Key(k), Value::new(v))),
            (0u64..50, any::<u64>()).prop_map(|(k, s)| Operation::ReadModifyWrite(Key(k), s)),
        ],
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batch digest is deterministic and collision-free for distinct
    /// operation lists (within the sampled space).
    #[test]
    fn batch_digest_deterministic(ops_a in arb_ops(), ops_b in arb_ops()) {
        let batch_a = Batch::single(Transaction::new(TxnId::new(ClientId(0), 0), ops_a.clone()));
        let batch_b = Batch::single(Transaction::new(TxnId::new(ClientId(0), 0), ops_b.clone()));
        prop_assert_eq!(compute_batch_digest(&batch_a), compute_batch_digest(&batch_a));
        if ops_a != ops_b {
            prop_assert_ne!(compute_batch_digest(&batch_a), compute_batch_digest(&batch_b));
        }
    }

    /// The Arc-batch refactor is semantics-preserving: however a batch is
    /// built (fresh vector, shared storage, clone chains), its identifier,
    /// transaction order and digest are identical — and clones are refcount
    /// bumps of the same storage, never transaction copies.
    #[test]
    fn arc_batch_refactor_is_semantics_preserving(
        op_lists in prop::collection::vec(arb_ops(), 1..20),
    ) {
        let txns: Vec<Transaction> = op_lists
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                Transaction::new(TxnId::new(ClientId((i % 5) as u32), i as u64), ops.clone())
            })
            .collect();
        let fresh = Batch::new(txns.clone());
        let shared = Batch::from_shared(txns.clone().into());
        let cloned = fresh.clone().clone();
        // Same contents, ids and digests regardless of construction route.
        prop_assert_eq!(&fresh, &shared);
        prop_assert_eq!(fresh.id(), shared.id());
        prop_assert_eq!(fresh.txn_ids(), shared.txn_ids());
        prop_assert_eq!(compute_batch_digest(&fresh), compute_batch_digest(&shared));
        // Clones share storage.
        prop_assert!(cloned.shares_txns(&fresh));
        prop_assert!(!fresh.shares_txns(&shared));
        // The transactions themselves are byte-for-byte the submitted ones.
        prop_assert_eq!(fresh.txns(), &txns[..]);
    }

    /// Conflict detection between declared read-write sets is symmetric.
    #[test]
    fn conflict_detection_is_symmetric(
        reads_a in prop::collection::btree_set(0u64..30, 0..5),
        writes_a in prop::collection::btree_set(0u64..30, 0..5),
        reads_b in prop::collection::btree_set(0u64..30, 0..5),
        writes_b in prop::collection::btree_set(0u64..30, 0..5),
    ) {
        let a = RwSetKeys::new(reads_a.into_iter().map(Key), writes_a.into_iter().map(Key));
        let b = RwSetKeys::new(reads_b.into_iter().map(Key), writes_b.into_iter().map(Key));
        prop_assert_eq!(a.conflicts_with(&b), b.conflicts_with(&a));
    }

    /// Certificates signed by a quorum of honest nodes always verify, and
    /// verification is bound to (view, seq, digest).
    #[test]
    fn certificates_verify_iff_untampered(view in 0u64..5, seq in 1u64..100, flip in any::<bool>()) {
        let provider = CryptoProvider::new(7);
        let store = provider.key_store();
        let digest = serverless_bft::crypto::digest_u64s("prop", &[seq]);
        let cd = commit_digest(ViewNumber(view), SeqNum(seq), &digest);
        let entries: Vec<_> = (0..3u32)
            .map(|n| (NodeId(n), provider.handle(ComponentId::Node(NodeId(n))).sign(&cd)))
            .collect();
        let mut cert = CommitCertificate::new(ViewNumber(view), SeqNum(seq), digest, entries);
        prop_assert!(cert.verify(store, 3, 4).is_ok());
        if flip {
            cert.seq = SeqNum(seq + 1);
            prop_assert!(cert.verify(store, 3, 4).is_err());
        }
    }

    /// The verifier's concurrency check never applies writes over stale
    /// reads, and always applies them when the reads are current.
    #[test]
    fn occ_applies_iff_reads_current(bump in any::<bool>(), value in any::<u64>()) {
        let store = VersionedStore::new();
        store.load([(Key(1), Value::new(0)), (Key(2), Value::new(0))]);
        if bump {
            store.put(Key(1), Value::new(99));
        }
        let mut rw = ReadWriteSet::new();
        rw.record_read(Key(1), Version(1));
        rw.record_write(Key(2), Value::new(value));
        let outcome = ConcurrencyChecker::check_and_apply(&store, &rw, true);
        prop_assert_eq!(outcome.is_applied(), !bump);
        let stored = store.get(Key(2)).unwrap().value;
        if bump {
            prop_assert_eq!(stored, Value::new(0));
        } else {
            prop_assert_eq!(stored, Value::new(value));
        }
    }

    /// The conflict-avoidance planner never has two conflicting batches in
    /// flight at the same time, regardless of the enqueue/complete order.
    #[test]
    fn planner_never_runs_conflicting_batches_concurrently(
        footprints in prop::collection::vec(
            (prop::collection::btree_set(0u64..10, 0..3), prop::collection::btree_set(0u64..10, 0..3)),
            1..8,
        )
    ) {
        let mut planner = BestEffortPlanner::new();
        let mut in_flight: Vec<(SeqNum, BatchFootprint)> = Vec::new();
        let fps: Vec<BatchFootprint> = footprints
            .iter()
            .map(|(r, w)| BatchFootprint {
                reads: r.iter().copied().map(Key).collect(),
                writes: w.iter().copied().map(Key).collect(),
            })
            .collect();
        let mut dispatched = BTreeSet::new();
        for (i, fp) in fps.iter().enumerate() {
            let seq = SeqNum(i as u64 + 1);
            let released = planner.enqueue(seq, fp.clone());
            for r in released {
                let rfp = fps[(r.0 - 1) as usize].clone();
                for (_, existing) in &in_flight {
                    prop_assert!(!existing.conflicts_with(&rfp), "conflicting batches in flight");
                }
                in_flight.push((r, rfp));
                dispatched.insert(r);
            }
            // Complete the oldest in-flight batch every other step.
            if i % 2 == 1 && !in_flight.is_empty() {
                let (done, _) = in_flight.remove(0);
                let released = planner.complete(done);
                for r in released {
                    let rfp = fps[(r.0 - 1) as usize].clone();
                    for (_, existing) in &in_flight {
                        prop_assert!(!existing.conflicts_with(&rfp));
                    }
                    in_flight.push((r, rfp));
                    dispatched.insert(r);
                }
            }
        }
        // Draining completions must eventually dispatch every batch.
        let mut guard = 0;
        while !in_flight.is_empty() && guard < 100 {
            guard += 1;
            let (done, _) = in_flight.remove(0);
            for r in planner.complete(done) {
                let rfp = fps[(r.0 - 1) as usize].clone();
                in_flight.push((r, rfp));
                dispatched.insert(r);
            }
        }
        prop_assert_eq!(dispatched.len(), fps.len());
    }

    /// Sharded execution of a conflict-free batch set is equivalent to
    /// single-shard execution: same per-transaction outcomes, same final
    /// store contents, regardless of shard count — through the pool's
    /// lock-ordered committer. On conflicting input the committer at every
    /// shard count equals serial `ccheck` on a fresh store, the path the
    /// verifier runs: same outcomes, stale-key lists included, and the
    /// same final store.
    #[test]
    fn sharded_commit_equivalent_to_single_shard_for_conflict_free_batches(
        txns in prop::collection::vec((1usize..4, any::<u64>()), 1..40),
        shards in 2usize..16,
        conflicting in prop::collection::vec(
            (prop::collection::vec((0u64..12, 0u64..3, any::<bool>()), 1..4), any::<u64>()),
            1..40,
        ),
    ) {
        // Transaction i owns the disjoint key range [4i, 4i + ops): no
        // two transactions conflict, so execution order cannot matter.
        let stride = 4u64;
        let run = |num_shards: usize| {
            let store = Arc::new(VersionedStore::new());
            store.load((0..txns.len() as u64 * stride).map(|k| (Key(k), Value::new(0))));
            let committer =
                ShardedCommitter::new(Arc::clone(&store), &ShardingConfig::with_shards(num_shards));
            let outcomes: Vec<bool> = txns
                .iter()
                .enumerate()
                .map(|(i, (ops, value))| {
                    let mut rw = ReadWriteSet::new();
                    for j in 0..*ops as u64 {
                        let key = Key(i as u64 * stride + j);
                        rw.record_read(key, store.version_of(key));
                        rw.record_write(key, Value::new(value.wrapping_add(j)));
                    }
                    committer.commit(&rw, true).is_applied()
                })
                .collect();
            let state: Vec<(u64, u64)> = (0..txns.len() as u64 * stride)
                .map(|k| {
                    let e = store.get(Key(k)).unwrap();
                    (e.value.data, e.version.0)
                })
                .collect();
            (outcomes, state)
        };
        prop_assert_eq!(run(1), run(shards));

        // Conflicting input: multi-key transactions over 12 keys, each key
        // read at its current version or one or two behind (stale), and
        // written when its flag is set. Several keys per transaction make
        // cross-shard routes; stale reads make aborts.
        const KEYS: u64 = 12;
        let run_conflicting = |committer_shards: Option<usize>| {
            let store = Arc::new(VersionedStore::new());
            store.load((0..KEYS).map(|k| (Key(k), Value::new(0))));
            let committer = committer_shards.map(|n| {
                ShardedCommitter::new(Arc::clone(&store), &ShardingConfig::with_shards(n))
            });
            let outcomes: Vec<OccOutcome> = conflicting
                .iter()
                .map(|(ops, value)| {
                    let mut rw = ReadWriteSet::new();
                    for &(key, lag, write) in ops {
                        let key = Key(key);
                        rw.record_read(key, Version(store.version_of(key).0.saturating_sub(lag)));
                        if write {
                            rw.record_write(key, Value::new(*value));
                        }
                    }
                    match &committer {
                        Some(committer) => committer.commit(&rw, true),
                        None => ConcurrencyChecker::check_and_apply(&store, &rw, true),
                    }
                })
                .collect();
            let state: Vec<(u64, u64)> = (0..KEYS)
                .map(|k| {
                    let e = store.get(Key(k)).unwrap();
                    (e.value.data, e.version.0)
                })
                .collect();
            (outcomes, state)
        };
        let serial = run_conflicting(None);
        for num_shards in 1..=16 {
            prop_assert_eq!(&run_conflicting(Some(num_shards)), &serial, "{} shards", num_shards);
        }
    }

    /// The same equivalence holds when the sharded side runs on the
    /// multi-threaded `ShardScheduler` worker pool.
    #[test]
    fn sharded_pool_equivalent_to_single_shard_for_conflict_free_batches(
        values in prop::collection::vec(any::<u64>(), 1..60),
        shards in 2usize..12,
    ) {
        let sequential = {
            let store = Arc::new(VersionedStore::new());
            store.load((0..values.len() as u64).map(|k| (Key(k), Value::new(0))));
            for (i, v) in values.iter().enumerate() {
                let mut rw = ReadWriteSet::new();
                rw.record_read(Key(i as u64), Version(1));
                rw.record_write(Key(i as u64), Value::new(*v));
                let c = ShardedCommitter::new(Arc::clone(&store), &ShardingConfig::default());
                prop_assert!(c.commit(&rw, true).is_applied());
            }
            (0..values.len() as u64)
                .map(|k| store.get(Key(k)).unwrap().value.data)
                .collect::<Vec<u64>>()
        };
        let pooled = {
            let store = Arc::new(VersionedStore::new());
            store.load((0..values.len() as u64).map(|k| (Key(k), Value::new(0))));
            let committer = Arc::new(ShardedCommitter::new(
                Arc::clone(&store),
                &ShardingConfig::with_shards(shards),
            ));
            let pool = ShardScheduler::new(Arc::clone(&committer), 4, true);
            let batch: Arc<[TxnResult]> = values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let mut rwset = ReadWriteSet::new();
                    rwset.record_read(Key(i as u64), Version(1));
                    rwset.record_write(Key(i as u64), Value::new(*v));
                    TxnResult {
                        txn: TxnId::new(ClientId(i as u32), 1),
                        output: *v,
                        rwset,
                    }
                })
                .collect();
            let outcomes = pool.submit_tracked(1, batch).wait();
            prop_assert!(outcomes.iter().all(|o| o.is_applied()));
            prop_assert_eq!(outcomes.len(), values.len());
            pool.shutdown();
            (0..values.len() as u64)
                .map(|k| store.get(Key(k)).unwrap().value.data)
                .collect::<Vec<u64>>()
        };
        prop_assert_eq!(sequential, pooled);
    }

    /// Storage versions increase monotonically under arbitrary writes.
    #[test]
    fn storage_versions_monotonic(writes in prop::collection::vec((0u64..20, any::<u64>()), 1..50)) {
        let store = VersionedStore::new();
        let mut last: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (k, v) in writes {
            let version = store.put(Key(k), Value::new(v));
            let prev = last.insert(k, version.0);
            prop_assert!(prev.is_none() || prev.unwrap() < version.0);
        }
    }

    /// The store agrees with a plain ordered map after every step, built
    /// two ways: by a load in shuffled order with holes, duplicates and a
    /// few keys past its size bound `n`, and by the dense constructor over
    /// `0..n`. Then reads and writes over `0..3n` and two keys far past
    /// every slot array.
    #[test]
    fn store_matches_a_btree_map_model(
        loaded in prop::collection::vec((any::<u64>(), any::<u64>()), 0..400),
        ops in prop::collection::vec((any::<bool>(), any::<u64>(), any::<u64>()), 0..200),
    ) {
        let n = loaded.len() as u64;
        let agree = |store: &VersionedStore, model: &BTreeMap<Key, (Value, Version)>, key: Key| {
            let expected = model.get(&key).copied();
            assert_eq!(store.get(key).map(|e| (e.value, e.version)), expected, "{key:?}");
            assert_eq!(store.version_of(key), expected.map_or(Version(0), |(_, v)| v));
        };
        for dense in [false, true] {
            let mut model: BTreeMap<Key, (Value, Version)> = BTreeMap::new();
            let store = if dense {
                for (k, &(_, v)) in (0..).zip(&loaded) {
                    model.insert(Key(k), (Value::new(v), Version(1)));
                }
                VersionedStore::dense(n, |k| Value::new(loaded[k as usize].1))
            } else {
                // One key in eight lands in `n..2n`, past the bound; the
                // rest below it, drawn with repeats, so some slots stay
                // holes.
                let records: Vec<(Key, Value)> = loaded
                    .iter()
                    .map(|&(r, v)| {
                        let key = if r % 8 == 0 { n + r / 8 % n } else { r % n };
                        (Key(key), Value::new(v))
                    })
                    .collect();
                for &(key, value) in &records {
                    model.insert(key, (value, Version(1)));
                }
                let store = VersionedStore::new();
                store.load(records);
                store
            };
            prop_assert_eq!(store.len(), model.len());
            for k in 0..2 * n {
                agree(&store, &model, Key(k));
            }
            // A write, or a read of `get` and `version_of`; either is checked.
            for &(write, pick, v) in &ops {
                let key = match pick % 16 {
                    0 => Key(u64::MAX),
                    1 => Key(1 << 40),
                    _ => Key(pick % (3 * n).max(1)),
                };
                if write {
                    let next = Version(model.get(&key).map_or(0, |&(_, v)| v.0) + 1);
                    prop_assert_eq!(store.put(key, Value::new(v)), next);
                    model.insert(key, (Value::new(v), next));
                }
                agree(&store, &model, key);
                prop_assert_eq!(store.len(), model.len());
            }
            for &key in model.keys() {
                agree(&store, &model, key);
            }
        }
    }

    /// Aggregate batch verification accepts exactly the batches whose
    /// every per-transaction signature check passes: any subset of
    /// corrupted signatures flips the aggregate check, and the bisecting
    /// fallback locates precisely the corrupted indices.
    #[test]
    fn aggregate_accepts_iff_every_signature_valid(
        clients in prop::collection::vec(0u32..16, 1..24),
        corrupt_mask in prop::collection::vec(any::<bool>(), 24..25),
    ) {
        let provider = CryptoProvider::new(33);
        let mut claims: Vec<(ComponentId, Digest, Signature)> = clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let id = ComponentId::Client(ClientId(*c));
                let digest =
                    serverless_bft::crypto::digest_u64s("agg-prop", &[i as u64, u64::from(*c)]);
                let sig = provider.handle(id).sign(&digest);
                (id, digest, sig)
            })
            .collect();
        // Corrupt a subset with index-distinct deltas (flip one bit of
        // byte i), so no two corruptions can cancel in the XOR fold.
        let mut corrupted: Vec<usize> = Vec::new();
        for (i, claim) in claims.iter_mut().enumerate() {
            if corrupt_mask[i] {
                claim.2 .0[i % 64] ^= 0x10;
                corrupted.push(i);
            }
        }
        let pairs: Vec<(ComponentId, Digest)> =
            claims.iter().map(|(id, d, _)| (*id, *d)).collect();
        let aggregate = AggregateSignature::from_signatures(claims.iter().map(|(_, _, s)| s));
        let every_valid = claims
            .iter()
            .all(|(id, d, s)| provider.verify(*id, d, s));
        prop_assert_eq!(corrupted.is_empty(), every_valid);
        prop_assert_eq!(
            provider.verify_aggregate(&pairs, &aggregate),
            every_valid,
            "aggregate must accept exactly when every per-txn check passes"
        );
        prop_assert_eq!(provider.locate_invalid_signatures(&claims), corrupted);
    }

    /// The bisecting fallback pinpoints a single corrupted signature at
    /// any position, under any corruption of the signature bytes.
    #[test]
    fn bisect_pinpoints_single_corruption(
        n in 1usize..32,
        position_seed in any::<u64>(),
        byte in 0usize..64,
        flip in 1u64..256,
    ) {
        let provider = CryptoProvider::new(12);
        let mut claims: Vec<(ComponentId, Digest, Signature)> = (0..n)
            .map(|i| {
                let id = ComponentId::Client(ClientId((i % 7) as u32));
                let digest = serverless_bft::crypto::digest_u64s("bisect-prop", &[i as u64]);
                let sig = provider.handle(id).sign(&digest);
                (id, digest, sig)
            })
            .collect();
        let position = (position_seed as usize) % n;
        claims[position].2 .0[byte] ^= flip as u8;
        let pairs: Vec<(ComponentId, Digest)> =
            claims.iter().map(|(id, d, _)| (*id, *d)).collect();
        let aggregate = AggregateSignature::from_signatures(claims.iter().map(|(_, _, s)| s));
        prop_assert!(!provider.verify_aggregate(&pairs, &aggregate));
        prop_assert_eq!(
            provider.locate_invalid_signatures(&claims),
            vec![position],
            "bisection must name exactly the corrupted transaction"
        );
    }

    /// The batcher releases exactly the transactions pushed, in push
    /// order, so the `Δ` the primary computes over a released batch at
    /// submit is the digest of the stream its clients submitted.
    #[test]
    fn batcher_releases_the_pushed_stream_in_order(
        op_lists in prop::collection::vec(arb_ops(), 1..30),
    ) {
        let mut batcher = Batcher::new(op_lists.len(), SimDuration::from_millis(5));
        let txns: Vec<Transaction> = op_lists
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                Transaction::new(TxnId::new(ClientId((i % 5) as u32), i as u64), ops.clone())
            })
            .collect();
        let mut released = None;
        for txn in &txns {
            released = batcher.push(txn.clone(), Digest::ZERO, Signature::ZERO, SimTime::ZERO);
        }
        let released = released.expect("batch released at the configured size");
        prop_assert_eq!(released.batch().txns(), &txns[..]);
        prop_assert_eq!(
            compute_batch_digest(released.batch()),
            compute_batch_digest(&Batch::new(txns))
        );
    }

    /// The ordering-time classification agrees with the apply-time
    /// single-home check for arbitrary key sets and shard counts: the
    /// lanes and the verifier's count can never disagree about one key
    /// set.
    #[test]
    fn ordering_plan_matches_apply_time_rederivation(
        keys in prop::collection::vec(0u64..1_000, 0..12),
        shards in 1usize..16,
    ) {
        let router = ShardRouter::new(shards);
        let plan = router.plan_keys(keys.iter().copied().map(Key));
        match plan {
            ShardPlan::Unplanned => prop_assert!(keys.is_empty()),
            ShardPlan::SingleHome(home) => {
                prop_assert!(router.all_on(home, keys.iter().copied().map(Key)));
            }
            ShardPlan::CrossHome => {
                let distinct: BTreeSet<_> =
                    keys.iter().map(|k| router.shard_of(Key(*k))).collect();
                prop_assert!(distinct.len() >= 2);
            }
        }
    }

    /// **A derived home is the lane's tag.** Over random transactions
    /// (literal or declared keys), shard counts and batch sizes, every
    /// batch a laned batcher releases holds one lane's transactions, and
    /// `batch_home` derives it to `SingleHome(s)` from home lane `s`, and
    /// to `CrossHome` or `Unplanned` from the cross lane: the plan a
    /// consumer derives where it is used is the tag the lane would have
    /// stamped on the batch.
    #[test]
    fn a_laned_batch_derives_the_home_of_its_lane(
        txns in prop::collection::vec(
            (arb_ops(), any::<bool>(), prop::collection::vec(0u64..50, 0..4)),
            1..60,
        ),
        shards in 1usize..9,
        batch_size in 1usize..8,
    ) {
        let router = ShardRouter::new(shards);
        let mut batcher =
            Batcher::with_shard_lanes(batch_size, SimDuration::from_millis(5), shards);
        let mut lane_of = BTreeMap::new();
        let mut released = Vec::new();
        for (i, (ops, declares, keys)) in txns.into_iter().enumerate() {
            let mut txn = Transaction::new(TxnId::new(ClientId(0), i as u64), ops);
            if declares {
                let keys: Vec<Key> = keys.into_iter().map(Key).collect();
                txn = txn.with_declared_rwset(RwSetKeys::new(keys.clone(), keys));
            }
            let plan = home_shard(&txn, &router);
            lane_of.insert(txn.id, plan.home());
            released.extend(batcher.push_planned(
                txn,
                Digest::ZERO,
                Signature::ZERO,
                SimTime::ZERO,
                plan,
            ));
        }
        while let Some(rest) = batcher.flush() {
            released.push(rest);
        }
        for signed in &released {
            let batch = signed.batch();
            let lane = lane_of[&batch.txns()[0].id];
            prop_assert!(batch.iter().all(|t| lane_of[&t.id] == lane), "one lane per batch");
            let derived = batch_home(batch, &router);
            match lane {
                Some(home) => prop_assert_eq!(derived, ShardPlan::SingleHome(home)),
                None => prop_assert!(
                    matches!(derived, ShardPlan::CrossHome | ShardPlan::Unplanned),
                    "a cross-lane batch derived {:?}",
                    derived
                ),
            }
        }
    }

    /// **Placement equivalence**: pinned placement ≡ surplus-nearest
    /// placement ≡ round-robin placement.
    ///
    /// The same committed stream — random Zipf-skewed keys, random shard
    /// and region counts, forced cross-home batches — is executed four
    /// times end to end through real invokers and executors: with the
    /// paper's round-robin placement, with the surplus executors in the
    /// nearest regions (storage at the verifier's site), with plan-aware
    /// pinning against the geo partition, and with pinning under a
    /// [`RegionOutage`] of one region (exercising the deterministic
    /// fallback). Each batch spawns 2f_E + 1 = 3 or 3f_E + 1 = 4
    /// executors. Per-transaction outcomes, client responses and the final
    /// KV state must be byte-identical in all four; only the spawn regions
    /// may differ. This is what licenses the invoker to treat placement as
    /// a pure performance hint.
    #[test]
    fn placement_equals_round_robin(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..255, any::<u64>(), any::<bool>()), 1..5),
            1..6,
        ),
        shards in 1usize..10,
        region_count in 1usize..6,
        skew in 0u32..3,
        executors in 3usize..5,
    ) {
        let provider = CryptoProvider::new(23);
        let router = ShardRouter::new(shards);
        let regions = RegionSet::first_n(region_count);
        // One region the outage run takes down (the second of the set,
        // so multi-region runs genuinely lose pin targets).
        let downed = regions.round_robin(1);
        // Materialise the committed stream once: read-modify-writes over
        // a skew-compressed key space, with an occasional forced second
        // key on another shard (a cross-home batch).
        let all_txns: Vec<Vec<Transaction>> = batches
            .iter()
            .enumerate()
            .map(|(b, txns)| {
                txns.iter()
                    .enumerate()
                    .map(|(i, (key, salt, cross))| {
                        let key = Key(key >> (skew * 3));
                        let mut ops = vec![Operation::ReadModifyWrite(key, *salt)];
                        if *cross {
                            if let Some(far) = (0..255u64)
                                .map(Key)
                                .find(|k| router.shard_of(*k) != router.shard_of(key))
                            {
                                ops.push(Operation::ReadModifyWrite(far, salt.wrapping_add(1)));
                            }
                        }
                        Transaction::new(TxnId::new(ClientId(i as u32), b as u64), ops)
                            .with_inferred_rwset()
                    })
                    .collect()
            })
            .collect();
        #[derive(Clone, Copy)]
        enum Placement {
            RoundRobin,
            SurplusNearest,
            Pinned,
            PinnedUnderOutage,
        }
        let run = |placement: Placement| {
            let (store, mut verifier, registry) = equivalence_verifier(&provider, shards);
            let mut invoker = match placement {
                Placement::RoundRobin => Invoker::geo(NodeId(0), regions.clone(), None),
                Placement::SurplusNearest => Invoker::new(NodeId(0), regions.clone()),
                _ => Invoker::geo(
                    NodeId(0),
                    regions.clone(),
                    Some(RegionPartition::new(regions.clone(), shards)),
                ),
            };
            if matches!(placement, Placement::PinnedUnderOutage) {
                invoker.mark_region_down(downed);
            }
            let mut next_executor = 0u64;
            let mut responses = Vec::new();
            let mut spawn_regions: Vec<Region> = Vec::new();
            for (b, txns) in all_txns.iter().enumerate() {
                let seq = b as u64 + 1;
                let batch = Batch::new(txns.clone());
                let digest = compute_batch_digest(&batch);
                let plan = batch_home(&batch, &router);
                let cd = commit_digest(ViewNumber(0), SeqNum(seq), &digest);
                let entries = (0..3u32)
                    .map(|n| (NodeId(n), provider.handle(ComponentId::Node(NodeId(n))).sign(&cd)))
                    .collect();
                let certificate =
                    Arc::new(CommitCertificate::new(ViewNumber(0), SeqNum(seq), digest, entries));
                let signing =
                    ExecuteRequest::signing_digest(ViewNumber(0), SeqNum(seq), &digest, NodeId(0));
                let execute = ExecuteRequest {
                    view: ViewNumber(0),
                    seq: SeqNum(seq),
                    digest,
                    batch,
                    certificate,
                    spawner: NodeId(0),
                    signature: provider.handle(ComponentId::Node(NodeId(0))).sign(&signing),
                };
                let spawn_plan = invoker.plan_placed(SeqNum(seq), executors, plan);
                prop_assert_eq!(spawn_plan.requests.len(), executors, "full spawn complement");
                // f_E + 1 = 2 matching VERIFYs validate the batch; run the
                // first and the last spawned executor (a surplus one, when
                // there is one) wherever they were placed.
                let quorum = [spawn_plan.requests[0], spawn_plan.requests[executors - 1]];
                for request in &quorum {
                    spawn_regions.push(request.region);
                    let id = ExecutorId(next_executor);
                    next_executor += 1;
                    let executor = Executor::new(
                        id,
                        request.region,
                        ExecutorBehavior::Honest,
                        provider.handle(ComponentId::Executor(id)),
                        StorageReader::new(Arc::clone(&store)),
                        4,
                        3,
                    );
                    let output = executor.handle_execute(&execute).expect("honest EXECUTE");
                    for verify in output.verify_messages {
                        for action in verifier.on_verify(&verify) {
                            if let Some(env) = action.as_send() {
                                responses.push(format!("{:?}", env.msg));
                            }
                        }
                    }
                }
            }
            let state: Vec<(u64, u64)> = (0..256u64)
                .map(|k| {
                    let e = store.get(Key(k)).expect("populated key");
                    (e.value.data, e.version.0)
                })
                .collect();
            (
                registry.counter_value("verifier.committed_txns"),
                registry.counter_value("verifier.aborted_txns"),
                responses,
                state,
                spawn_regions,
            )
        };
        let rr = run(Placement::RoundRobin);
        let nearest = run(Placement::SurplusNearest);
        let pinned = run(Placement::Pinned);
        let outage = run(Placement::PinnedUnderOutage);
        for (label, side) in [
            ("surplus-nearest", &nearest),
            ("pinned", &pinned),
            ("pinned-under-outage", &outage),
        ] {
            prop_assert_eq!(&rr.0, &side.0, "{}: committed counts diverge", label);
            prop_assert_eq!(&rr.1, &side.1, "{}: aborted counts diverge", label);
            prop_assert_eq!(&rr.2, &side.2, "{}: client responses diverge", label);
            prop_assert_eq!(&rr.3, &side.3, "{}: final KV state diverges", label);
        }
        // The equivalence is not vacuous: the fallback really avoids the
        // downed region whenever an alternative exists.
        if region_count > 1 {
            prop_assert!(outage.4.iter().all(|r| *r != downed));
        }
    }
}
