//! Property-based tests over core invariants, using proptest.

use proptest::prelude::*;
use serverless_bft::consensus::messages::{batch_digest, compute_batch_digest};
use serverless_bft::consensus::Batcher;
use serverless_bft::core::planner::{BatchFootprint, BestEffortPlanner};
use serverless_bft::core::verifier::{Verifier, VerifierConfig};
use serverless_bft::core::ClientRequest;
use serverless_bft::crypto::certificate::commit_digest;
use serverless_bft::crypto::{
    AggregateSignature, CommitCertificate, CryptoProvider, KeyStore, SimSigner,
};
use serverless_bft::serverless::{
    ExecuteRequest, Executor, ExecutorBehavior, Invoker, VerifyMessage,
};
use serverless_bft::sharding::{ShardRouter, ShardScheduler, ShardedCommitter};
use serverless_bft::storage::{ConcurrencyChecker, StorageReader, VersionedStore, YcsbTable};
use serverless_bft::telemetry::Registry;
use serverless_bft::types::{
    Batch, ClientId, ComponentId, ConflictHandling, Digest, ExecutorId, FaultParams, Key, NodeId,
    Operation, ReadWriteSet, Region, RegionPartition, RegionSet, RwSetKeys, SeqNum, ShardPlan,
    ShardingConfig, Signature, SimDuration, SimTime, Transaction, TxnId, TxnResult, Value, Version,
    ViewNumber,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Builds a verifier over a fresh 256-record store for the planner
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
            sharding: ShardingConfig::with_shards(shards),
            checkpoint_interval: 0,
        },
    );
    let registry = Registry::new();
    verifier.register_metrics(&registry);
    (store, verifier, registry)
}

/// A well-formed VERIFY message from `executor` carrying `results` and a
/// (possibly lying) ordering-time plan tag.
fn equivalence_verify(
    provider: &Arc<CryptoProvider>,
    executor: u64,
    seq: u64,
    results: Vec<TxnResult>,
    plan: ShardPlan,
) -> VerifyMessage {
    let batch_digest = Digest::from_bytes([seq as u8; 32]);
    let cd = commit_digest(ViewNumber(0), SeqNum(seq), &batch_digest);
    let entries = (0..3u32)
        .map(|n| {
            let kp = provider
                .key_store()
                .keypair_for(ComponentId::Node(NodeId(n)));
            (NodeId(n), SimSigner::sign(&kp, &cd))
        })
        .collect();
    let certificate = Arc::new(CommitCertificate::new(
        ViewNumber(0),
        SeqNum(seq),
        batch_digest,
        entries,
    ));
    let result_digest = VerifyMessage::digest_of_results(SeqNum(seq), &results);
    let handle = provider.handle(ComponentId::Executor(ExecutorId(executor)));
    let batch = Batch::single(Transaction::new(
        results[0].txn,
        vec![Operation::Read(Key(0))],
    ));
    VerifyMessage {
        executor: ExecutorId(executor),
        view: ViewNumber(0),
        seq: SeqNum(seq),
        batch_id: batch.id(),
        batch_digest,
        results: results.into(),
        result_digest,
        certificate,
        plan,
        signature: handle.sign(&result_digest),
    }
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
        prop_assert_eq!(batch_digest(&batch_a), batch_digest(&batch_a));
        if ops_a != ops_b {
            prop_assert_ne!(batch_digest(&batch_a), batch_digest(&batch_b));
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
        prop_assert_eq!(batch_digest(&fresh), batch_digest(&shared));
        prop_assert_eq!(batch_digest(&fresh), compute_batch_digest(&fresh));
        // Clones share storage and carry the memoized digest.
        prop_assert!(cloned.shares_txns(&fresh));
        prop_assert!(!fresh.shares_txns(&shared));
        let after = fresh.clone();
        prop_assert_eq!(after.cached_digest(), Some(batch_digest(&fresh)));
        // The transactions themselves are byte-for-byte the submitted ones.
        prop_assert_eq!(fresh.txns(), &txns[..]);
    }

    /// Cached signing digests equal freshly computed ones for arbitrary
    /// transactions, and survive cloning (the memoization regression test).
    #[test]
    fn cached_signing_digest_equals_fresh(ops in arb_ops(), client in 0u32..8, counter in 0u64..1000) {
        let txn = Transaction::new(TxnId::new(ClientId(client), counter), ops);
        prop_assert_eq!(txn.cached_signing_digest(), None);
        let memoized = ClientRequest::signing_digest(&txn);
        prop_assert_eq!(memoized, ClientRequest::compute_signing_digest(&txn));
        prop_assert_eq!(txn.cached_signing_digest(), Some(memoized));
        let clone = txn.clone();
        prop_assert_eq!(clone.cached_signing_digest(), Some(memoized));
        prop_assert_eq!(ClientRequest::signing_digest(&clone), memoized);
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
        let store = KeyStore::new(7);
        let digest = serverless_bft::crypto::digest_u64s("prop", &[seq]);
        let cd = commit_digest(ViewNumber(view), SeqNum(seq), &digest);
        let entries: Vec<_> = (0..3u32)
            .map(|n| {
                let kp = store.keypair_for(ComponentId::Node(NodeId(n)));
                (NodeId(n), SimSigner::sign(&kp, &cd))
            })
            .collect();
        let mut cert = CommitCertificate::new(ViewNumber(view), SeqNum(seq), digest, entries);
        prop_assert!(cert.verify(&store, 3, 4).is_ok());
        if flip {
            cert.seq = SeqNum(seq + 1);
            prop_assert!(cert.verify(&store, 3, 4).is_err());
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
    /// store contents, regardless of shard count — through the verifier's
    /// synchronous committer path.
    #[test]
    fn sharded_commit_equivalent_to_single_shard_for_conflict_free_batches(
        txns in prop::collection::vec((1usize..4, any::<u64>()), 1..40),
        shards in 2usize..16,
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
            prop_assert_eq!(committer.committed(), values.len() as u64);
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

    /// The batcher's incrementally accumulated wire digest is identical
    /// to the one-shot batch digest for arbitrary batches, so the
    /// pre-memoized digest a released batch carries is always the digest
    /// the replicas recompute and check.
    #[test]
    fn batcher_incremental_digest_matches_one_shot(
        op_lists in prop::collection::vec(arb_ops(), 1..30),
    ) {
        let mut batcher = Batcher::new(op_lists.len(), SimDuration::from_millis(5));
        let mut released = None;
        for (i, ops) in op_lists.iter().enumerate() {
            let txn = Transaction::new(
                TxnId::new(ClientId((i % 5) as u32), i as u64),
                ops.clone(),
            );
            released = batcher.push(txn, Digest::ZERO, Signature::ZERO, SimTime::ZERO);
        }
        let released = released.expect("batch released at the configured size");
        let cached = released.batch().cached_digest().expect("memo prefilled");
        prop_assert_eq!(cached, compute_batch_digest(released.batch()));
        prop_assert_eq!(cached, batch_digest(released.batch()));
    }

    /// The ordering-time classification agrees with the apply-time
    /// re-derivation for arbitrary key sets and shard counts: the two
    /// sides of the trust-but-verify protocol can never disagree for an
    /// honest primary.
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

    /// **Planner equivalence**: routed execution ≡ unrouted execution.
    ///
    /// The same ordered VERIFY stream — random Zipf-skewed keys, random
    /// shard counts, forced cross-home batches, and arbitrary (honest
    /// *or lying*) plan tags — through a plan-honouring verifier and
    /// through an untagged verifier must produce byte-identical results: the same
    /// per-transaction commit/abort outcomes (= the same per-client
    /// responses) and the same final KV state.
    #[test]
    fn planner_routed_execution_equals_unrouted(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..255, any::<u64>(), any::<bool>()), 1..6),
            1..8,
        ),
        shards in 1usize..12,
        skew in 0u32..3,
        lie_mask in any::<u64>(),
    ) {
        let provider = CryptoProvider::new(17);
        let router = ShardRouter::new(shards);
        // Materialise the batches once: read-write sets with version-1
        // reads (some go stale as earlier batches write — exercising
        // aborts) and an occasional forced cross-home second key.
        let all_results: Vec<Vec<TxnResult>> = batches
            .iter()
            .enumerate()
            .map(|(b, txns)| {
                txns.iter()
                    .enumerate()
                    .map(|(i, (key, value, cross))| {
                        // Zipf-style skew: shifting compresses the key
                        // space towards the head.
                        let key = Key(key >> (skew * 3));
                        let mut rwset = ReadWriteSet::new();
                        rwset.record_read(key, Version(1));
                        rwset.record_write(key, Value::new(*value));
                        if *cross {
                            // Force a second key on another shard when
                            // one exists.
                            if let Some(far) = (0..255u64)
                                .map(Key)
                                .find(|k| router.shard_of(*k) != router.shard_of(key))
                            {
                                rwset.record_write(far, Value::new(value.wrapping_add(1)));
                            }
                        }
                        TxnResult {
                            txn: TxnId::new(ClientId(i as u32), b as u64),
                            output: *value,
                            rwset,
                        }
                    })
                    .collect()
            })
            .collect();
        // Tags for the routed run: the honest classification, or — when
        // the lie bit fires — a byzantine SingleHome(0) claim.
        let plans: Vec<ShardPlan> = all_results
            .iter()
            .enumerate()
            .map(|(b, results)| {
                if lie_mask & (1 << (b % 64)) != 0 {
                    ShardPlan::SingleHome(serverless_bft::types::ShardId(0))
                } else {
                    router.plan_keys(results.iter().flat_map(|r| {
                        r.rwset
                            .reads
                            .iter()
                            .map(|(k, _)| *k)
                            .chain(r.rwset.writes.iter().map(|(k, _)| *k))
                    }))
                }
            })
            .collect();
        let run = |tagged: bool| {
            let (store, mut verifier, registry) = equivalence_verifier(&provider, shards);
            let mut outcomes = Vec::new();
            for (b, results) in all_results.iter().enumerate() {
                let seq = b as u64 + 1;
                let plan = if tagged { plans[b] } else { ShardPlan::Unplanned };
                let m1 = equivalence_verify(&provider, 1, seq, results.clone(), plan);
                let m2 = equivalence_verify(&provider, 2, seq, results.clone(), plan);
                let _ = verifier.on_verify(&m1);
                let actions = verifier.on_verify(&m2);
                for action in &actions {
                    if let Some(env) = action.as_send() {
                        outcomes.push(env.msg.kind().to_string());
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
                outcomes,
                state,
            )
        };
        let routed = run(true);
        let unrouted = run(false);
        prop_assert_eq!(&routed.0, &unrouted.0, "committed counts diverge");
        prop_assert_eq!(&routed.1, &unrouted.1, "aborted counts diverge");
        prop_assert_eq!(&routed.2, &unrouted.2, "per-client responses diverge");
        prop_assert_eq!(&routed.3, &unrouted.3, "final KV state diverges");
    }

    /// **Placement equivalence**: pinned placement ≡ round-robin placement.
    ///
    /// The same committed stream — random Zipf-skewed keys, random shard
    /// and region counts, forced cross-home batches — is executed three
    /// times end to end through real invokers and executors: with the
    /// paper's round-robin placement, with plan-aware pinning against the
    /// geo partition, and with pinning under a [`RegionOutage`] of one
    /// region (exercising the deterministic fallback). Per-transaction
    /// outcomes, client responses and the final KV state must be
    /// byte-identical in all three; only the spawn regions may differ.
    /// This is what licenses the invoker to treat placement as a pure
    /// performance hint.
    #[test]
    fn placement_equals_round_robin(
        batches in prop::collection::vec(
            prop::collection::vec((0u64..255, any::<u64>(), any::<bool>()), 1..5),
            1..6,
        ),
        shards in 1usize..10,
        region_count in 1usize..6,
        skew in 0u32..3,
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
            Pinned,
            PinnedUnderOutage,
        }
        let run = |placement: Placement| {
            let (store, mut verifier, registry) = equivalence_verifier(&provider, shards);
            let mut invoker = match placement {
                Placement::RoundRobin => Invoker::new(NodeId(0), regions.clone()),
                _ => Invoker::new(NodeId(0), regions.clone())
                    .with_partition(RegionPartition::new(regions.clone(), shards)),
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
                let digest = batch_digest(&batch);
                let plan = router.plan_keys(
                    batch.iter().flat_map(|t| t.ops.iter().map(|op| op.key())),
                );
                let cd = commit_digest(ViewNumber(0), SeqNum(seq), &digest);
                let entries = (0..3u32)
                    .map(|n| {
                        let kp = provider
                            .key_store()
                            .keypair_for(ComponentId::Node(NodeId(n)));
                        (NodeId(n), SimSigner::sign(&kp, &cd))
                    })
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
                    plan,
                    spawner: NodeId(0),
                    signature: provider.handle(ComponentId::Node(NodeId(0))).sign(&signing),
                };
                let spawn_plan = invoker.plan_placed(SeqNum(seq), 3, plan);
                prop_assert_eq!(spawn_plan.requests.len(), 3, "full spawn complement");
                // f_E + 1 = 2 matching VERIFYs validate the batch; run the
                // first two spawned executors wherever they were placed.
                for request in &spawn_plan.requests[..2] {
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
        let pinned = run(Placement::Pinned);
        let outage = run(Placement::PinnedUnderOutage);
        for (label, side) in [("pinned", &pinned), ("pinned-under-outage", &outage)] {
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
