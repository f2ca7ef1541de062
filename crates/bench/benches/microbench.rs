//! Criterion micro-benchmarks for the hot paths of the architecture:
//! hashing, signatures, certificate verification, PBFT message processing
//! and the storage engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sbft_consensus::messages::{batch_digest, compute_batch_digest};
use sbft_consensus::{ConsensusAction, OrderingProtocol, PbftReplica};
use sbft_core::ClientRequest;
use sbft_crypto::sha256::Kernel;
use sbft_crypto::{CryptoProvider, HmacKey, Sha256, SimSigner};
use sbft_storage::{VersionedStore, YcsbTable};
use sbft_types::{
    Batch, ClientId, ComponentId, FaultParams, Key, NodeId, Operation, SimDuration, Transaction,
    TxnId, Value,
};

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xabu8; 4096];
    c.bench_function("sha256_4kib", |b| {
        b.iter(|| Sha256::digest(std::hint::black_box(&data)))
    });
}

/// SHA-256 bulk throughput across input sizes (ns/iter ÷ size = ns/byte):
/// the aligned-block fast path dominates the larger inputs. The
/// `sha256_kernel_*` rows time every compression kernel this CPU can run
/// over the same 64 KiB, called directly, so the portable kernel keeps
/// compiling and stays comparable on hosts that select `sha-ni`.
fn bench_sha256_throughput(c: &mut Criterion) {
    for (name, size) in [
        ("sha256_throughput_64b", 64usize),
        ("sha256_throughput_1kib", 1 << 10),
        ("sha256_throughput_64kib", 64 << 10),
    ] {
        let data = vec![0x5au8; size];
        c.bench_function(name, |b| {
            b.iter(|| Sha256::digest(std::hint::black_box(&data)))
        });
    }
    let data = vec![0x5au8; 64 << 10];
    for &kernel in Kernel::available() {
        c.bench_function(&format!("sha256_kernel_{}_64kib", kernel.name()), |b| {
            b.iter(|| {
                let mut state = [0u32; 8];
                kernel.compress_blocks(&mut state, std::hint::black_box(&data));
                state
            })
        });
    }
}

/// The client-request digest with and without the transaction-carried
/// memo: the cached path is what every component after the client pays.
fn bench_digest_memoization(c: &mut Criterion) {
    let txn = Transaction::new(
        TxnId::new(ClientId(3), 9),
        (0..8u64)
            .map(|k| Operation::ReadModifyWrite(Key(k), 7))
            .collect(),
    );
    c.bench_function("signing_digest_fresh", |b| {
        b.iter(|| ClientRequest::compute_signing_digest(std::hint::black_box(&txn)))
    });
    let warm = txn.clone();
    let _ = ClientRequest::signing_digest(&warm); // fill the cache once
    c.bench_function("signing_digest_cached", |b| {
        b.iter(|| ClientRequest::signing_digest(std::hint::black_box(&warm)))
    });
    let batch = make_batch(100);
    c.bench_function("batch_digest_fresh_100_txns", |b| {
        b.iter(|| compute_batch_digest(std::hint::black_box(&batch)))
    });
    let _ = batch_digest(&batch); // fill the memo
    c.bench_function("batch_digest_cached_100_txns", |b| {
        b.iter(|| batch_digest(std::hint::black_box(&batch)))
    });
}

/// Batch hand-off: an Arc refcount bump versus the deep transaction-vector
/// clone every hop used to pay before the zero-copy refactor.
fn bench_batch_handoff(c: &mut Criterion) {
    let batch = make_batch(100);
    c.bench_function("batch_handoff_arc_clone_100_txns", |b| {
        b.iter(|| std::hint::black_box(&batch).clone())
    });
    c.bench_function("batch_handoff_deep_clone_100_txns", |b| {
        b.iter(|| std::hint::black_box(&batch).txns().to_vec())
    });
}

/// HMAC with a precomputed key schedule (what `SimSigner` uses) versus
/// deriving the schedule per message.
fn bench_hmac_reuse(c: &mut Criterion) {
    let digest = Sha256::digest(b"hot-path message");
    let key_bytes = [0x42u8; 32];
    c.bench_function("hmac_fresh_key", |b| {
        b.iter(|| HmacKey::new(&key_bytes).mac(std::hint::black_box(digest.as_bytes())))
    });
    let key = HmacKey::new(&key_bytes);
    c.bench_function("hmac_reused_key", |b| {
        b.iter(|| key.mac(std::hint::black_box(digest.as_bytes())))
    });
}

/// The `CryptoHandle` key-schedule cache: signing through the handle
/// (schedule derived once per identity) versus the fresh per-call
/// derivation `SimSigner::sign` pays, and the cached pairwise-MAC path
/// versus the one-shot keyed HMAC.
fn bench_handle_schedule_cache(c: &mut Criterion) {
    let provider = CryptoProvider::new(9);
    let node = ComponentId::Node(NodeId(0));
    let peer = ComponentId::Node(NodeId(1));
    let handle = provider.handle(node);
    let kp = provider.key_store().keypair_for(node);
    let digest = Sha256::digest(b"schedule cache message");
    let _ = handle.sign(&digest); // warm the handle's schedule
    let _ = handle.mac_for(peer, &digest); // warm the peer channel
    c.bench_function("handle_sign_fresh_schedule", |b| {
        b.iter(|| SimSigner::sign(std::hint::black_box(&kp), std::hint::black_box(&digest)))
    });
    c.bench_function("handle_sign_cached_schedule", |b| {
        b.iter(|| handle.sign(std::hint::black_box(&digest)))
    });
    let raw_key = provider.key_store().mac_key(node, peer);
    c.bench_function("handle_mac_fresh_schedule", |b| {
        b.iter(|| sbft_crypto::hmac_sha256(&raw_key, std::hint::black_box(digest.as_bytes())))
    });
    c.bench_function("handle_mac_cached_schedule", |b| {
        b.iter(|| handle.mac_for(peer, std::hint::black_box(&digest)))
    });
}

/// Client-signature checking for one 100-transaction batch: the per-txn
/// loop the primary used to run on arrival (fresh key schedule per
/// verification), the same loop over the provider's schedule cache, and
/// the aggregate path (one fold-and-compare for the whole batch).
fn bench_aggregate_verify(c: &mut Criterion) {
    use sbft_crypto::AggregateSignature;
    let provider = CryptoProvider::new(4);
    let claims: Vec<(ComponentId, sbft_types::Digest, sbft_types::Signature)> = (0..100u64)
        .map(|i| {
            let id = ComponentId::Client(ClientId((i % 16) as u32));
            let digest = sbft_crypto::digest_u64s("bench-claim", &[i]);
            let sig = provider.handle(id).sign(&digest);
            (id, digest, sig)
        })
        .collect();
    let pairs: Vec<(ComponentId, sbft_types::Digest)> =
        claims.iter().map(|(id, d, _)| (*id, *d)).collect();
    let aggregate = AggregateSignature::from_signatures(claims.iter().map(|(_, _, s)| s));
    let store = provider.key_store();
    c.bench_function("client_verify_per_txn_100", |b| {
        b.iter(|| {
            claims
                .iter()
                .all(|(id, d, s)| SimSigner::verify(store, *id, d, std::hint::black_box(s)))
        })
    });
    c.bench_function("client_verify_per_txn_cached_100", |b| {
        b.iter(|| {
            claims
                .iter()
                .all(|(id, d, s)| provider.verify(*id, d, std::hint::black_box(s)))
        })
    });
    c.bench_function("client_verify_aggregate_100", |b| {
        b.iter(|| provider.verify_aggregate(std::hint::black_box(&pairs), &aggregate))
    });
}

fn bench_signatures(c: &mut Criterion) {
    let provider = CryptoProvider::new(1);
    let store = provider.key_store();
    let node = ComponentId::Node(NodeId(0));
    let kp = store.keypair_for(node);
    let digest = Sha256::digest(b"benchmark message");
    let sig = SimSigner::sign(&kp, &digest);
    c.bench_function("signature_sign", |b| {
        b.iter(|| SimSigner::sign(std::hint::black_box(&kp), std::hint::black_box(&digest)))
    });
    c.bench_function("signature_verify", |b| {
        b.iter(|| SimSigner::verify(store, node, &digest, std::hint::black_box(&sig)))
    });
}

fn make_batch(size: usize) -> Batch {
    Batch::new(
        (0..size)
            .map(|i| {
                Transaction::new(
                    TxnId::new(ClientId((i % 16) as u32), i as u64),
                    vec![Operation::ReadModifyWrite(Key(i as u64), 7)],
                )
            })
            .collect(),
    )
}

fn bench_batch_digest(c: &mut Criterion) {
    let batch = make_batch(100);
    c.bench_function("batch_digest_100_txns", |b| {
        b.iter(|| batch_digest(std::hint::black_box(&batch)))
    });
}

fn bench_pbft_preprepare(c: &mut Criterion) {
    // Measures a primary ordering one 100-transaction batch (pre-prepare
    // creation plus its own prepare), the per-batch hot path of the shim.
    let provider = CryptoProvider::new(2);
    let params = FaultParams::for_shim_size(8);
    let make_replica = || {
        PbftReplica::new(
            NodeId(0),
            params,
            provider.handle(ComponentId::Node(NodeId(0))),
            SimDuration::from_millis(100),
            1_000,
        )
    };
    c.bench_function("pbft_primary_submit_batch_100", |b| {
        b.iter_batched(
            || (make_replica(), make_batch(100)),
            |(mut replica, batch)| {
                let actions: Vec<ConsensusAction> =
                    replica.submit_batch(batch, sbft_types::ShardPlan::Unplanned);
                std::hint::black_box(actions)
            },
            BatchSize::SmallInput,
        )
    });
    // The batcher now releases batches with the wire digest pre-memoized
    // (absorbed transaction-by-transaction on arrival), so this is the
    // submit cost the primary actually pays per batch.
    c.bench_function("pbft_primary_submit_batch_100_predigested", |b| {
        b.iter_batched(
            || {
                let batch = make_batch(100);
                let _ = batch_digest(&batch); // what the batcher prefills
                (make_replica(), batch)
            },
            |(mut replica, batch)| {
                let actions: Vec<ConsensusAction> =
                    replica.submit_batch(batch, sbft_types::ShardPlan::Unplanned);
                std::hint::black_box(actions)
            },
            BatchSize::SmallInput,
        )
    });
}

/// The primary's complete batch-submit path as it stands after the
/// aggregate-crypto work: one aggregate client-signature check over the
/// batch (`SignedBatch::verify_and_prune`) followed by the PBFT
/// pre-prepare with the pre-memoized wire digest. Compare against
/// `client_verify_per_txn_100` + `pbft_primary_submit_batch_100`, the
/// costs the pre-aggregation design paid per batch.
fn bench_primary_submit_path(c: &mut Criterion) {
    use sbft_consensus::Batcher;
    let provider = CryptoProvider::new(2);
    let params = FaultParams::for_shim_size(8);
    let build_signed = || {
        let mut batcher = Batcher::new(100, SimDuration::from_millis(5));
        let mut released = None;
        for i in 0..100usize {
            let txn = Transaction::new(
                TxnId::new(ClientId((i % 16) as u32), i as u64),
                vec![Operation::ReadModifyWrite(Key(i as u64), 7)],
            );
            let digest = ClientRequest::signing_digest(&txn);
            let sig = provider
                .handle(ComponentId::Client(txn.id.client))
                .sign(&digest);
            released = batcher.push(txn, digest, sig, sbft_types::SimTime::ZERO);
        }
        released.expect("100 pushes release the batch")
    };
    let signed = build_signed();
    c.bench_function("primary_batch_submit_path_100", |b| {
        b.iter_batched(
            || {
                (
                    PbftReplica::new(
                        NodeId(0),
                        params,
                        provider.handle(ComponentId::Node(NodeId(0))),
                        SimDuration::from_millis(100),
                        1_000,
                    ),
                    signed.clone(),
                )
            },
            |(mut replica, signed)| {
                let (batch, rejected) = signed.verify_and_prune(&provider);
                debug_assert!(rejected.is_empty());
                let actions: Vec<ConsensusAction> = replica
                    .submit_batch(batch.expect("all valid"), sbft_types::ShardPlan::Unplanned);
                std::hint::black_box(actions)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_storage(c: &mut Criterion) {
    let table = YcsbTable::populate(100_000);
    let store = table.store();
    c.bench_function("kvstore_get", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 100_000;
            std::hint::black_box(store.get(Key(i)))
        })
    });
    let write_store = VersionedStore::new();
    c.bench_function("kvstore_put", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            write_store.put(Key(i % 4096), Value::new(i))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sha256, bench_sha256_throughput, bench_signatures, bench_digest_memoization, bench_batch_handoff, bench_hmac_reuse, bench_handle_schedule_cache, bench_aggregate_verify, bench_batch_digest, bench_pbft_preprepare, bench_primary_submit_path, bench_storage
);
criterion_main!(benches);
