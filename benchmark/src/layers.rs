//! Wall-clock drivers for single layers.
//!
//! Each driver calls one crate's public API in a tight loop, the way
//! `crates/bench/benches/microbench.rs` does, sized from the workload's
//! own configuration (batch size, operations per transaction, record
//! count, shard count) so a layer number can be set beside the
//! workload's end-to-end numbers. A driver reports the median of several
//! repeats; they exist to show *where* an end-to-end change came from,
//! never to justify one.

use crate::stats::Summary;
use crate::workloads::Workload;
use sbft_consensus::messages::compute_batch_digest;
use sbft_consensus::Batcher;
use sbft_core::planner::home_shard;
use sbft_core::ClientRequest;
use sbft_crypto::certificate::commit_digest;
use sbft_crypto::{AggregateSignature, CommitCertificate, CryptoProvider, Sha256};
use sbft_durability::{recover, FileWal, MemWal, WalRecord, WriteAheadLog};
use sbft_sharding::{ShardRouter, ShardScheduler, ShardedCommitter};
use sbft_storage::occ::ConcurrencyChecker;
use sbft_storage::{VersionedStore, YcsbTable};
use sbft_telemetry::{Histogram, MemorySink, Stage, Tracer};
use sbft_types::{
    Batch, ClientId, ComponentId, Digest, Key, NodeId, ReadWriteSet, SeqNum, ShardPlan, Signature,
    SimDuration, SimTime, Transaction, TxnId, TxnResult, Value, ViewNumber,
};
use sbft_workloads::YcsbWorkload;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repeats of every driver; the reported figure is their median.
const REPEATS: usize = 7;

/// Times `iters` calls of `op`, `REPEATS` times over, and summarises the
/// nanoseconds per call. One untimed round warms caches first.
fn time_per_call(iters: u64, mut op: impl FnMut(u64)) -> Summary {
    for i in 0..iters.min(64) {
        op(i);
    }
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    Summary::of(&samples)
}

fn scaled(summary: Summary, factor: f64) -> Summary {
    Summary {
        median: summary.median * factor,
        q1: summary.q1 * factor,
        q3: summary.q3 * factor,
        n: summary.n,
    }
}

/// One named layer measurement.
pub type Measured = (&'static str, Summary);

/// The workload's transaction generator, as the harnesses configure it.
fn generator(workload: &Workload, seed: u64) -> YcsbWorkload {
    let declare = matches!(
        workload.config.conflict_handling,
        sbft_types::ConflictHandling::KnownRwSets
    );
    let mut cfg = workload.config.workload;
    cfg.num_clients = workload.sim.clients;
    YcsbWorkload::new(cfg, seed).with_declared_rwsets(declare)
}

fn workload_batch(workload: &Workload, seed: u64) -> Batch {
    generator(workload, seed).next_default_batch()
}

/// `workloads.*` and `types.*`: generating a transaction, hashing and
/// cloning a batch of the workload's size.
#[must_use]
pub fn workloads_and_types(workload: &Workload, seed: u64) -> Vec<Measured> {
    let clients = workload.sim.clients as u32;
    let mut gen = generator(workload, seed);
    let gen_ns = time_per_call(20_000, |i| {
        black_box(gen.next_transaction(ClientId(i as u32 % clients)));
    });
    let batch = workload_batch(workload, seed);
    let txns = batch.len() as f64;
    let digest_ns = time_per_call(2_000, |_| {
        black_box(compute_batch_digest(black_box(&batch)));
    });
    let clone_ns = time_per_call(200_000, |_| {
        black_box(black_box(&batch).clone());
    });
    vec![
        ("workloads.gen_ns_per_txn", gen_ns),
        (
            "types.batch_digest_ns_per_txn",
            scaled(digest_ns, 1.0 / txns),
        ),
        ("types.batch_clone_ns", clone_ns),
    ]
}

/// `crypto.*`: hashing, the `SimSigner` stand-in's sign / verify / MAC
/// through the cached handles, one aggregate check over a batch worth of
/// client signatures, and one commit-certificate verification.
#[must_use]
pub fn crypto(workload: &Workload, seed: u64) -> Vec<Measured> {
    let provider = CryptoProvider::new(seed);
    let node = ComponentId::Node(NodeId(0));
    let peer = ComponentId::Node(NodeId(1));
    let handle = provider.handle(node);
    let data = vec![0x5au8; 4096];
    let digest = Sha256::digest(b"benchmark message");
    let signature = handle.sign(&digest);

    let sha_ns = time_per_call(2_000, |_| {
        black_box(Sha256::digest(black_box(&data)));
    });
    let sign_ns = time_per_call(20_000, |_| {
        black_box(handle.sign(black_box(&digest)));
    });
    let verify_ns = time_per_call(20_000, |_| {
        black_box(provider.verify(node, &digest, black_box(&signature)));
    });
    let mac_ns = time_per_call(20_000, |_| {
        black_box(handle.mac_for(peer, black_box(&digest)));
    });

    let batch_size = workload.config.workload.batch_size;
    let claims: Vec<(ComponentId, Digest, Signature)> = (0..batch_size as u64)
        .map(|i| {
            let id = ComponentId::Client(ClientId((i % 16) as u32));
            let d = sbft_crypto::digest_u64s("bench-claim", &[i]);
            (id, d, provider.handle(id).sign(&d))
        })
        .collect();
    let pairs: Vec<(ComponentId, Digest)> = claims.iter().map(|(id, d, _)| (*id, *d)).collect();
    let aggregate = AggregateSignature::from_signatures(claims.iter().map(|(_, _, s)| s));
    let aggregate_ns = time_per_call(500, |_| {
        assert!(provider.verify_aggregate(black_box(&pairs), &aggregate));
    });

    let fault = workload.config.fault;
    let batch_digest = Sha256::digest(b"certified batch");
    let vote = commit_digest(ViewNumber(0), SeqNum(1), &batch_digest);
    let certificate = CommitCertificate::new(
        ViewNumber(0),
        SeqNum(1),
        batch_digest,
        (0..fault.shim_quorum() as u32)
            .map(|i| {
                let id = NodeId(i);
                (id, provider.handle(ComponentId::Node(id)).sign(&vote))
            })
            .collect(),
    );
    let certificate_ns = time_per_call(5_000, |_| {
        black_box(&certificate)
            .verify(provider.key_store(), fault.shim_quorum(), fault.n_r)
            .expect("honest certificate verifies");
    });

    vec![
        (
            "crypto.sha256_ns_per_byte",
            scaled(sha_ns, 1.0 / data.len() as f64),
        ),
        ("crypto.sign_ns", sign_ns),
        ("crypto.verify_ns", verify_ns),
        ("crypto.mac_ns", mac_ns),
        (
            "crypto.aggregate_verify_ns_per_txn",
            scaled(aggregate_ns, 1.0 / batch_size as f64),
        ),
        ("crypto.certificate_verify_ns", certificate_ns),
    ]
}

/// The `i`-th key of a walk over `records` keys: a multiplicative stride
/// visits the table in a cache-hostile order, like uniform keys do.
fn scattered_key(i: u64, records: u64) -> Key {
    Key(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % records)
}

/// A read-modify-write result over `keys`, reading the version the store
/// currently holds (so validation passes).
fn rmw_result(store: &VersionedStore, txn: TxnId, keys: &[Key], salt: u64) -> TxnResult {
    let mut rwset = ReadWriteSet::new();
    for key in keys {
        rwset.record_read(*key, store.version_of(*key));
        rwset.record_write(*key, Value::new(salt));
    }
    TxnResult {
        txn,
        output: salt,
        rwset,
    }
}

/// `storage.*`: point reads and writes, OCC validate-and-apply per
/// access, and bulk load per record (what `setup_s` is made of).
#[must_use]
pub fn storage(workload: &Workload) -> Vec<Measured> {
    let records = workload.config.workload.num_records;
    let start = Instant::now();
    let table = YcsbTable::populate(records);
    let load_ns = start.elapsed().as_nanos() as f64 / records as f64;
    let store = Arc::clone(table.store());
    let key_at = |i: u64| scattered_key(i, records);
    let get_ns = time_per_call(200_000, |i| {
        black_box(store.get(key_at(i)));
    });
    let put_ns = time_per_call(200_000, |i| {
        black_box(store.put(key_at(i), Value::new(i)));
    });
    let ops = workload.config.workload.ops_per_txn as u64;
    let occ_ns = time_per_call(50_000, |i| {
        let keys: Vec<Key> = (0..ops).map(|k| key_at(i * ops + k)).collect();
        let result = rmw_result(&store, TxnId::new(ClientId(0), i), &keys, i);
        black_box(ConcurrencyChecker::check_and_apply(
            &store,
            &result.rwset,
            true,
        ));
    });
    vec![
        ("storage.get_ns", get_ns),
        ("storage.put_ns", put_ns),
        (
            "storage.occ_validate_ns_per_access",
            // One read validated plus one write applied per key.
            scaled(occ_ns, 1.0 / (2 * ops) as f64),
        ),
        ("storage.load_ns_per_record", Summary::exact(load_ns)),
    ]
}

fn committed_record(seq: u64, batch: &Batch) -> WalRecord {
    WalRecord::Committed {
        seq: SeqNum(seq),
        view: ViewNumber(0),
        plan: ShardPlan::Unplanned,
        batch: batch.clone(),
        certificate: Arc::new(CommitCertificate::new(
            ViewNumber(0),
            SeqNum(seq),
            Digest::from_bytes([seq as u8; 32]),
            (0..3)
                .map(|i| (NodeId(i), Signature([i as u8; 64])))
                .collect(),
        )),
    }
}

/// `durability.*` wall-clock drivers: appending a committed batch to the
/// in-memory and the file-backed log, one fsync, and folding a log back
/// through `recover`. Returns the measurements and the encoded size of
/// one record (for the per-byte calibration ratio).
#[must_use]
pub fn durability(workload: &Workload, seed: u64, scratch: &Path) -> (Vec<Measured>, f64) {
    let batch = workload_batch(workload, seed);
    let mut mem = MemWal::new();
    let mut record_bytes = 0;
    let memwal_ns = time_per_call(2_000, |i| {
        record_bytes = mem.append(black_box(&committed_record(i, &batch)));
    });

    let path = scratch.join("bench.wal");
    let _ = std::fs::remove_file(&path);
    let mut file = FileWal::open(&path).expect("open WAL in the benchmark's scratch directory");
    // Append buffers, sync writes and fsyncs: time them apart, ten
    // records per fsync.
    let (mut append_ns, mut sync_us) = (Vec::new(), Vec::new());
    for round in 0..REPEATS as u64 * 4 {
        let start = Instant::now();
        for i in 0..10 {
            file.append(&committed_record(round * 10 + i, &batch));
        }
        append_ns.push(start.elapsed().as_nanos() as f64 / 10.0);
        let start = Instant::now();
        file.sync();
        sync_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    let records = file.replay();
    drop(file);
    let _ = std::fs::remove_file(&path);
    let replay_ns = time_per_call(20, |_| {
        black_box(recover(black_box(&records)));
    });
    (
        vec![
            ("durability.memwal_append_ns", memwal_ns),
            ("durability.filewal_append_ns", Summary::of(&append_ns)),
            ("durability.filewal_sync_us", Summary::of(&sync_us)),
            (
                "durability.replay_ns_per_record",
                scaled(replay_ns, 1.0 / records.len() as f64),
            ),
        ],
        record_bytes as f64,
    )
}

/// `consensus.batcher_push_ns_per_txn`, `core.planner_route_ns_per_key`
/// and `sharding.router_ns_per_key`: admitting one signed transaction
/// into the batcher (through the shard lanes when the workload runs
/// them), classifying a transaction at ordering time, and hashing one
/// key to its shard.
#[must_use]
pub fn ordering(workload: &Workload, seed: u64) -> Vec<Measured> {
    let config = &workload.config;
    let provider = CryptoProvider::new(seed);
    let shards = config.sharding.num_shards;
    let router = ShardRouter::new(shards);
    let mut gen = generator(workload, seed);
    let signed: Vec<(Transaction, Digest, Signature, ShardPlan)> = (0..2_000u32)
        .map(|i| {
            let txn = gen.next_transaction(ClientId(i % 64));
            let digest = ClientRequest::signing_digest(&txn);
            let signature = provider
                .handle(ComponentId::Client(txn.id.client))
                .sign(&digest);
            let plan = home_shard(&txn, &router);
            (txn, digest, signature, plan)
        })
        .collect();
    let lanes = shards > 1 && config.sharding.ordering_lanes;
    let wait = SimDuration::from_millis(5);
    let batch_size = config.workload.batch_size;
    let mut batcher = if lanes {
        Batcher::with_shard_lanes(batch_size, wait, shards)
    } else {
        Batcher::new(batch_size, wait)
    };
    let push_ns = time_per_call(signed.len() as u64, |i| {
        let (txn, digest, signature, plan) = &signed[i as usize];
        black_box(batcher.push_planned(txn.clone(), *digest, *signature, SimTime::ZERO, *plan));
    });
    let keys_per_txn = config.workload.ops_per_txn as f64;
    let plan_ns = time_per_call(signed.len() as u64, |i| {
        black_box(home_shard(black_box(&signed[i as usize].0), &router));
    });
    let route_ns = time_per_call(200_000, |i| {
        black_box(router.shard_of(Key(black_box(i))));
    });
    vec![
        ("consensus.batcher_push_ns_per_txn", push_ns),
        (
            "core.planner_route_ns_per_key",
            scaled(plan_ns, 1.0 / keys_per_txn),
        ),
        ("sharding.router_ns_per_key", route_ns),
    ]
}

/// `sharding.*`: the lock-ordered committer per transaction on this
/// thread, and the `ShardScheduler` pool's apply throughput with one and
/// two workers (the `scheduler_apply` driver of `hot_path`).
#[must_use]
pub fn sharding(workload: &Workload) -> Vec<Measured> {
    let config = &workload.config;
    let records = 100_000u64;
    let ops = config.workload.ops_per_txn as u64;
    let fresh_store = || {
        let store = Arc::new(VersionedStore::new());
        store.load((0..records).map(|i| (Key(i), Value::new(0))));
        store
    };
    let key_at = |i: u64| scattered_key(i, records);

    let store = fresh_store();
    let committer = ShardedCommitter::new(Arc::clone(&store), &config.sharding);
    let committer_ns = time_per_call(50_000, |i| {
        let keys: Vec<Key> = (0..ops).map(|k| key_at(i * ops + k)).collect();
        let result = rmw_result(&store, TxnId::new(ClientId(0), i), &keys, i);
        black_box(committer.commit(&result.rwset, true));
    });

    let per_batch = config.workload.batch_size as u64;
    let batches = 40_000 / per_batch;
    let apply_tps = |workers: usize| {
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let store = fresh_store();
                let committer = Arc::new(ShardedCommitter::new(
                    Arc::clone(&store),
                    &sbft_types::ShardingConfig {
                        num_shards: 8,
                        workers,
                        ..config.sharding
                    },
                ));
                let pool = ShardScheduler::new(committer, workers, true);
                let work: Vec<Arc<[TxnResult]>> = (0..batches)
                    .map(|b| {
                        (0..per_batch)
                            .map(|i| {
                                let n = b * per_batch + i;
                                let keys: Vec<Key> =
                                    (0..ops).map(|k| key_at(n * ops + k)).collect();
                                rmw_result(&store, TxnId::new(ClientId(i as u32), b), &keys, b)
                            })
                            .collect()
                    })
                    .collect();
                let start = Instant::now();
                let tickets: Vec<_> = work
                    .iter()
                    .enumerate()
                    .map(|(seq, batch)| pool.submit_tracked(seq as u64, Arc::clone(batch)))
                    .collect();
                let applied: usize = tickets.into_iter().map(|t| t.wait().len()).sum();
                let elapsed = start.elapsed().as_secs_f64();
                pool.shutdown();
                applied as f64 / elapsed
            })
            .collect();
        Summary::of(&samples)
    };
    let w1 = apply_tps(1);
    let w2 = apply_tps(2);
    vec![
        ("sharding.committer_ns_per_txn", committer_ns),
        ("sharding.apply_tps_w1", w1),
        ("sharding.apply_tps_w2", w2),
        (
            "sharding.apply_scaling",
            Summary::exact(w2.median / w1.median),
        ),
    ]
}

/// `telemetry.*`: the cost of recording one histogram sample and of one
/// tracer emit with no sink (the branch every marker site always pays)
/// and with a memory sink (what a traced pass pays per marker).
#[must_use]
pub fn telemetry() -> Vec<Measured> {
    let histogram = Histogram::new();
    let record_ns = time_per_call(200_000, |i| histogram.record(black_box(50_000 + i % 1_000)));
    let off = Tracer::disabled();
    let off_ns = time_per_call(200_000, |i| {
        black_box(&off).emit(i, Stage::Respond, SimTime::from_micros(i));
    });
    let on = Tracer::new(Arc::new(MemorySink::new()));
    let on_ns = time_per_call(50_000, |i| {
        black_box(&on).emit(i, Stage::Respond, SimTime::from_micros(i));
    });
    vec![
        ("telemetry.histogram_record_ns", record_ns),
        ("telemetry.tracer_off_emit_ns", off_ns),
        ("telemetry.tracer_on_emit_ns", on_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helper_reports_positive_per_call_cost_with_quartiles() {
        let mut sink = 0u64;
        let s = time_per_call(1_000, |i| sink = sink.wrapping_add(black_box(i)));
        assert_eq!(s.n, REPEATS);
        assert!(s.median >= 0.0 && s.q1 <= s.q3);
        let doubled = scaled(s, 2.0);
        assert_eq!(doubled.median, s.median * 2.0);
    }
}
