//! Thread scaling of the `sbft-sharding` worker pool: raw
//! (protocol-free) throughput of the lock-ordered committer as
//! conflict-free batches are spread over 1 → 8 shards, one worker thread
//! per shard, on real OS threads.
//!
//! One series is reported, `RAW-POOL`. No runtime applies through the
//! pool: the verifier applies every batch on its own thread, and the
//! simulator prices that as one apply station, so there is no simulated
//! shard-scaling series. Thread scaling only shows on multi-core hosts;
//! on a single-core machine the series is flat. The bin asserts that
//! every transaction's ticket outcome is applied.

use sbft_bench::FIGURE_COLUMNS;
use sbft_sharding::{ApplyTicket, ShardScheduler, ShardedCommitter};
use sbft_storage::{OccOutcome, VersionedStore};
use sbft_types::{ClientId, Key, ReadWriteSet, ShardingConfig, TxnId, TxnResult, Value, Version};
use std::sync::Arc;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    // 100 k transactions of 8 reads + 8 writes each, over disjoint key
    // ranges (conflict-free), pre-generated so the timed section measures
    // only the pool. OCC validation + apply is ~16 store accesses per
    // transaction — enough real work per task for threads to matter.
    const TXNS: u64 = 100_000;
    const OPS: u64 = 8;
    let keys = TXNS * OPS;
    let batches: Vec<Arc<[TxnResult]>> = (0..TXNS / 100)
        .map(|batch| {
            (0..100)
                .map(|i| {
                    let base = (batch * 100 + i) * OPS;
                    let mut rwset = ReadWriteSet::new();
                    for k in base..base + OPS {
                        rwset.record_read(Key(k), Version(1));
                        rwset.record_write(Key(k), Value::new(batch));
                    }
                    TxnResult {
                        txn: TxnId::new(ClientId(i as u32), batch),
                        output: batch,
                        rwset,
                    }
                })
                .collect()
        })
        .collect();
    println!("figure,series,x,{}", FIGURE_COLUMNS.join(","));
    for shards in SHARD_COUNTS {
        let store = Arc::new(VersionedStore::new());
        store.load((0..keys).map(|i| (Key(i), Value::new(0))));
        let committer = Arc::new(ShardedCommitter::new(
            store,
            &ShardingConfig::with_shards(shards),
        ));
        let pool = ShardScheduler::new(committer, shards, true);
        let started = Instant::now();
        let tickets: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(seq, txns)| pool.submit_tracked(seq as u64, Arc::clone(txns)))
            .collect();
        let applied = tickets
            .into_iter()
            .flat_map(ApplyTicket::wait)
            .filter(OccOutcome::is_applied)
            .count() as u64;
        let elapsed = started.elapsed().as_secs_f64();
        pool.shutdown();
        assert_eq!(applied, TXNS, "every transaction commits");
        println!(
            "fig6-shards,RAW-POOL,{shards},{:.0},{elapsed:.6},0.000000,0.000000,0.000,0.000",
            TXNS as f64 / elapsed
        );
    }
}
