//! Shard-count scaling of the sharded commit path: committed-transaction
//! throughput as the verifier's `ccheck` work is spread over 1 → 8
//! execution shards.
//!
//! Two series are reported:
//!
//! * `SERVBFT-SIM` — the full protocol on the discrete-event simulator.
//!   The CPU model makes storage accesses expensive (an SSD-backed store
//!   rather than the default in-memory cost), so the per-shard `ccheck`
//!   stations are the bottleneck and shard count plays the role cores
//!   play in Figure 6(ix). The workload is conflict-free uniform YCSB.
//! * `RAW-POOL` (opt-in via `--raw-pool`) — the `sbft-sharding` worker
//!   pool executing the same kind of conflict-free batches on real OS
//!   threads, showing the raw (protocol-free) throughput of the
//!   lock-ordered committer. No runtime applies through the pool. Thread
//!   scaling only shows on multi-core hosts; on a single-core machine the
//!   series is flat, which is why it is opt-in.

use sbft_bench::{run_sweep, PointConfig, FIGURE_COLUMNS};
use sbft_sharding::{ApplyTicket, ShardScheduler, ShardedCommitter};
use sbft_sim::CpuModel;
use sbft_storage::{OccOutcome, VersionedStore};
use sbft_types::{
    ClientId, Key, ReadWriteSet, ShardingConfig, SimDuration, SystemConfig, TxnId, TxnResult,
    Value, Version,
};
use std::sync::Arc;
use std::time::Instant;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn sim_series() {
    let mut points = Vec::new();
    for shards in SHARD_COUNTS {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.num_records = 20_000;
        config.workload.batch_size = 10;
        config.sharding = ShardingConfig::with_shards(shards);
        let mut point = PointConfig::new("fig6-shards", "SERVBFT-SIM", shards as f64, config);
        point.clients = 240;
        point.duration = SimDuration::from_millis(400);
        point.warmup = SimDuration::from_millis(100);
        // Shift the bottleneck onto the commit path: 400 µs per storage
        // access models a persistent store instead of the in-memory
        // default, making the shard stations the saturated resource.
        point.cpu = Some(CpuModel {
            storage_access_cost: SimDuration::from_micros(400),
            ..CpuModel::default()
        });
        points.push(point);
    }
    run_sweep(points, FIGURE_COLUMNS);
}

fn raw_pool_series() {
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

fn main() {
    sim_series();
    if std::env::args().any(|a| a == "--raw-pool") {
        raw_pool_series();
    }
}
