//! End-to-end commit-path throughput experiment.
//!
//! Drives a saturated default PBFT deployment over a sweep of batch
//! sizes and reports committed throughput and latency per point. This is
//! the macro-level companion to the `microbench` hot-path benches
//! (sha256 throughput, digest memoization, Arc batch hand-off, aggregate
//! client verification): the micro benches show each ingredient, this
//! binary shows the committed TPS they buy end to end. Run before/after
//! hot-path changes and diff the rows.
//!
//! After the sweep the binary prints `scheduler_apply` rows: wall-clock
//! throughput of the `ShardScheduler`-driven apply stage (the thread
//! runtime's commit path) at 1 worker and at the host's core count —
//! real threads over the real committer, so on a multi-core host the
//! multi-worker row shows the apply-stage scaling the sharded runtime
//! unlocks. CI runs this binary as a smoke test; the binary itself
//! asserts every batch size keeps committing and exits non-zero
//! otherwise.

use sbft_bench::experiment::{commit_path_points, print_header, run_point};
use sbft_sharding::{ShardScheduler, ShardedCommitter};
use sbft_storage::VersionedStore;
use sbft_types::{ClientId, Key, ReadWriteSet, ShardingConfig, TxnId, TxnResult, Value};
use std::sync::Arc;
use std::time::Instant;

/// One wall-clock apply-throughput point: `batches` tracked batches of
/// `per_batch` single-key writes through a pool of `workers` threads over
/// 8 shards.
fn scheduler_apply_point(workers: usize, batches: u64, per_batch: u64) {
    let records = 100_000u64;
    let store = Arc::new(VersionedStore::new());
    store.load((0..records).map(|i| (Key(i), Value::new(0))));
    let committer = Arc::new(ShardedCommitter::new(
        Arc::clone(&store),
        &ShardingConfig {
            num_shards: 8,
            workers,
            ..ShardingConfig::default()
        },
    ));
    let pool = ShardScheduler::new(committer, workers, true);
    let work: Vec<Arc<[TxnResult]>> = (0..batches)
        .map(|b| {
            (0..per_batch)
                .map(|i| {
                    let mut rwset = ReadWriteSet::new();
                    rwset.record_write(Key((b * per_batch + i) % records), Value::new(b));
                    TxnResult {
                        txn: TxnId::new(ClientId(i as u32), b),
                        output: b,
                        rwset,
                    }
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
    let applied: u64 = tickets
        .into_iter()
        .map(|t| t.wait().iter().filter(|o| o.is_applied()).count() as u64)
        .sum();
    let elapsed = start.elapsed();
    pool.shutdown();
    let txns = batches * per_batch;
    println!(
        "scheduler_apply,workers={},shards=8,txns={},applied={},wall_ms={:.1},tps={:.0}",
        workers,
        txns,
        applied,
        elapsed.as_secs_f64() * 1e3,
        txns as f64 / elapsed.as_secs_f64(),
    );
}

fn main() {
    // Every wall-clock number below hangs on which SHA-256 kernel ran.
    println!("# sha256 kernel: {}", sbft_crypto::sha256::kernel_name());
    print_header();
    for point in commit_path_points(&[10, 50, 100, 400, 1000]) {
        let result = run_point(point);
        assert!(
            result.metrics.throughput_tps() > 0.0,
            "{} committed nothing",
            result.series
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    scheduler_apply_point(1, 1_000, 100);
    if cores > 1 {
        scheduler_apply_point(cores.min(8), 1_000, 100);
    }
}
