//! Crash-restart recovery sweep (snapshot interval × fault scenario).
//!
//! Each snapshot interval runs the closed-loop simulator with durability
//! on (WAL + featherweight snapshots) three ways: `BASELINE` (no fault),
//! `CRASH-BACKUP` (a backup replica goes dark at 150 ms and restarts
//! 60 ms later, recovering via snapshot + WAL replay + peer state
//! transfer) and `CRASH-PRIMARY` (the view-zero primary crashes, so
//! recovery overlaps the view change that replaces it). The crashed
//! series must stay live — committed transactions keep flowing while one
//! replica is dark and after it rejoins — and the recovery columns
//! (`replay_batches`, `state_transfer_batches`, `recoveries`) prove the
//! recovery path actually executed rather than the run merely surviving
//! on the remaining quorum.
//!
//! CI runs this binary as a smoke test; the binary itself asserts that
//! every row commits and appends to its WAL, that the baseline records no
//! recovery, and that every crashed row records exactly one, with WAL
//! replay and peer state transfer both exercised. It exits non-zero
//! otherwise.

use sbft_bench::{find_row, recovery_points, run_sweep};

/// The CSV columns after `figure,series,x`: harness figures, then
/// registry counters by name (summed over the shim nodes).
const COLUMNS: &[&str] = &[
    "throughput_tps",
    "avg_latency_s",
    "p99_s",
    "committed",
    "durability.wal_appends",
    "durability.snapshot_bytes",
    "durability.replay_batches",
    "durability.state_transfer_batches",
    "recovery.recoveries",
];

fn main() {
    let snapshot_intervals = [4u64, 32, 1_000];
    let results = run_sweep(recovery_points(&snapshot_intervals), COLUMNS);
    for interval in snapshot_intervals {
        for series in ["BASELINE", "CRASH-BACKUP", "CRASH-PRIMARY"] {
            let row = find_row(&results, series, interval as f64);
            row.require(row.value("committed") > 0.0, "committed nothing");
            row.require(
                row.value("durability.wal_appends") > 0.0,
                "appended nothing to the WAL",
            );
            let crashed = series != "BASELINE";
            row.require(
                row.value("recovery.recoveries") == f64::from(u8::from(crashed)),
                "one recovery per crash, none without",
            );
            let recovered = row.value("durability.replay_batches") > 0.0
                && row.value("durability.state_transfer_batches") > 0.0;
            row.require(recovered || !crashed, "skipped replay or state transfer");
        }
    }
}
