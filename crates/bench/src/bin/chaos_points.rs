//! Composed-chaos sweep (message loss × partition window × crash count).
//!
//! Every point runs the closed-loop simulator under one composed
//! `FaultPlan`: lossy/duplicating/delaying links and a directed partition
//! window around backup node 3, a disk-lag straggler at node 1, and up to
//! two staggered backup crash-restarts — all deterministic from the run
//! seed. The sweep is aimed at the backup side so the primary and a
//! quorum survive: every row must keep committing with zero divergent
//! state while the `faults.*` counters prove each configured fault family
//! actually fired and the recovery counters prove every scheduled crash
//! came back.
//!
//! CI runs this binary as a smoke test over the full grid; the binary
//! itself asserts liveness (committed > 0), safety (no divergent abort),
//! drops on every lossy row, partition drops on every `P1` row, and one
//! recovery per scheduled crash, and exits non-zero otherwise.

use sbft_bench::{chaos_points, find_row, run_sweep};

/// The CSV columns after `figure,series,x`: the window's commits, then
/// registry counters by name.
const COLUMNS: &[&str] = &[
    "committed",
    "verifier.divergent_aborts",
    "faults.messages_dropped",
    "faults.messages_duplicated",
    "faults.messages_delayed",
    "faults.partition_drops",
    "faults.fsync_lags",
    "recovery.recoveries",
    "faults.bad_state_responses",
    "faults.state_request_retries",
    "faults.catch_ups",
];

fn main() {
    let loss_rates = [0.0, 0.10, 0.20];
    let partition_windows = [false, true];
    let crash_counts = [0usize, 1, 2];
    let results = run_sweep(
        chaos_points(&loss_rates, &partition_windows, &crash_counts),
        COLUMNS,
    );
    for partition in partition_windows {
        for crashes in crash_counts {
            for loss in loss_rates {
                let series = format!("P{}-C{crashes}", u8::from(partition));
                let x = (loss * 100.0).round();
                let row = find_row(&results, &series, x);
                row.require(row.value("committed") > 0.0, "stalled");
                row.require(row.value("verifier.divergent_aborts") == 0.0, "diverged");
                let dropped = row.value("faults.messages_dropped") > 0.0;
                row.require(dropped || loss == 0.0, "lossy links dropped nothing");
                let cut = row.value("faults.partition_drops") > 0.0;
                row.require(cut || !partition, "the partition window cut nothing");
                row.require(
                    row.value("recovery.recoveries") == crashes as f64,
                    "a scheduled crash did not recover",
                );
            }
        }
    }
}
