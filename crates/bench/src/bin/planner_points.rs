//! Ordering-time shard-planner sweep (Zipf skew × shard count).
//!
//! Each point runs the closed-loop simulator with known read-write sets
//! (`KnownRwSets`) twice: `PLANNED` (per-shard ordering lanes at the
//! primary — the shard-aware planner) and `UNPLANNED` (the PR 3
//! baseline, where batches are routed only in the verifier's apply
//! stage). The headline metric is `cross_fallback_rate`: the fraction of
//! validated batches whose footprint spanned shards and therefore paid
//! cross-shard coordination (or, in the pooled runtime, the synchronous
//! fallback). With single-op YCSB transactions every transaction is
//! single-home, so the lanes drive the rate to zero at every skew and
//! shard count, while the unplanned baseline spans nearly every batch as
//! soon as shards > 1. `planned_batches` counts verified fast-path
//! batches and `plan_mismatches` must stay 0 under an honest primary
//! (the trust-but-verify re-derivation never fires).
//!
//! A second sweep is the liveness grid (`liveness_points`: conflict mode
//! × digest proposals × lanes × seeds 1–6 on jittered links), whose
//! `max_latency_s` must stay below the client timeout — the primary's
//! conflict planner once held a batch behind a later one until a
//! client's 2 s timer fired.
//!
//! CI runs this binary as a smoke test; the binary itself asserts that
//! every series is present, that, on the single-home workload over 8
//! shards, the lanes drive the fallback rate to zero while the unplanned
//! baseline spans every batch, and that no liveness row reaches the
//! client timeout. It exits non-zero otherwise.

use sbft_bench::{find_row, liveness_points, planner_points, run_sweep};
use sbft_types::TimerConfig;

/// The CSV columns after `figure,series,x`: harness figures, then
/// registry counters by name.
const COLUMNS: &[&str] = &[
    "throughput_tps",
    "cross_fallback_rate",
    "verifier.single_home_batches",
    "verifier.validated_batches",
    "verifier.planned_batches",
    "verifier.plan_mismatches",
    "committed",
];

fn main() {
    let shard_counts = [1usize, 2, 4, 8];
    let thetas = [0.0f64, 0.6, 0.9, 0.99];
    let results = run_sweep(planner_points(&shard_counts, &thetas), COLUMNS);
    for theta in thetas {
        for shards in shard_counts {
            for mode in ["PLANNED", "UNPLANNED"] {
                let _ = find_row(&results, &format!("{mode}-Z{theta:.2}"), shards as f64);
            }
        }
    }
    let planned = find_row(&results, "PLANNED-Z0.00", 8.0);
    planned.require(
        planned.value("cross_fallback_rate") == 0.0,
        "planned fallback rate not zero",
    );
    let unplanned = find_row(&results, "UNPLANNED-Z0.00", 8.0);
    unplanned.require(
        unplanned.value("cross_fallback_rate") == 1.0,
        "baseline fallback rate not full",
    );
    let client_timeout = TimerConfig::default().client_timeout.as_secs_f64();
    let live = run_sweep(
        liveness_points(&[1, 2, 3, 4, 5, 6]),
        &["throughput_tps", "max_latency_s", "committed"],
    );
    for row in &live {
        row.require(
            row.value("max_latency_s") < client_timeout,
            "a commit waited for a client timer",
        );
    }
}
