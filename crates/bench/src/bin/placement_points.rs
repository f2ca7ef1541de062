//! Plan-aware executor placement sweep (region count × Zipf skew).
//!
//! Each point runs the closed-loop simulator over **geo-partitioned
//! storage** (every execution shard's partition homed in a region) twice:
//! `PINNED` — the spawner derives the batch's `ShardPlan` from its keys
//! and pins a `SingleHome` batch's executors to its shard's home region —
//! and `RR`, the paper's Section IX-E round-robin rotation over the same
//! partitioned store. Both series pay executor ⇄ storage inter-region
//! latency; only the placement policy differs, so the gap in
//! `avg_latency_s` is exactly what plan-aware placement buys. With
//! single-op YCSB transactions every ordering-lane batch is single-home,
//! so the pinned series drives `remote_fetch_rate` to zero at every skew
//! and region count while the rotation keeps crossing regions.
//!
//! CI runs this binary as a smoke test; the binary itself asserts (and
//! exits non-zero otherwise) pinned ≤ round-robin mean commit latency and
//! a zero pinned remote-fetch rate on the single-home (`Z0.00`) sweep only — under
//! heavy skew the closed-loop batch-assembly feedback can let the
//! rotation edge out one point (see the ROADMAP's "load-aware pinning
//! under skew" item), which the skewed rows record rather than gate on.
//! The equivalence proptests separately prove outcomes are identical
//! under either placement.

use sbft_bench::{find_row, placement_points, run_sweep};

/// The CSV columns after `figure,series,x`: harness figures, then
/// registry counters by name (summed over the shim nodes).
const COLUMNS: &[&str] = &[
    "throughput_tps",
    "avg_latency_s",
    "p50_s",
    "p99_s",
    "remote_fetch_rate",
    "invoker.pinned_spawns",
    "invoker.placement_fallbacks",
    "committed",
];

fn main() {
    let region_counts = [1usize, 2, 3, 5];
    let thetas = [0.0f64, 0.9];
    let results = run_sweep(placement_points(&region_counts, &thetas), COLUMNS);
    for regions in region_counts {
        let x = regions as f64;
        let pinned = find_row(&results, "PINNED-Z0.00", x);
        let rr = find_row(&results, "RR-Z0.00", x);
        pinned.require(
            pinned.value("avg_latency_s") <= rr.value("avg_latency_s"),
            "pinned mean latency lost to round-robin",
        );
        pinned.require(
            pinned.value("remote_fetch_rate") == 0.0,
            "pinned remote-fetch rate not zero",
        );
    }
}
