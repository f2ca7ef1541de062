//! Divergence-rate sweep (Section VI-B byzantine-abort detection).
//!
//! Sweeps the whole-batch divergence-abort rate against the record count
//! (contention), the executor spread (regions executors land in), and the
//! number of independently corrupted executors per batch, in the
//! `UnknownRwSets` conflict-handling mode (which spawns `3f_E + 1 = 4`
//! executors per batch).
//!
//! Observed regimes (also asserted by the experiment tests):
//!
//! * **Honest runs** (`BYZ-0`): executors of one batch read interleaved
//!   storage states, which surfaces as *per-transaction* stale aborts at
//!   the verifier, but an `f_E + 1` digest quorum still forms — the
//!   whole-batch divergence rate stays at zero across record counts and
//!   regional spreads.
//! * **`f_E + 1` corrupted** (`BYZ-2` of 4 spawned): two honest
//!   executors still agree, so batches keep committing — the
//!   over-spawning of the unknown-rw-set mode buys real resilience.
//! * **Beyond the spawn margin** (`BYZ-3` of 4): no two digests match
//!   (independent corruptions do not collude), and *every* batch aborts
//!   through the divergence rule — safety holds, liveness is the cost.
//!
//! Companion telemetry: the `verifier.divergent_aborts` counter.
//!
//! CI runs this binary as a smoke test; the binary itself asserts the
//! three regimes on every row of its series and exits non-zero otherwise.

use sbft_bench::{divergence_points, find_row, run_sweep};
use sbft_serverless::cloud::CloudFaultPlan;
use sbft_serverless::ExecutorBehavior;

/// The CSV columns after `figure,series,x`.
const COLUMNS: &[&str] = &[
    "throughput_tps",
    "abort_rate",
    "verifier.divergent_aborts",
    "committed",
];

fn main() {
    let records = [200u64, 1_000, 5_000, 20_000];
    // Honest series: divergence vs record count × regional executor spread.
    let mut points = divergence_points(&records, &[1, 3, 7]);
    // Byzantine series at spread 3: within and beyond the f_E margin.
    for byz in [2usize, 3] {
        let mut byz_points = divergence_points(&records, &[3]);
        for point in &mut byz_points {
            point.series = format!("BYZ-{byz}");
            point.cloud_faults = CloudFaultPlan {
                byzantine_per_batch: byz,
                behavior: ExecutorBehavior::WrongResult,
            };
        }
        points.extend(byz_points);
    }
    let results = run_sweep(points, COLUMNS);
    for series in ["SPREAD-1", "SPREAD-3", "SPREAD-7", "BYZ-2", "BYZ-3"] {
        for x in records {
            let row = find_row(&results, series, x as f64);
            let diverged = row.value("verifier.divergent_aborts") > 0.0;
            let committed = row.value("committed") > 0.0;
            // Within the spawn margin a digest quorum always forms; beyond
            // it every batch aborts through the divergence rule.
            let beyond = series == "BYZ-3";
            row.require(diverged == beyond && committed != beyond, "left its regime");
        }
    }
}
