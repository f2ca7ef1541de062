//! Per-stage latency breakdown of the batch commit pipeline.
//!
//! Runs one PBFT sweep point (8 shards, known read-write sets, pipelined
//! apply) with the batch lifecycle tracer attached, then prints the
//! stage-latency table (`batch_wait`, `ordering`, `spawn`, `execute`,
//! `verify`, `apply`, `respond` and the end-to-end total). Because
//! consecutive stages share their boundary markers, the per-trace stage
//! durations telescope exactly to the end-to-end latency; the binary
//! checks that invariant over every complete trace and fails loudly if
//! instrumentation ever drops a marker.
//!
//! Pass a file path as the first argument to also write the run's
//! Chrome-trace JSONL (load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>; see `OBSERVABILITY.md`).
//!
//! CI runs this binary as a smoke test; the binary itself asserts every
//! stage row has a non-zero count and exits non-zero otherwise.

use sbft_bench::{run_point_traced, PointConfig};
use sbft_telemetry::export::marks;
use sbft_telemetry::{chrome_trace, render_stage_table, stage_breakdown, MemorySink, Stage};
use sbft_types::{SimDuration, SystemConfig};
use std::sync::Arc;

fn main() {
    let mut config = SystemConfig::with_shim_size(4);
    config.conflict_handling = sbft_types::ConflictHandling::KnownRwSets;
    config.workload.num_records = 10_000;
    config.workload.batch_size = 50;
    config.sharding = sbft_types::ShardingConfig::with_shards(8);
    let mut point = PointConfig::new("trace", "PBFT-8SHARDS", 8.0, config);
    point.clients = 300;
    point.duration = SimDuration::from_millis(400);
    point.warmup = SimDuration::from_millis(100);

    let sink = Arc::new(MemorySink::new());
    let result = run_point_traced(point, Arc::clone(&sink) as _);
    let events = sink.events();

    println!("# sha256 kernel: {}", sbft_crypto::sha256::kernel_name());
    let rows = stage_breakdown(&events);
    print!("{}", render_stage_table(&rows));

    // Telescoping check: for every trace carrying all pipeline markers,
    // the stage durations must sum exactly to the end-to-end latency.
    let mut complete = 0u64;
    let mut mismatched = 0u64;
    for stage_times in marks(&events).values() {
        let (Some(&ingest), Some(&respond)) = (
            stage_times.get(&Stage::ShimIngest),
            stage_times.get(&Stage::Respond),
        ) else {
            continue;
        };
        if !Stage::PIPELINE.iter().all(|s| stage_times.contains_key(s)) {
            continue;
        }
        complete += 1;
        let stage_sum: u64 = sbft_telemetry::INTERVALS
            .iter()
            .map(|(_, from, to)| stage_times[to].as_micros() - stage_times[from].as_micros())
            .sum();
        if stage_sum != respond.as_micros() - ingest.as_micros() {
            mismatched += 1;
        }
    }
    println!(
        "stage_sum_check: {} ({complete} complete traces, {mismatched} mismatched, {} committed txns)",
        if complete > 0 && mismatched == 0 {
            "OK"
        } else {
            "FAIL"
        },
        result.metrics.committed_txns,
    );

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, chrome_trace(&events)).expect("write chrome trace");
        println!("chrome_trace: {path}");
    }

    for row in &rows {
        assert!(row.count > 0, "stage {} is empty", row.stage);
    }
    assert!(complete > 0, "no complete traces recorded");
    assert_eq!(mismatched, 0, "stage sums must telescope to e2e latency");
}
