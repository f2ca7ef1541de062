//! Integration tests for the batch lifecycle tracer: deterministic
//! Chrome-trace export, complete and monotone span sequences per
//! committed batch, and the PR 5 chained cross-shard staircase.

use sbft_core::SystemBuilder;
use sbft_sim::{CpuModel, SimHarness, SimParams};
use sbft_telemetry::export::marks;
use sbft_telemetry::{chrome_trace, stage_breakdown, MemorySink, SpanEvent, Stage, TraceSink};
use sbft_types::{SimDuration, SystemConfig};
use std::sync::Arc;

fn traced_run(config: SystemConfig, clients: usize) -> Vec<SpanEvent> {
    let params = SimParams {
        duration: SimDuration::from_millis(250),
        warmup: SimDuration::from_millis(50),
        num_clients: clients,
        seed: 11,
        ..SimParams::default()
    };
    let system = SystemBuilder::new(config).clients(clients).build();
    let sink = Arc::new(MemorySink::new());
    let metrics = SimHarness::new(system, params)
        .with_tracer(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run();
    assert!(metrics.committed_txns > 0, "run must commit");
    sink.events()
}

fn pbft_config() -> SystemConfig {
    let mut cfg = SystemConfig::with_shim_size(4);
    cfg.workload.num_records = 2_000;
    cfg.workload.batch_size = 10;
    cfg.workload.num_clients = 40;
    cfg
}

#[test]
fn identical_runs_export_byte_identical_chrome_traces() {
    let a = chrome_trace(&traced_run(pbft_config(), 40));
    let b = chrome_trace(&traced_run(pbft_config(), 40));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + config must export identical bytes");
}

#[test]
fn committed_batches_carry_a_complete_monotone_span_sequence() {
    let events = traced_run(pbft_config(), 40);
    let marks = marks(&events);
    let mut responded = 0;
    for (trace, stage_times) in &marks {
        if !stage_times.contains_key(&Stage::Respond) {
            // Batches in flight at the end of the run stay partial.
            continue;
        }
        responded += 1;
        for stage in Stage::PIPELINE {
            assert!(
                stage_times.contains_key(&stage),
                "trace {trace} responded without a {stage:?} marker"
            );
        }
        for pair in Stage::PIPELINE.windows(2) {
            assert!(
                stage_times[&pair[0]] <= stage_times[&pair[1]],
                "trace {trace}: {:?} after {:?}",
                pair[0],
                pair[1]
            );
        }
    }
    assert!(responded > 5, "only {responded} traces responded");

    // The breakdown table derives from the same markers: every pipeline
    // stage row must be populated.
    let rows = stage_breakdown(&events);
    for row in &rows {
        assert!(row.count > 0, "stage {} has no samples", row.stage);
    }
}

#[test]
fn cross_shard_batches_trace_the_chained_staircase() {
    // Known read-write sets over 8 shards *without* ordering lanes:
    // nearly every batch spans shards, so its concurrency-control check
    // runs as the PR 5 lock-ordered chain — shard slice i+1 starts only
    // after slice i completes.
    let mut cfg = pbft_config();
    cfg.conflict_handling = sbft_types::ConflictHandling::KnownRwSets;
    cfg.workload.batch_size = 20;
    // Multi-key transactions so read-write sets span shards.
    cfg.workload.ops_per_txn = 4;
    cfg.sharding = sbft_types::ShardingConfig::with_shards(8);
    cfg.sharding.ordering_lanes = false;
    let events = traced_run(cfg, 60);

    // Group the slice markers per trace: starts and ends keyed by shard.
    use std::collections::BTreeMap;
    let mut slices: BTreeMap<u64, Vec<(u64, u32)>> = BTreeMap::new();
    for e in &events {
        if e.stage == Stage::ShardSliceStart {
            slices
                .entry(e.trace)
                .or_default()
                .push((e.at.as_micros(), e.shard.expect("slice has shard")));
        }
    }
    let staircases = slices
        .values()
        .filter(|starts| starts.len() >= 2)
        .inspect(|starts| {
            let mut sorted = (*starts).clone();
            sorted.sort_unstable();
            // Distinct shards, strictly increasing start times: the
            // chained staircase (unchained single-home slices would all
            // start at the batch's arrival instant).
            for pair in sorted.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "chained slices must start strictly later than their predecessor"
                );
            }
        })
        .count();
    assert!(
        staircases > 0,
        "no cross-shard batch traced a multi-slice staircase"
    );
}

/// `apply_start → apply_end` of every batch that ran as one shard slice
/// on an idle apply station: no earlier slice on that shard was still
/// running when the batch arrived.
fn idle_apply_durations(events: &[SpanEvent]) -> Vec<SimDuration> {
    use std::collections::BTreeMap;
    let marks = marks(events);
    let mut slices: BTreeMap<u64, Vec<(u32, u64, u64)>> = BTreeMap::new();
    let mut starts: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for e in events {
        match (e.stage, e.shard) {
            (Stage::ShardSliceStart, Some(shard)) => {
                starts.insert((e.trace, shard), e.at.as_micros());
            }
            (Stage::ShardSliceEnd, Some(shard)) => {
                let start = starts[&(e.trace, shard)];
                slices
                    .entry(e.trace)
                    .or_default()
                    .push((shard, start, e.at.as_micros()));
            }
            _ => {}
        }
    }
    let mut busy_until: BTreeMap<u32, u64> = BTreeMap::new();
    let mut by_start: Vec<(u64, u64)> = slices.iter().map(|(trace, s)| (s[0].1, *trace)).collect();
    by_start.sort_unstable();
    let mut durations = Vec::new();
    for (_, trace) in by_start {
        let batch = &slices[&trace];
        let [(shard, start, end)] = batch[..] else {
            continue;
        };
        let idle = busy_until.get(&shard).is_none_or(|busy| *busy <= start);
        busy_until.insert(shard, end);
        let stages = &marks[&trace];
        if let (true, Some(from), Some(to)) = (
            idle,
            stages.get(&Stage::ApplyStart),
            stages.get(&Stage::ApplyEnd),
        ) {
            durations.push(to.since(*from));
        }
    }
    durations
}

#[test]
fn one_shard_apply_pays_no_routing_probe() {
    // One read per transaction and one transaction per batch, so every
    // batch's ccheck covers exactly one access. At one shard the
    // verifier runs no apply-time routing, so an idle station's apply
    // phase is the bare `ccheck_cost`; at two shards the probe is back.
    let cpu = CpuModel::default();
    let point = |shards: usize| {
        let mut cfg = pbft_config();
        cfg.workload.batch_size = 1;
        cfg.workload.write_fraction = 0.0;
        cfg.sharding = sbft_types::ShardingConfig::with_shards(shards);
        idle_apply_durations(&traced_run(cfg, 8))
    };
    for (shards, expected) in [(1, cpu.ccheck_cost(1)), (2, cpu.ccheck_cost_probed(1, 1))] {
        let durations = point(shards);
        assert!(
            durations.len() > 20,
            "{shards} shards: only {} idle batches",
            durations.len()
        );
        for d in &durations {
            assert_eq!(*d, expected, "{shards} shards");
        }
    }
    assert!(cpu.ccheck_cost_probed(1, 1) > cpu.ccheck_cost(1));
}
