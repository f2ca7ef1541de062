//! Integration tests for the batch lifecycle tracer: deterministic
//! Chrome-trace export, complete and monotone span sequences per
//! committed batch, stage intervals that telescope on a sharded run, and
//! the apply phase priced as one `ccheck` at every shard count.

use sbft_core::SystemBuilder;
use sbft_sim::{CpuModel, SimHarness, SimParams};
use sbft_telemetry::export::marks;
use sbft_telemetry::{
    chrome_trace, stage_breakdown, MemorySink, SpanEvent, Stage, TraceSink, INTERVALS,
};
use sbft_types::{SimDuration, SimTime, SystemConfig};
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
fn a_sharded_untagged_run_telescopes() {
    // Known read-write sets over 8 shards *without* ordering lanes:
    // nearly every batch spans shards.
    // Its apply is one `ccheck` on the one apply station, and every
    // batch's stage intervals add up to its `shim_ingest → respond`
    // latency: no marker runs backwards. Enough records and clients that
    // several batches are in flight and one VERIFY often releases more
    // than one of them (ordered apply).
    let mut cfg = pbft_config();
    cfg.conflict_handling = sbft_types::ConflictHandling::KnownRwSets;
    cfg.workload.batch_size = 20;
    cfg.workload.num_records = 100_000;
    cfg.workload.num_clients = 200;
    // Multi-key transactions so read-write sets span shards.
    cfg.workload.ops_per_txn = 4;
    cfg.sharding = sbft_types::ShardingConfig::with_shards(8);
    cfg.sharding.ordering_lanes = false;
    let events = traced_run(cfg, 200);
    let mut complete = 0;
    for (trace, stage_times) in &marks(&events) {
        if !Stage::PIPELINE.iter().all(|s| stage_times.contains_key(s)) {
            continue;
        }
        complete += 1;
        let e2e = stage_times[&Stage::Respond].since(stage_times[&Stage::ShimIngest]);
        let sum = INTERVALS
            .iter()
            .try_fold(SimDuration::ZERO, |acc, (_, from, to)| {
                let (from, to) = (stage_times[from], stage_times[to]);
                (to >= from).then(|| acc + to.since(from))
            });
        assert_eq!(
            sum,
            Some(e2e),
            "trace {trace}: intervals do not add up to shim_ingest → respond"
        );
    }
    assert!(complete > 20, "only {complete} complete batches");
}

/// `apply_start → apply_end` of every batch whose apply ran on an idle
/// apply station: no earlier batch's apply was still running when it
/// arrived.
fn idle_apply_durations(events: &[SpanEvent]) -> Vec<SimDuration> {
    let mut applies: Vec<(SimTime, SimTime)> = marks(events)
        .values()
        .filter_map(|stages| {
            Some((
                *stages.get(&Stage::ApplyStart)?,
                *stages.get(&Stage::ApplyEnd)?,
            ))
        })
        .collect();
    applies.sort_unstable();
    let mut busy_until = SimTime::ZERO;
    let mut durations = Vec::new();
    for (start, end) in applies {
        if busy_until <= start {
            durations.push(end.since(start));
        }
        busy_until = busy_until.max(end);
    }
    durations
}

#[test]
fn an_idle_apply_costs_the_bare_ccheck_at_every_shard_count() {
    // One read per transaction and one transaction per batch, so every
    // batch's ccheck covers exactly one access. The verifier runs no
    // apply-time routing at any shard count, so an idle apply station's
    // apply phase is the bare `ccheck_cost`.
    let expected = CpuModel::default().ccheck_cost(1);
    for shards in [1, 2, 8] {
        let mut cfg = pbft_config();
        cfg.workload.batch_size = 1;
        cfg.workload.write_fraction = 0.0;
        cfg.sharding = sbft_types::ShardingConfig::with_shards(shards);
        let durations = idle_apply_durations(&traced_run(cfg, 8));
        assert!(
            durations.len() > 20,
            "{shards} shards: only {} idle batches",
            durations.len()
        );
        for d in &durations {
            assert_eq!(*d, expected, "{shards} shards");
        }
    }
}
