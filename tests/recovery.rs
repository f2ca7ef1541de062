//! Crash-restart recovery equivalence, and how long a primary crash
//! silences the system.
//!
//! A replica that crashes, restarts, replays its durable log from the
//! last snapshot and fetches the suffix it missed from peers must end
//! with exactly the committed log of a replica that never crashed — and
//! therefore exactly the same KV state and client responses, since both
//! are deterministic functions of the committed batch sequence. The
//! proptest sweeps the crash point, the length of the dark window, the
//! snapshot interval and the shard-lane configuration.
//!
//! A crashed primary costs one client timer, one re-transmission timer
//! and the view change: clients follow the view the verifier's answers
//! carry, and the backups hand the new primary the requests its view
//! change was raised for.

mod common;

use common::{commits, durable_config, signed_request, Cluster};
use proptest::prelude::*;
use serverless_bft::core::lockstep::{pbft_nodes, settle, Verdict};
use serverless_bft::core::{Action, ShimNode, SystemBuilder};
use serverless_bft::crypto::CryptoProvider;
use serverless_bft::serverless::CrashRestart;
use serverless_bft::sim::{FaultPlan, LinkFaults, LinkRule, SimHarness, SimParams};
use serverless_bft::telemetry::{Registry, SpanEvent, Stage, TraceSink};
use serverless_bft::types::{
    ConflictHandling, DurabilityConfig, NodeId, RegionSet, SeqNum, ShardingConfig, SimDuration,
    SimTime, SystemConfig,
};
use std::sync::{Arc, Mutex};

fn config(shards: usize, snapshot_interval: u64) -> SystemConfig {
    let mut config = durable_config(snapshot_interval);
    if shards > 1 {
        config.sharding = ShardingConfig::with_shards(shards);
        config.conflict_handling = ConflictHandling::KnownRwSets;
    }
    config
}

/// One crash-restart scenario: `crash_after` batches commit everywhere,
/// the observed backup goes dark for `dark` batches, recovers (WAL
/// replay + state transfer), then `tail` more batches commit.
fn crashed_run(
    shards: usize,
    snapshot_interval: u64,
    crash_after: u64,
    dark: u64,
    tail: u64,
) -> Cluster<()> {
    let mut cluster = Cluster::new(&config(shards, snapshot_interval), ());
    let next = cluster.crash_observed(crash_after, dark);
    cluster.restart_observed();
    cluster.submit_batches(next..next + tail, &[]);
    cluster
}

/// The same workload with no crash anywhere.
fn baseline_run(shards: usize, snapshot_interval: u64, total: u64) -> Cluster<()> {
    let mut cluster = Cluster::new(&config(shards, snapshot_interval), ());
    cluster.submit_batches(0..total, &[]);
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash + snapshot replay + peer state transfer is outcome-invisible:
    /// the recovered replica's commit order, derived KV state and client
    /// responses are byte-identical to the never-crashed run's, across
    /// random crash points, dark windows, snapshot intervals and shard
    /// configurations.
    #[test]
    fn recovered_replica_matches_the_never_crashed_run(
        crash_after in 0u64..4,
        dark in 0u64..3,
        tail in 1u64..3,
        // 1..5 plus "effectively never" (1000) for the snapshot rhythm.
        snapshot_interval in (0u64..6).prop_map(|i| if i == 0 { 1_000 } else { i }),
        shards in (0u8..2).prop_map(|i| if i == 0 { 1usize } else { 4 }),
    ) {
        let total = crash_after + dark + tail;
        let crashed = crashed_run(shards, snapshot_interval, crash_after, dark, tail);
        let baseline = baseline_run(shards, snapshot_interval, total);
        let (c_seqs, c_kv, c_resps) = crashed.outcome();
        let (b_seqs, b_kv, b_resps) = baseline.outcome();
        prop_assert_eq!(c_seqs, b_seqs, "commit order diverged after recovery");
        prop_assert_eq!(c_kv, b_kv, "derived KV state diverged after recovery");
        prop_assert_eq!(c_resps, b_resps, "client responses diverged after recovery");
        // The recovered node holds byte-identical batch content too.
        prop_assert_eq!(crashed.batches, baseline.batches);
    }
}

#[test]
fn recovery_splits_between_wal_replay_and_state_transfer() {
    // Two batches commit everywhere, two more while the backup is dark:
    // restart replays exactly the first two from the local log and
    // state-transfers exactly the two it missed.
    let cluster = crashed_run(1, 1_000, 2, 2, 1);
    assert_eq!(cluster.observed("durability.replay_batches"), 2);
    assert_eq!(cluster.observed("durability.state_transfer_batches"), 2);
    assert_eq!(cluster.observed("batches_committed"), 5);
}

#[test]
fn snapshots_bound_what_recovery_replays() {
    // With a snapshot every batch, the pre-crash log holds only the
    // latest mark: replay re-seats at most one batch and the commit
    // stream still matches the baseline (covered by the proptest; the
    // counter shape is pinned here).
    let cluster = crashed_run(1, 1, 3, 0, 1);
    let replayed = cluster.observed("durability.replay_batches");
    assert!(
        replayed <= 1,
        "snapshot truncation must bound replay, got {replayed}"
    );
    assert!(
        cluster.observed("durability.snapshot_bytes") > 0,
        "truncation reclaims bytes"
    );
}

/// Delivers the consensus traffic `origin`'s `actions` set off until the
/// nodes fall quiet; returns the sequences `origin` committed meanwhile.
fn settle_committed(nodes: &mut [ShimNode], origin: usize, actions: Vec<Action>) -> Vec<SeqNum> {
    let settled = settle(nodes, NodeId(origin as u32), actions, None, |_| {
        Verdict::Deliver
    });
    commits(&settled, origin).collect()
}

#[test]
fn a_proposal_lost_across_a_view_change_is_expired_at_the_same_cutoff() {
    use serverless_bft::core::events::{
        BatchValidated, NoticeMarker, ProtocolMessage, RecoveryNotice, RecoverySubject,
    };
    use serverless_bft::types::{ComponentId, ViewNumber};

    let mut config = SystemConfig::with_shim_size(4);
    config.workload.batch_size = 1;
    config.timers.checkpoint_interval = 4;
    let provider = CryptoProvider::new(21);
    let registry = Arc::new(Registry::new());
    let mut nodes = pbft_nodes(&config, &provider, &registry);
    let verifier = provider.handle(ComponentId::Verifier);

    // `seen_txns` of the first and of the second primary after every
    // validated batch.
    let mut trajectory: Vec<(usize, usize)> = Vec::new();
    let validate =
        |nodes: &mut [ShimNode], trajectory: &mut Vec<(usize, usize)>, seqs: Vec<SeqNum>| {
            for seq in seqs {
                let validated =
                    ProtocolMessage::BatchValidated(BatchValidated::signed(seq, 1, 0, &verifier));
                for node in nodes.iter_mut() {
                    let _ = node.on_message(&validated);
                }
                trajectory.push((nodes[0].seen_txns_len(), nodes[1].seen_txns_len()));
            }
        };

    // Ten batches commit and validate under the first primary.
    for i in 0..10 {
        let actions = nodes[0].on_client_request(&signed_request(&provider, i), SimTime::ZERO);
        let committed = settle_committed(&mut nodes, 0, actions);
        assert_eq!(committed, vec![SeqNum(i + 1)]);
        validate(&mut nodes, &mut trajectory, committed);
    }
    // Three proposals leave the primary and reach nobody.
    for i in 10..13 {
        let actions = nodes[0].on_client_request(&signed_request(&provider, i), SimTime::ZERO);
        assert!(actions.iter().any(|a| a.sends_kind("PREPREPARE")));
    }
    assert_eq!(nodes[0].seen_txns_len(), trajectory[9].0 + 3);
    // The verifier has the primary replaced; nothing was prepared, so the
    // new primary re-proposes none of the three.
    let replace = ProtocolMessage::Notice(RecoveryNotice::signed(
        NoticeMarker::Replace,
        RecoverySubject::Seq(SeqNum(11)),
        &verifier,
    ));
    for origin in 1..4 {
        let actions = nodes[origin].on_message(&replace);
        let _ = settle_committed(&mut nodes, origin, actions);
    }
    assert_eq!(nodes[0].view(), ViewNumber(1));
    assert!(nodes[1].is_primary());
    // Thirty more batches under the second primary carry the checkpoint
    // rhythm past the lost proposals' stamps.
    for i in 13..43 {
        let actions = nodes[1].on_client_request(&signed_request(&provider, i), SimTime::ZERO);
        let committed = settle_committed(&mut nodes, 1, actions);
        assert_eq!(committed.len(), 1, "request {i} commits");
        validate(&mut nodes, &mut trajectory, committed);
    }
    // Recorded at the parent commit, whose expiry built the set of every
    // tracked id: the three orphans leave the first primary's table at
    // the cutoff that passes their stamp, and not before.
    let golden: Vec<(usize, usize)> = [
        // Ten batches under the first primary, truncated every fourth.
        [(1, 0), (2, 0), (3, 0), (4, 0)],
        [(5, 0), (6, 0), (7, 0), (4, 0)],
        // Batches 9 and 10; then the three orphans, and the second
        // primary's first batches (sequence 11 onwards).
        [(5, 0), (6, 0), (9, 1), (5, 2)],
        // Cutoff 12 passes the orphans' stamp (10): all three go, with
        // the validated batches 9 and 10.
        [(5, 3), (5, 4), (5, 5), (0, 4)],
    ]
    .into_iter()
    .flatten()
    .chain(
        [(0, 5), (0, 6), (0, 7), (0, 4)]
            .into_iter()
            .cycle()
            .take(24),
    )
    .collect();
    assert_eq!(trajectory, golden);
}

/// Keeps the instant of every answer a client receives.
#[derive(Default)]
struct Answers(Mutex<Vec<SimTime>>);

impl TraceSink for Answers {
    fn record(&self, event: SpanEvent) {
        if event.stage == Stage::Respond {
            self.0.lock().expect("sink poisoned").push(event.at);
        }
    }
}

#[test]
fn a_primary_crash_costs_one_client_timer_one_retransmit_timer_and_the_view_change() {
    let ms = SimDuration::from_millis;
    // The repo benchmark's `crash_primary` deployment, scaled down: one
    // region, durable nodes, batches of 20, client / node / retransmit
    // timers of 100 / 60 / 30 ms, 100 µs of link jitter, and the primary
    // dark for 400 ms.
    let mut config = SystemConfig::with_shim_size(4);
    config.workload.num_records = 10_000;
    config.workload.batch_size = 20;
    config.regions = RegionSet::home_only();
    config.durability = DurabilityConfig::enabled().with_snapshot_interval(64);
    config.timers.client_timeout = ms(100);
    config.timers.node_timeout = ms(60);
    config.timers.retransmit_timeout = ms(30);
    let timers = config.timers;
    let params = SimParams {
        duration: ms(1_400),
        warmup: ms(100),
        num_clients: 200,
        seed: 42,
        ..SimParams::default()
    };
    let crash_at = ms(500);
    let plan = FaultPlan::new()
        .link(LinkRule::all(
            LinkFaults::default().with_delay(1.0, SimDuration::from_micros(100)),
        ))
        .crash(CrashRestart::of(NodeId(0), crash_at, ms(400)));
    let system = SystemBuilder::new(config).clients(200).seed(42).build();
    let sink = Arc::new(Answers::default());
    let metrics = SimHarness::new(system, params)
        .with_fault_plan(plan)
        .with_tracer(Arc::clone(&sink) as _)
        .run();
    assert_eq!(metrics.counter("recovery.recoveries"), 1);

    // The longest stretch of the window without an answer.
    let start = SimTime::ZERO + params.warmup;
    let end = start + params.duration;
    let mut answers = sink.0.lock().expect("sink poisoned").clone();
    answers.retain(|at| *at >= start && *at < end);
    answers.sort();
    let edges = std::iter::once(start).chain(answers).chain([end]);
    let gaps = edges.clone().zip(edges.skip(1)).map(|(a, b)| b.since(a));
    let outage = gaps.max().expect("the window has two edges");
    let bound = timers.client_timeout + timers.retransmit_timeout + ms(40);
    assert!(
        outage <= bound,
        "nothing answered for {outage:?} (bound {bound:?})"
    );

    // One view change replaced the primary: every live node installed
    // exactly one view, and the clients followed it, so no node had a
    // client request to forward.
    for node in 1..4 {
        assert_eq!(
            metrics.counter(&format!("shim.{node}.view_changes")),
            1,
            "views node {node} installed"
        );
    }
    assert!(metrics.sum("errors_reforwarded") > 0);
    assert_eq!(metrics.sum("requests_forwarded"), 0);
}
