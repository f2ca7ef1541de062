//! Crash-restart recovery equivalence.
//!
//! A replica that crashes, restarts, replays its durable log from the
//! last snapshot and fetches the suffix it missed from peers must end
//! with exactly the committed log of a replica that never crashed — and
//! therefore exactly the same KV state and client responses, since both
//! are deterministic functions of the committed batch sequence. The
//! proptest sweeps the crash point, the length of the dark window, the
//! snapshot interval and the shard-lane configuration.

mod common;

use common::{fan_out, fold_outcome, pbft_nodes, record_batches, signed_request, Wire};
use proptest::prelude::*;
use serverless_bft::consensus::ConsensusMessage;
use serverless_bft::core::{Action, ShimNode};
use serverless_bft::crypto::CryptoProvider;
use serverless_bft::telemetry::Registry;
use serverless_bft::types::{
    Batch, ConflictHandling, DurabilityConfig, NodeId, SeqNum, ShardingConfig, SimDuration,
    SimTime, SystemConfig, TxnId,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The backup replica whose crash-restart the suite watches.
const OBSERVED: usize = 3;

/// Four PBFT-backed shim nodes driven synchronously, with the batches
/// and commits observed at node [`OBSERVED`] recorded off the wire.
struct Cluster {
    nodes: Vec<ShimNode>,
    provider: Arc<CryptoProvider>,
    /// The nodes' counters, under `shim.<node>.*`.
    registry: Arc<Registry>,
    /// Batch content per sequence as delivered to the observed node
    /// (`PREPREPARE` live, `STATERESPONSE` entries after recovery).
    batches: BTreeMap<SeqNum, Batch>,
    /// Commit order observed at the watched node.
    committed: Vec<SeqNum>,
    /// Virtual submission clock (advances per batch so the batcher's
    /// lane timeouts stay meaningful).
    clock: SimTime,
}

fn config(shards: usize, snapshot_interval: u64) -> SystemConfig {
    let mut config = SystemConfig::with_shim_size(4);
    config.workload.batch_size = 2;
    config.durability = DurabilityConfig::enabled().with_snapshot_interval(snapshot_interval);
    if shards > 1 {
        config.sharding = ShardingConfig::with_shards(shards);
        config.conflict_handling = ConflictHandling::KnownRwSets;
    }
    config
}

impl Cluster {
    fn new(shards: usize, snapshot_interval: u64) -> Self {
        let config = config(shards, snapshot_interval);
        let provider = CryptoProvider::new(21);
        let registry = Arc::new(Registry::new());
        let nodes = pbft_nodes(&config, &provider, &registry);
        Cluster {
            nodes,
            provider,
            registry,
            batches: BTreeMap::new(),
            committed: Vec::new(),
            clock: SimTime::ZERO,
        }
    }

    /// The observed node's `shim.<OBSERVED>.<name>` counter.
    fn observed(&self, name: &str) -> u64 {
        self.registry
            .counter_value(&format!("shim.{OBSERVED}.{name}"))
    }

    /// Routes consensus messages to quiescence, skipping nodes in
    /// `down`, recording the observed node's deliveries and commits.
    fn drive(&mut self, origin: usize, actions: Vec<Action>, down: &[usize]) {
        let n = self.nodes.len();
        let mut queue = Wire::new();
        self.absorb(origin, actions, &mut queue, n);
        while let Some((from, to, msg)) = queue.pop_front() {
            if down.contains(&to) {
                continue;
            }
            if to == OBSERVED {
                self.record(&msg);
            }
            let acts = self.nodes[to].on_consensus_message(NodeId(from as u32), msg);
            self.absorb(to, acts, &mut queue, n);
        }
    }

    /// Enqueues the consensus sends out of `actions` and records the
    /// observed node's commit stream.
    fn absorb(&mut self, origin: usize, actions: Vec<Action>, queue: &mut Wire, n: usize) {
        let committed = fan_out(origin, actions, n, queue);
        if origin == OBSERVED {
            self.committed.extend(committed);
        }
    }

    /// Captures batch content delivered to the observed node, keyed by
    /// sequence: live proposals and state-transferred entries alike.
    fn record(&mut self, msg: &ConsensusMessage) {
        record_batches(&mut self.batches, msg);
    }

    /// Submits one two-transaction batch to the primary and drives it to
    /// quiescence; a trailing poll drains lanes the pair straddled.
    fn submit_batch(&mut self, batch: u64, down: &[usize]) {
        self.clock += SimDuration::from_millis(100);
        let now = self.clock;
        let r0 = signed_request(&self.provider, batch * 2);
        let a0 = self.nodes[0].on_client_request(&r0, now);
        self.drive(0, a0, down);
        let r1 = signed_request(&self.provider, batch * 2 + 1);
        let a1 = self.nodes[0].on_client_request(&r1, now);
        self.drive(0, a1, down);
        let polled = self.nodes[0].poll_batcher(now + SimDuration::from_millis(10));
        self.drive(0, polled, down);
    }

    /// The run's observable outcome at the watched node: its commit
    /// order, the KV state derived by folding the committed operations
    /// in that order, and the client responses in response order.
    fn outcome(&self) -> (Vec<SeqNum>, BTreeMap<u64, u64>, Vec<TxnId>) {
        fold_outcome(&self.committed, |seq| {
            self.batches
                .get(&seq)
                .expect("observed node committed a batch it was never shown")
        })
    }
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
) -> Cluster {
    let mut cluster = Cluster::new(shards, snapshot_interval);
    let mut batch = 0;
    for _ in 0..crash_after {
        cluster.submit_batch(batch, &[]);
        batch += 1;
    }
    cluster.nodes[OBSERVED].crash();
    for _ in 0..dark {
        cluster.submit_batch(batch, &[OBSERVED]);
        batch += 1;
    }
    let restart = cluster.nodes[OBSERVED].crash_restart();
    cluster.drive(OBSERVED, restart, &[]);
    for _ in 0..tail {
        cluster.submit_batch(batch, &[]);
        batch += 1;
    }
    cluster
}

/// The same workload with no crash anywhere.
fn baseline_run(shards: usize, snapshot_interval: u64, total: u64) -> Cluster {
    let mut cluster = Cluster::new(shards, snapshot_interval);
    for batch in 0..total {
        cluster.submit_batch(batch, &[]);
    }
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
fn settle(nodes: &mut [ShimNode], origin: usize, actions: Vec<Action>) -> Vec<SeqNum> {
    let n = nodes.len();
    let mut wire = Wire::new();
    let mut committed = fan_out(origin, actions, n, &mut wire);
    while let Some((from, to, msg)) = wire.pop_front() {
        let actions = nodes[to].on_consensus_message(NodeId(from as u32), msg);
        let seqs = fan_out(to, actions, n, &mut wire);
        if to == origin {
            committed.extend(seqs);
        }
    }
    committed
}

#[test]
fn a_proposal_lost_across_a_view_change_is_expired_at_the_same_cutoff() {
    use serverless_bft::core::events::{
        BatchValidated, ProtocolMessage, RecoverySubject, ReplaceMessage,
    };
    use serverless_bft::types::{ComponentId, ViewNumber};

    let mut config = SystemConfig::with_shim_size(4);
    config.workload.batch_size = 1;
    config.timers.checkpoint_interval = 4;
    let provider = CryptoProvider::new(21);
    let registry = Arc::new(Registry::new());
    let mut nodes = pbft_nodes(&config, &provider, &registry);

    // `seen_txns` of the first and of the second primary after every
    // validated batch.
    let mut trajectory: Vec<(usize, usize)> = Vec::new();
    let validate =
        |nodes: &mut [ShimNode], trajectory: &mut Vec<(usize, usize)>, seqs: Vec<SeqNum>| {
            for seq in seqs {
                let validated = ProtocolMessage::BatchValidated(BatchValidated {
                    seq,
                    committed: 1,
                    aborted: 0,
                });
                for node in nodes.iter_mut() {
                    let _ = node.on_message(&validated);
                }
                trajectory.push((nodes[0].seen_txns_len(), nodes[1].seen_txns_len()));
            }
        };

    // Ten batches commit and validate under the first primary.
    for i in 0..10 {
        let actions = nodes[0].on_client_request(&signed_request(&provider, i), SimTime::ZERO);
        let committed = settle(&mut nodes, 0, actions);
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
    let replace = ProtocolMessage::Replace(ReplaceMessage::signed(
        RecoverySubject::Seq(SeqNum(11)),
        &provider.handle(ComponentId::Verifier),
    ));
    for origin in 1..4 {
        let actions = nodes[origin].on_message(&replace);
        let _ = settle(&mut nodes, origin, actions);
    }
    assert_eq!(nodes[0].view(), ViewNumber(1));
    assert!(nodes[1].is_primary());
    // Thirty more batches under the second primary carry the checkpoint
    // rhythm past the lost proposals' stamps.
    for i in 13..43 {
        let actions = nodes[1].on_client_request(&signed_request(&provider, i), SimTime::ZERO);
        let committed = settle(&mut nodes, 1, actions);
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
