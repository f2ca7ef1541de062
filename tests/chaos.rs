//! Adversarial recovery under composed fault plans.
//!
//! The recovery suite (`tests/recovery.rs`) proves a crash-restarted
//! replica converges when the network cooperates. This suite removes that
//! courtesy: state-transfer traffic is dropped, duplicated, reordered and
//! partitioned; a byzantine peer answers `STATEREQUEST`s with garbage; a
//! replica falls below everyone's checkpoint retention floor; and the
//! discrete-event simulator composes loss, duplication, delay, directed
//! partitions, disk-lag stragglers and simultaneous crash-restarts in one
//! `FaultPlan`. In every case the recovered replica's observable outcome —
//! commit order, derived KV state, client responses — must match a
//! fault-free run (or its above-floor suffix, for checkpoint catch-up).

mod common;

use common::{durable_config, fold_outcome, Cluster, Network, OBSERVED};
use proptest::prelude::*;
use serverless_bft::consensus::{ConsensusMessage, ConsensusTimer};
use serverless_bft::core::lockstep::{Hop, Verdict};
use serverless_bft::core::ProtocolTimer;
use serverless_bft::types::{
    Batch, ClientId, DurabilityConfig, Key, NodeId, Operation, SeqNum, SimDuration, SystemConfig,
    Transaction, TxnId, Value,
};
use std::collections::BTreeMap;

/// Drops the test may inject into state-transfer traffic before the retry
/// budget (8 retransmissions) can no longer absorb them together with the
/// partition window.
const DROP_CAP: u64 = 4;

/// SplitMix64: a tiny deterministic generator for the chaos decisions, so
/// the proptest cases replay exactly from their seed.
#[derive(Default)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `permille`/1000.
    fn chance(&mut self, permille: u64) -> bool {
        self.next() % 1_000 < permille
    }
}

/// The hostility applied to state-transfer traffic (`STATEREQUEST` /
/// `STATERESPONSE`) touching the observed node. Normal-case consensus
/// traffic is untouched: the synchronous cluster below has no timers, so
/// chaos there would test the harness rather than the recovery path. The
/// default is no hostility at all.
#[derive(Default)]
struct Chaos {
    rng: SplitMix64,
    loss_permille: u64,
    dup_permille: u64,
    reorder_permille: u64,
    /// Random drops remaining (capped so recovery stays within the
    /// retransmit budget).
    drops_left: u64,
    /// Reorders remaining (capped to rule out livelock).
    reorders_left: u64,
    /// While positive, ALL state-transfer traffic touching the observed
    /// node is dropped; each retry round heals it by one. Models a
    /// directed partition around the recovering replica.
    partition_rounds: u64,
    /// Peers whose state-transfer messages never arrive at all.
    silenced: Vec<usize>,
    /// A byzantine peer whose `STATERESPONSE`s are corrupted in flight
    /// (standing in for a locally lying replica).
    liar: Option<usize>,
    /// Honest `STATERESPONSE`s to swallow before letting one through.
    drop_first_responses: u64,
}

fn is_state_transfer(msg: &ConsensusMessage) -> bool {
    matches!(
        msg,
        ConsensusMessage::StateRequest(_) | ConsensusMessage::StateResponse(_)
    )
}

/// Replaces every entry's batch with unrelated content: the certificate's
/// batch digest no longer matches, so an honest replica must reject the
/// entry as garbage rather than adopt it.
fn corrupt(msg: &mut ConsensusMessage) {
    if let ConsensusMessage::StateResponse(sr) = msg {
        for e in &mut sr.entries {
            e.batch = Batch::single(Transaction::new(
                TxnId::new(ClientId(9_999), 0),
                vec![Operation::Write(Key(0), Value::new(0xdead))],
            ));
        }
    }
}

fn config(snapshot_interval: u64, checkpoint_interval: u64) -> SystemConfig {
    let mut config = durable_config(snapshot_interval);
    config.timers.checkpoint_interval = checkpoint_interval;
    config
}

/// The chaos filter: state-transfer traffic that touches the observed node
/// meets the hostility of [`Chaos`]; everything else is delivered.
impl Network for Chaos {
    fn verdict(&mut self, hop: &mut Hop<'_>) -> Verdict {
        let (from, to) = (hop.from.0 as usize, hop.to.0 as usize);
        let msg = &mut *hop.msg;
        if !is_state_transfer(msg) || (from != OBSERVED && to != OBSERVED) {
            return Verdict::Deliver;
        }
        if self.silenced.contains(&from) || self.partition_rounds > 0 {
            return Verdict::Drop;
        }
        if to == OBSERVED && matches!(msg, ConsensusMessage::StateResponse(_)) {
            if Some(from) == self.liar {
                corrupt(msg);
            } else if self.drop_first_responses > 0 {
                self.drop_first_responses -= 1;
                return Verdict::Drop;
            }
        }
        if self.reorders_left > 0 && hop.queued > 0 && self.rng.chance(self.reorder_permille) {
            self.reorders_left -= 1;
            return Verdict::Requeue;
        }
        if self.drops_left > 0 && self.rng.chance(self.loss_permille) {
            self.drops_left -= 1;
            return Verdict::Drop;
        }
        if self.rng.chance(self.dup_permille) {
            return Verdict::Duplicate;
        }
        Verdict::Deliver
    }
}

impl Cluster<Chaos> {
    /// Fires the observed node's `STATEREQUEST` retransmission timer until
    /// its state transfer completes (or the replica's retry budget is
    /// spent). Each round heals the partition by one notch, exactly as
    /// wall-clock time would in the event-driven runtimes.
    fn pump_retries(&mut self) {
        for _ in 0..12 {
            if self.net.partition_rounds > 0 {
                self.net.partition_rounds -= 1;
            }
            if !self.nodes[OBSERVED].is_recovering() {
                break;
            }
            self.clock += SimDuration::from_millis(200);
            let now = self.clock;
            let acts = self.nodes[OBSERVED]
                .on_timer(ProtocolTimer::Consensus(ConsensusTimer::StateTransfer), now);
            self.drive(OBSERVED, acts, &[]);
        }
    }
}

/// A crash-restart run whose recovery happens under `chaos`: the observed
/// backup crashes after `crash_after` batches, misses `dark` batches, then
/// restarts into the hostile network and must still converge before `tail`
/// more batches commit.
fn chaotic_run(
    snapshot_interval: u64,
    crash_after: u64,
    dark: u64,
    tail: u64,
    chaos: Chaos,
) -> Cluster<Chaos> {
    let mut cluster = Cluster::new(&config(snapshot_interval, 100), Chaos::default());
    let next = cluster.crash_observed(crash_after, dark);
    cluster.net = chaos;
    cluster.restart_observed();
    cluster.pump_retries();
    cluster.submit_batches(next..next + tail, &[]);
    cluster
}

/// The same workload with no crash and no chaos.
fn baseline_run(snapshot_interval: u64, total: u64) -> Cluster<Chaos> {
    let mut cluster = Cluster::new(&config(snapshot_interval, 100), Chaos::default());
    cluster.submit_batches(0..total, &[]);
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery equivalence survives a hostile network: with up to 20%
    /// loss, duplication, reordering and a partition window around the
    /// recovering replica's state-transfer traffic, the retransmission
    /// schedule still converges and the recovered replica's commit order,
    /// KV state and client responses stay byte-identical to the
    /// fault-free run's.
    #[test]
    fn recovery_under_lossy_network_matches_fault_free_run(
        crash_after in 0u64..3,
        dark in 1u64..3,
        tail in 1u64..3,
        loss_permille in 0u64..201,
        dup_permille in 0u64..151,
        reorder_permille in 0u64..151,
        partition_rounds in 0u64..3,
        snapshot_interval in (0u64..4).prop_map(|i| if i == 0 { 1_000 } else { i }),
        seed in any::<u64>(),
    ) {
        let chaos = Chaos {
            rng: SplitMix64(seed),
            loss_permille,
            dup_permille,
            reorder_permille,
            drops_left: DROP_CAP,
            reorders_left: 4,
            partition_rounds,
            ..Chaos::default()
        };
        let total = crash_after + dark + tail;
        let chaotic = chaotic_run(snapshot_interval, crash_after, dark, tail, chaos);
        let baseline = baseline_run(snapshot_interval, total);
        prop_assert!(
            !chaotic.nodes[OBSERVED].is_recovering(),
            "state transfer must complete within the retry budget"
        );
        let (c_seqs, c_kv, c_resps) = chaotic.outcome();
        let (b_seqs, b_kv, b_resps) = baseline.outcome();
        prop_assert_eq!(c_seqs, b_seqs, "commit order diverged under chaos");
        prop_assert_eq!(c_kv, b_kv, "derived KV state diverged under chaos");
        prop_assert_eq!(c_resps, b_resps, "client responses diverged under chaos");
        prop_assert_eq!(chaotic.batches, baseline.batches);
    }
}

#[test]
fn recovery_completes_despite_a_lying_peer_and_a_silenced_one() {
    // The recovering replica's quorum is one honest node short: node 1
    // never answers, node 2 answers with corrupted batches, and node 0's
    // first response is swallowed. The replica must reject the garbage,
    // rotate its retransmissions and finish from node 0's retry.
    let chaos = Chaos {
        silenced: vec![1],
        liar: Some(2),
        drop_first_responses: 1,
        ..Chaos::default()
    };
    let chaotic = chaotic_run(1_000, 2, 2, 1, chaos);
    let baseline = baseline_run(1_000, 5);
    assert!(
        !chaotic.nodes[OBSERVED].is_recovering(),
        "recovery must complete"
    );
    assert!(
        chaotic.observed("faults.bad_state_responses") >= 2,
        "every corrupted entry is rejected and counted, got {}",
        chaotic.observed("faults.bad_state_responses")
    );
    assert!(
        chaotic.observed("faults.state_request_retries") >= 1,
        "the swallowed response forces at least one retransmission"
    );
    assert_eq!(chaotic.outcome(), baseline.outcome());
}

#[test]
fn replica_below_the_retention_floor_recovers_via_checkpoint_catch_up() {
    // Featherweight checkpoints every 2 sequences and 4 batches missed:
    // by restart time every peer has truncated its log below the floor
    // the observed replica asks for, so plain suffix transfer is
    // impossible. The replica must adopt a peer's checkpoint floor and
    // resume from there.
    let mut cluster = Cluster::new(&config(1_000, 2), Chaos::default());
    cluster.crash_observed(1, 4);
    cluster.restart_observed();
    cluster.pump_retries();
    cluster.submit_batches([5], &[]);

    assert!(
        !cluster.nodes[OBSERVED].is_recovering(),
        "catch-up must complete recovery"
    );
    assert_eq!(
        cluster.observed("faults.catch_ups"),
        1,
        "exactly one checkpoint catch-up"
    );
    // Sequences 2..=4 are permanently skipped (covered by the adopted
    // checkpoint); everything above the floor matches the baseline.
    assert_eq!(
        cluster.committed,
        vec![SeqNum(1), SeqNum(5), SeqNum(6)],
        "commit stream = pre-crash prefix + above-floor suffix"
    );
    let baseline = baseline_run(1_000, 6);
    for seq in [SeqNum(5), SeqNum(6)] {
        assert_eq!(
            cluster.batches.get(&seq),
            baseline.batches.get(&seq),
            "above-floor batch content must match the fault-free run"
        );
    }
}

// ---- digest proposals: bandwidth-frugal mode equivalence -------------------

/// Hostility applied to the digest-reconstruction fetch path
/// (`BATCHFETCH` / `BATCHFILL`) plus control over how much of the client
/// broadcast actually reaches each replica's body cache. The default is
/// every cache cold and nothing else hostile.
#[derive(Default)]
struct DigestChaos {
    rng: SplitMix64,
    /// Probability (permille) that a replica hears a given client
    /// broadcast — 1000 keeps every cache warm, 0 forces all-fetch.
    feed_permille: u64,
    /// Replicas that always hear the broadcast regardless of
    /// `feed_permille` (a poisoner must be warm to have fills to poison:
    /// fills are served from the log, and a still-cold replica holds
    /// nothing).
    warm: Vec<usize>,
    /// Probability (permille) that a fetch/fill message is lost.
    loss_permille: u64,
    /// Random fetch-path drops remaining (capped inside the retry budget).
    drops_left: u64,
    /// Honest `BATCHFILL`s to swallow before letting one through.
    drop_first_fills: u64,
    /// A byzantine peer whose `BATCHFILL` bodies are corrupted in flight:
    /// the ids match the proposal but the operations are garbage, so the
    /// digest check must quarantine and refetch elsewhere.
    poisoner: Option<usize>,
}

fn is_fetch_path(msg: &ConsensusMessage) -> bool {
    matches!(
        msg,
        ConsensusMessage::BatchFetch(_) | ConsensusMessage::BatchFill(_)
    )
}

/// Keeps every transaction id but replaces the bodies' operations — the
/// reconstruction digest can no longer match, so an honest replica must
/// reject the fill, blame the sender and fetch elsewhere.
fn poison_fill(msg: &mut ConsensusMessage) {
    if let ConsensusMessage::BatchFill(bf) = msg {
        bf.bodies = bf
            .bodies
            .iter()
            .map(|t| Transaction::new(t.id, vec![Operation::Write(Key(63), Value::new(0xbad))]))
            .collect();
    }
}

/// The fetch-path filter, and the client broadcast as the feed decides it
/// (a missed broadcast is a forced cache miss).
impl Network for DigestChaos {
    fn verdict(&mut self, hop: &mut Hop<'_>) -> Verdict {
        if !is_fetch_path(hop.msg) {
            return Verdict::Deliver;
        }
        if matches!(hop.msg, ConsensusMessage::BatchFill(_)) {
            if Some(hop.from.0 as usize) == self.poisoner {
                poison_fill(hop.msg);
            } else if self.drop_first_fills > 0 {
                self.drop_first_fills -= 1;
                return Verdict::Drop;
            }
        }
        if self.drops_left > 0 && self.rng.chance(self.loss_permille) {
            self.drops_left -= 1;
            return Verdict::Drop;
        }
        Verdict::Deliver
    }

    fn hears(&mut self, replica: usize) -> bool {
        self.warm.contains(&replica) || self.rng.chance(self.feed_permille)
    }
}

/// Four digest-mode PBFT shim nodes whose network is `chaos`.
fn digest_cluster(chaos: DigestChaos) -> Cluster<DigestChaos> {
    let mut config = config(1_000, 100);
    config.digest_proposals = true;
    Cluster::new(&config, chaos)
}

impl Cluster<DigestChaos> {
    /// Fires the `Request` retransmission timer for every reconstruction
    /// still missing bodies, until the cluster is quiescent (or the
    /// protocol's own retry budget escalates). Each round models one
    /// timer period passing on every stuck replica.
    fn pump_fetch_retries(&mut self) {
        for _ in 0..16 {
            let stuck: Vec<(usize, Vec<SeqNum>)> = self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| (i, n.pending_reconstructions()))
                .filter(|(_, pending)| !pending.is_empty())
                .collect();
            if stuck.is_empty() {
                break;
            }
            self.clock += SimDuration::from_millis(200);
            let now = self.clock;
            for (i, pending) in stuck {
                for seq in pending {
                    let acts = self.nodes[i]
                        .on_timer(ProtocolTimer::Consensus(ConsensusTimer::Request(seq)), now);
                    self.drive(i, acts, &[]);
                }
            }
        }
    }

    /// Commit order, derived KV state and response ids at the observed
    /// node, folded from the batches it actually committed (entries stay
    /// tracked because no verifier runs in this cluster; a digest
    /// proposal carries no body to record off the wire).
    fn digest_outcome(&self) -> (Vec<SeqNum>, BTreeMap<u64, u64>, Vec<TxnId>) {
        fold_outcome(&self.committed, |seq| {
            self.nodes[OBSERVED]
                .committed_batch(seq)
                .expect("observed node committed a batch it no longer tracks")
        })
    }

    fn digest_counter(&self, node: usize, name: &str) -> u64 {
        self.registry
            .counter_value(&format!("shim.{node}.digest.{name}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The equivalence obligation of the bandwidth-frugal mode: under any
    /// mix of cold caches (replicas missing the client broadcast, down to
    /// all-cold), loss on the fetch path and a fill poisoner, a digest-
    /// mode run's committed order, derived KV state and client responses
    /// are byte-identical to the full-body run on the same workload.
    #[test]
    fn digest_mode_equals_full_body_mode(
        batches in 1u64..4,
        // The first arm pins the all-cold case (every body fetched); the
        // second sweeps the whole feed range.
        feed_permille in prop_oneof![0u64..1, 0u64..1_001],
        loss_permille in 0u64..301,
        poison in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let chaos = DigestChaos {
            rng: SplitMix64(seed),
            feed_permille,
            // A poisoner only bites once it holds the batch; warming it
            // guarantees its garbage fills actually exist to reject.
            warm: if poison { vec![1] } else { Vec::new() },
            loss_permille,
            drops_left: 3,
            poisoner: poison.then_some(1),
            ..DigestChaos::default()
        };
        let mut digest_run = digest_cluster(chaos);
        for batch in 0..batches {
            digest_run.submit_batches([batch], &[]);
            digest_run.pump_fetch_retries();
        }
        for (i, node) in digest_run.nodes.iter().enumerate() {
            prop_assert!(
                node.pending_reconstructions().is_empty(),
                "node {} still reconstructing after the retry pump",
                i
            );
        }
        let baseline = baseline_run(1_000, batches);
        let (d_seqs, d_kv, d_resps) = digest_run.digest_outcome();
        let (b_seqs, b_kv, b_resps) = baseline.outcome();
        prop_assert_eq!(d_seqs, b_seqs, "commit order diverged across modes");
        prop_assert_eq!(d_kv, b_kv, "derived KV state diverged across modes");
        prop_assert_eq!(d_resps, b_resps, "client responses diverged across modes");
    }
}

#[test]
fn poisoned_fill_is_refetched_elsewhere_and_matches_full_mode() {
    // Nodes 2 and 3 are cold; node 1 is warm AND poisons every fill it
    // serves. The primary's two initial honest fills are swallowed, so
    // both cold replicas retry into node 1 — the next target in the fetch
    // rotation — and receive garbage bodies under the right ids. They
    // must quarantine the garbage, blame node 1, refetch every body from
    // the next peer, and complete from an honest one, committing exactly
    // what the full-body run commits.
    let chaos = DigestChaos {
        warm: vec![1],
        drop_first_fills: 2,
        poisoner: Some(1),
        ..DigestChaos::default()
    };
    let mut digest_run = digest_cluster(chaos);
    for batch in 0..3 {
        digest_run.submit_batches([batch], &[]);
        digest_run.pump_fetch_retries();
    }
    assert!(
        digest_run.digest_counter(OBSERVED, "fallbacks") >= 1,
        "the poisoned fill must be detected and counted, got {}",
        digest_run.digest_counter(OBSERVED, "fallbacks")
    );
    assert!(
        digest_run.digest_counter(OBSERVED, "cache_misses") > 0,
        "cold replicas miss on every body"
    );
    let baseline = baseline_run(1_000, 3);
    assert_eq!(digest_run.digest_outcome(), baseline.outcome());
}

#[test]
fn all_cold_digest_run_fetches_everything_and_matches_full_mode() {
    // Zero feed: every body of every batch must travel the fetch path,
    // and the outcome still matches the full-body run exactly.
    let mut digest_run = digest_cluster(DigestChaos::default());
    for batch in 0..4 {
        digest_run.submit_batches([batch], &[]);
        digest_run.pump_fetch_retries();
    }
    for node in 1..4 {
        assert_eq!(digest_run.digest_counter(node, "cache_hits"), 0);
        assert_eq!(digest_run.digest_counter(node, "cache_misses"), 8);
        assert!(digest_run.digest_counter(node, "fetches_sent") >= 4);
    }
    assert!(
        digest_run.digest_counter(0, "fills_served") >= 12,
        "the primary answers every cold replica's fetch"
    );
    assert_eq!(
        digest_run.digest_outcome(),
        baseline_run(1_000, 4).outcome()
    );
}

#[test]
fn composed_fault_plan_is_survivable_and_deterministic() {
    use serverless_bft::core::SystemBuilder;
    use serverless_bft::serverless::CrashRestart;
    use serverless_bft::sim::{DiskLag, FaultPlan, LinkFaults, SimHarness, SimParams};

    let plan = || {
        FaultPlan::new()
            .lossy_node(
                NodeId(3),
                LinkFaults::lossy(0.15)
                    .with_duplicate(0.1)
                    .with_delay(0.2, SimDuration::from_micros(500)),
            )
            .isolate(
                NodeId(3),
                SimDuration::from_millis(100),
                SimDuration::from_millis(140),
            )
            .disk_lag(DiskLag {
                node: NodeId(1),
                extra: SimDuration::from_micros(200),
                jitter: SimDuration::from_micros(100),
            })
            .crash(CrashRestart::of(
                NodeId(2),
                SimDuration::from_millis(150),
                SimDuration::from_millis(80),
            ))
            .crash(CrashRestart::of(
                NodeId(3),
                SimDuration::from_millis(170),
                SimDuration::from_millis(80),
            ))
    };
    let run = || {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 2_000;
        cfg.workload.batch_size = 10;
        cfg.workload.num_clients = 40;
        cfg.durability = DurabilityConfig::enabled();
        let system = SystemBuilder::new(cfg).clients(40).build();
        let params = SimParams {
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 7,
            ..SimParams::default()
        };
        SimHarness::new(system, params)
            .with_fault_plan(plan())
            .run()
    };
    let a = run();
    // Liveness and safety under the composed plan: the shim keeps
    // committing, never diverges, and both crashed replicas recover.
    assert!(a.committed_txns > 0, "committed {}", a.committed_txns);
    assert_eq!(a.counter("verifier.divergent_aborts"), 0);
    assert_eq!(
        a.counter("recovery.recoveries"),
        2,
        "both overlapping crashes must recover"
    );
    // Every fault family actually fired: loss, duplication, extra
    // delay, the isolate window, the disk-lag straggler.
    for family in [
        "messages_dropped",
        "messages_duplicated",
        "messages_delayed",
        "partition_drops",
        "fsync_lags",
    ] {
        assert!(
            a.counter(&format!("faults.{family}")) > 0,
            "{family} must fire"
        );
    }
    // The whole composition is deterministic from the run seed.
    let b = run();
    assert_eq!(
        (a.committed_txns, a.registry().render()),
        (b.committed_txns, b.registry().render()),
        "two runs with the same seed and fault plan must agree exactly"
    );
}

#[test]
fn digest_mode_survives_faults_on_the_fetch_path() {
    use serverless_bft::core::SystemBuilder;
    use serverless_bft::serverless::CrashRestart;
    use serverless_bft::sim::{FaultPlan, LinkFaults, SimHarness, SimParams};

    // Digest proposals under a hostile simulator run: a lossy replica
    // link chews on consensus traffic and a crash-restart wipes one
    // replica's volatile body cache, so proposals referencing bodies
    // broadcast while it was down can only complete through `BATCHFETCH`.
    //
    // The timing is deliberate. A body only travels the fetch path when
    // the client broadcast is lost but the proposal is not, and those are
    // separated by the batcher's residence time — so the batch size stays
    // above the client count (timer-flushed batches), the poll interval
    // stretches residence to 50 ms, and the restart lands between a
    // closed-loop submission wave and the poll tick that proposes it: the
    // wave's broadcasts die against the dark replica, the proposal
    // arrives after it restarts, and its cold cache must fetch.
    let run = || {
        let mut cfg = SystemConfig::with_shim_size(4);
        cfg.workload.num_records = 2_000;
        cfg.workload.batch_size = 200;
        cfg.workload.num_clients = 40;
        cfg.durability = DurabilityConfig::enabled();
        cfg.digest_proposals = true;
        let system = SystemBuilder::new(cfg).clients(40).build();
        let params = SimParams {
            duration: SimDuration::from_millis(600),
            warmup: SimDuration::from_millis(50),
            num_clients: 40,
            seed: 11,
            batch_poll_interval: SimDuration::from_millis(50),
            ..SimParams::default()
        };
        SimHarness::new(system, params)
            .with_fault_plan(
                FaultPlan::new()
                    .lossy_node(NodeId(3), LinkFaults::lossy(0.15))
                    .crash(CrashRestart::of(
                        NodeId(2),
                        SimDuration::from_millis(160),
                        SimDuration::from_millis(70),
                    )),
            )
            .run()
    };
    let a = run();
    assert!(a.committed_txns > 0, "committed {}", a.committed_txns);
    assert_eq!(
        a.counter("verifier.divergent_aborts"),
        0,
        "digest mode must never diverge"
    );
    assert_eq!(
        a.counter("recovery.recoveries"),
        1,
        "the crashed replica must recover"
    );
    assert!(
        a.sum("digest.cache_hits") > 0,
        "the client broadcast keeps most caches warm"
    );
    assert!(
        a.sum("digest.fetches_sent") > 0,
        "the restarted replica's cold cache must exercise the fetch path"
    );
    assert!(a.counter("faults.messages_dropped") > 0, "loss must fire");
    let b = run();
    assert_eq!(
        (a.committed_txns, a.registry().render()),
        (b.committed_txns, b.registry().render()),
        "digest-mode chaos must replay exactly from the seed"
    );
}
