//! Fault-injection integration tests: byzantine shim nodes, byzantine
//! executors and verifier flooding, exercised through the simulator.

use serverless_bft::core::{ShimAttack, SystemBuilder};
use serverless_bft::serverless::cloud::CloudFaultPlan;
use serverless_bft::serverless::{ExecutorBehavior, RegionOutage};
use serverless_bft::sim::{SimHarness, SimParams};
use serverless_bft::types::{
    ConflictHandling, NodeId, Region, ShardingConfig, SimDuration, SystemConfig,
};

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::with_shim_size(4);
    cfg.workload.num_records = 5_000;
    cfg.workload.batch_size = 10;
    cfg.timers.client_timeout = SimDuration::from_millis(40);
    cfg.timers.node_timeout = SimDuration::from_millis(30);
    cfg.timers.retransmit_timeout = SimDuration::from_millis(30);
    cfg
}

fn params() -> SimParams {
    SimParams {
        duration: SimDuration::from_millis(500),
        warmup: SimDuration::from_millis(50),
        num_clients: 60,
        ..SimParams::default()
    }
}

#[test]
fn request_suppression_is_recovered_by_view_change() {
    let system = SystemBuilder::new(config())
        .clients(60)
        .attack(NodeId(0), ShimAttack::SuppressRequests)
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(
        metrics.committed_txns > 0,
        "progress must resume after the byzantine primary is replaced"
    );
}

#[test]
fn nodes_in_dark_do_not_stop_the_shim() {
    let system = SystemBuilder::new(config())
        .clients(60)
        .attack(
            NodeId(0),
            ShimAttack::KeepInDark {
                victims: vec![NodeId(3)],
            },
        )
        .build();
    let metrics = SimHarness::new(system, params()).run();
    // With f_R = 1, one node in the dark cannot stop consensus.
    assert!(
        metrics.committed_txns > 100,
        "committed {}",
        metrics.committed_txns
    );
}

#[test]
fn wrong_result_executors_are_outvoted() {
    let system = SystemBuilder::new(config())
        .clients(60)
        .cloud_faults(CloudFaultPlan {
            byzantine_per_batch: 1,
            behavior: ExecutorBehavior::WrongResult,
        })
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(metrics.committed_txns > 100);
    assert_eq!(
        metrics.aborted_txns, 0,
        "f_E byzantine executors must be masked"
    );
}

#[test]
fn crashing_executors_are_tolerated() {
    let system = SystemBuilder::new(config())
        .clients(60)
        .cloud_faults(CloudFaultPlan {
            byzantine_per_batch: 1,
            behavior: ExecutorBehavior::Crash,
        })
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(metrics.committed_txns > 100);
}

#[test]
fn verifier_flooding_by_duplicate_executors_is_absorbed() {
    let system = SystemBuilder::new(config())
        .clients(60)
        .cloud_faults(CloudFaultPlan {
            byzantine_per_batch: 1,
            behavior: ExecutorBehavior::DuplicateVerify { copies: 10 },
        })
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(metrics.committed_txns > 100);
}

#[test]
fn fewer_executor_spawning_still_commits_under_primary_only_quorum() {
    // The primary spawns only f_E + 1 = 2 executors instead of 3: the
    // verifier can still collect f_E + 1 matching VERIFY messages as long
    // as the spawned ones are honest.
    let system = SystemBuilder::new(config())
        .clients(60)
        .attack(NodeId(0), ShimAttack::SpawnFewer { count: 2 })
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(metrics.committed_txns > 100);
}

#[test]
fn duplicate_spawning_floods_but_does_not_break_safety() {
    let system = SystemBuilder::new(config())
        .clients(60)
        .attack(NodeId(0), ShimAttack::SpawnDuplicates { extra: 2 })
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(metrics.committed_txns > 100);
    // The flooding attacker paid for noticeably more executors.
    assert!(metrics.executors_spawned as f64 >= metrics.committed_txns as f64 / 10.0 * 3.0);
}

/// A planner deployment: known read-write sets over 8 shards, so the
/// ordering-time lanes are active at the primary.
fn planner_config() -> SystemConfig {
    let mut cfg = config();
    cfg.conflict_handling = ConflictHandling::KnownRwSets;
    cfg.sharding = ShardingConfig::with_shards(8);
    cfg
}

/// A geo deployment: planner lanes over geo-partitioned storage spread
/// across 3 regions, with plan-aware (pinned) executor placement.
fn geo_config() -> SystemConfig {
    let mut cfg = planner_config();
    cfg.regions = serverless_bft::types::RegionSet::first_n(3);
    cfg.sharding = ShardingConfig::with_shards(8).with_geo_partitioning();
    cfg
}

#[test]
fn region_outage_preserves_liveness_and_the_spawn_margin() {
    // A whole region goes dark. The cloud would reject every spawn into
    // it, but the invokers know about the outage, so pinned batches
    // homed there fall back to the (outage-aware) rotation: not one
    // spawn request targets the dead region, every batch still gets its
    // full executor complement, and the system keeps committing.
    let system = SystemBuilder::new(geo_config())
        .clients(60)
        .region_outage(RegionOutage::of(Region::Ohio))
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(
        metrics.committed_txns > 100,
        "liveness under a region outage: committed {}",
        metrics.committed_txns
    );
    assert!(
        metrics.sum("invoker.placement_fallbacks") > 0,
        "batches homed in the dead region must fall back"
    );
    assert!(
        metrics.sum("invoker.pinned_spawns") > 0,
        "batches homed in healthy regions keep their pin"
    );
    assert_eq!(
        metrics.spawns_rejected, 0,
        "the invokers must never route a spawn into the dead region"
    );
    // The spawn margin is intact: every validated batch was served by
    // its full executors_per_batch complement despite the outage.
    assert!(
        metrics.executors_spawned >= metrics.counter("verifier.validated_batches") * 3,
        "spawn margin eroded: {} executors for {} batches",
        metrics.executors_spawned,
        metrics.counter("verifier.validated_batches")
    );
    assert_eq!(metrics.counter("verifier.divergent_aborts"), 0);
}

#[test]
fn region_outage_and_healthy_runs_commit_identically() {
    // Placement is a pure performance hint, even mid-fault: the same
    // committed stream driven once with healthy pinning and once with
    // the home region down (forcing the round-robin fallback) must
    // produce identical commit counts, responses and final storage
    // state — only the spawn regions may differ.
    use serverless_bft::consensus::CftReplica;
    use serverless_bft::core::events::{Action, ClientRequest, ProtocolMessage};
    use serverless_bft::core::verifier::{Verifier, VerifierConfig};
    use serverless_bft::core::ShimNode;
    use serverless_bft::crypto::CryptoProvider;
    use serverless_bft::serverless::Executor;
    use serverless_bft::sharding::ShardRouter;
    use serverless_bft::storage::{StorageReader, YcsbTable};
    use serverless_bft::types::{
        ClientId, ComponentId, ExecutorId, FaultParams, Key, Operation, RegionPartition, RegionSet,
        SimTime, Transaction, TxnId,
    };

    let mut cfg = SystemConfig::with_shim_size(4);
    cfg.conflict_handling = ConflictHandling::KnownRwSets;
    cfg.regions = RegionSet::first_n(3);
    cfg.sharding = ShardingConfig::with_shards(4).with_geo_partitioning();
    cfg.workload.batch_size = 1;

    // Keys homed (key → shard → region) in Oregon, so healthy pinning
    // targets Oregon and the outage run must steer around it.
    let router = ShardRouter::new(4);
    let partition = RegionPartition::new(RegionSet::first_n(3), 4);
    let oregon_keys: Vec<Key> = (1..)
        .map(Key)
        .filter(|k| partition.home_of(router.shard_of(*k)) == Region::Oregon)
        .take(6)
        .collect();

    let run = |outage: bool| {
        let provider = CryptoProvider::new(11);
        let store = YcsbTable::populate(1_000).store().clone();
        // A 1-node CFT shim commits every submission immediately, so the
        // committed stream is identical by construction across runs.
        let mut node = ShimNode::new(
            NodeId(0),
            cfg.clone(),
            provider.handle(ComponentId::Node(NodeId(0))),
            Box::new(CftReplica::new(
                NodeId(0),
                FaultParams {
                    n_r: 1,
                    f_r: 0,
                    n_e: 3,
                    f_e: 1,
                },
                cfg.timers.node_timeout,
            )),
        );
        if outage {
            node.mark_region_down(Region::Oregon);
        }
        let mut verifier = Verifier::new(
            provider.handle(ComponentId::Verifier),
            std::sync::Arc::clone(&store),
            VerifierConfig {
                params: FaultParams::for_shim_size(4),
                conflict_handling: ConflictHandling::KnownRwSets,
                abort_timeout: SimDuration::from_millis(100),
                cert_quorum: 0,
                spawned_per_batch: 3,
                num_shards: cfg.sharding.num_shards,
                checkpoint_interval: cfg.timers.checkpoint_interval,
            },
        );
        let registry = serverless_bft::telemetry::Registry::new();
        verifier.register_metrics(&registry);
        let mut next_executor = 0u64;
        let mut spawn_regions = Vec::new();
        let mut responses = Vec::new();
        for (i, key) in oregon_keys.iter().enumerate() {
            let txn = Transaction::new(
                TxnId::new(ClientId(i as u32), 0),
                vec![Operation::ReadModifyWrite(*key, 7)],
            )
            .with_inferred_rwset();
            let digest = ClientRequest::signing_digest(&txn);
            let request = ClientRequest {
                signature: provider
                    .handle(ComponentId::Client(ClientId(i as u32)))
                    .sign(&digest),
                txn,
            };
            for action in node.on_client_request(&request, SimTime::ZERO) {
                let Action::SpawnExecutor { request, execute } = action else {
                    continue;
                };
                spawn_regions.push(request.region);
                let id = ExecutorId(next_executor);
                next_executor += 1;
                let executor = Executor::new(
                    id,
                    request.region,
                    ExecutorBehavior::Honest,
                    provider.handle(ComponentId::Executor(id)),
                    StorageReader::new(std::sync::Arc::clone(&store)),
                    4,
                    0,
                );
                let output = executor.handle_execute(&execute).expect("honest EXECUTE");
                for verify in output.verify_messages {
                    for action in verifier.on_verify(&verify) {
                        if let Some(env) = action.as_send() {
                            if matches!(
                                env.msg,
                                ProtocolMessage::Response(_) | ProtocolMessage::Abort(_)
                            ) {
                                responses.push(format!("{:?}", env.msg));
                            }
                        }
                    }
                }
            }
        }
        let state: Vec<u64> = oregon_keys.iter().map(|k| store.version_of(*k).0).collect();
        (
            registry.counter_value("verifier.committed_txns"),
            registry.counter_value("verifier.aborted_txns"),
            responses,
            state,
            spawn_regions,
        )
    };

    let healthy = run(false);
    let faulted = run(true);
    // The placements really differ …
    assert!(
        healthy.4.iter().all(|r| *r == Region::Oregon),
        "healthy pinning targets the home region: {:?}",
        healthy.4
    );
    assert!(
        faulted.4.iter().all(|r| *r != Region::Oregon),
        "the outage run must avoid the dead region: {:?}",
        faulted.4
    );
    assert_eq!(healthy.4.len(), faulted.4.len(), "full spawn margin kept");
    // … and nothing else does: honest ≡ faulted, byte for byte.
    assert_eq!(healthy.0, faulted.0, "committed counts diverge");
    assert_eq!(healthy.1, faulted.1, "aborted counts diverge");
    assert_eq!(healthy.2, faulted.2, "client responses diverge");
    assert_eq!(healthy.3, faulted.3, "final storage state diverges");
    assert_eq!(healthy.0, oregon_keys.len() as u64, "every batch commits");
}

#[test]
fn decentralized_spawning_survives_a_delaying_primary() {
    use serverless_bft::types::SpawningMode;
    let mut cfg = config();
    cfg.conflict_handling = ConflictHandling::UnknownRwSets;
    cfg.workload.conflict_fraction = 0.2;
    cfg.spawning = SpawningMode::Decentralized;
    let system = SystemBuilder::new(cfg)
        .clients(60)
        .attack(
            NodeId(0),
            ShimAttack::DelaySpawning {
                delay: SimDuration::from_millis(200),
            },
        )
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(
        metrics.committed_txns > 50,
        "decentralized spawning must mask the delaying primary"
    );
}

/// Component-level primary replacement on a laned deployment: a
/// verifier-style `REPLACE` moves the shim to a new view, and the new
/// primary's ordering lanes (the fast path for single-home batches) work
/// as the old primary's did. Requests alternate between two shards, two
/// to a batch, so every batch is single-home only if the lanes group it;
/// one batcher lane would cut each batch across both shards. Also
/// checks liveness and storage across the replacement.
#[test]
fn misplanning_primary_is_replaced_and_the_fast_path_returns() {
    use serverless_bft::core::events::{
        Action, ClientRequest, NoticeMarker, ProtocolMessage, RecoveryNotice, RecoverySubject,
    };
    use serverless_bft::core::lockstep::{pbft_nodes, settle, Hop, Verdict};
    use serverless_bft::core::verifier::{Verifier, VerifierConfig};
    use serverless_bft::core::ShimNode;
    use serverless_bft::crypto::CryptoProvider;
    use serverless_bft::serverless::{Executor, ExecutorBehavior};
    use serverless_bft::storage::{StorageReader, YcsbTable};
    use serverless_bft::types::{
        ClientId, ComponentId, ExecutorId, FaultParams, Key, Operation, Region, SeqNum, ShardId,
        ShardRouter, SimTime, Transaction, TxnId,
    };

    let mut cfg = SystemConfig::with_shim_size(4);
    cfg.conflict_handling = ConflictHandling::KnownRwSets;
    cfg.sharding = ShardingConfig::with_shards(8);
    cfg.workload.batch_size = 2;

    let provider = CryptoProvider::new(21);
    let store = YcsbTable::populate(1_000).store().clone();
    let registry = std::sync::Arc::new(serverless_bft::telemetry::Registry::new());
    let mut nodes = pbft_nodes(&cfg, &provider, &registry);
    let mut verifier = Verifier::new(
        provider.handle(ComponentId::Verifier),
        std::sync::Arc::clone(&store),
        VerifierConfig {
            params: FaultParams::for_shim_size(4),
            conflict_handling: ConflictHandling::KnownRwSets,
            abort_timeout: SimDuration::from_millis(100),
            cert_quorum: 3,
            spawned_per_batch: 3,
            num_shards: cfg.sharding.num_shards,
            checkpoint_interval: cfg.timers.checkpoint_interval,
        },
    );
    verifier.register_metrics(&registry);
    let count = |name: &str| registry.counter_value(&format!("verifier.{name}"));

    let deliver = |_: Hop<'_>| Verdict::Deliver;

    // Runs the spawned executors of `external` and feeds their VERIFYs to
    // the verifier; returns every BatchValidated the verifier broadcast.
    let mut next_executor = 0u64;
    let mut run_executors =
        |external: &[(NodeId, Action)], verifier: &mut Verifier| -> Vec<ProtocolMessage> {
            let mut validated = Vec::new();
            for (_, action) in external {
                let Action::SpawnExecutor { execute, .. } = action else {
                    continue;
                };
                let id = ExecutorId(next_executor);
                next_executor += 1;
                let executor = Executor::new(
                    id,
                    Region::Oregon,
                    ExecutorBehavior::Honest,
                    provider.handle(ComponentId::Executor(id)),
                    StorageReader::new(std::sync::Arc::clone(&store)),
                    4,
                    3,
                );
                let output = executor.handle_execute(execute).expect("honest EXECUTE");
                for verify in output.verify_messages {
                    for action in verifier.on_verify(&verify) {
                        if let Some(env) = action.as_send() {
                            if matches!(env.msg, ProtocolMessage::BatchValidated(_)) {
                                validated.push(env.msg.clone());
                            }
                        }
                    }
                }
            }
            validated
        };

    // Four keys on shard 0 and four on shard 1, interleaved: 0, 1, 0, 1, …
    let router = ShardRouter::new(cfg.sharding.num_shards);
    let on_shard = |shard: u32| {
        (1..)
            .map(Key)
            .filter(move |k| router.shard_of(*k) == ShardId(shard))
            .take(4)
    };
    let keys: Vec<Key> = on_shard(0)
        .zip(on_shard(1))
        .flat_map(|(a, b)| [a, b])
        .collect();
    let request = |client: u32, key: Key| {
        let txn = Transaction::new(
            TxnId::new(ClientId(client), 0),
            vec![Operation::ReadModifyWrite(key, 1)],
        )
        .with_inferred_rwset();
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: provider
                .handle(ComponentId::Client(ClientId(client)))
                .sign(&digest),
            txn,
        }
    };

    // Submits `keys` to `primary` one request at a time and feeds every
    // validated batch back to the shim.
    let mut order = |nodes: &mut [ShimNode], primary: NodeId, first_client: u32, keys: &[Key]| {
        for (i, key) in keys.iter().enumerate() {
            let actions = nodes[primary.0 as usize]
                .on_client_request(&request(first_client + i as u32, *key), SimTime::ZERO);
            let external = settle(nodes, primary, actions, None, deliver);
            for msg in run_executors(&external, &mut verifier) {
                for node in nodes.iter_mut() {
                    let _ = node.on_message(&msg);
                }
            }
        }
    };

    // ---- Phase 1: the first primary orders two batches. ----
    order(&mut nodes, NodeId(0), 0, &keys[..4]);
    assert_eq!(count("committed_txns"), 4);
    assert_eq!(count("validated_batches"), 2);
    assert_eq!(
        count("single_home_batches"),
        2,
        "the lanes group each shard's pair"
    );

    // ---- Phase 2: the verifier-style REPLACE triggers a view change. ----
    let replace = ProtocolMessage::Notice(RecoveryNotice::signed(
        NoticeMarker::Replace,
        RecoverySubject::Seq(SeqNum(1)),
        &provider.handle(ComponentId::Verifier),
    ));
    let pending: Vec<(usize, Vec<Action>)> = (1..4usize)
        .map(|i| (i, nodes[i].on_message(&replace)))
        .collect();
    for (origin, actions) in pending {
        let origin = NodeId(origin as u32);
        let _ = settle(&mut nodes, origin, actions, None, deliver);
    }
    assert_eq!(nodes[1].view(), serverless_bft::types::ViewNumber(1));
    assert!(nodes[1].is_primary(), "node 1 leads the new view");

    // ---- Phase 3: the new primary orders two more. ----
    order(&mut nodes, NodeId(1), 10, &keys[4..]);
    assert_eq!(count("committed_txns"), 8, "liveness across the change");
    assert_eq!(count("validated_batches"), 4);
    assert_eq!(
        count("single_home_batches"),
        4,
        "the new primary's lanes group each shard's pair"
    );
    // Every write reached storage exactly once.
    for key in &keys {
        assert!(store.version_of(*key).0 > 1, "{key:?} was written");
    }
}
