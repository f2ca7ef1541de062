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

#[test]
fn misplanning_primary_is_detected_and_cannot_stop_progress() {
    // The byzantine primary tags every batch SingleHome(0), whatever its
    // footprint. The verifier's trust-but-verify re-derivation must
    // catch the lies, fall back to unplanned routing, and keep
    // committing — state safety and liveness are unaffected.
    let system = SystemBuilder::new(planner_config())
        .clients(60)
        .attack(NodeId(0), ShimAttack::MisplanBatches)
        .build();
    let metrics = SimHarness::new(system, params()).run();
    assert!(
        metrics.committed_txns > 100,
        "committed {}",
        metrics.committed_txns
    );
    assert!(
        metrics.counter("verifier.plan_mismatches") > 0,
        "the forged tags must be detected at apply time"
    );
    assert_eq!(
        metrics.counter("verifier.divergent_aborts"),
        0,
        "mis-planning must never corrupt execution"
    );
}

#[test]
fn misplanning_and_honest_runs_commit_identically() {
    // The plan tag is a pure routing hint: a run whose primary forges
    // every tag must produce exactly the same committed/aborted counts
    // (and response stream) as the honest run of the same workload.
    let run = |attack: bool| {
        let mut builder = SystemBuilder::new(planner_config()).clients(60);
        if attack {
            builder = builder.attack(NodeId(0), ShimAttack::MisplanBatches);
        }
        SimHarness::new(builder.build(), params()).run()
    };
    let honest = run(false);
    let attacked = run(true);
    assert!(
        honest.counter("verifier.planned_batches") > 0,
        "honest tags earn the fast path"
    );
    assert_eq!(honest.counter("verifier.plan_mismatches"), 0);
    assert!(attacked.counter("verifier.plan_mismatches") > 0);
    assert_eq!(honest.committed_txns, attacked.committed_txns);
    assert_eq!(honest.aborted_txns, attacked.aborted_txns);
    assert_eq!(honest.latency.count(), attacked.latency.count());
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
                sharding: cfg.sharding,
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

/// Component-level fault injection: a mis-planning primary is detected by
/// the verifier, the shim replaces it through a view change, and the new
/// honest primary's tags earn the fast path again — end-to-end liveness
/// of the trust-but-verify protocol across a primary replacement.
#[test]
fn misplanning_primary_is_replaced_and_the_fast_path_returns() {
    use serverless_bft::consensus::ConsensusMessage;
    use serverless_bft::core::events::{
        Action, ClientRequest, Destination, ProtocolMessage, RecoverySubject, ReplaceMessage,
    };
    use serverless_bft::core::verifier::{Verifier, VerifierConfig};
    use serverless_bft::core::{AttackInjector, ShimNode};
    use serverless_bft::crypto::CryptoProvider;
    use serverless_bft::serverless::{Executor, ExecutorBehavior};
    use serverless_bft::sharding::ShardRouter;
    use serverless_bft::storage::{StorageReader, YcsbTable};
    use serverless_bft::types::{
        ClientId, ComponentId, ExecutorId, FaultParams, Key, Operation, Region, SeqNum, SimTime,
        Transaction, TxnId,
    };

    let mut cfg = SystemConfig::with_shim_size(4);
    cfg.conflict_handling = ConflictHandling::KnownRwSets;
    cfg.sharding = ShardingConfig::with_shards(8);
    cfg.workload.batch_size = 1;

    let provider = CryptoProvider::new(21);
    let store = YcsbTable::populate(1_000).store().clone();
    let mut nodes: Vec<ShimNode> = (0..4u32)
        .map(|i| {
            ShimNode::pbft(
                NodeId(i),
                cfg.clone(),
                provider.handle(ComponentId::Node(NodeId(i))),
            )
        })
        .collect();
    let mut verifier = Verifier::new(
        provider.handle(ComponentId::Verifier),
        std::sync::Arc::clone(&store),
        VerifierConfig {
            params: FaultParams::for_shim_size(4),
            conflict_handling: ConflictHandling::KnownRwSets,
            abort_timeout: SimDuration::from_millis(100),
            cert_quorum: 3,
            spawned_per_batch: 3,
            sharding: cfg.sharding,
            checkpoint_interval: cfg.timers.checkpoint_interval,
        },
    );
    let registry = serverless_bft::telemetry::Registry::new();
    verifier.register_metrics(&registry);
    let count = |name: &str| registry.counter_value(&format!("verifier.{name}"));
    let mut injector = AttackInjector::new(4);
    injector.compromise(NodeId(0), ShimAttack::MisplanBatches);

    // Drives consensus among the nodes (attacks applied at emission)
    // until quiescence; returns the non-consensus leftovers per node.
    let run_consensus = |nodes: &mut Vec<ShimNode>,
                         injector: &mut AttackInjector,
                         origin: usize,
                         actions: Vec<Action>|
     -> Vec<(NodeId, Action)> {
        let mut external = Vec::new();
        let mut queue: std::collections::VecDeque<(usize, usize, ConsensusMessage)> =
            std::collections::VecDeque::new();
        let push = |origin: usize,
                    actions: Vec<Action>,
                    queue: &mut std::collections::VecDeque<(usize, usize, ConsensusMessage)>,
                    external: &mut Vec<(NodeId, Action)>| {
            for a in actions {
                match &a {
                    Action::Send(env) => match (&env.to, &env.msg) {
                        (Destination::AllNodes, ProtocolMessage::Consensus(m)) => {
                            for to in 0..4usize {
                                if to != origin {
                                    queue.push_back((origin, to, m.clone()));
                                }
                            }
                        }
                        (Destination::Node(to), ProtocolMessage::Consensus(m)) => {
                            queue.push_back((origin, to.0 as usize, m.clone()));
                        }
                        _ => external.push((NodeId(origin as u32), a.clone())),
                    },
                    _ => external.push((NodeId(origin as u32), a.clone())),
                }
            }
        };
        let actions = injector.apply(NodeId(origin as u32), actions);
        push(origin, actions, &mut queue, &mut external);
        while let Some((from, to, msg)) = queue.pop_front() {
            let acts = nodes[to].on_consensus_message(NodeId(from as u32), msg);
            let acts = injector.apply(NodeId(to as u32), acts);
            push(to, acts, &mut queue, &mut external);
        }
        external
    };

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

    let router = ShardRouter::new(8);
    // Keys off shard 0, so the forged SingleHome(0) tags are always lies.
    let off_zero: Vec<Key> = (1..)
        .map(Key)
        .filter(|k| router.shard_of(*k).0 != 0)
        .take(6)
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

    // ---- Phase 1: the mis-planning primary orders three batches. ----
    for (i, key) in off_zero[..3].iter().enumerate() {
        let actions = nodes[0].on_client_request(&request(i as u32, *key), SimTime::ZERO);
        let external = run_consensus(&mut nodes, &mut injector, 0, actions);
        let validated = run_executors(&external, &mut verifier);
        assert!(!validated.is_empty(), "batch {i} must validate");
        for msg in validated {
            for node in nodes.iter_mut() {
                let _ = node.on_message(&msg);
            }
        }
    }
    assert_eq!(count("committed_txns"), 3, "lies never block commits");
    assert_eq!(count("plan_mismatches"), 3, "every forged tag is caught");
    assert_eq!(count("planned_batches"), 0, "no lie earns the fast path");
    assert!(injector.plans_forged() > 0);

    // ---- Phase 2: the verifier-style REPLACE triggers a view change. ----
    let replace = ProtocolMessage::Replace(ReplaceMessage::signed(
        RecoverySubject::Seq(SeqNum(1)),
        &provider.handle(ComponentId::Verifier),
    ));
    let pending: Vec<(usize, Vec<Action>)> = (1..4usize)
        .map(|i| (i, nodes[i].on_message(&replace)))
        .collect();
    for (origin, actions) in pending {
        let _ = run_consensus(&mut nodes, &mut injector, origin, actions);
    }
    assert_eq!(nodes[1].view(), serverless_bft::types::ViewNumber(1));
    assert!(nodes[1].is_primary(), "node 1 leads the new view");

    // ---- Phase 3: the honest primary's tags earn the fast path. ----
    for (i, key) in off_zero[3..].iter().enumerate() {
        let actions = nodes[1].on_client_request(&request(10 + i as u32, *key), SimTime::ZERO);
        let external = run_consensus(&mut nodes, &mut injector, 1, actions);
        let validated = run_executors(&external, &mut verifier);
        assert!(
            !validated.is_empty(),
            "post-view-change batch {i} must validate"
        );
        for msg in validated {
            for node in nodes.iter_mut() {
                let _ = node.on_message(&msg);
            }
        }
    }
    assert_eq!(count("committed_txns"), 6, "liveness across the change");
    assert_eq!(
        count("plan_mismatches"),
        3,
        "no further mismatches under the honest primary"
    );
    assert_eq!(
        count("planned_batches"),
        3,
        "honest single-home tags take the fast path again"
    );
    // Every write reached storage exactly once.
    for key in &off_zero {
        assert!(store.version_of(*key).0 > 1, "{key:?} was written");
    }
}
