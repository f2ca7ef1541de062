//! Attack injection for byzantine shim nodes.
//!
//! The honest role state machines never misbehave; byzantine behaviour is
//! injected by perturbing the *actions* a compromised node emits before
//! they reach the network. This keeps the attack surface explicit and lets
//! the tests and experiments turn each attack of Section V on and off
//! independently:
//!
//! * **Request ignorance** (Section V-A): the primary drops the
//!   `PREPREPARE` messages for client requests, so consensus never starts.
//! * **Unsuccessful consensus / nodes in dark** (Section V-A, V-B): the
//!   primary excludes chosen victims from its broadcasts, so they never see
//!   the normal-case messages.
//! * **Fewer executors** (Section V-A): the primary spawns fewer than `n_E`
//!   executors, so the verifier cannot collect `f_E + 1` matching results.
//! * **Duplicate spawning** (Section V-C): a node spawns extra executors to
//!   flood the verifier (self-penalising, because the spawner pays).
//! * **Delayed spawning** (Section VI-B): the primary delays spawning for
//!   chosen batches, trying to force conflicting transactions to abort.

use crate::events::{Action, Destination, Envelope, ProtocolMessage};
use sbft_types::{ComponentId, NodeId, SimDuration};
use std::collections::{BTreeMap, BTreeSet};

/// A byzantine behaviour assigned to one shim node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ShimAttack {
    /// Drop every `PREPREPARE` this node would send as primary (request
    /// ignorance / suppression).
    SuppressRequests,
    /// Exclude the listed victims from all consensus broadcasts, keeping up
    /// to `f_R` honest nodes in the dark.
    KeepInDark {
        /// The nodes to exclude.
        victims: Vec<NodeId>,
    },
    /// Spawn only `count` executors per committed batch instead of `n_E`.
    SpawnFewer {
        /// The reduced number of executors.
        count: usize,
    },
    /// Spawn `extra` additional executors per batch (verifier flooding).
    SpawnDuplicates {
        /// Number of extra executors.
        extra: usize,
    },
    /// Delay every spawn this node performs by `delay` (byzantine-abort
    /// attack against conflicting transactions).
    DelaySpawning {
        /// The added delay.
        delay: SimDuration,
    },
}

/// Assigns attacks to shim nodes and rewrites their outgoing actions.
#[derive(Debug, Default)]
pub struct AttackInjector {
    attacks: BTreeMap<NodeId, ShimAttack>,
    n_r: usize,
    /// Messages dropped so far (per attack accounting for the tests).
    dropped: u64,
    spawns_suppressed: u64,
    spawns_added: u64,
}

impl AttackInjector {
    /// An injector for a shim of `n_r` nodes with no attacks configured.
    #[must_use]
    pub fn new(n_r: usize) -> Self {
        AttackInjector {
            attacks: BTreeMap::new(),
            n_r,
            dropped: 0,
            spawns_suppressed: 0,
            spawns_added: 0,
        }
    }

    /// Assigns an attack to a node.
    pub fn compromise(&mut self, node: NodeId, attack: ShimAttack) {
        self.attacks.insert(node, attack);
    }

    /// The attack assigned to a node, if any.
    #[must_use]
    pub fn attack_of(&self, node: NodeId) -> Option<&ShimAttack> {
        self.attacks.get(&node)
    }

    /// Number of byzantine nodes currently configured.
    #[must_use]
    pub fn compromised(&self) -> usize {
        self.attacks.len()
    }

    /// Extra delay applied to executor spawns performed by `node` (used by
    /// the runtimes when scheduling the spawn).
    #[must_use]
    pub fn spawn_delay(&self, node: NodeId) -> SimDuration {
        match self.attacks.get(&node) {
            Some(ShimAttack::DelaySpawning { delay }) => *delay,
            _ => SimDuration::ZERO,
        }
    }

    /// Rewrites the actions emitted by `node` according to its attack.
    /// Honest nodes' actions pass through untouched.
    pub fn apply(&mut self, node: NodeId, actions: Vec<Action>) -> Vec<Action> {
        let Some(attack) = self.attacks.get(&node).cloned() else {
            return actions;
        };
        match attack {
            ShimAttack::SuppressRequests => {
                let before = actions.len();
                let kept: Vec<Action> = actions
                    .into_iter()
                    .filter(|a| !a.sends_kind("PREPREPARE"))
                    .collect();
                self.dropped += (before - kept.len()) as u64;
                kept
            }
            ShimAttack::KeepInDark { victims } => {
                let victim_set: BTreeSet<NodeId> = victims.into_iter().collect();
                let mut out = Vec::new();
                for action in actions {
                    match action {
                        Action::Send(Envelope {
                            from,
                            to: Destination::AllNodes,
                            msg: msg @ ProtocolMessage::Consensus(_),
                        }) => {
                            // Expand the broadcast, skipping the victims.
                            let sender = ComponentId::Node(node);
                            for target in Destination::AllNodes.nodes(sender, self.n_r) {
                                if victim_set.contains(&target) {
                                    self.dropped += 1;
                                    continue;
                                }
                                out.push(Action::Send(Envelope {
                                    from,
                                    to: Destination::Node(target),
                                    msg: msg.clone(),
                                }));
                            }
                        }
                        Action::Send(Envelope {
                            to: Destination::Node(target),
                            ..
                        }) if victim_set.contains(&target) => {
                            self.dropped += 1;
                        }
                        other => out.push(other),
                    }
                }
                out
            }
            ShimAttack::SpawnFewer { count } => {
                let mut spawned = 0usize;
                let mut out = Vec::new();
                for action in actions {
                    match action {
                        Action::SpawnExecutor { .. } if spawned >= count => {
                            self.spawns_suppressed += 1;
                        }
                        Action::SpawnExecutor { .. } => {
                            spawned += 1;
                            out.push(action);
                        }
                        other => out.push(other),
                    }
                }
                out
            }
            ShimAttack::SpawnDuplicates { extra } => {
                let mut out = Vec::new();
                for action in actions {
                    if let Action::SpawnExecutor { .. } = &action {
                        let clone = action.clone();
                        out.push(action);
                        for _ in 0..extra {
                            self.spawns_added += 1;
                            out.push(clone.clone());
                        }
                    } else {
                        out.push(action);
                    }
                }
                out
            }
            ShimAttack::DelaySpawning { .. } => actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_consensus::messages::{compute_batch_digest, PrePrepare, ProposalBody};
    use sbft_consensus::ConsensusMessage;
    use sbft_types::{
        Batch, ClientId, ComponentId, Key, MacTag, Operation, SeqNum, Transaction, TxnId,
        ViewNumber,
    };

    fn preprepare_broadcast(from: u32) -> Action {
        let batch = Batch::single(Transaction::new(
            TxnId::new(ClientId(0), 0),
            vec![Operation::Read(Key(1))],
        ));
        let digest = compute_batch_digest(&batch);
        Action::send(
            ComponentId::Node(NodeId(from)),
            Destination::AllNodes,
            ProtocolMessage::Consensus(ConsensusMessage::PrePrepare(PrePrepare {
                view: ViewNumber(0),
                seq: SeqNum(1),
                digest,
                body: ProposalBody::Batch(batch),
                mac: MacTag::ZERO,
            })),
        )
    }

    fn spawn_action() -> Action {
        use sbft_crypto::CommitCertificate;
        use sbft_serverless::{ExecuteRequest, SpawnRequest};
        let batch = Batch::single(Transaction::new(
            TxnId::new(ClientId(0), 0),
            vec![Operation::Read(Key(1))],
        ));
        let digest = compute_batch_digest(&batch);
        Action::SpawnExecutor {
            request: SpawnRequest {
                spawner: NodeId(0),
                region: sbft_types::Region::Oregon,
                seq: SeqNum(1),
            },
            execute: ExecuteRequest {
                view: ViewNumber(0),
                seq: SeqNum(1),
                digest,
                batch,
                certificate: std::sync::Arc::new(CommitCertificate::new(
                    ViewNumber(0),
                    SeqNum(1),
                    digest,
                    vec![],
                )),
                spawner: NodeId(0),
                signature: sbft_types::Signature::ZERO,
            },
        }
    }

    #[test]
    fn honest_nodes_pass_through() {
        let mut injector = AttackInjector::new(4);
        let actions = vec![preprepare_broadcast(0), spawn_action()];
        let out = injector.apply(NodeId(0), actions.clone());
        assert_eq!(out, actions);
        assert_eq!(injector.compromised(), 0);
    }

    #[test]
    fn suppress_requests_drops_pre_prepares_only() {
        let mut injector = AttackInjector::new(4);
        injector.compromise(NodeId(0), ShimAttack::SuppressRequests);
        let out = injector.apply(NodeId(0), vec![preprepare_broadcast(0), spawn_action()]);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], Action::SpawnExecutor { .. }));
        assert_eq!(injector.dropped, 1);
    }

    #[test]
    fn keep_in_dark_excludes_victims_from_broadcasts() {
        let mut injector = AttackInjector::new(4);
        injector.compromise(
            NodeId(0),
            ShimAttack::KeepInDark {
                victims: vec![NodeId(3)],
            },
        );
        let out = injector.apply(NodeId(0), vec![preprepare_broadcast(0)]);
        // The broadcast became directed sends to nodes 1 and 2 only.
        let targets: Vec<_> = out
            .iter()
            .filter_map(Action::as_send)
            .map(|e| e.to)
            .collect();
        assert_eq!(targets.len(), 2);
        assert!(targets.contains(&Destination::Node(NodeId(1))));
        assert!(targets.contains(&Destination::Node(NodeId(2))));
        assert!(!targets.contains(&Destination::Node(NodeId(3))));
        assert_eq!(injector.dropped, 1);
    }

    #[test]
    fn keep_in_dark_leaves_other_nodes_untouched() {
        let mut injector = AttackInjector::new(4);
        injector.compromise(
            NodeId(0),
            ShimAttack::KeepInDark {
                victims: vec![NodeId(3)],
            },
        );
        // Node 1 is honest; its broadcast is untouched.
        let actions = vec![preprepare_broadcast(1)];
        let out = injector.apply(NodeId(1), actions.clone());
        assert_eq!(out, actions);
    }

    #[test]
    fn spawn_fewer_truncates_spawns() {
        let mut injector = AttackInjector::new(4);
        injector.compromise(NodeId(0), ShimAttack::SpawnFewer { count: 1 });
        let out = injector.apply(
            NodeId(0),
            vec![spawn_action(), spawn_action(), spawn_action()],
        );
        assert_eq!(out.len(), 1);
        assert_eq!(injector.spawns_suppressed, 2);
    }

    #[test]
    fn spawn_duplicates_adds_spawns() {
        let mut injector = AttackInjector::new(4);
        injector.compromise(NodeId(2), ShimAttack::SpawnDuplicates { extra: 2 });
        let out = injector.apply(NodeId(2), vec![spawn_action()]);
        assert_eq!(out.len(), 3);
        assert_eq!(injector.spawns_added, 2);
    }

    #[test]
    fn delay_spawning_reports_delay_but_keeps_actions() {
        let mut injector = AttackInjector::new(4);
        injector.compromise(
            NodeId(0),
            ShimAttack::DelaySpawning {
                delay: SimDuration::from_millis(500),
            },
        );
        let actions = vec![spawn_action()];
        assert_eq!(injector.apply(NodeId(0), actions.clone()), actions);
        assert_eq!(
            injector.spawn_delay(NodeId(0)),
            SimDuration::from_millis(500)
        );
        assert_eq!(injector.spawn_delay(NodeId(1)), SimDuration::ZERO);
    }
}
