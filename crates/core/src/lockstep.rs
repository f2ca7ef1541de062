//! The clockless driver: shim nodes run in lock-step, with no clock.
//!
//! [`settle`] delivers a node's consensus sends, and everything they set
//! off, over one FIFO wire until it is empty. No timer fires, no executor
//! runs and no client hears back meanwhile: those actions come back to
//! the caller, tagged with their node. A caller shapes the network through
//! one delivery hook ([`Hop`] in, [`Verdict`] out) and turns nodes
//! byzantine through an optional [`AttackInjector`].

use crate::attacks::AttackInjector;
use crate::events::{Action, Destination, Envelope, ProtocolMessage};
use crate::shim::ShimNode;
use sbft_consensus::ConsensusMessage;
use sbft_crypto::CryptoProvider;
use sbft_telemetry::Registry;
use sbft_types::{ComponentId, NodeId, SystemConfig};
use std::collections::VecDeque;
use std::sync::Arc;

/// The PBFT shim nodes of `config`, their counters registered under
/// `shim.<node>.*` in `registry`.
#[must_use]
pub fn pbft_nodes(
    config: &SystemConfig,
    provider: &Arc<CryptoProvider>,
    registry: &Arc<Registry>,
) -> Vec<ShimNode> {
    (0..config.fault.n_r as u32)
        .map(|i| {
            let id = NodeId(i);
            let mut node =
                ShimNode::pbft(id, config.clone(), provider.handle(ComponentId::Node(id)));
            node.register_metrics(registry);
            node
        })
        .collect()
}

/// A consensus message taken off the wire, before it reaches `to`.
#[derive(Debug)]
pub struct Hop<'a> {
    /// The sending node.
    pub from: NodeId,
    /// The receiving node.
    pub to: NodeId,
    /// The message, which the hook may rewrite.
    pub msg: &'a mut ConsensusMessage,
    /// How many messages are still on the wire behind this one.
    pub queued: usize,
}

/// What the delivery hook does with a [`Hop`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Deliver the message.
    Deliver,
    /// Lose the message.
    Drop,
    /// Queue a copy at the back of the wire, then deliver the message.
    Duplicate,
    /// Put the message back at the back of the wire, undelivered.
    Requeue,
}

/// A message on the wire: sender, receiver, payload.
type Wire = VecDeque<(NodeId, NodeId, ConsensusMessage)>;

/// Runs `origin`'s `actions` among `nodes` until no consensus message is
/// left on the wire, and returns every other action, tagged with the node
/// that emitted it, in emission order.
///
/// Node `i` of `nodes` is `NodeId(i)`. Consensus sends to `Node` or
/// `AllNodes` (every node but the sender) go on one FIFO wire; each one
/// taken off it is shown to `hook`, which decides its fate, and a
/// delivered one goes through [`ShimNode::on_consensus_message`]. When an
/// `injector` is given, it rewrites every node's action list as the node
/// emits it, `origin`'s included.
pub fn settle(
    nodes: &mut [ShimNode],
    origin: NodeId,
    actions: Vec<Action>,
    mut injector: Option<&mut AttackInjector>,
    mut hook: impl FnMut(Hop<'_>) -> Verdict,
) -> Vec<(NodeId, Action)> {
    let n = nodes.len();
    let mut others = Vec::new();
    let mut emit = |node: NodeId, actions: Vec<Action>, wire: &mut Wire| {
        let actions = match injector.as_deref_mut() {
            Some(injector) => injector.apply(node, actions),
            None => actions,
        };
        for action in actions {
            match action {
                Action::Send(Envelope {
                    to: to @ (Destination::Node(_) | Destination::AllNodes),
                    msg: ProtocolMessage::Consensus(msg),
                    ..
                }) => {
                    for target in to.nodes(ComponentId::Node(node), n) {
                        wire.push_back((node, target, msg.clone()));
                    }
                }
                action => others.push((node, action)),
            }
        }
    };
    let mut wire = Wire::new();
    emit(origin, actions, &mut wire);
    while let Some((from, to, mut msg)) = wire.pop_front() {
        let queued = wire.len();
        match hook(Hop {
            from,
            to,
            msg: &mut msg,
            queued,
        }) {
            Verdict::Deliver => {}
            Verdict::Drop => continue,
            Verdict::Duplicate => wire.push_back((from, to, msg.clone())),
            Verdict::Requeue => {
                wire.push_back((from, to, msg));
                continue;
            }
        }
        let actions = nodes[to.0 as usize].on_consensus_message(from, msg);
        emit(to, actions, &mut wire);
    }
    others
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::ShimAttack;
    use crate::events::ClientRequest;
    use sbft_types::{ClientId, ExecutorId, Key, Operation, SimTime, Transaction, TxnId};

    /// Four PBFT nodes batching one transaction, and the primary's actions
    /// on its first request: a PREPREPARE and a PREPARE broadcast.
    fn proposed() -> (Vec<ShimNode>, Vec<Action>) {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 1;
        let provider = CryptoProvider::new(21);
        let mut nodes = pbft_nodes(&config, &provider, &Arc::new(Registry::new()));
        let op = Operation::ReadModifyWrite(Key(0), 1);
        let txn = Transaction::new(TxnId::new(ClientId(0), 0), vec![op]);
        let client = provider.handle(ComponentId::Client(ClientId(0)));
        let request = ClientRequest {
            signature: client.sign(&ClientRequest::signing_digest(&txn)),
            txn,
        };
        let actions = nodes[0].on_client_request(&request, SimTime::ZERO);
        (nodes, actions)
    }

    /// Settles the proposal with `verdict` as the hook; returns every hop
    /// the hook was shown, as `from>to KIND`, and the actions that came
    /// back.
    fn run(mut verdict: impl FnMut(&Hop<'_>) -> Verdict) -> (Vec<String>, Vec<(NodeId, Action)>) {
        let (mut nodes, actions) = proposed();
        let mut hops = Vec::new();
        let others = settle(&mut nodes, NodeId(0), actions, None, |hop| {
            hops.push(format!("{}>{} {}", hop.from.0, hop.to.0, hop.msg.kind()));
            verdict(&hop)
        });
        (hops, others)
    }

    /// The primary's two broadcasts as the wire carries them.
    const PROPOSAL: &str = "0>1 PREPREPARE, 0>2 PREPREPARE, 0>3 PREPREPARE, \
                            0>1 PREPARE, 0>2 PREPARE, 0>3 PREPARE";

    #[test]
    fn a_broadcast_reaches_every_node_but_the_sender_once_in_fifo_order() {
        let mut queued = Vec::new();
        let (hops, _) = run(|hop| {
            queued.push(hop.queued);
            Verdict::Deliver
        });
        // Node 1's PREPARE, set off by the first delivery, queues behind
        // the proposal's other five hops.
        let node_1 = "1>0 PREPARE, 1>2 PREPARE, 1>3 PREPARE";
        assert_eq!(hops[..9].join(", "), format!("{PROPOSAL}, {node_1}"));
        assert_eq!(queued[0], 5);
        assert_eq!(hops.iter().filter(|h| h.ends_with("PREPREPARE")).count(), 3);
    }

    #[test]
    fn every_verdict_does_what_it_says() {
        // Dropped, the proposal is all the hook sees, and nothing commits.
        let (hops, others) = run(|_| Verdict::Drop);
        assert_eq!(hops.join(", "), PROPOSAL);
        let committed = |others: &[(NodeId, Action)]| {
            let commits = others
                .iter()
                .filter(|(_, a)| matches!(a, Action::BatchCommitted { .. }));
            commits.count()
        };
        assert_eq!(committed(&others), 0);
        // A duplicate's copy is queued before the original is delivered,
        // so it comes round ahead of node 1's PREPARE; both copies arrive.
        let mut first = true;
        let (hops, others) = run(|hop| {
            let verdict = if hop.to == NodeId(1) && first {
                Verdict::Duplicate
            } else {
                Verdict::Deliver
            };
            first &= hop.to != NodeId(1);
            verdict
        });
        assert_eq!(hops[6..8].join(", "), "0>1 PREPREPARE, 1>0 PREPARE");
        assert_eq!(committed(&others), 4);
        // A requeued hop goes behind everything queued, undelivered: node
        // 1 sends nothing before its PREPREPARE comes round again.
        let mut first = true;
        let (hops, others) = run(|hop| {
            let verdict = if hop.to == NodeId(1) && first {
                Verdict::Requeue
            } else {
                Verdict::Deliver
            };
            first &= hop.to != NodeId(1);
            verdict
        });
        assert_eq!(hops[6..8].join(", "), "0>1 PREPREPARE, 2>0 PREPARE");
        assert!(!hops[..7].iter().any(|hop| hop.starts_with("1>")));
        assert_eq!(committed(&others), 4);
    }

    #[test]
    fn the_injector_rewrites_the_origin_and_every_delivery() {
        // A primary keeping node 3 in the dark leaves it out of the
        // PREPREPARE and PREPARE broadcasts in the origin's list, and out
        // of the COMMIT it broadcasts once a PREPARE delivery completes
        // its quorum.
        let (mut nodes, actions) = proposed();
        let mut injector = AttackInjector::new(4);
        let victims = vec![NodeId(3)];
        injector.compromise(NodeId(0), ShimAttack::KeepInDark { victims });
        let mut from_primary = Vec::new();
        let others = settle(&mut nodes, NodeId(0), actions, Some(&mut injector), |hop| {
            if hop.from == NodeId(0) {
                from_primary.push(format!("0>{} {}", hop.to.0, hop.msg.kind()));
            }
            Verdict::Deliver
        });
        assert_eq!(
            from_primary.join(", "),
            "0>1 PREPREPARE, 0>2 PREPREPARE, 0>1 PREPARE, 0>2 PREPARE, 0>1 COMMIT, 0>2 COMMIT"
        );
        let mut committed: Vec<u32> = others
            .iter()
            .filter(|(_, a)| matches!(a, Action::BatchCommitted { .. }))
            .map(|(node, _)| node.0)
            .collect();
        committed.sort_unstable();
        assert_eq!(committed, [0, 1, 2], "the victim never commits");
    }

    #[test]
    fn other_actions_come_back_tagged_in_emission_order() {
        let (_, others) = run(|_| Verdict::Deliver);
        let tagged: Vec<String> = others
            .iter()
            .map(|(node, action)| {
                let kind = match action {
                    Action::StartTimer { .. } => "start",
                    Action::CancelTimer(_) => "cancel",
                    Action::BatchCommitted { .. } => "commit",
                    Action::SpawnExecutor { .. } => "spawn",
                    other => panic!("unexpected {other:?}"),
                };
                format!("{} {kind}", node.0)
            })
            .collect();
        // Each node arms its request timer as it meets the proposal; the
        // primary's quorum completes first, and its spawns follow its
        // commit.
        assert_eq!(
            tagged.join(", "),
            "0 start, 1 start, 2 start, 3 start, 0 cancel, 0 commit, 0 spawn, 0 spawn, \
             0 spawn, 1 cancel, 1 commit, 2 cancel, 2 commit, 3 cancel, 3 commit"
        );
    }

    #[test]
    fn a_destination_expands_into_its_node_targets() {
        let targets = |to: Destination, from: ComponentId| -> Vec<u32> {
            to.nodes(from, 4).map(|id| id.0).collect()
        };
        let node = |i| ComponentId::Node(NodeId(i));
        assert_eq!(targets(Destination::Node(NodeId(2)), node(0)), [2]);
        assert_eq!(targets(Destination::AllNodes, node(1)), [0, 2, 3]);
        assert_eq!(
            targets(Destination::AllNodes, ComponentId::Verifier),
            [0, 1, 2, 3]
        );
        for to in [
            Destination::Client(ClientId(0)),
            Destination::Executor(ExecutorId(0)),
            Destination::Verifier,
        ] {
            assert!(targets(to, node(0)).is_empty(), "{to:?}");
        }
    }
}
