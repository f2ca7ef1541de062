//! The crash-fault-tolerant baseline (`ServerlessCFT`).
//!
//! Figure 7 compares ServerlessBFT against a shim that runs a crash
//! fault-tolerant protocol "like Paxos": no cryptographic signatures, a
//! majority quorum instead of `2f + 1`, and a linear message pattern
//! (leader → followers → leader → followers). This module implements that
//! baseline as a stable-leader Multi-Paxos-style replication protocol:
//! the leader assigns sequence numbers, followers acknowledge, and the
//! leader broadcasts a decide message once a majority has accepted.
//!
//! Because CFT protocols cannot produce byzantine-proof certificates, the
//! [`ConsensusAction::Committed`] actions it emits carry no certificate;
//! the ServerlessBFT layer skips certificate validation when running this
//! baseline (which is exactly why it is unsafe under byzantine faults and
//! only serves as a performance upper bound for consensus).

use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::{batch_digest, CftAccept, CftAccepted, CftDecide, ConsensusMessage};
use crate::traits::OrderingProtocol;
use sbft_types::{Batch, Digest, FaultParams, NodeId, SeqNum, ShardPlan, SimDuration, ViewNumber};
use std::collections::{BTreeMap, BTreeSet};

/// Per-sequence replication state at the leader.
#[derive(Clone, Debug, Default)]
struct SlotState {
    digest: Option<Digest>,
    batch: Option<Batch>,
    plan: ShardPlan,
    acks: BTreeSet<NodeId>,
    decided: bool,
}

/// A CFT replica (leader or follower).
pub struct CftReplica {
    me: NodeId,
    params: FaultParams,
    node_timeout: SimDuration,
    ballot: ViewNumber,
    next_seq: SeqNum,
    slots: BTreeMap<SeqNum, SlotState>,
    /// Batches accepted as a follower, waiting for the decide message.
    accepted: BTreeMap<SeqNum, (Digest, Batch, ShardPlan)>,
    /// Decide messages that arrived before the corresponding accept
    /// (network reordering); applied as soon as the accept shows up.
    pending_decides: BTreeMap<SeqNum, Digest>,
    decided: BTreeSet<SeqNum>,
}

impl CftReplica {
    /// Creates a CFT replica.
    #[must_use]
    pub fn new(me: NodeId, params: FaultParams, node_timeout: SimDuration) -> Self {
        CftReplica {
            me,
            params,
            node_timeout,
            ballot: ViewNumber(0),
            next_seq: SeqNum(1),
            slots: BTreeMap::new(),
            accepted: BTreeMap::new(),
            pending_decides: BTreeMap::new(),
            decided: BTreeSet::new(),
        }
    }

    /// Majority quorum: ⌊n/2⌋ + 1 (crash faults only).
    #[must_use]
    fn majority(&self) -> usize {
        self.params.n_r / 2 + 1
    }

    fn leader_of(&self, ballot: ViewNumber) -> NodeId {
        NodeId::primary_of(ballot, self.params.n_r)
    }

    fn decide_actions(
        &mut self,
        seq: SeqNum,
        _digest: Digest,
        batch: Batch,
        plan: ShardPlan,
    ) -> Vec<ConsensusAction> {
        if !self.decided.insert(seq) {
            return Vec::new();
        }
        vec![
            ConsensusAction::CancelTimer(ConsensusTimer::Request(seq)),
            ConsensusAction::Committed {
                view: self.ballot,
                seq,
                batch,
                plan,
                certificate: None,
            },
        ]
    }

    fn on_accept(&mut self, from: NodeId, msg: CftAccept) -> Vec<ConsensusAction> {
        if from != self.leader_of(msg.ballot) || msg.ballot != self.ballot {
            return Vec::new();
        }
        if batch_digest(&msg.batch) != msg.digest {
            return Vec::new();
        }
        self.accepted
            .insert(msg.seq, (msg.digest, msg.batch.clone(), msg.plan));
        let mut actions = vec![
            ConsensusAction::StartTimer {
                timer: ConsensusTimer::Request(msg.seq),
                duration: self.node_timeout,
            },
            ConsensusAction::Send(
                from,
                ConsensusMessage::CftAccepted(CftAccepted {
                    ballot: msg.ballot,
                    seq: msg.seq,
                    digest: msg.digest,
                    sender: self.me,
                }),
            ),
        ];
        // A decide for this slot may have overtaken the accept.
        if self.pending_decides.remove(&msg.seq) == Some(msg.digest) {
            actions.extend(self.decide_actions(msg.seq, msg.digest, msg.batch, msg.plan));
        }
        actions
    }

    fn on_accepted(&mut self, from: NodeId, msg: CftAccepted) -> Vec<ConsensusAction> {
        if msg.sender != from || msg.ballot != self.ballot || !self.is_primary() {
            return Vec::new();
        }
        let majority = self.majority();
        let Some(slot) = self.slots.get_mut(&msg.seq) else {
            return Vec::new();
        };
        if slot.digest != Some(msg.digest) || slot.decided {
            return Vec::new();
        }
        slot.acks.insert(from);
        if slot.acks.len() < majority {
            return Vec::new();
        }
        slot.decided = true;
        let digest = msg.digest;
        let batch = slot.batch.clone().expect("leader keeps the batch");
        let plan = slot.plan;
        let mut actions = vec![ConsensusAction::Broadcast(ConsensusMessage::CftDecide(
            CftDecide {
                ballot: self.ballot,
                seq: msg.seq,
                digest,
            },
        ))];
        actions.extend(self.decide_actions(msg.seq, digest, batch, plan));
        actions
    }

    fn on_decide(&mut self, from: NodeId, msg: CftDecide) -> Vec<ConsensusAction> {
        if from != self.leader_of(msg.ballot) || msg.ballot != self.ballot {
            return Vec::new();
        }
        let Some((digest, batch, plan)) = self.accepted.get(&msg.seq).cloned() else {
            // The decide overtook the accept; remember it.
            self.pending_decides.insert(msg.seq, msg.digest);
            return Vec::new();
        };
        if digest != msg.digest {
            return Vec::new();
        }
        self.decide_actions(msg.seq, digest, batch, plan)
    }
}

impl OrderingProtocol for CftReplica {
    fn submit_batch(&mut self, batch: Batch, plan: ShardPlan) -> Vec<ConsensusAction> {
        if !self.is_primary() {
            return Vec::new();
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        let digest = batch_digest(&batch);
        let slot = self.slots.entry(seq).or_default();
        slot.digest = Some(digest);
        slot.batch = Some(batch.clone());
        slot.plan = plan;
        slot.acks.insert(self.me);
        let accept = CftAccept {
            ballot: self.ballot,
            seq,
            batch,
            digest,
            plan,
        };
        // A single-node "shim" (degenerate case) decides immediately.
        let mut actions = vec![ConsensusAction::Broadcast(ConsensusMessage::CftAccept(
            accept,
        ))];
        if self.params.n_r == 1 {
            let batch = self.slots[&seq].batch.clone().expect("own batch");
            self.slots.get_mut(&seq).expect("slot").decided = true;
            actions.extend(self.decide_actions(seq, digest, batch, plan));
        }
        actions
    }

    fn handle_message(&mut self, from: NodeId, msg: ConsensusMessage) -> Vec<ConsensusAction> {
        match msg {
            ConsensusMessage::CftAccept(m) => self.on_accept(from, m),
            ConsensusMessage::CftAccepted(m) => self.on_accepted(from, m),
            ConsensusMessage::CftDecide(m) => self.on_decide(from, m),
            // BFT messages are ignored by the CFT baseline.
            _ => Vec::new(),
        }
    }

    fn handle_timer(&mut self, timer: ConsensusTimer) -> Vec<ConsensusAction> {
        match timer {
            ConsensusTimer::Request(seq) if !self.decided.contains(&seq) => {
                // Leader replacement in the CFT baseline: simply move to the
                // next ballot (the experiments never exercise CFT leader
                // failure, but the hook keeps the interface uniform).
                self.request_view_change()
            }
            _ => Vec::new(),
        }
    }

    fn request_view_change(&mut self) -> Vec<ConsensusAction> {
        self.ballot = self.ballot.next();
        vec![ConsensusAction::ViewInstalled {
            view: self.ballot,
            primary: self.leader_of(self.ballot),
        }]
    }

    fn view(&self) -> ViewNumber {
        self.ballot
    }

    fn primary(&self) -> NodeId {
        self.leader_of(self.ballot)
    }

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn name(&self) -> &'static str {
        "CFT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::committed_seqs;
    use sbft_types::{ClientId, Key, Operation, Transaction, TxnId};

    fn batch(counter: u64) -> Batch {
        Batch::single(Transaction::new(
            TxnId::new(ClientId(0), counter),
            vec![Operation::Read(Key(counter))],
        ))
    }

    fn cluster(n: usize) -> Vec<CftReplica> {
        let params = FaultParams::for_shim_size(n.max(4));
        let params = FaultParams { n_r: n, ..params };
        (0..n as u32)
            .map(|i| CftReplica::new(NodeId(i), params, SimDuration::from_millis(100)))
            .collect()
    }

    /// Delivers actions until quiescence, returning committed seqs per node.
    fn run(
        replicas: &mut [CftReplica],
        origin: usize,
        actions: Vec<ConsensusAction>,
    ) -> Vec<Vec<SeqNum>> {
        let mut committed = vec![Vec::new(); replicas.len()];
        let mut queue: Vec<(usize, usize, ConsensusMessage)> = Vec::new();
        let absorb = |origin: usize,
                      actions: Vec<ConsensusAction>,
                      queue: &mut Vec<(usize, usize, ConsensusMessage)>,
                      committed: &mut Vec<Vec<SeqNum>>| {
            for a in actions {
                match a {
                    ConsensusAction::Broadcast(m) => {
                        for to in 0..committed.len() {
                            if to != origin {
                                queue.push((origin, to, m.clone()));
                            }
                        }
                    }
                    ConsensusAction::Send(to, m) => queue.push((origin, to.0 as usize, m)),
                    ConsensusAction::Committed { seq, .. } => committed[origin].push(seq),
                    _ => {}
                }
            }
        };
        absorb(origin, actions, &mut queue, &mut committed);
        while let Some((from, to, msg)) = queue.pop() {
            let acts = replicas[to].handle_message(NodeId(from as u32), msg);
            absorb(to, acts, &mut queue, &mut committed);
        }
        committed
    }

    #[test]
    fn leader_replicates_and_everyone_decides() {
        let mut replicas = cluster(4);
        let actions = replicas[0].submit_batch(batch(0), ShardPlan::Unplanned);
        let committed = run(&mut replicas, 0, actions);
        for (i, c) in committed.iter().enumerate() {
            assert_eq!(c, &vec![SeqNum(1)], "node {i}");
        }
    }

    #[test]
    fn non_leader_ignores_submissions() {
        let mut replicas = cluster(4);
        assert!(replicas[1]
            .submit_batch(batch(0), ShardPlan::Unplanned)
            .is_empty());
    }

    #[test]
    fn commits_carry_no_certificate() {
        let mut replicas = cluster(4);
        let actions = replicas[0].submit_batch(batch(0), ShardPlan::Unplanned);
        let mut saw_commit = false;
        let mut queue: Vec<(usize, usize, ConsensusMessage)> = Vec::new();
        for a in &actions {
            if let ConsensusAction::Broadcast(m) = a {
                for to in 1..4 {
                    queue.push((0, to, m.clone()));
                }
            }
        }
        while let Some((from, to, msg)) = queue.pop() {
            for a in replicas[to].handle_message(NodeId(from as u32), msg) {
                match a {
                    ConsensusAction::Send(t, m) => queue.push((to, t.0 as usize, m)),
                    ConsensusAction::Broadcast(m) => {
                        for t in 0..4 {
                            if t != to {
                                queue.push((to, t, m.clone()));
                            }
                        }
                    }
                    ConsensusAction::Committed { certificate, .. } => {
                        saw_commit = true;
                        assert!(certificate.is_none());
                    }
                    _ => {}
                }
            }
        }
        assert!(saw_commit);
    }

    #[test]
    fn majority_is_floor_half_plus_one() {
        assert_eq!(cluster(4)[0].majority(), 3);
        assert_eq!(cluster(5)[0].majority(), 3);
        assert_eq!(cluster(8)[0].majority(), 5);
    }

    #[test]
    fn sequence_numbers_advance_per_submission() {
        let mut replicas = cluster(4);
        let a1 = replicas[0].submit_batch(batch(0), ShardPlan::Unplanned);
        let _ = run(&mut replicas, 0, a1);
        let a2 = replicas[0].submit_batch(batch(1), ShardPlan::Unplanned);
        let committed = run(&mut replicas, 0, a2);
        assert_eq!(committed[0], vec![SeqNum(2)]);
    }

    #[test]
    fn mismatched_digest_accept_rejected() {
        let mut replicas = cluster(4);
        let b = batch(0);
        let msg = ConsensusMessage::CftAccept(CftAccept {
            ballot: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            batch: b,
            plan: ShardPlan::Unplanned,
        });
        assert!(replicas[1].handle_message(NodeId(0), msg).is_empty());
    }

    #[test]
    fn timer_on_undecided_slot_changes_leader() {
        let mut replicas = cluster(4);
        let actions = replicas[1].handle_timer(ConsensusTimer::Request(SeqNum(1)));
        assert!(matches!(
            actions.first(),
            Some(ConsensusAction::ViewInstalled { view, .. }) if *view == ViewNumber(1)
        ));
        assert!(committed_seqs(&actions).is_empty());
    }

    #[test]
    fn name_reports_cft() {
        assert_eq!(cluster(4)[0].name(), "CFT");
    }
}
