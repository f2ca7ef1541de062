//! The view change that replaces a faulty primary (Section V-A4).

use super::{PbftReplica, VIEW_WINDOW};
use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::{
    compute_batch_digest, ConsensusMessage, NewView, PreparedProof, ProposalBody, ViewChange,
};
use sbft_types::{NodeId, SeqNum, Signature, ViewNumber};
use std::collections::BTreeSet;

impl PbftReplica {
    /// Starts (or joins) a view change towards `target` (at least
    /// `view + 1`).
    pub(super) fn start_view_change(&mut self, target: ViewNumber) -> Vec<ConsensusAction> {
        let target = target.max(self.view.next());
        // Already voted for this target? Don't re-broadcast.
        if self
            .view_change_votes
            .get(&target)
            .is_some_and(|v| v.contains_key(&self.me))
        {
            return Vec::new();
        }
        self.in_view_change = true;
        // In-flight digest reconstructions die with the view: only
        // *prepared* proposals survive a view change, and a proposal only
        // prepares after its batch reconstructed. The new primary
        // re-issues survivors with their batches.
        self.pending_digest.clear();
        let prepared = self
            .log
            .prepared_uncommitted()
            .into_iter()
            .map(|(seq, view, digest)| PreparedProof { seq, digest, view })
            .collect();
        let mut vc = ViewChange {
            new_view: target,
            sender: self.me,
            last_stable_seq: self.log.stable_seq(),
            prepared,
            signature: Signature::ZERO,
        };
        vc.signature = self.crypto.sign(&vc.signing_digest());
        let mut actions = vec![
            ConsensusAction::Broadcast(ConsensusMessage::ViewChange(vc.clone())),
            ConsensusAction::StartTimer {
                timer: ConsensusTimer::ViewChange(target),
                duration: self.node_timeout.saturating_mul(2),
            },
        ];
        actions.extend(self.record_view_change_vote(vc));
        actions
    }

    /// A peer's view-change vote, past the gate. A vote for a view up to
    /// `W` ahead enters the table; one further ahead is only its sender's
    /// claim that the shim moved on, and once `f_R + 1` peers (one of them
    /// honest) claim views above the window, a replica that fell that far
    /// behind joins the lowest of them (PBFT's liveness rule, §4.5.2).
    pub(super) fn on_view_change(&mut self, vote: ViewChange) -> Vec<ConsensusAction> {
        let window = self.view.0 + VIEW_WINDOW;
        if vote.new_view.0 <= window {
            return self.record_view_change_vote(vote);
        }
        self.view_claims.insert(vote.sender, vote.new_view);
        let mut claims: Vec<ViewNumber> = self.view_claims.values().copied().collect();
        claims.sort_unstable_by(|a, b| b.cmp(a));
        match claims.get(self.params.f_r) {
            Some(&target) if target.0 > window => self.start_view_change(target),
            _ => Vec::new(),
        }
    }

    fn record_view_change_vote(&mut self, vc: ViewChange) -> Vec<ConsensusAction> {
        let target = vc.new_view;
        if target <= self.view {
            return Vec::new();
        }
        self.view_change_votes
            .entry(target)
            .or_default()
            .insert(vc.sender, vc);
        let votes = self.view_change_votes[&target].len();
        let mut actions = Vec::new();

        // Join the view change once f_R + 1 nodes ask for it (at least one
        // honest node timed out), even if our own timer has not fired.
        if votes > self.params.f_r && !self.view_change_votes[&target].contains_key(&self.me) {
            actions.extend(self.start_view_change(target));
            return actions;
        }

        // The designated primary of the target view installs it once it has
        // a 2f_R + 1 quorum of view-change votes.
        if self.primary_of(target) == self.me && votes >= self.params.view_change_quorum() {
            actions.extend(self.install_new_view_as_primary(target));
        }
        actions
    }

    fn install_new_view_as_primary(&mut self, target: ViewNumber) -> Vec<ConsensusAction> {
        let senders: Vec<NodeId> = self.view_change_votes[&target].keys().copied().collect();
        // Re-propose every request that prepared but did not commit, so it
        // survives the view change (Theorem VII.2's argument). A re-issue
        // carries its batch, whatever body the original proposal had.
        let mut reissued = Vec::new();
        for (seq, _, digest) in self.log.prepared_uncommitted() {
            if let Some(batch) = self.log.entry(seq).and_then(|e| e.batch.clone()) {
                reissued.push((seq, digest, batch));
            }
        }
        let mut new_view_msg = NewView {
            new_view: target,
            sender: self.me,
            view_change_senders: senders,
            reissued: reissued
                .iter()
                .map(|(seq, digest, batch)| {
                    self.make_pre_prepare(target, *seq, *digest, ProposalBody::Batch(batch.clone()))
                })
                .collect(),
            signature: Signature::ZERO,
        };
        new_view_msg.signature = self.crypto.sign(&new_view_msg.signing_digest());
        let mut actions = vec![ConsensusAction::Broadcast(ConsensusMessage::NewView(
            new_view_msg,
        ))];
        actions.extend(self.install_view(target));
        // The new primary re-runs consensus for the re-issued requests.
        for (seq, digest, batch) in reissued {
            if self.log.accept_pre_prepare(seq, target, digest, batch) {
                actions.extend(self.after_pre_prepare(target, seq, digest));
            }
        }
        actions
    }

    fn install_view(&mut self, view: ViewNumber) -> Vec<ConsensusAction> {
        self.view = view;
        self.in_view_change = false;
        self.view_change_votes.retain(|v, _| *v > view);
        // Reconstructions keyed to the replaced view are dead; the new
        // primary's NEWVIEW re-proposes anything that prepared.
        self.pending_digest.clear();
        // The new primary continues the sequence space after the highest
        // sequence number that actually reached the prepared or committed
        // state. Sequence numbers that a byzantine primary "used" without
        // letting any request prepare are reused, so no permanent gap is
        // left in front of the verifier's k_max (PBFT fills such gaps with
        // null requests; reusing them for real batches is equivalent here
        // because nothing could have committed at those numbers).
        let highest_prepared = self
            .log
            .prepared_uncommitted()
            .iter()
            .map(|(s, _, _)| s.0)
            .max()
            .unwrap_or(0);
        let highest_relevant = self
            .log
            .max_committed()
            .0
            .max(highest_prepared)
            .max(self.log.stable_seq().0);
        self.next_seq = SeqNum(highest_relevant + 1);
        vec![
            ConsensusAction::CancelTimer(ConsensusTimer::ViewChange(view)),
            ConsensusAction::ViewInstalled {
                view,
                primary: self.primary_of(view),
            },
        ]
    }

    pub(super) fn on_new_view(&mut self, from: NodeId, nv: NewView) -> Vec<ConsensusAction> {
        if nv.new_view <= self.view
            || from != self.primary_of(nv.new_view)
            || nv.view_change_senders.iter().collect::<BTreeSet<_>>().len()
                < self.params.view_change_quorum()
        {
            return Vec::new();
        }
        let mut actions = self.install_view(nv.new_view);
        for pp in nv.reissued {
            // A re-issue carries the installed view and its batch (nothing
            // reconstructs across views). Below the floor it is still voted
            // on, for peers that have not committed the slot.
            let admitted = self.authentic_proposal(from, &pp)
                && pp.seq <= self.high_watermark()
                && pp.view == self.view;
            let ProposalBody::Batch(batch) = pp.body else {
                continue;
            };
            if admitted
                && compute_batch_digest(&batch) == pp.digest
                && self
                    .log
                    .accept_pre_prepare(pp.seq, pp.view, pp.digest, batch)
            {
                actions.extend(self.after_pre_prepare(pp.view, pp.seq, pp.digest));
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{batch, TestShim};
    use super::*;
    use crate::messages::{compute_batch_digest, header_digest, PrePrepare};
    use crate::traits::OrderingProtocol;
    use sbft_types::ComponentId;

    #[test]
    fn request_timer_expiry_triggers_view_change() {
        let mut shim = TestShim::new(4);
        // Node 1 accepted a pre-prepare but consensus never finishes
        // (simulate by timing out directly).
        let actions = shim.replicas[1].handle_timer(ConsensusTimer::Request(SeqNum(1)));
        assert!(
            actions.iter().any(|a| a.is_message_kind("VIEWCHANGE")),
            "timeout must broadcast a view change: {actions:?}"
        );
        assert!(shim.replicas[1].in_view_change);
    }

    #[test]
    fn view_change_elects_next_primary_and_resumes() {
        let mut shim = TestShim::new(4);
        // The primary (node 0) goes silent.
        shim.down.insert(NodeId(0));
        // All remaining nodes time out on a request the primary suppressed
        // (timers fire at roughly the same time, before any view-change
        // traffic is exchanged).
        let pending: Vec<(NodeId, Vec<ConsensusAction>)> = (1..4u32)
            .map(|i| {
                (
                    NodeId(i),
                    shim.replicas[i as usize].handle_timer(ConsensusTimer::Request(SeqNum(1))),
                )
            })
            .collect();
        for (origin, actions) in pending {
            shim.run_actions(origin, actions);
        }
        for i in 1..4u32 {
            assert_eq!(shim.replicas[i as usize].view(), ViewNumber(1), "node {i}");
            assert_eq!(shim.replicas[i as usize].primary(), NodeId(1));
            assert!(!shim.replicas[i as usize].in_view_change);
        }
        // The new primary can order new batches.
        let actions = shim.replicas[1].submit_batch(batch(7));
        shim.run_actions(NodeId(1), actions);
        for i in 1..4u32 {
            assert!(!shim.committed_by(NodeId(i)).is_empty(), "node {i}");
        }
    }

    #[test]
    fn explicit_view_change_request_is_honoured() {
        let mut shim = TestShim::new(4);
        shim.down.insert(NodeId(0));
        let pending: Vec<(NodeId, Vec<ConsensusAction>)> = (1..4u32)
            .map(|i| (NodeId(i), shim.replicas[i as usize].request_view_change()))
            .collect();
        for (origin, actions) in pending {
            shim.run_actions(origin, actions);
        }
        assert_eq!(shim.replicas[1].view(), ViewNumber(1));
    }

    #[test]
    fn prepared_requests_survive_view_change() {
        let mut shim = TestShim::new(4);
        // Run a full consensus first so nodes have state, then suppress the
        // primary before it can propose seq 2 and make sure a prepared
        // entry at the new primary is re-proposed.
        shim.submit_to_primary(batch(0));
        // Manually inject a prepared-but-uncommitted entry at node 1 (as if
        // commits were lost).
        let b = batch(1);
        let digest = compute_batch_digest(&b);
        shim.replicas[1]
            .log
            .accept_pre_prepare(SeqNum(2), ViewNumber(0), digest, b.clone());
        shim.replicas[1].log.entry_mut(SeqNum(2)).prepared = true;
        shim.down.insert(NodeId(0));
        let pending: Vec<(NodeId, Vec<ConsensusAction>)> = (1..4u32)
            .map(|i| {
                (
                    NodeId(i),
                    shim.replicas[i as usize].handle_timer(ConsensusTimer::Request(SeqNum(2))),
                )
            })
            .collect();
        for (origin, actions) in pending {
            shim.run_actions(origin, actions);
        }
        // Node 1 is the new primary and re-proposed seq 2; everyone commits it.
        for i in 1..4u32 {
            assert!(
                shim.committed_by(NodeId(i)).contains(&SeqNum(2)),
                "node {i} must commit the re-proposed request: {:?}",
                shim.committed_by(NodeId(i))
            );
        }
    }

    #[test]
    fn f_plus_one_view_changes_pull_in_honest_nodes() {
        let mut shim = TestShim::new(4);
        // Only nodes 1 and 2 (f_r + 1 = 2 of them) time out, yet the view
        // change completes because the remaining honest nodes join once
        // they see f_r + 1 requests.
        let a1 = shim.replicas[1].request_view_change();
        shim.run_actions(NodeId(1), a1);
        // A single vote must not move anyone yet.
        assert_eq!(shim.replicas[3].view(), ViewNumber(0));
        let a2 = shim.replicas[2].request_view_change();
        shim.run_actions(NodeId(2), a2);
        assert_eq!(
            shim.replicas[3].view(),
            ViewNumber(1),
            "node 3 joined and installed"
        );
        assert_eq!(
            shim.replicas[0].view(),
            ViewNumber(1),
            "old primary moves along too"
        );
    }

    /// Gives node 1 a prepared, uncommitted proposal at seq 1, so that its
    /// `VIEWCHANGE` carries one proof and its `NEWVIEW` one re-issue.
    fn prepare_at_node_1(shim: &mut TestShim) {
        let b = batch(1);
        shim.replicas[1].log.accept_pre_prepare(
            SeqNum(1),
            ViewNumber(0),
            compute_batch_digest(&b),
            b,
        );
        shim.replicas[1].log.entry_mut(SeqNum(1)).prepared = true;
    }

    #[test]
    fn a_view_change_with_a_swapped_proof_is_dropped() {
        let mut shim = TestShim::new(4);
        prepare_at_node_1(&mut shim);
        let vote = shim.replicas[1]
            .request_view_change()
            .into_iter()
            .find_map(|action| match action {
                ConsensusAction::Broadcast(ConsensusMessage::ViewChange(vc)) => Some(vc),
                _ => None,
            })
            .expect("node 1 votes");
        assert_eq!(vote.prepared.len(), 1);
        // As many proofs, another digest, the original signature.
        let mut forged = vote.clone();
        forged.prepared[0].digest = compute_batch_digest(&batch(99));
        assert!(shim.replicas[2]
            .handle_message(NodeId(1), ConsensusMessage::ViewChange(forged))
            .is_empty());
        assert!(
            shim.replicas[2].view_change_votes.is_empty(),
            "a tampered vote must not count"
        );
        // The vote as signed counts.
        shim.replicas[2].handle_message(NodeId(1), ConsensusMessage::ViewChange(vote));
        assert_eq!(shim.replicas[2].view_change_votes[&ViewNumber(1)].len(), 1);
    }

    #[test]
    fn a_new_view_with_a_swapped_sender_or_reissued_batch_is_dropped() {
        let mut shim = TestShim::new(4);
        prepare_at_node_1(&mut shim);
        // Nodes 1, 2 and 3 vote node 0 out; only node 1 hears the votes.
        let votes: Vec<(NodeId, Vec<ConsensusAction>)> = (1..4u32)
            .map(|i| (NodeId(i), shim.replicas[i as usize].request_view_change()))
            .collect();
        let mut new_view = None;
        for (from, actions) in votes {
            for action in actions {
                if let ConsensusAction::Broadcast(m @ ConsensusMessage::ViewChange(_)) = action {
                    for answer in shim.replicas[1].handle_message(from, m) {
                        if let ConsensusAction::Broadcast(ConsensusMessage::NewView(nv)) = answer {
                            new_view = Some(nv);
                        }
                    }
                }
            }
        }
        let new_view = new_view.expect("node 1 installs view 1");
        assert_eq!(new_view.view_change_senders.len(), 3);
        assert_eq!(new_view.reissued.len(), 1);
        // As many senders, one of them another, the original signature.
        let mut forged = new_view.clone();
        forged.view_change_senders[0] = NodeId(0);
        assert!(shim.replicas[2]
            .handle_message(NodeId(1), ConsensusMessage::NewView(forged))
            .is_empty());
        // As many re-issues, another batch under the new primary's own
        // MAC, the original signature.
        let evil = batch(99);
        let digest = compute_batch_digest(&evil);
        let header = header_digest("preprepare", ViewNumber(1), SeqNum(1), &digest);
        let mut forged = new_view.clone();
        forged.reissued[0] = PrePrepare {
            view: ViewNumber(1),
            seq: SeqNum(1),
            digest,
            body: ProposalBody::Batch(evil),
            mac: shim
                .provider
                .handle(ComponentId::Node(NodeId(1)))
                .broadcast_mac(&header),
        };
        assert!(shim.replicas[2]
            .handle_message(NodeId(1), ConsensusMessage::NewView(forged))
            .is_empty());
        assert_eq!(shim.replicas[2].view(), ViewNumber(0), "nothing installed");
        // The message as signed installs the view.
        shim.replicas[2].handle_message(NodeId(1), ConsensusMessage::NewView(new_view));
        assert_eq!(shim.replicas[2].view(), ViewNumber(1));
    }

    #[test]
    fn a_view_change_flood_leaves_the_vote_table_within_its_bound() {
        // Byzantine node 3 sends node 2 signed view-change votes for views
        // above the view window.
        let mut shim = TestShim::new(4);
        let byzantine = shim.provider.handle(ComponentId::Node(NodeId(3)));
        let replica = &mut shim.replicas[2];
        for k in 0..10_000u64 {
            let mut vote = ViewChange {
                new_view: ViewNumber(VIEW_WINDOW + 1 + k),
                sender: NodeId(3),
                last_stable_seq: SeqNum(0),
                prepared: Vec::new(),
                signature: Signature::ZERO,
            };
            vote.signature = byzantine.sign(&vote.signing_digest());
            let _ = replica.handle_message(NodeId(3), ConsensusMessage::ViewChange(vote));
        }
        assert!(
            replica.view_change_votes.len() as u64 <= VIEW_WINDOW,
            "{} target views hold votes, above the bound of W = {VIEW_WINDOW}",
            replica.view_change_votes.len()
        );
        // Above the window a vote is only its sender's claim, and one
        // sender's claims move nothing.
        assert_eq!(replica.view_claims.len(), 1);
        assert!(!replica.in_view_change);
    }

    /// Cuts node 3 off while nodes 0 to 2 change views `W + 1` times, to
    /// view `W + 1`, then reconnects it.
    fn leave_node_3_beyond_the_view_window() -> TestShim {
        let mut shim = TestShim::new(4);
        shim.down.insert(NodeId(3));
        for target in 1..=VIEW_WINDOW + 1 {
            let pending: Vec<(NodeId, Vec<ConsensusAction>)> = (0..3u32)
                .map(|i| {
                    let replica = &mut shim.replicas[i as usize];
                    (NodeId(i), replica.start_view_change(ViewNumber(target)))
                })
                .collect();
            for (origin, actions) in pending {
                shim.run_actions(origin, actions);
            }
        }
        assert_eq!(shim.replicas[0].view(), ViewNumber(VIEW_WINDOW + 1));
        assert_eq!(shim.replicas[3].view(), ViewNumber(0));
        shim.down.clear();
        shim
    }

    /// Runs a view change to `target` started by `starters`, then orders
    /// one batch in the new view.
    fn change_view_and_order(shim: &mut TestShim, target: u64, starters: &[u32]) {
        let pending: Vec<(NodeId, Vec<ConsensusAction>)> = starters
            .iter()
            .map(|&i| {
                let replica = &mut shim.replicas[i as usize];
                (NodeId(i), replica.start_view_change(ViewNumber(target)))
            })
            .collect();
        for (origin, actions) in pending {
            shim.run_actions(origin, actions);
        }
        let primary = NodeId::primary_of(ViewNumber(target), 4);
        let actions = shim.replicas[primary.0 as usize].submit_batch(batch(target));
        shim.run_actions(primary, actions);
    }

    #[test]
    fn a_replica_beyond_the_view_window_installs_the_next_new_view() {
        let mut shim = leave_node_3_beyond_the_view_window();
        let target = VIEW_WINDOW + 2;
        change_view_and_order(&mut shim, target, &[0, 1, 2]);
        assert_eq!(shim.replicas[3].view(), ViewNumber(target));
        assert!(!shim.replicas[3].in_view_change);
        assert_eq!(
            shim.committed_by(NodeId(3)).len(),
            1,
            "node 3 commits again"
        );
    }

    #[test]
    fn a_replica_beyond_the_view_window_joins_a_view_change_that_needs_it() {
        // With node 0 down, the view change to W + 2 needs node 3's vote,
        // which it casts once f_R + 1 peers claim views above its window.
        let mut shim = leave_node_3_beyond_the_view_window();
        shim.down.insert(NodeId(0));
        let target = VIEW_WINDOW + 2;
        change_view_and_order(&mut shim, target, &[1, 2]);
        for i in 1..4u32 {
            assert_eq!(
                shim.replicas[i as usize].view(),
                ViewNumber(target),
                "node {i}"
            );
            assert_eq!(shim.committed_by(NodeId(i)).len(), 1, "node {i} commits");
        }
    }

    #[test]
    fn a_new_view_whose_reissue_fails_the_gate_installs_the_view_but_not_the_slot() {
        let b = batch(1);
        let digest = compute_batch_digest(&b);
        let other = batch(99);
        for field in ["nothing", "mac", "seq", "digest", "body"] {
            let mut shim = TestShim::new(4);
            let new_primary = shim.provider.handle(ComponentId::Node(NodeId(1)));
            let header = header_digest("preprepare", ViewNumber(1), SeqNum(1), &digest);
            let mut reissue = PrePrepare {
                view: ViewNumber(1),
                seq: SeqNum(1),
                digest,
                body: ProposalBody::Batch(b.clone()),
                mac: new_primary.broadcast_mac(&header),
            };
            match field {
                "mac" => reissue.mac = sbft_types::MacTag::ZERO,
                "seq" => reissue.seq = SeqNum(2),
                "digest" => {
                    reissue.digest = compute_batch_digest(&other);
                    reissue.body = ProposalBody::Batch(other.clone());
                }
                // Another body under the signed digest: the receiver
                // hashes the body itself.
                "body" => reissue.body = ProposalBody::Batch(other.clone()),
                _ => {}
            }
            let seq = reissue.seq;
            // The new primary signs what it sends, flipped re-issue and all.
            let mut new_view = NewView {
                new_view: ViewNumber(1),
                sender: NodeId(1),
                view_change_senders: vec![NodeId(1), NodeId(2), NodeId(3)],
                reissued: vec![reissue],
                signature: Signature::ZERO,
            };
            new_view.signature = new_primary.sign(&new_view.signing_digest());
            let actions =
                shim.replicas[2].handle_message(NodeId(1), ConsensusMessage::NewView(new_view));
            assert_eq!(shim.replicas[2].view(), ViewNumber(1), "{field}: view");
            let accepted = field == "nothing";
            assert_eq!(
                actions.iter().any(|a| a.is_message_kind("PREPARE")),
                accepted,
                "{field}: {actions:?}"
            );
            assert_eq!(
                shim.replicas[2].log.entry(seq).is_some(),
                accepted,
                "{field}: slot {seq:?}"
            );
        }
    }
}
