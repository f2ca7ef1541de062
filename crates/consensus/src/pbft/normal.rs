//! The normal case: `PREPREPARE`, `PREPARE`, `COMMIT` (Figure 3).

use super::PbftReplica;
use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::{
    compute_batch_digest, Commit, ConsensusMessage, PrePrepare, Prepare, ProposalBody,
};
use sbft_crypto::CommitCertificate;
use sbft_types::{Digest, NodeId, SeqNum, ViewNumber};
use std::sync::Arc;

impl PbftReplica {
    pub(super) fn make_pre_prepare(
        &self,
        view: ViewNumber,
        seq: SeqNum,
        digest: Digest,
        body: ProposalBody,
    ) -> PrePrepare {
        let header = PrePrepare::signing_digest(view, seq, &digest);
        PrePrepare {
            view,
            seq,
            digest,
            body,
            mac: self.crypto.broadcast_mac(&header),
        }
    }

    fn make_prepare(&self, view: ViewNumber, seq: SeqNum, digest: Digest) -> Prepare {
        let header = Prepare::signing_digest(view, seq, &digest);
        Prepare {
            view,
            seq,
            digest,
            sender: self.me,
            mac: self.crypto.broadcast_mac(&header),
        }
    }

    fn make_commit(&self, view: ViewNumber, seq: SeqNum, digest: Digest) -> Commit {
        let signed = Commit::signing_digest(view, seq, &digest);
        Commit {
            view,
            seq,
            digest,
            sender: self.me,
            signature: self.crypto.sign(&signed),
        }
    }

    /// Runs the node-side handling of an accepted pre-prepare: broadcast a
    /// prepare, start the request timer, and re-evaluate quorums.
    pub(super) fn after_pre_prepare(
        &mut self,
        view: ViewNumber,
        seq: SeqNum,
        digest: Digest,
    ) -> Vec<ConsensusAction> {
        let mut actions = Vec::new();
        let prepare = self.make_prepare(view, seq, digest);
        self.log.add_prepare(prepare);
        actions.push(ConsensusAction::StartTimer {
            timer: ConsensusTimer::Request(seq),
            duration: self.node_timeout,
        });
        actions.push(ConsensusAction::Broadcast(ConsensusMessage::Prepare(
            prepare,
        )));
        actions.extend(self.check_prepared(seq));
        actions
    }

    /// Prepares `seq` once `2f_R + 1` matching `PREPARE`s are in, and casts
    /// this node's signed `COMMIT` vote.
    pub(super) fn check_prepared(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        let Some(entry) = self.log.entry(seq) else {
            return Vec::new();
        };
        if !entry.pre_prepared() || entry.prepared || entry.matching_prepares() < self.quorum() {
            return Vec::new();
        }
        let view = entry.view.expect("prepared entry has view");
        let digest = entry.digest.expect("prepared entry has digest");
        self.log.mark_prepared(seq);
        let commit = self.make_commit(view, seq, digest);
        self.log.add_commit(commit);
        let mut actions = vec![ConsensusAction::Broadcast(ConsensusMessage::Commit(commit))];
        actions.extend(self.check_committed(seq));
        actions
    }

    /// Commits `seq` once `2f_R + 1` matching `COMMIT`s are in: their
    /// signatures become the certificate the log seats the entry under.
    pub(super) fn check_committed(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        let Some(entry) = self.log.entry(seq) else {
            return Vec::new();
        };
        if !entry.prepared || entry.committed || entry.matching_commits().count() < self.quorum() {
            return Vec::new();
        }
        let digest = entry.digest.expect("committed entry has digest");
        let view = entry.view.expect("committed entry has view");
        let signers = entry
            .matching_commits()
            .map(|c| (c.sender, c.signature))
            .collect();
        let certificate = Arc::new(CommitCertificate::new(view, seq, digest, signers));
        let entry = self.log.seat_certified(Arc::clone(&certificate), None);
        let mut actions = vec![
            ConsensusAction::CancelTimer(ConsensusTimer::Request(seq)),
            ConsensusAction::Committed {
                view,
                seq,
                batch: entry.batch.clone().expect("committed entry has batch"),
                certificate: Some(certificate),
            },
        ];
        actions.extend(self.maybe_emit_checkpoint(seq));
        actions
    }

    pub(super) fn on_pre_prepare(&mut self, from: NodeId, pp: PrePrepare) -> Vec<ConsensusAction> {
        // Well-formedness checks (Figure 3, line 10), whatever the body.
        if self.in_view_change || pp.view != self.view || from != self.primary_of(pp.view) {
            return Vec::new();
        }
        let batch = match pp.body {
            ProposalBody::Batch(batch) => batch,
            ProposalBody::Ids(txn_ids) => {
                return self.reconstruct(pp.view, pp.seq, pp.digest, txn_ids);
            }
        };
        // The body came from the primary: hash it.
        if compute_batch_digest(&batch) != pp.digest {
            return Vec::new();
        }
        if !self
            .log
            .accept_pre_prepare(pp.seq, pp.view, pp.digest, batch)
        {
            // Equivocation detected: the primary proposed two different
            // batches at the same sequence number, or another batch than
            // the one this node committed there.
            return self.start_view_change(self.view.next());
        }
        self.after_pre_prepare(pp.view, pp.seq, pp.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{batch, TestShim};
    use super::super::SEQ_WINDOW_INTERVALS;
    use super::*;
    use crate::actions::committed_seqs;
    use crate::messages::{compute_batch_digest, header_digest};
    use crate::traits::OrderingProtocol;
    use sbft_types::ComponentId;

    #[test]
    fn normal_case_commits_on_every_replica() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        for i in 0..4u32 {
            assert_eq!(shim.committed_by(NodeId(i)), vec![SeqNum(1)], "node {i}");
        }
    }

    #[test]
    fn committed_batches_share_storage_with_the_submitted_batch() {
        // Zero-copy hand-off: the batch the primary submits travels through
        // PREPREPARE, every replica's log and the Committed action as a
        // refcount bump — all four replicas deliver the *same* transaction
        // allocation, never a deep clone.
        let mut shim = TestShim::new(4);
        let submitted = batch(0);
        let primary = shim.replicas[0].primary();
        let actions = shim.replicas[primary.0 as usize].submit_batch(submitted.clone());
        shim.run_actions(primary, actions);
        assert_eq!(shim.committed_batches.len(), 4, "all replicas committed");
        for (node, b) in &shim.committed_batches {
            assert!(
                b.shares_txns(&submitted),
                "node {node} must deliver the submitted batch's storage"
            );
        }
    }

    #[test]
    fn certificates_from_commit_quorum_verify() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        assert!(!shim.certificates.is_empty());
        let store = shim.provider.key_store();
        for cert in &shim.certificates {
            assert!(cert.verify(store, 3, 4).is_ok());
            assert_eq!(cert.seq, SeqNum(1));
        }
    }

    #[test]
    fn sequence_numbers_increase_monotonically() {
        let mut shim = TestShim::new(4);
        for i in 0..5 {
            shim.submit_to_primary(batch(i));
        }
        for i in 0..4u32 {
            assert_eq!(
                shim.committed_by(NodeId(i)),
                (1..=5).map(SeqNum).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn non_primary_ignores_submitted_batches() {
        let mut shim = TestShim::new(4);
        let actions = shim.replicas[2].submit_batch(batch(0));
        assert!(actions.is_empty());
    }

    #[test]
    fn larger_shim_commits_too() {
        let mut shim = TestShim::new(8);
        shim.submit_to_primary(batch(0));
        shim.submit_to_primary(batch(1));
        for i in 0..8u32 {
            assert_eq!(shim.committed_by(NodeId(i)).len(), 2, "node {i}");
        }
    }

    #[test]
    fn commits_survive_one_crashed_backup() {
        let mut shim = TestShim::new(4);
        shim.down.insert(NodeId(3));
        shim.submit_to_primary(batch(0));
        for i in 0..3u32 {
            assert_eq!(shim.committed_by(NodeId(i)), vec![SeqNum(1)]);
        }
        assert!(shim.committed_by(NodeId(3)).is_empty());
    }

    #[test]
    fn no_commit_without_quorum() {
        let mut shim = TestShim::new(4);
        shim.down.insert(NodeId(2));
        shim.down.insert(NodeId(3));
        shim.submit_to_primary(batch(0));
        assert!(shim.committed.is_empty(), "2 of 4 nodes cannot commit");
    }

    #[test]
    fn equivocating_pre_prepare_is_rejected() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        // Forge a second pre-prepare for seq 1 with a different batch,
        // correctly MACed by the primary's handle.
        let evil = batch(99);
        let digest = compute_batch_digest(&evil);
        let header = header_digest("preprepare", ViewNumber(0), SeqNum(1), &digest);
        let primary_handle = shim.provider.handle(ComponentId::Node(NodeId(0)));
        let pp = PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest,
            body: ProposalBody::Batch(evil),
            mac: primary_handle.broadcast_mac(&header),
        };
        let actions = shim.replicas[1].handle_message(NodeId(0), ConsensusMessage::PrePrepare(pp));
        // The node detects equivocation and asks for a view change rather
        // than accepting the conflicting proposal.
        assert!(actions.iter().any(|a| a.is_message_kind("VIEWCHANGE")));
        assert!(committed_seqs(&actions).is_empty());
    }

    #[test]
    fn a_pre_prepare_whose_body_is_not_its_digest_is_refused() {
        // The primary MACs the digest of one batch but ships another: a
        // backup hashes the body it was given and votes on nothing.
        let mut shim = TestShim::new(4);
        let digest = compute_batch_digest(&batch(0));
        let lying = batch(99);
        let header = header_digest("preprepare", ViewNumber(0), SeqNum(1), &digest);
        let pp = PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest,
            body: ProposalBody::Batch(lying),
            mac: shim
                .provider
                .handle(ComponentId::Node(NodeId(0)))
                .broadcast_mac(&header),
        };
        let actions = shim.replicas[1].handle_message(NodeId(0), ConsensusMessage::PrePrepare(pp));
        assert!(actions.is_empty(), "{actions:?}");
        assert!(shim.replicas[1].log.entry(SeqNum(1)).is_none());
    }

    #[test]
    fn pre_prepare_with_bad_mac_or_wrong_sender_ignored() {
        let mut shim = TestShim::new(4);
        let b = batch(0);
        let digest = compute_batch_digest(&b);
        let pp = PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest,
            body: ProposalBody::Batch(b.clone()),
            mac: sbft_types::MacTag::ZERO,
        };
        // Bad MAC.
        assert!(shim.replicas[1]
            .handle_message(NodeId(0), ConsensusMessage::PrePrepare(pp.clone()))
            .is_empty());
        // Correct MAC but sent by a non-primary node.
        let header = header_digest("preprepare", ViewNumber(0), SeqNum(1), &digest);
        let not_primary = shim.provider.handle(ComponentId::Node(NodeId(2)));
        let pp2 = PrePrepare {
            mac: not_primary.broadcast_mac(&header),
            ..pp
        };
        assert!(shim.replicas[1]
            .handle_message(NodeId(2), ConsensusMessage::PrePrepare(pp2))
            .is_empty());
    }

    #[test]
    fn commit_with_forged_signature_does_not_count() {
        let mut shim = TestShim::new(4);
        let c = Commit {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            sender: NodeId(3),
            signature: sbft_types::Signature::ZERO,
        };
        assert!(shim.replicas[1]
            .handle_message(NodeId(3), ConsensusMessage::Commit(c))
            .is_empty());
    }

    #[test]
    fn timer_for_committed_request_is_a_no_op() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        let actions = shim.replicas[1].handle_timer(ConsensusTimer::Request(SeqNum(1)));
        assert!(actions.is_empty());
    }

    #[test]
    fn a_committed_slot_refuses_a_later_views_different_batch() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        // Byzantine primary 0 keeps node 1 in the dark while A commits at
        // seq 2 on nodes 0, 2 and 3, then goes silent.
        shim.dark.insert(NodeId(1));
        let a = batch(1);
        shim.submit_to_primary(a.clone());
        assert!(!shim.replicas[1].log.is_committed(SeqNum(2)));
        shim.dark.clear();
        shim.down.insert(NodeId(0));
        // Nodes 1, 2 and 3 change view to node 1, whose log ends at seq 1 …
        let pending: Vec<(NodeId, Vec<ConsensusAction>)> = (1..4u32)
            .map(|i| (NodeId(i), shim.replicas[i as usize].request_view_change()))
            .collect();
        for (origin, actions) in pending {
            shim.run_actions(origin, actions);
        }
        assert_eq!(shim.replicas[1].view(), ViewNumber(1));
        // … so it proposes B at seq 2.
        let proposal = shim.replicas[1]
            .submit_batch(batch(7))
            .into_iter()
            .find_map(|action| match action {
                ConsensusAction::Broadcast(m @ ConsensusMessage::PrePrepare(_)) => Some(m),
                _ => None,
            })
            .expect("node 1 proposes");
        assert_eq!(proposal.proposal_seq(), Some(SeqNum(2)));
        for i in [2usize, 3] {
            let actions = shim.replicas[i].handle_message(NodeId(1), proposal.clone());
            assert!(
                !actions.iter().any(|a| a.is_message_kind("PREPARE")),
                "node {i} must not vote for another batch at a slot it committed: {actions:?}"
            );
            let entry = shim.replicas[i].log.entry(SeqNum(2)).expect("entry");
            assert!(entry.committed);
            assert_eq!(entry.digest, Some(compute_batch_digest(&a)), "node {i}");
            assert_eq!(entry.batch.as_ref(), Some(&a), "node {i}");
        }
    }

    #[test]
    fn a_flood_above_the_window_leaves_the_log_within_its_bound() {
        // Byzantine primary 0 sends replica 1 validly authenticated
        // proposals, prepares and commits above the high watermark, and
        // prepares for far-future views too.
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        let byzantine = shim.provider.handle(ComponentId::Node(NodeId(0)));
        // The test shim checkpoints every 4 sequence numbers.
        let high = SEQ_WINDOW_INTERVALS * 4;
        let replica = &mut shim.replicas[1];
        for k in 0..10_000u64 {
            let b = batch(k);
            let digest = compute_batch_digest(&b);
            let above = SeqNum(high + 1 + k);
            let far = SeqNum(1_000_000 + 1_000 * k);
            let view = ViewNumber(0);
            let flood = [
                ConsensusMessage::PrePrepare(PrePrepare {
                    view,
                    seq: above,
                    digest,
                    body: ProposalBody::Batch(b),
                    mac: byzantine.broadcast_mac(&header_digest(
                        "preprepare",
                        view,
                        above,
                        &digest,
                    )),
                }),
                ConsensusMessage::Prepare(Prepare {
                    view,
                    seq: above,
                    digest,
                    sender: NodeId(0),
                    mac: byzantine.broadcast_mac(&header_digest("prepare", view, above, &digest)),
                }),
                ConsensusMessage::Prepare(Prepare {
                    view: ViewNumber(k),
                    seq: far,
                    digest,
                    sender: NodeId(0),
                    mac: byzantine.broadcast_mac(&header_digest(
                        "prepare",
                        ViewNumber(k),
                        far,
                        &digest,
                    )),
                }),
                ConsensusMessage::Commit(Commit {
                    view,
                    seq: above,
                    digest,
                    sender: NodeId(0),
                    signature: byzantine.sign(&sbft_crypto::certificate::commit_digest(
                        view, above, &digest,
                    )),
                }),
            ];
            for msg in flood {
                let _ = replica.handle_message(NodeId(0), msg);
            }
        }
        assert!(
            replica.log.len() as u64 <= high,
            "the log holds {} slots, above its bound of L = {high}",
            replica.log.len()
        );
    }
}
