//! Featherweight checkpoints (Section V-B).

use super::PbftReplica;
use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::{Checkpoint, ConsensusMessage};
use sbft_types::{ComponentId, NodeId, SeqNum, Signature};
use std::sync::Arc;

impl PbftReplica {
    /// Broadcasts a featherweight checkpoint when `seq` closes an interval.
    pub(super) fn maybe_emit_checkpoint(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        if !seq.0.is_multiple_of(self.checkpoint_interval) || seq <= self.log.stable_seq() {
            return Vec::new();
        }
        let certificates = self
            .log
            .certified(SeqNum(self.log.stable_seq().0 + 1)..=seq)
            .map(|(_, cert)| Arc::clone(cert))
            .collect();
        let mut checkpoint = Checkpoint {
            seq,
            sender: self.me,
            certificates,
            signature: Signature::ZERO,
        };
        checkpoint.signature = self.crypto.sign(&checkpoint.signing_digest());
        let mut actions = vec![ConsensusAction::Broadcast(ConsensusMessage::Checkpoint(
            checkpoint.clone(),
        ))];
        actions.extend(self.record_checkpoint_vote(checkpoint));
        actions
    }

    fn record_checkpoint_vote(&mut self, checkpoint: Checkpoint) -> Vec<ConsensusAction> {
        let seq = checkpoint.seq;
        let votes = self.checkpoint_votes.entry(seq).or_default();
        votes.insert(checkpoint.sender, checkpoint);
        // A checkpoint becomes stable once f_R + 1 nodes vouch for it: at
        // least one honest node has the certificates.
        if self.checkpoint_votes[&seq].len() < self.params.f_r + 1 || seq <= self.log.stable_seq() {
            return Vec::new();
        }
        let mut actions = Vec::new();
        // Adopt certificates for sequence numbers we never committed
        // ourselves: either we were kept in the dark for them, or the
        // checkpoint overtook our own in-flight commit (message reordering).
        let missing = self.log.missing_up_to(seq);
        if !missing.is_empty() {
            let vote_with_certs = self.checkpoint_votes[&seq]
                .values()
                .max_by_key(|c| c.certificates.len())
                .cloned();
            if let Some(vote) = vote_with_certs {
                let mut was_dark = false;
                for cert in &vote.certificates {
                    if missing.contains(&cert.seq)
                        && cert
                            .verify(
                                self.crypto.provider().key_store(),
                                self.quorum(),
                                self.params.n_r,
                            )
                            .is_ok()
                    {
                        let entry = self.log.seat_certified(Arc::clone(cert), None);
                        let (batch, plan) = (entry.batch.clone(), entry.plan);
                        actions.push(ConsensusAction::CancelTimer(ConsensusTimer::Request(
                            cert.seq,
                        )));
                        if let Some(batch) = batch {
                            // We had accepted the pre-prepare (so we hold
                            // the batch) and only missed the commit quorum:
                            // deliver it as a normal commit so the
                            // ServerlessBFT layer can act on it.
                            actions.push(ConsensusAction::Committed {
                                view: cert.view,
                                seq: cert.seq,
                                batch,
                                plan,
                                certificate: Some(Arc::clone(cert)),
                            });
                        } else {
                            // Truly in the dark for this request: we only
                            // learn that it committed, not its contents.
                            was_dark = true;
                        }
                    }
                }
                if was_dark {
                    actions.push(ConsensusAction::CaughtUp { up_to: seq });
                }
            }
        }
        self.collect_below(seq);
        actions
    }

    /// A new stable floor: the log drops every slot at or below it, and
    /// the checkpoint votes that got it there go too.
    pub(super) fn collect_below(&mut self, floor: SeqNum) {
        self.log.collect_below(floor);
        self.checkpoint_votes.retain(|s, _| *s > floor);
    }

    pub(super) fn on_checkpoint(&mut self, from: NodeId, cp: Checkpoint) -> Vec<ConsensusAction> {
        if cp.sender != from
            || !self
                .crypto
                .verify(ComponentId::Node(from), &cp.signing_digest(), &cp.signature)
        {
            return Vec::new();
        }
        self.record_checkpoint_vote(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{batch, TestShim};
    use super::*;
    use crate::traits::OrderingProtocol;

    #[test]
    fn checkpoints_garbage_collect_the_log() {
        let mut shim = TestShim::new(4);
        // Checkpoint interval in the test shim is 4.
        for i in 0..4 {
            shim.submit_to_primary(batch(i));
        }
        for r in &shim.replicas {
            assert_eq!(r.log.stable_seq(), SeqNum(4), "node {}", r.node_id());
            assert!(r.log.is_empty(), "log must be garbage collected");
        }
        // Consensus continues normally after the checkpoint.
        shim.submit_to_primary(batch(5));
        for i in 0..4u32 {
            assert!(shim.committed_by(NodeId(i)).contains(&SeqNum(5)));
        }
    }

    #[test]
    fn node_in_dark_catches_up_from_featherweight_checkpoint() {
        let mut shim = TestShim::new(4);
        // Node 3 is kept in the dark by a clever primary: it misses every
        // PREPREPARE/PREPARE/COMMIT, but the honest nodes' featherweight
        // checkpoints still reach it.
        shim.dark.insert(NodeId(3));
        for i in 0..4 {
            shim.submit_to_primary(batch(i));
        }
        // It never committed anything itself …
        assert!(shim.committed_by(NodeId(3)).is_empty());
        // … but the checkpoint at seq 4 (interval = 4) brought it up to date.
        assert!(
            shim.caught_up
                .iter()
                .any(|(n, s)| *n == NodeId(3) && *s == SeqNum(4)),
            "dark node must report catching up: {:?}",
            shim.caught_up
        );
        assert_eq!(shim.replicas[3].log.stable_seq(), SeqNum(4));
        // The other nodes committed normally.
        for i in 0..3u32 {
            assert_eq!(shim.committed_by(NodeId(i)).len(), 4, "node {i}");
        }
    }

    #[test]
    fn a_checkpoint_with_a_swapped_certificate_is_dropped() {
        let mut shim = TestShim::new(4);
        shim.dark.insert(NodeId(3));
        for i in 0..3 {
            shim.submit_to_primary(batch(i));
        }
        let checkpoint = shim.replicas[0]
            .maybe_emit_checkpoint(SeqNum(4))
            .into_iter()
            .find_map(|action| match action {
                ConsensusAction::Broadcast(ConsensusMessage::Checkpoint(cp)) => Some(cp),
                _ => None,
            })
            .expect("node 0 signs a checkpoint");
        assert_eq!(checkpoint.certificates.len(), 3);
        // As many certificates, one of them another, the original signature.
        let mut forged = checkpoint.clone();
        forged.certificates[0] = Arc::clone(&forged.certificates[1]);
        assert!(shim.replicas[3]
            .handle_message(NodeId(0), ConsensusMessage::Checkpoint(forged))
            .is_empty());
        assert!(
            shim.replicas[3].checkpoint_votes.is_empty(),
            "a tampered checkpoint must not count as a vote"
        );
        // The checkpoint as signed counts.
        shim.replicas[3].handle_message(NodeId(0), ConsensusMessage::Checkpoint(checkpoint));
        assert_eq!(shim.replicas[3].checkpoint_votes[&SeqNum(4)].len(), 1);
    }
}
