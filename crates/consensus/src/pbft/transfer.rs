//! State transfer: how a crash-restarted replica gets the committed suffix.

use super::{PbftReplica, STATE_RETRY_BUDGET};
use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::{compute_batch_digest, ConsensusMessage, StateRequest, StateResponse};
use sbft_durability::RecoveredEntry;
use sbft_types::{NodeId, SeqNum, Signature, SimDuration};
use std::sync::Arc;

impl PbftReplica {
    /// This replica's `STATEREQUEST` for everything committed above `above`.
    pub(super) fn signed_state_request(&self, above: SeqNum) -> StateRequest {
        let mut req = StateRequest {
            sender: self.me,
            above,
            signature: Signature::ZERO,
        };
        req.signature = self.crypto.sign(&req.signing_digest());
        req
    }

    pub(super) fn on_state_request(
        &mut self,
        from: NodeId,
        req: StateRequest,
    ) -> Vec<ConsensusAction> {
        // Ship every committed entry above the requested floor for which
        // we still hold both the batch and the certificate (everything
        // since our last stable checkpoint; older entries were garbage
        // collected and are covered by checkpoint catch-up instead).
        let entries: Vec<RecoveredEntry> = self
            .log
            .certified(SeqNum(req.above.0 + 1)..)
            .filter_map(|(entry, cert)| {
                Some(RecoveredEntry {
                    seq: cert.seq,
                    view: cert.view,
                    batch: entry.batch.clone()?,
                    certificate: Arc::clone(cert),
                })
            })
            .collect();
        if entries.is_empty() && self.log.stable_seq() <= req.above {
            // Nothing the requester is missing; stay silent.
            return Vec::new();
        }
        vec![ConsensusAction::Send(
            from,
            ConsensusMessage::StateResponse(StateResponse {
                sender: self.me,
                stable_seq: self.log.stable_seq(),
                entries,
            }),
        )]
    }

    pub(super) fn on_state_response(
        &mut self,
        from: NodeId,
        resp: StateResponse,
    ) -> Vec<ConsensusAction> {
        // First pass: validate. The response is unsigned; each entry must
        // self-certify (the certificate carries a commit quorum and the
        // batch must hash to the digest the quorum signed). Garbage —
        // mismatched or invalid certificates, digest mismatches, a stale
        // view claim contradicting the certificate — is rejected and
        // counted against the sender, never seated. Entries already held
        // (committed here, or adopted from another peer's overlapping
        // suffix — which committed them here) are skipped silently, so
        // duplicated and overlapping responses are idempotent.
        let mut valid = Vec::new();
        let mut duplicates = 0usize;
        let mut garbage = 0u64;
        for e in resp.entries {
            if e.seq <= self.log.stable_seq() || self.log.is_committed(e.seq) {
                duplicates += 1;
                continue;
            }
            if e.certificate.seq != e.seq
                || e.view != e.certificate.view
                || e.certificate
                    .verify(
                        self.crypto.provider().key_store(),
                        self.quorum(),
                        self.params.n_r,
                    )
                    .is_err()
                || compute_batch_digest(&e.batch) != e.certificate.batch_digest
            {
                garbage += 1;
                continue;
            }
            valid.push(e);
        }
        if garbage > 0 {
            self.blame(from, garbage);
        }

        let mut actions = Vec::new();
        let mut useful = duplicates > 0 && garbage == 0;

        // Checkpoint catch-up: the responder's snapshot floor may be above
        // everything we hold, the suffix below it gone from peer retention.
        // A certified entry above it in the same response proves it.
        let proven = valid.iter().any(|e| e.seq > resp.stable_seq);
        if let Some(caught_up) = self.claim_floor(from, resp.stable_seq, proven) {
            useful = true;
            actions.push(caught_up);
        }

        for e in valid {
            if e.seq <= self.log.stable_seq() {
                // Covered by a floor adopted above.
                continue;
            }
            self.log
                .seat_certified(Arc::clone(&e.certificate), Some(e.batch.clone()));
            self.next_seq = self.next_seq.max(SeqNum(e.seq.0 + 1));
            useful = true;
            actions.push(ConsensusAction::CancelTimer(ConsensusTimer::Request(e.seq)));
            actions.push(ConsensusAction::Committed {
                view: e.certificate.view,
                seq: e.seq,
                batch: e.batch,
                certificate: Some(e.certificate),
            });
        }

        // A useful response ends the retransmission schedule.
        if useful && self.state_transfer_attempt.take().is_some() {
            actions.push(ConsensusAction::CancelTimer(ConsensusTimer::StateTransfer));
        }
        actions
    }

    /// Records `peer`'s claim that it committed everything up to `floor`,
    /// and adopts the floor when it lies above everything this replica
    /// holds and is *proven*, or *vouched* by `f_r + 1` distinct peers
    /// claiming at least that floor (at least one of them honest).
    pub(super) fn claim_floor(
        &mut self,
        peer: NodeId,
        floor: SeqNum,
        proven: bool,
    ) -> Option<ConsensusAction> {
        let claim = self.floor_claims.entry(peer).or_insert(SeqNum(0));
        *claim = (*claim).max(floor);
        let vouched = self.floor_claims.values().filter(|s| **s >= floor).count() > self.params.f_r;
        if floor <= self.transfer_floor() || !(proven || vouched) {
            return None;
        }
        self.collect_below(floor);
        self.next_seq = self.next_seq.max(SeqNum(floor.0 + 1));
        self.catch_ups.inc();
        Some(ConsensusAction::CaughtUp { up_to: floor })
    }

    /// The highest sequence this replica can prove committed — what a
    /// retransmitted `STATEREQUEST` asks above.
    fn transfer_floor(&self) -> SeqNum {
        self.log.max_committed().max(self.log.stable_seq())
    }

    /// Capped exponential backoff for the `STATEREQUEST` retransmission
    /// timer: `node_timeout / 2` doubling per attempt, capped at
    /// `4 × node_timeout`.
    pub(super) fn state_retry_backoff(&self, attempt: u32) -> SimDuration {
        let base = (self.node_timeout.as_micros() / 2).max(1);
        let cap = self.node_timeout.as_micros().saturating_mul(4).max(1);
        SimDuration::from_micros(base.saturating_mul(1 << attempt.min(16)).min(cap))
    }

    /// The peer a retransmission attempt targets: retries rotate through
    /// the other replicas one at a time, so a silent, partitioned or
    /// lying peer cannot starve recovery.
    fn rotation_peer(&self, attempt: u32) -> NodeId {
        self.other_replica(self.me.0 + 1, attempt.saturating_sub(1))
    }

    /// Expiry of the `STATEREQUEST` retransmission timer: re-sign the
    /// request at the current transfer floor (adopted entries raise it,
    /// shrinking retransmitted suffixes) and send it to the next peer in
    /// rotation, backing off exponentially until the budget is spent.
    pub(super) fn retransmit_state_request(&mut self) -> Vec<ConsensusAction> {
        let Some(attempt) = self.state_transfer_attempt else {
            return Vec::new();
        };
        if attempt >= STATE_RETRY_BUDGET {
            self.state_transfer_attempt = None;
            return Vec::new();
        }
        let attempt = attempt + 1;
        self.state_transfer_attempt = Some(attempt);
        self.state_request_retries.inc();
        let req = self.signed_state_request(self.transfer_floor());
        vec![
            ConsensusAction::Send(
                self.rotation_peer(attempt),
                ConsensusMessage::StateRequest(req),
            ),
            ConsensusAction::StartTimer {
                timer: ConsensusTimer::StateTransfer,
                duration: self.state_retry_backoff(attempt),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{batch, TestShim};
    use super::*;
    use crate::actions::committed_seqs;
    use crate::messages::compute_batch_digest;
    use crate::traits::OrderingProtocol;
    use sbft_crypto::CommitCertificate;
    use sbft_types::{ComponentId, FaultParams, ViewNumber};

    #[test]
    fn crashed_replica_with_empty_log_state_transfers_everything() {
        let mut shim = TestShim::new(4);
        for i in 0..3 {
            shim.submit_to_primary(batch(i));
        }
        // Node 3 crashes with no durable log at all: replace it with a
        // fresh replica and run recovery.
        let params = FaultParams::for_shim_size(4);
        shim.replicas[3] = PbftReplica::new(
            NodeId(3),
            params,
            shim.provider.handle(ComponentId::Node(NodeId(3))),
            SimDuration::from_millis(100),
            4,
        );
        let before = shim.committed_by(NodeId(3)).len();
        let actions = shim.replicas[3].install_recovered(Vec::new(), SeqNum(0), ViewNumber(0));
        assert!(
            actions.iter().any(|a| a.is_message_kind("STATEREQUEST")),
            "recovery must ask peers for the suffix: {actions:?}"
        );
        shim.run_actions(NodeId(3), actions);
        let recovered: Vec<SeqNum> = shim.committed_by(NodeId(3))[before..].to_vec();
        assert_eq!(recovered, vec![SeqNum(1), SeqNum(2), SeqNum(3)]);
        // The replica is live again: a new batch commits on it normally.
        shim.submit_to_primary(batch(9));
        assert!(shim.committed_by(NodeId(3)).contains(&SeqNum(4)));
    }

    #[test]
    fn recovered_suffix_is_reseated_without_reemitting_commits() {
        let mut shim = TestShim::new(4);
        for i in 0..2 {
            shim.submit_to_primary(batch(i));
        }
        // Capture node 3's committed state as its "durable log" contents.
        let entries: Vec<RecoveredEntry> = (1..=2)
            .map(|s| {
                let entry = shim.replicas[3].log.entry(SeqNum(s)).expect("entry");
                RecoveredEntry {
                    seq: SeqNum(s),
                    view: ViewNumber(0),
                    batch: entry.batch.clone().expect("batch"),
                    certificate: Arc::clone(entry.certificate.as_ref().expect("certificate")),
                }
            })
            .collect();
        let params = FaultParams::for_shim_size(4);
        shim.replicas[3] = PbftReplica::new(
            NodeId(3),
            params,
            shim.provider.handle(ComponentId::Node(NodeId(3))),
            SimDuration::from_millis(100),
            4,
        );
        let before = shim.committed.len();
        let actions = shim.replicas[3].install_recovered(entries, SeqNum(0), ViewNumber(0));
        shim.run_actions(NodeId(3), actions);
        // Nothing was missing, so re-seating produced no Committed actions
        // anywhere (peers had nothing above seq 2 either).
        assert_eq!(shim.committed.len(), before, "no re-delivery");
        assert!(shim.replicas[3].log.is_committed(SeqNum(1)));
        assert!(shim.replicas[3].log.is_committed(SeqNum(2)));
        // And ordering continues at the right sequence number.
        shim.submit_to_primary(batch(5));
        assert!(shim.committed_by(NodeId(3)).contains(&SeqNum(3)));
    }

    #[test]
    fn forged_state_request_and_bogus_response_are_ignored() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        // A state request whose signature does not verify is dropped.
        let req = StateRequest {
            sender: NodeId(3),
            above: SeqNum(0),
            signature: sbft_types::Signature::ZERO,
        };
        assert!(shim.replicas[1]
            .handle_message(NodeId(3), ConsensusMessage::StateRequest(req))
            .is_empty());
        // A response whose entry certificate does not verify is dropped.
        let bogus = StateResponse {
            sender: NodeId(2),
            stable_seq: SeqNum(0),
            entries: vec![RecoveredEntry {
                seq: SeqNum(7),
                view: ViewNumber(0),
                batch: batch(7),
                certificate: Arc::new(CommitCertificate::new(
                    ViewNumber(0),
                    SeqNum(7),
                    compute_batch_digest(&batch(7)),
                    vec![(NodeId(0), sbft_types::Signature::ZERO)],
                )),
            }],
        };
        assert!(shim.replicas[1]
            .handle_message(NodeId(2), ConsensusMessage::StateResponse(bogus))
            .is_empty());
        assert!(!shim.replicas[1].log.is_committed(SeqNum(7)));
    }

    #[test]
    fn state_response_with_mismatched_batch_is_rejected() {
        // A byzantine responder ships a *valid* certificate but pairs it
        // with a different batch; the receiver hashes the body itself, so
        // the digest check catches it, and the entry counts against the
        // sender.
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        let cert = Arc::clone(&shim.certificates[0]);
        let evil = StateResponse {
            sender: NodeId(2),
            stable_seq: SeqNum(0),
            entries: vec![RecoveredEntry {
                seq: cert.seq,
                view: cert.view,
                batch: batch(99),
                certificate: cert,
            }],
        };
        // Reset node 3 so the entry is genuinely missing there.
        shim.replicas[3] = fresh_replica(&shim, 3);
        let actions =
            shim.replicas[3].handle_message(NodeId(2), ConsensusMessage::StateResponse(evil));
        assert!(actions.is_empty(), "{actions:?}");
        assert!(!shim.replicas[3].log.is_committed(SeqNum(1)));
        assert_eq!(shim.replicas[3].bad_responses.get(&NodeId(2)), Some(&1));
    }

    /// A freshly constructed replica standing in for node `i` after a
    /// crash that lost its entire durable state.
    fn fresh_replica(shim: &TestShim, i: u32) -> PbftReplica {
        PbftReplica::new(
            NodeId(i),
            FaultParams::for_shim_size(4),
            shim.provider.handle(ComponentId::Node(NodeId(i))),
            SimDuration::from_millis(100),
            4,
        )
    }

    /// A correctly signed `STATEREQUEST` from `sender` (tests play the
    /// recovering node's part by hand to control message delivery).
    fn signed_request(shim: &TestShim, sender: NodeId, above: SeqNum) -> StateRequest {
        let mut req = StateRequest {
            sender,
            above,
            signature: Signature::ZERO,
        };
        req.signature = shim
            .provider
            .handle(ComponentId::Node(sender))
            .sign(&req.signing_digest());
        req
    }

    /// Extracts the `STATERESPONSE` out of a peer's reply actions.
    fn response_of(actions: &[ConsensusAction]) -> StateResponse {
        actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Send(_, ConsensusMessage::StateResponse(r)) => Some(r.clone()),
                _ => None,
            })
            .expect("peer must answer with a STATERESPONSE")
    }

    #[test]
    fn state_request_is_retransmitted_with_rotation_and_backoff() {
        let shim = TestShim::new(4);
        let mut replica = fresh_replica(&shim, 3);
        // Recovery arms the retransmission timer alongside the broadcast.
        let actions = replica.install_recovered(Vec::new(), SeqNum(0), ViewNumber(0));
        assert!(actions.iter().any(|a| matches!(
            a,
            ConsensusAction::StartTimer {
                timer: ConsensusTimer::StateTransfer,
                ..
            }
        )));
        // Nobody answers (total loss). Each expiry re-sends to the next
        // peer in rotation with an exponentially growing, capped backoff.
        let mut targets = Vec::new();
        let mut backoffs = Vec::new();
        for _ in 0..STATE_RETRY_BUDGET {
            let acts = replica.handle_timer(ConsensusTimer::StateTransfer);
            for a in &acts {
                match a {
                    ConsensusAction::Send(to, ConsensusMessage::StateRequest(_)) => {
                        targets.push(*to);
                    }
                    ConsensusAction::StartTimer {
                        timer: ConsensusTimer::StateTransfer,
                        duration,
                    } => backoffs.push(*duration),
                    _ => {}
                }
            }
        }
        // Rotation covers every peer, never the replica itself.
        assert_eq!(
            targets[..4],
            [NodeId(0), NodeId(1), NodeId(2), NodeId(0)],
            "retries must rotate through the peers"
        );
        // Doubling from node_timeout / 2, capped at 4 × node_timeout.
        assert_eq!(backoffs[0], SimDuration::from_millis(100));
        assert_eq!(backoffs[1], SimDuration::from_millis(200));
        assert_eq!(backoffs[2], SimDuration::from_millis(400));
        assert_eq!(backoffs[3], SimDuration::from_millis(400), "capped");
        // The budget bounds the schedule: the next expiry is a no-op.
        assert!(replica
            .handle_timer(ConsensusTimer::StateTransfer)
            .is_empty());
        assert_eq!(
            replica.state_request_retries.get(),
            u64::from(STATE_RETRY_BUDGET)
        );
    }

    #[test]
    fn duplicate_and_overlapping_state_responses_adopt_once() {
        let mut shim = TestShim::new(4);
        for i in 0..2 {
            shim.submit_to_primary(batch(i));
        }
        // Two peers answer the same request — overlapping suffixes, as a
        // lossy network's retransmissions routinely produce.
        let req = signed_request(&shim, NodeId(3), SeqNum(0));
        let from_1 = response_of(
            &shim.replicas[1].handle_message(NodeId(3), ConsensusMessage::StateRequest(req)),
        );
        let from_2 = response_of(
            &shim.replicas[2].handle_message(NodeId(3), ConsensusMessage::StateRequest(req)),
        );
        shim.replicas[3] = fresh_replica(&shim, 3);
        shim.replicas[3].install_recovered(Vec::new(), SeqNum(0), ViewNumber(0));
        let first = shim.replicas[3]
            .handle_message(NodeId(1), ConsensusMessage::StateResponse(from_1.clone()));
        assert_eq!(committed_seqs(&first), vec![SeqNum(1), SeqNum(2)]);
        // The overlapping response from the second peer — and a verbatim
        // duplicate of the first — seat nothing again.
        let second =
            shim.replicas[3].handle_message(NodeId(2), ConsensusMessage::StateResponse(from_2));
        assert!(committed_seqs(&second).is_empty(), "no double adoption");
        let dup =
            shim.replicas[3].handle_message(NodeId(1), ConsensusMessage::StateResponse(from_1));
        assert!(dup.is_empty(), "duplicate response is fully idempotent");
        assert_eq!(shim.replicas[3].bad_state_responses.get(), 0);
    }

    #[test]
    fn garbage_state_response_entries_are_counted_per_sender() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        let cert = Arc::clone(&shim.certificates[0]);
        shim.replicas[3] = fresh_replica(&shim, 3);
        shim.replicas[3].install_recovered(Vec::new(), SeqNum(0), ViewNumber(0));
        // A valid certificate paired with the wrong batch (digest
        // mismatch) and a stale view claim contradicting its certificate:
        // both rejected, both charged to the lying sender.
        let evil = StateResponse {
            sender: NodeId(2),
            stable_seq: SeqNum(0),
            entries: vec![
                RecoveredEntry {
                    seq: cert.seq,
                    view: cert.view,
                    batch: batch(99),
                    certificate: Arc::clone(&cert),
                },
                RecoveredEntry {
                    seq: cert.seq,
                    view: cert.view.next(),
                    batch: batch(0),
                    certificate: Arc::clone(&cert),
                },
            ],
        };
        let actions =
            shim.replicas[3].handle_message(NodeId(2), ConsensusMessage::StateResponse(evil));
        assert!(actions.is_empty(), "garbage must seat nothing");
        assert!(!shim.replicas[3].log.is_committed(SeqNum(1)));
        assert_eq!(shim.replicas[3].bad_responses.get(&NodeId(2)), Some(&2));
        assert_eq!(shim.replicas[3].bad_responses.get(&NodeId(1)), None);
        assert_eq!(shim.replicas[3].bad_state_responses.get(), 2);
        // The honest suffix still lands afterwards: the liar burned no
        // state, only its own tally.
        let req = signed_request(&shim, NodeId(3), SeqNum(0));
        let honest = response_of(
            &shim.replicas[1].handle_message(NodeId(3), ConsensusMessage::StateRequest(req)),
        );
        let adopted =
            shim.replicas[3].handle_message(NodeId(1), ConsensusMessage::StateResponse(honest));
        assert_eq!(committed_seqs(&adopted), vec![SeqNum(1)]);
    }

    #[test]
    fn recovering_replica_below_peer_retention_catches_up() {
        let mut shim = TestShim::new(4);
        // Node 3 is down while five batches commit; the checkpoint at
        // seq 4 (interval = 4) stabilises on the live nodes and they
        // garbage-collect below it — node 3's floor (0) is now beneath
        // everyone's retention boundary.
        shim.down.insert(NodeId(3));
        for i in 0..5 {
            shim.submit_to_primary(batch(i));
        }
        assert_eq!(shim.replicas[0].log.stable_seq(), SeqNum(4));
        shim.down.clear();
        shim.replicas[3] = fresh_replica(&shim, 3);
        let actions = shim.replicas[3].install_recovered(Vec::new(), SeqNum(0), ViewNumber(0));
        shim.run_actions(NodeId(3), actions);
        // The recovering node adopted the peers' snapshot floor and the
        // certified suffix above it — exactly once despite three
        // overlapping responses.
        assert!(
            shim.caught_up
                .iter()
                .any(|(n, s)| *n == NodeId(3) && *s == SeqNum(4)),
            "catch-up must be reported: {:?}",
            shim.caught_up
        );
        assert_eq!(shim.replicas[3].catch_ups.get(), 1);
        assert_eq!(shim.replicas[3].log.stable_seq(), SeqNum(4));
        assert_eq!(shim.committed_by(NodeId(3)), vec![SeqNum(5)]);
        // And it is live again at the right sequence number.
        shim.submit_to_primary(batch(9));
        assert!(shim.committed_by(NodeId(3)).contains(&SeqNum(6)));
    }
}
