//! Digest proposals: reconstruction, `BATCHFETCH` / `BATCHFILL`.

use super::{PbftReplica, PendingProposal};
use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::{
    batch_digest, header_digest, BatchFetch, BatchFill, ConsensusMessage, DigestPrePrepare,
};
use sbft_types::{Batch, ComponentId, NodeId, SeqNum, Transaction, TxnId, ViewNumber};
use std::collections::{BTreeMap, BTreeSet};

impl PbftReplica {
    /// The peer a `BATCHFETCH` attempt targets: the primary of the
    /// proposal's view first, then rotation through the other replicas so
    /// a silent or partitioned primary cannot starve reconstruction (any
    /// replica that accepted the proposal holds the batch).
    fn fetch_target(&self, view: ViewNumber, attempt: u32) -> NodeId {
        self.other_replica(self.primary_of(view).0, attempt)
    }

    /// Sends (or retransmits) the `BATCHFETCH` for a pending proposal and
    /// restarts its request timer.
    pub(super) fn send_fetch(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        let Some(pending) = self.pending_digest.get_mut(&seq) else {
            return Vec::new();
        };
        let attempt = pending.fetch_attempts;
        pending.fetch_attempts += 1;
        let fetch = BatchFetch {
            sender: self.me,
            view: pending.view,
            seq,
            digest: pending.digest,
            missing: if pending.full_requested {
                Vec::new()
            } else {
                pending.missing.iter().copied().collect()
            },
            full: pending.full_requested,
            mac: self.crypto.broadcast_mac(&header_digest(
                "batchfetch",
                pending.view,
                seq,
                &pending.digest,
            )),
        };
        let target = self.fetch_target(fetch.view, attempt);
        self.fetches_sent.inc();
        vec![
            ConsensusAction::Send(target, ConsensusMessage::BatchFetch(fetch)),
            ConsensusAction::StartTimer {
                timer: ConsensusTimer::Request(seq),
                duration: self.node_timeout,
            },
        ]
    }

    /// Tries to finish reconstructing a pending digest proposal: if no
    /// bodies are missing, assembles the batch in proposal order, checks
    /// it against the proposal digest, and either votes (digest matches —
    /// quarantined bodies are promoted into the shared cache) or falls
    /// back to a full-batch fetch (mismatch — a poisoned fill or a lying
    /// primary; the mismatch is counted against the last filler, or the
    /// primary when the local cache alone produced it).
    pub(super) fn try_complete_reconstruction(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        let Some(pending) = self.pending_digest.get(&seq) else {
            return Vec::new();
        };
        if !pending.missing.is_empty() {
            return Vec::new();
        }
        let bodies: Vec<Transaction> = pending
            .txn_ids
            .iter()
            .filter_map(|id| {
                pending
                    .received
                    .get(id)
                    .or_else(|| self.body_cache.get(id))
                    .cloned()
            })
            .collect();
        let pending = self.pending_digest.get_mut(&seq).expect("checked above");
        if bodies.len() != pending.txn_ids.len() {
            // A GC raced the reconstruction out of its cached bodies;
            // refetch everything still absent.
            let held: BTreeSet<TxnId> = bodies.iter().map(|t| t.id).collect();
            pending.missing = pending
                .txn_ids
                .iter()
                .filter(|id| !held.contains(id))
                .copied()
                .collect();
            return self.send_fetch(seq);
        }
        let batch = Batch::new(bodies);
        if batch_digest(&batch) == pending.digest {
            let (view, digest, plan) = (pending.view, pending.digest, pending.plan);
            let received = std::mem::take(&mut pending.received);
            self.pending_digest.remove(&seq);
            self.body_cache.extend(received);
            if !self.log.accept_pre_prepare(seq, view, digest, batch, plan) {
                // Equivocation: a different digest already occupies the slot.
                return self.start_view_change(self.view.next());
            }
            return self.after_pre_prepare(view, seq, digest);
        }
        // Reconstruction mismatch. Quarantined bodies are discarded (never
        // promoted), the mismatch is counted against whoever supplied the
        // wrong material, and the full batch is requested — which the
        // digest check on arrival still pins, so a lying primary can only
        // stall into a view change, never corrupt state.
        let (proposal_view, last_filler) = (pending.view, pending.last_filler);
        pending.received.clear();
        pending.last_filler = None;
        let first_fallback = !pending.full_requested;
        pending.full_requested = true;
        let blamed = last_filler.unwrap_or_else(|| self.primary_of(proposal_view));
        self.blame(blamed, 1);
        self.fallbacks.inc();
        if first_fallback {
            self.send_fetch(seq)
        } else {
            // Already on the fallback path and the full batch *still*
            // mismatched: leave the request timer to escalate.
            Vec::new()
        }
    }

    pub(super) fn on_digest_pre_prepare(
        &mut self,
        from: NodeId,
        dpp: DigestPrePrepare,
    ) -> Vec<ConsensusAction> {
        // Same well-formedness gate as a full pre-prepare.
        if self.in_view_change
            || dpp.view != self.view
            || from != self.primary_of(dpp.view)
            || dpp.seq <= self.log.stable_seq()
        {
            return Vec::new();
        }
        let header = header_digest("digest-preprepare", dpp.view, dpp.seq, &dpp.digest);
        if !self
            .crypto
            .verify_broadcast_mac(ComponentId::Node(from), &header, &dpp.mac)
        {
            return Vec::new();
        }
        // Proposal self-consistency: a non-empty, duplicate-free id list.
        // Malformed proposals are dropped before any fetch bandwidth is
        // spent on them.
        if dpp.txn_ids.is_empty()
            || dpp.txn_ids.iter().collect::<BTreeSet<_>>().len() != dpp.txn_ids.len()
        {
            return Vec::new();
        }
        // Equivocation checks against both the log and the pending set:
        // two different digests proposed at one sequence number of one
        // view expose the primary.
        if let Some(entry) = self.log.entry(dpp.seq) {
            if entry.view == Some(dpp.view) {
                match entry.digest {
                    Some(d) if d != dpp.digest => return self.start_view_change(self.view.next()),
                    Some(_) => return Vec::new(), // duplicate of an accepted proposal
                    None => {}
                }
            }
        }
        if let Some(pending) = self.pending_digest.get(&dpp.seq) {
            if pending.view == dpp.view {
                if pending.digest != dpp.digest {
                    return self.start_view_change(self.view.next());
                }
                return Vec::new(); // duplicate of an in-flight reconstruction
            }
        }
        // Reconstruct from the body cache; fetch only what is missing.
        let missing: BTreeSet<TxnId> = dpp
            .txn_ids
            .iter()
            .filter(|id| !self.body_cache.contains_key(id))
            .copied()
            .collect();
        self.cache_hits
            .add((dpp.txn_ids.len() - missing.len()) as u64);
        self.cache_misses.add(missing.len() as u64);
        let need_fetch = !missing.is_empty();
        self.pending_digest.insert(
            dpp.seq,
            PendingProposal {
                view: dpp.view,
                digest: dpp.digest,
                txn_ids: dpp.txn_ids,
                plan: dpp.plan,
                missing,
                received: BTreeMap::new(),
                fetch_attempts: 0,
                full_requested: false,
                last_filler: None,
            },
        );
        if need_fetch {
            self.send_fetch(dpp.seq)
        } else {
            self.try_complete_reconstruction(dpp.seq)
        }
    }

    pub(super) fn on_batch_fetch(&mut self, from: NodeId, bf: BatchFetch) -> Vec<ConsensusAction> {
        if bf.sender != from || from == self.me {
            return Vec::new();
        }
        let header = header_digest("batchfetch", bf.view, bf.seq, &bf.digest);
        if !self
            .crypto
            .verify_broadcast_mac(ComponentId::Node(from), &header, &bf.mac)
        {
            return Vec::new();
        }
        // Serve from the log: any node that accepted the proposal (the
        // primary always, any reconstructed replica eventually) holds the
        // batch under exactly this digest.
        let Some(batch) = self
            .log
            .entry(bf.seq)
            .filter(|e| e.digest == Some(bf.digest))
            .and_then(|e| e.batch.clone())
        else {
            return Vec::new();
        };
        let bodies: Vec<Transaction> = if bf.full {
            batch.txns().to_vec()
        } else {
            let wanted: BTreeSet<TxnId> = bf.missing.iter().copied().collect();
            batch
                .iter()
                .filter(|t| wanted.contains(&t.id))
                .cloned()
                .collect()
        };
        if bodies.is_empty() {
            return Vec::new();
        }
        self.fills_served.inc();
        vec![ConsensusAction::Send(
            from,
            ConsensusMessage::BatchFill(BatchFill {
                sender: self.me,
                seq: bf.seq,
                digest: bf.digest,
                bodies,
                full: bf.full,
            }),
        )]
    }

    pub(super) fn on_batch_fill(&mut self, from: NodeId, bf: BatchFill) -> Vec<ConsensusAction> {
        if bf.sender != from {
            return Vec::new();
        }
        let Some(pending) = self.pending_digest.get_mut(&bf.seq) else {
            return Vec::new();
        };
        if pending.digest != bf.digest {
            return Vec::new();
        }
        if bf.full != pending.full_requested {
            // A stale per-body fill after we fell back (or vice versa);
            // only the currently requested shape is accepted.
            return Vec::new();
        }
        pending.last_filler = Some(from);
        if bf.full {
            // The full batch replaces reconstruction wholesale: quarantine
            // all bodies and let the digest check arbitrate.
            let expected: BTreeSet<TxnId> = pending.txn_ids.iter().copied().collect();
            if bf.bodies.len() != expected.len()
                || bf.bodies.iter().any(|t| !expected.contains(&t.id))
            {
                self.blame(from, 1);
                return Vec::new();
            }
            pending.received = bf.bodies.into_iter().map(|t| (t.id, t)).collect();
            pending.missing.clear();
        } else {
            // Quarantine only bodies we actually asked for; everything
            // else is unsolicited and dropped.
            for body in bf.bodies {
                if pending.missing.remove(&body.id) {
                    pending.received.insert(body.id, body);
                }
            }
            if !pending.missing.is_empty() {
                return Vec::new();
            }
        }
        self.try_complete_reconstruction(bf.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::TestShim;
    use super::super::FETCH_RETRY_BUDGET;
    use super::*;
    use crate::traits::OrderingProtocol;
    use sbft_crypto::CryptoProvider;
    use sbft_types::{ClientId, Digest, Key, Operation, ShardPlan};

    #[test]
    fn batch_fetch_retries_visit_every_other_replica_once_primary_first() {
        for n in [4usize, 7] {
            let shim = TestShim::new(n);
            for (me, replica) in (0u32..).zip(&shim.replicas) {
                for view in 0..n as u64 {
                    let primary = NodeId::primary_of(ViewNumber(view), n);
                    if primary == NodeId(me) {
                        continue; // a primary holds its own proposal
                    }
                    let targets: Vec<NodeId> = (0..n as u32 - 1)
                        .map(|attempt| replica.fetch_target(ViewNumber(view), attempt))
                        .collect();
                    assert_eq!(targets[0], primary, "node {me} of {n}, view {view}");
                    let distinct: BTreeSet<NodeId> = targets.iter().copied().collect();
                    assert_eq!(distinct.len(), n - 1, "node {me} of {n}: {targets:?}");
                    assert!(!distinct.contains(&NodeId(me)), "node {me} asked itself");
                    // The cycle then repeats from the primary.
                    assert_eq!(
                        replica.fetch_target(ViewNumber(view), n as u32 - 1),
                        primary
                    );
                }
            }
        }
    }

    /// A multi-transaction batch whose bodies can be fed to caches.
    fn wide_batch(counter_base: u64, n: usize) -> Batch {
        Batch::new(
            (0..n as u64)
                .map(|i| {
                    Transaction::new(
                        TxnId::new(ClientId(1), counter_base + i),
                        vec![Operation::Read(Key(counter_base + i))],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn digest_mode_with_warm_caches_commits_without_fetching() {
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 5);
        shim.offer_to_all(&b);
        shim.submit_to_primary(b.clone());
        for i in 0..4u32 {
            assert_eq!(shim.committed_by(NodeId(i)), vec![SeqNum(1)], "node {i}");
        }
        for i in 1..4usize {
            let r = &shim.replicas[i];
            assert_eq!(
                r.cache_hits.get(),
                5,
                "node {i} reconstructs fully from cache"
            );
            assert_eq!(r.cache_misses.get(), 0);
            assert_eq!(r.fetches_sent.get(), 0, "warm caches must not fetch");
            assert_eq!(r.fallbacks.get(), 0);
        }
    }

    #[test]
    fn digest_mode_with_cold_caches_fetches_and_commits() {
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 5);
        // No bodies offered anywhere: every replica misses everything and
        // fetches from the primary inside the same message cascade.
        shim.submit_to_primary(b.clone());
        for i in 0..4u32 {
            assert_eq!(shim.committed_by(NodeId(i)), vec![SeqNum(1)], "node {i}");
        }
        for i in 1..4usize {
            let r = &shim.replicas[i];
            assert_eq!(r.cache_hits.get(), 0);
            assert_eq!(r.cache_misses.get(), 5, "node {i} missed every body");
            assert_eq!(r.fetches_sent.get(), 1, "one fetch covers all misses");
            assert_eq!(r.fallbacks.get(), 0);
        }
        assert_eq!(
            shim.replicas[0].fills_served.get(),
            3,
            "the primary served one fill per replica"
        );
        // Fetched bodies were promoted into the caches after verification.
        assert_eq!(shim.replicas[1].body_cache.len(), 5);
    }

    #[test]
    fn offer_body_completes_a_pending_reconstruction() {
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 3);
        // Warm all but one body on node 1 so the proposal leaves a gap.
        for txn in &b.txns()[..2] {
            let _ = shim.replicas[1].offer_body(txn.clone());
        }
        let actions = shim.replicas[0].submit_batch(b.clone(), ShardPlan::Unplanned);
        let proposal = actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Broadcast(m @ ConsensusMessage::DigestPrePrepare(_)) => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("digest proposal broadcast");
        let on_dpp = shim.replicas[1].handle_message(NodeId(0), proposal);
        assert!(
            on_dpp
                .iter()
                .any(|a| matches!(a, ConsensusAction::Send(_, ConsensusMessage::BatchFetch(f)) if f.missing.len() == 1)),
            "the gap must trigger a one-body fetch"
        );
        assert_eq!(shim.replicas[1].pending_reconstructions(), vec![SeqNum(1)]);
        // The client broadcast lands before any fill: reconstruction
        // completes and the replica votes.
        let done = shim.replicas[1].offer_body(b.txns()[2].clone());
        assert!(
            done.iter()
                .any(|a| matches!(a, ConsensusAction::Broadcast(ConsensusMessage::Prepare(_)))),
            "completing the reconstruction must cast the prepare vote"
        );
        assert!(shim.replicas[1].pending_reconstructions().is_empty());
    }

    #[test]
    fn lying_primary_digest_falls_back_and_is_counted() {
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 3);
        shim.offer_to_all(&b);
        // The primary advertises a digest that does not match the bodies.
        let wrong = Digest::from_bytes([9; 32]);
        let ids = b.txn_ids();
        let header = header_digest("digest-preprepare", ViewNumber(0), SeqNum(1), &wrong);
        let mac = shim
            .provider
            .handle(ComponentId::Node(NodeId(0)))
            .broadcast_mac(&header);
        let dpp = ConsensusMessage::DigestPrePrepare(DigestPrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: wrong,
            txn_ids: ids,
            plan: ShardPlan::Unplanned,
            mac,
        });
        let actions = shim.replicas[1].handle_message(NodeId(0), dpp);
        // No vote; instead the full-batch fallback goes out and the
        // mismatch is pinned on the primary.
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, ConsensusAction::Broadcast(ConsensusMessage::Prepare(_)))),
            "a digest mismatch must never produce a vote"
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ConsensusAction::Send(_, ConsensusMessage::BatchFetch(f)) if f.full
            )),
            "mismatch must fall back to a full-batch fetch"
        );
        assert_eq!(shim.replicas[1].bad_responses.get(&NodeId(0)), Some(&1));
        assert_eq!(shim.replicas[1].fallbacks.get(), 1);
        // The fetch retry budget eventually escalates to a view change —
        // the lying primary cannot stall forever.
        let mut escalated = Vec::new();
        for _ in 0..=FETCH_RETRY_BUDGET + 1 {
            escalated.extend(shim.replicas[1].handle_timer(ConsensusTimer::Request(SeqNum(1))));
        }
        assert!(
            escalated.iter().any(|a| matches!(
                a,
                ConsensusAction::Broadcast(ConsensusMessage::ViewChange(_))
            )),
            "the exhausted fetch budget must escalate to a view change"
        );
        assert!(shim.replicas[1].in_view_change);
        assert!(shim.replicas[1].pending_reconstructions().is_empty());
    }

    #[test]
    fn poisoned_fill_is_quarantined_and_the_filler_blamed() {
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 3);
        // Node 1 holds all bodies but the last.
        for txn in &b.txns()[..2] {
            let _ = shim.replicas[1].offer_body(txn.clone());
        }
        let actions = shim.replicas[0].submit_batch(b.clone(), ShardPlan::Unplanned);
        let proposal = actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Broadcast(m @ ConsensusMessage::DigestPrePrepare(_)) => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("digest proposal broadcast");
        let _ = shim.replicas[1].handle_message(NodeId(0), proposal);
        // Node 2 answers the fetch with a wrong body under the right id.
        let missing_id = b.txns()[2].id;
        let poisoned = ConsensusMessage::BatchFill(BatchFill {
            sender: NodeId(2),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            bodies: vec![Transaction::new(
                missing_id,
                vec![Operation::Read(Key(999))],
            )],
            full: false,
        });
        let after = shim.replicas[1].handle_message(NodeId(2), poisoned);
        assert!(
            !after
                .iter()
                .any(|a| matches!(a, ConsensusAction::Broadcast(ConsensusMessage::Prepare(_)))),
            "a poisoned fill must never produce a vote"
        );
        assert_eq!(
            shim.replicas[1].bad_responses.get(&NodeId(2)),
            Some(&1),
            "the mismatch counts against the filler"
        );
        assert_eq!(
            shim.replicas[1].body_cache.len(),
            2,
            "the poisoned body must never enter the shared cache"
        );
        // The honest full fallback from the primary still completes.
        let fallback_fetch = after
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Send(_, m @ ConsensusMessage::BatchFetch(f)) if f.full => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("full fallback fetch");
        let fill_actions = shim.replicas[0].handle_message(NodeId(1), fallback_fetch);
        let fill = fill_actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Send(to, m @ ConsensusMessage::BatchFill(_))
                    if *to == NodeId(1) =>
                {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("primary serves the full batch");
        let done = shim.replicas[1].handle_message(NodeId(0), fill);
        assert!(
            done.iter()
                .any(|a| matches!(a, ConsensusAction::Broadcast(ConsensusMessage::Prepare(_)))),
            "the verified full batch must finally produce the vote"
        );
    }

    #[test]
    fn equivocating_digest_proposals_trigger_view_change() {
        let mut shim = TestShim::new_digest(4);
        let b1 = wide_batch(0, 3);
        let b2 = wide_batch(100, 3);
        let make = |batch: &Batch, provider: &std::sync::Arc<CryptoProvider>| {
            let digest = batch_digest(batch);
            let ids = batch.txn_ids();
            let header = header_digest("digest-preprepare", ViewNumber(0), SeqNum(1), &digest);
            ConsensusMessage::DigestPrePrepare(DigestPrePrepare {
                view: ViewNumber(0),
                seq: SeqNum(1),
                digest,
                txn_ids: ids,
                plan: ShardPlan::Unplanned,
                mac: provider
                    .handle(ComponentId::Node(NodeId(0)))
                    .broadcast_mac(&header),
            })
        };
        let first = make(&b1, &shim.provider);
        let second = make(&b2, &shim.provider);
        let _ = shim.replicas[1].handle_message(NodeId(0), first);
        let actions = shim.replicas[1].handle_message(NodeId(0), second);
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ConsensusAction::Broadcast(ConsensusMessage::ViewChange(_))
            )),
            "two digests at one sequence number expose the primary"
        );
        assert!(shim.replicas[1].in_view_change);
    }

    #[test]
    fn gc_bodies_keeps_only_protected_ids() {
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 4);
        for txn in b.txns() {
            let _ = shim.replicas[1].offer_body(txn.clone());
        }
        assert_eq!(shim.replicas[1].body_cache.len(), 4);
        // An id the shim tracks twice comes up twice.
        let protected = [b.txns()[0].id, b.txns()[1].id, b.txns()[0].id];
        shim.replicas[1].gc_bodies(&mut protected.into_iter());
        assert_eq!(shim.replicas[1].body_cache.len(), 2);
        shim.replicas[1].gc_bodies(&mut std::iter::empty());
        assert_eq!(shim.replicas[1].body_cache.len(), 0);
    }

    #[test]
    fn digest_prepared_proposals_survive_view_change_as_full_reissues() {
        // A proposal that reconstructed and prepared (but did not commit)
        // must survive the view change: the new primary holds the
        // reconstructed batch and re-issues it as a *full* pre-prepare.
        let mut shim = TestShim::new_digest(4);
        let b = wide_batch(0, 3);
        shim.offer_to_all(&b);
        // Nodes 0..3 exchange the proposal and prepares, but commits are
        // swallowed: deliver the proposal and prepares manually.
        let actions = shim.replicas[0].submit_batch(b.clone(), ShardPlan::Unplanned);
        let proposal = actions
            .iter()
            .find_map(|a| match a {
                ConsensusAction::Broadcast(m @ ConsensusMessage::DigestPrePrepare(_)) => {
                    Some(m.clone())
                }
                _ => None,
            })
            .expect("digest proposal broadcast");
        let mut prepares: Vec<(NodeId, ConsensusMessage)> = actions
            .iter()
            .filter_map(|a| match a {
                ConsensusAction::Broadcast(m @ ConsensusMessage::Prepare(_)) => {
                    Some((NodeId(0), m.clone()))
                }
                _ => None,
            })
            .collect();
        for i in 1..4u32 {
            let acts = shim.replicas[i as usize].handle_message(NodeId(0), proposal.clone());
            for a in acts {
                if let ConsensusAction::Broadcast(m @ ConsensusMessage::Prepare(_)) = a {
                    prepares.push((NodeId(i), m));
                }
            }
        }
        for (from, p) in prepares {
            for i in 0..4u32 {
                if NodeId(i) != from {
                    let _ = shim.replicas[i as usize].handle_message(from, p.clone());
                }
            }
        }
        assert!(shim.replicas[1].log.entry(SeqNum(1)).unwrap().prepared);
        // View change: node 1 becomes primary of view 1 and must re-issue
        // the prepared request with its full body.
        let mut vc_msgs = Vec::new();
        for i in [1u32, 2, 3] {
            let acts = shim.replicas[i as usize].request_view_change();
            for a in acts {
                if let ConsensusAction::Broadcast(m @ ConsensusMessage::ViewChange(_)) = a {
                    vc_msgs.push((NodeId(i), m));
                }
            }
        }
        let mut reissued_full = false;
        for (from, vc) in vc_msgs {
            let acts = shim.replicas[1].handle_message(from, vc.clone());
            for a in &acts {
                if let ConsensusAction::Broadcast(ConsensusMessage::NewView(nv)) = a {
                    reissued_full =
                        !nv.reissued.is_empty() && nv.reissued.iter().all(|pp| pp.batch == b);
                }
            }
        }
        assert!(
            reissued_full,
            "the new primary must re-issue the reconstructed batch in full"
        );
    }
}
