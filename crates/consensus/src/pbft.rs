//! The PBFT replica state machine.
//!
//! Shim nodes run PBFT (Castro & Liskov '99) to order client batches
//! (Section IV-B): the primary assigns a sequence number and broadcasts a
//! MAC-authenticated `PREPREPARE`; nodes answer with `PREPARE` messages;
//! once a node has `2f_R + 1` matching prepares it broadcasts a digitally
//! signed `COMMIT`; `2f_R + 1` matching commits make the request
//! *committed* and their signatures form the execution certificate `C`.
//!
//! The module also implements:
//!
//! * the **view change** protocol used to replace a faulty primary
//!   (Section V-A4): `2f_R + 1` `VIEWCHANGE` messages let the next primary
//!   install a new view via `NEWVIEW`, re-proposing prepared requests;
//! * the paper's **featherweight checkpoints** (Section V-B): every
//!   `checkpoint_interval` sequence numbers a node broadcasts only the
//!   commit certificates it collected since the last checkpoint, letting
//!   nodes kept in the dark catch up and letting everyone garbage-collect
//!   the log.
//!
//! Byzantine behaviour is *not* implemented here — honest replicas only.
//! The attack layer of `sbft-core` perturbs the actions of compromised
//! nodes (dropping pre-prepares, equivocating, suppressing spawns) before
//! they reach the network.

use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::log::ConsensusLog;
use crate::messages::{
    batch_digest, header_digest, BatchFetch, BatchFill, Checkpoint, Commit, ConsensusMessage,
    DigestPrePrepare, NewView, PrePrepare, Prepare, PreparedProof, StateRequest, StateResponse,
    ViewChange,
};
use crate::traits::OrderingProtocol;
use sbft_crypto::certificate::commit_digest;
use sbft_crypto::{CommitCertificate, CryptoHandle};
use sbft_durability::RecoveredEntry;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    Batch, ComponentId, Digest, FaultParams, IdMap, NodeId, SeqNum, ShardPlan, SimDuration,
    Transaction, TxnId, ViewNumber,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A PBFT replica running on one shim node.
pub struct PbftReplica {
    me: NodeId,
    params: FaultParams,
    crypto: CryptoHandle,
    node_timeout: SimDuration,
    checkpoint_interval: u64,

    view: ViewNumber,
    in_view_change: bool,
    next_seq: SeqNum,
    log: ConsensusLog,

    /// Commit certificates accumulated since the last stable checkpoint,
    /// held by reference count: the `Committed` action and every
    /// featherweight checkpoint share the same allocation instead of
    /// copying the signature set.
    pending_certs: BTreeMap<SeqNum, Arc<CommitCertificate>>,
    /// Checkpoint votes collected, per checkpoint sequence number.
    checkpoint_votes: BTreeMap<SeqNum, BTreeMap<NodeId, Checkpoint>>,
    /// View-change votes collected, per target view.
    view_change_votes: BTreeMap<ViewNumber, BTreeMap<NodeId, ViewChange>>,

    /// Retransmission attempts made for the in-flight `STATEREQUEST`;
    /// `None` when no state transfer is pending. Bounded by
    /// [`STATE_RETRY_BUDGET`].
    state_transfer_attempt: Option<u32>,
    /// Sequence numbers already adopted from a `STATERESPONSE` — the
    /// adopt-once ledger: overlapping suffixes from several peers (or
    /// duplicated responses on a lossy network) seat each entry exactly
    /// once. Pruned below the stable floor at every checkpoint/catch-up.
    adopted_from_peers: BTreeSet<SeqNum>,
    /// Garbage `STATERESPONSE` entries and bad `BATCHFILL`s, per sender —
    /// the blame ledger. Written only through [`Self::blame`], which also
    /// counts into `bad_state_responses`.
    bad_responses: BTreeMap<NodeId, u64>,
    /// Snapshot-floor claims observed in `STATERESPONSE`s, per sender:
    /// `f_r + 1` claims at or above a floor prove at least one honest
    /// replica garbage-collected it, authorising checkpoint catch-up.
    floor_claims: BTreeMap<NodeId, SeqNum>,
    /// Entries of the blame ledger, summed over senders.
    bad_state_responses: Counter,
    /// `STATEREQUEST` retransmissions sent after the initial broadcast.
    state_request_retries: Counter,
    /// Checkpoint catch-ups: times this replica adopted a peer's snapshot
    /// floor because its own floor fell below peer retention.
    catch_ups: Counter,

    /// Whether proposals are broadcast by digest (`DIGEST-PREPREPARE`)
    /// instead of with full bodies.
    digest_mode: bool,
    /// Transaction bodies observed from client submission (and promoted
    /// from verified fills), keyed by id — the pool digest proposals are
    /// reconstructed from. GC'd on the shim's checkpoint rhythm via
    /// [`OrderingProtocol::gc_bodies`].
    body_cache: IdMap<TxnId, Transaction>,
    /// Digest proposals accepted for reconstruction but not yet voted on
    /// (bodies still missing, or awaiting the full-batch fallback).
    pending_digest: BTreeMap<SeqNum, PendingProposal>,
    /// Bodies found in the cache during reconstruction.
    cache_hits: Counter,
    /// Bodies that had to be fetched.
    cache_misses: Counter,
    /// `BATCHFETCH` messages sent (including retransmissions).
    fetches_sent: Counter,
    /// `BATCHFILL` messages served to fetching peers.
    fills_served: Counter,
    /// Reconstruction digest mismatches that triggered the full-batch
    /// fallback.
    fallbacks: Counter,
}

/// A digest proposal whose batch is still being reconstructed. The entry
/// holds everything needed to vote once the last body lands — and keeps
/// fetched bodies quarantined away from the shared cache until the
/// reconstructed batch hashes to the proposal digest, so a poisoned fill
/// can never plant a wrong body under a correct id.
struct PendingProposal {
    view: ViewNumber,
    digest: Digest,
    txn_ids: Vec<TxnId>,
    plan: ShardPlan,
    /// Ids whose bodies are neither cached nor received yet.
    missing: BTreeSet<TxnId>,
    /// Bodies received via `BATCHFILL`, quarantined until the digest
    /// verifies.
    received: BTreeMap<TxnId, Transaction>,
    /// `BATCHFETCH` transmissions so far (bounded by
    /// [`FETCH_RETRY_BUDGET`] before the request timer escalates to a
    /// view change).
    fetch_attempts: u32,
    /// Whether the full-batch fallback has been requested after a
    /// reconstruction mismatch.
    full_requested: bool,
    /// The last peer that filled bodies into this proposal — the node a
    /// digest mismatch is counted against (the primary when the local
    /// cache alone produced the mismatch).
    last_filler: Option<NodeId>,
}

/// How many times a replica retransmits a `BATCHFETCH` for one proposal
/// (rotating through the peers) before the request timer escalates to a
/// view change.
const FETCH_RETRY_BUDGET: u32 = 4;

/// How many times a recovering replica retransmits its `STATEREQUEST`
/// (with capped exponential backoff, rotating through the peers) before
/// giving up and relying on the regular protocol to make progress.
const STATE_RETRY_BUDGET: u32 = 8;

impl PbftReplica {
    /// Creates a replica.
    #[must_use]
    pub fn new(
        me: NodeId,
        params: FaultParams,
        crypto: CryptoHandle,
        node_timeout: SimDuration,
        checkpoint_interval: u64,
    ) -> Self {
        assert!(
            checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
        PbftReplica {
            me,
            params,
            crypto,
            node_timeout,
            checkpoint_interval,
            view: ViewNumber(0),
            in_view_change: false,
            next_seq: SeqNum(1),
            log: ConsensusLog::new(),
            pending_certs: BTreeMap::new(),
            checkpoint_votes: BTreeMap::new(),
            view_change_votes: BTreeMap::new(),
            state_transfer_attempt: None,
            adopted_from_peers: BTreeSet::new(),
            bad_responses: BTreeMap::new(),
            floor_claims: BTreeMap::new(),
            bad_state_responses: Counter::new(),
            state_request_retries: Counter::new(),
            catch_ups: Counter::new(),
            digest_mode: false,
            body_cache: IdMap::default(),
            pending_digest: BTreeMap::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            fetches_sent: Counter::new(),
            fills_served: Counter::new(),
            fallbacks: Counter::new(),
        }
    }

    /// Enables (or disables) digest proposals: the primary broadcasts
    /// `DIGEST-PREPREPARE` (ids, no bodies) and replicas
    /// reconstruct batches from their body caches, fetching only what
    /// they miss. Every node of a shim must agree on the mode.
    #[must_use]
    pub fn with_digest_proposals(mut self, enabled: bool) -> Self {
        self.digest_mode = enabled;
        self
    }

    /// The fault parameters this replica was configured with.
    #[must_use]
    pub fn params(&self) -> &FaultParams {
        &self.params
    }

    fn quorum(&self) -> usize {
        self.params.shim_quorum()
    }

    /// Counts `n` pieces of garbage against `peer`.
    fn blame(&mut self, peer: NodeId, n: u64) {
        *self.bad_responses.entry(peer).or_insert(0) += n;
        self.bad_state_responses.add(n);
    }

    fn primary_of(&self, view: ViewNumber) -> NodeId {
        NodeId::primary_of(view, self.params.n_r)
    }

    fn make_prepare(&self, view: ViewNumber, seq: SeqNum, digest: Digest) -> Prepare {
        let header = header_digest("prepare", view, seq, &digest);
        Prepare {
            view,
            seq,
            digest,
            sender: self.me,
            mac: self.crypto.broadcast_mac(&header),
        }
    }

    fn make_commit(&self, view: ViewNumber, seq: SeqNum, digest: Digest) -> Commit {
        let signed = commit_digest(view, seq, &digest);
        Commit {
            view,
            seq,
            digest,
            sender: self.me,
            signature: self.crypto.sign(&signed),
        }
    }

    /// Counts votes whose digest and view match the accepted pre-prepare.
    fn matching_prepares(&self, seq: SeqNum) -> usize {
        let Some(entry) = self.log.entry(seq) else {
            return 0;
        };
        let (Some(digest), Some(view)) = (entry.digest, entry.view) else {
            return 0;
        };
        entry
            .prepares
            .values()
            .filter(|p| p.digest == digest && p.view == view)
            .count()
    }

    fn matching_commits(&self, seq: SeqNum) -> usize {
        let Some(entry) = self.log.entry(seq) else {
            return 0;
        };
        let (Some(digest), Some(view)) = (entry.digest, entry.view) else {
            return 0;
        };
        entry
            .commits
            .values()
            .filter(|c| c.digest == digest && c.view == view)
            .count()
    }

    /// Runs the node-side handling of an accepted pre-prepare: broadcast a
    /// prepare, start the request timer, and re-evaluate quorums.
    fn after_pre_prepare(
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

    fn check_prepared(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        let mut actions = Vec::new();
        let quorum = self.quorum();
        let ready = {
            let Some(entry) = self.log.entry(seq) else {
                return actions;
            };
            entry.pre_prepared() && !entry.prepared && self.matching_prepares(seq) >= quorum
        };
        if !ready {
            return actions;
        }
        let (view, digest) = {
            let entry = self.log.entry_mut(seq);
            entry.prepared = true;
            (
                entry.view.expect("prepared entry has view"),
                entry.digest.expect("digest"),
            )
        };
        let commit = self.make_commit(view, seq, digest);
        self.log.add_commit(commit);
        actions.push(ConsensusAction::Broadcast(ConsensusMessage::Commit(commit)));
        actions.extend(self.check_committed(seq));
        actions
    }

    fn check_committed(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        let mut actions = Vec::new();
        let quorum = self.quorum();
        let ready = {
            let Some(entry) = self.log.entry(seq) else {
                return actions;
            };
            entry.prepared && !entry.committed && self.matching_commits(seq) >= quorum
        };
        if !ready {
            return actions;
        }
        let (view, digest, batch, plan, cert_entries) = {
            let entry = self.log.entry_mut(seq);
            entry.committed = true;
            let digest = entry.digest.expect("committed entry has digest");
            let view_of_entry = entry.view.expect("committed entry has view");
            let entries: Vec<_> = entry
                .commits
                .values()
                .filter(|c| c.digest == digest && c.view == view_of_entry)
                .map(|c| (c.sender, c.signature))
                .collect();
            (
                entry.view.expect("view"),
                digest,
                entry.batch.clone().expect("committed entry has batch"),
                entry.plan,
                entries,
            )
        };
        let certificate = Arc::new(CommitCertificate::new(view, seq, digest, cert_entries));
        self.pending_certs.insert(seq, Arc::clone(&certificate));
        actions.push(ConsensusAction::CancelTimer(ConsensusTimer::Request(seq)));
        actions.push(ConsensusAction::Committed {
            view,
            seq,
            batch,
            plan,
            certificate: Some(certificate),
        });
        actions.extend(self.maybe_emit_checkpoint(seq));
        actions
    }

    /// Broadcasts a featherweight checkpoint when `seq` closes an interval.
    fn maybe_emit_checkpoint(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
        if !seq.0.is_multiple_of(self.checkpoint_interval) || seq <= self.log.stable_seq() {
            return Vec::new();
        }
        let certificates: Vec<_> = self
            .pending_certs
            .range(SeqNum(self.log.stable_seq().0 + 1)..=seq)
            .map(|(_, c)| Arc::clone(c))
            .collect();
        let digest = sbft_crypto::digest_u64s("checkpoint", &[seq.0, certificates.len() as u64]);
        let checkpoint = Checkpoint {
            seq,
            sender: self.me,
            certificates,
            signature: self.crypto.sign(&digest),
        };
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
                        let entry = self.log.entry_mut(cert.seq);
                        entry.committed = true;
                        entry.prepared = true;
                        entry.view = Some(cert.view);
                        entry.digest = Some(cert.batch_digest);
                        let batch = entry.batch.clone();
                        let plan = entry.plan;
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
        self.log.collect_below(seq);
        self.pending_certs.retain(|s, _| *s > seq);
        self.checkpoint_votes.retain(|s, _| *s > seq);
        self.adopted_from_peers.retain(|s| *s > seq);
        actions
    }

    /// Starts (or joins) a view change towards `target` (at least
    /// `view + 1`).
    fn start_view_change(&mut self, target: ViewNumber) -> Vec<ConsensusAction> {
        let target = if target > self.view {
            target
        } else {
            self.view.next()
        };
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
        // re-issues survivors as full pre-prepares.
        self.pending_digest.clear();
        let prepared = self
            .log
            .prepared_uncommitted()
            .into_iter()
            .map(|(seq, view, digest)| PreparedProof { seq, digest, view })
            .collect::<Vec<_>>();
        let digest = sbft_crypto::digest_u64s(
            "viewchange",
            &[target.0, self.log.stable_seq().0, prepared.len() as u64],
        );
        let vc = ViewChange {
            new_view: target,
            sender: self.me,
            last_stable_seq: self.log.stable_seq(),
            prepared,
            signature: self.crypto.sign(&digest),
        };
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
        // survives the view change (Theorem VII.2's argument).
        let mut reissued = Vec::new();
        let pending: Vec<(SeqNum, Digest)> = self
            .log
            .prepared_uncommitted()
            .into_iter()
            .map(|(seq, _, digest)| (seq, digest))
            .collect();
        for (seq, digest) in pending {
            let Some(entry) = self.log.entry(seq) else {
                continue;
            };
            let plan = entry.plan;
            if let Some(batch) = entry.batch.clone() {
                let header = header_digest("preprepare", target, seq, &digest);
                reissued.push(PrePrepare {
                    view: target,
                    seq,
                    digest,
                    batch,
                    plan,
                    mac: self.crypto.broadcast_mac(&header),
                });
            }
        }
        let digest = sbft_crypto::digest_u64s(
            "newview",
            &[target.0, senders.len() as u64, reissued.len() as u64],
        );
        let new_view_msg = NewView {
            new_view: target,
            sender: self.me,
            view_change_senders: senders,
            reissued: reissued.clone(),
            signature: self.crypto.sign(&digest),
        };
        let mut actions = vec![ConsensusAction::Broadcast(ConsensusMessage::NewView(
            new_view_msg,
        ))];
        actions.extend(self.install_view(target));
        // The new primary re-runs consensus for the re-issued requests.
        for pp in reissued {
            let seq = pp.seq;
            let digest = pp.digest;
            if self
                .log
                .accept_pre_prepare(seq, target, digest, pp.batch.clone(), pp.plan)
            {
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

    // ----- digest proposals -------------------------------------------------

    /// The peer a `BATCHFETCH` attempt targets: the primary of the
    /// proposal's view first, then rotation through the other replicas so
    /// a silent or partitioned primary cannot starve reconstruction (any
    /// replica that accepted the proposal holds the batch).
    fn fetch_target(&self, view: ViewNumber, attempt: u32) -> NodeId {
        self.other_replica(self.primary_of(view).0, attempt)
    }

    /// The `k`-th of the `n − 1` other replicas, counting round the ring
    /// from replica `start` and stepping over this one; `k` wraps. Both
    /// retry rotations (`BATCHFETCH`, `STATEREQUEST`) pick their peer
    /// here, so consecutive attempts never ask one peer twice in a row.
    fn other_replica(&self, start: u32, k: u32) -> NodeId {
        let n = (self.params.n_r as u32).max(1);
        let k = k % (n - 1).max(1);
        // How many steps round the ring from `start` this replica sits.
        let me_at = (self.me.0 + n - start % n) % n;
        NodeId((start + k + u32::from(k >= me_at)) % n)
    }

    /// Sends (or retransmits) the `BATCHFETCH` for a pending proposal and
    /// restarts its request timer.
    fn send_fetch(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
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
    fn try_complete_reconstruction(&mut self, seq: SeqNum) -> Vec<ConsensusAction> {
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

    fn on_digest_pre_prepare(
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

    fn on_batch_fetch(&mut self, from: NodeId, bf: BatchFetch) -> Vec<ConsensusAction> {
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

    fn on_batch_fill(&mut self, from: NodeId, bf: BatchFill) -> Vec<ConsensusAction> {
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

    // ----- message handlers -------------------------------------------------

    fn on_pre_prepare(&mut self, from: NodeId, pp: PrePrepare) -> Vec<ConsensusAction> {
        // Well-formedness checks (Figure 3, line 10).
        if self.in_view_change
            || pp.view != self.view
            || from != self.primary_of(pp.view)
            || pp.seq <= self.log.stable_seq()
        {
            return Vec::new();
        }
        let header = header_digest("preprepare", pp.view, pp.seq, &pp.digest);
        if !self
            .crypto
            .verify_broadcast_mac(ComponentId::Node(from), &header, &pp.mac)
        {
            return Vec::new();
        }
        if batch_digest(&pp.batch) != pp.digest {
            return Vec::new();
        }
        if !self
            .log
            .accept_pre_prepare(pp.seq, pp.view, pp.digest, pp.batch.clone(), pp.plan)
        {
            // Equivocation detected: the primary proposed two different
            // batches at the same sequence number.
            return self.start_view_change(self.view.next());
        }
        self.after_pre_prepare(pp.view, pp.seq, pp.digest)
    }

    fn on_prepare(&mut self, from: NodeId, p: Prepare) -> Vec<ConsensusAction> {
        // Votes from earlier views or below the stable checkpoint are stale;
        // votes for the current or a *later* view are kept (they may have
        // overtaken the NEWVIEW message that installs that view).
        if p.sender != from || p.view < self.view || p.seq <= self.log.stable_seq() {
            return Vec::new();
        }
        let header = header_digest("prepare", p.view, p.seq, &p.digest);
        if !self
            .crypto
            .verify_broadcast_mac(ComponentId::Node(from), &header, &p.mac)
        {
            return Vec::new();
        }
        self.log.add_prepare(p);
        self.check_prepared(p.seq)
    }

    fn on_commit(&mut self, from: NodeId, c: Commit) -> Vec<ConsensusAction> {
        if c.sender != from || c.view < self.view || c.seq <= self.log.stable_seq() {
            return Vec::new();
        }
        let signed = commit_digest(c.view, c.seq, &c.digest);
        if !self
            .crypto
            .verify(ComponentId::Node(from), &signed, &c.signature)
        {
            return Vec::new();
        }
        self.log.add_commit(c);
        self.check_committed(c.seq)
    }

    fn on_view_change(&mut self, from: NodeId, vc: ViewChange) -> Vec<ConsensusAction> {
        if vc.sender != from {
            return Vec::new();
        }
        let digest = sbft_crypto::digest_u64s(
            "viewchange",
            &[
                vc.new_view.0,
                vc.last_stable_seq.0,
                vc.prepared.len() as u64,
            ],
        );
        if !self
            .crypto
            .verify(ComponentId::Node(from), &digest, &vc.signature)
        {
            return Vec::new();
        }
        self.record_view_change_vote(vc)
    }

    fn on_new_view(&mut self, from: NodeId, nv: NewView) -> Vec<ConsensusAction> {
        if nv.sender != from
            || nv.new_view <= self.view
            || from != self.primary_of(nv.new_view)
            || nv.view_change_senders.iter().collect::<BTreeSet<_>>().len()
                < self.params.view_change_quorum()
        {
            return Vec::new();
        }
        let digest = sbft_crypto::digest_u64s(
            "newview",
            &[
                nv.new_view.0,
                nv.view_change_senders.len() as u64,
                nv.reissued.len() as u64,
            ],
        );
        if !self
            .crypto
            .verify(ComponentId::Node(from), &digest, &nv.signature)
        {
            return Vec::new();
        }
        let mut actions = self.install_view(nv.new_view);
        for pp in nv.reissued {
            let header = header_digest("preprepare", pp.view, pp.seq, &pp.digest);
            if pp.view == self.view
                && batch_digest(&pp.batch) == pp.digest
                && self
                    .crypto
                    .verify_broadcast_mac(ComponentId::Node(from), &header, &pp.mac)
                && self.log.accept_pre_prepare(
                    pp.seq,
                    pp.view,
                    pp.digest,
                    pp.batch.clone(),
                    pp.plan,
                )
            {
                actions.extend(self.after_pre_prepare(pp.view, pp.seq, pp.digest));
            }
        }
        actions
    }

    fn on_checkpoint(&mut self, from: NodeId, cp: Checkpoint) -> Vec<ConsensusAction> {
        if cp.sender != from {
            return Vec::new();
        }
        let digest =
            sbft_crypto::digest_u64s("checkpoint", &[cp.seq.0, cp.certificates.len() as u64]);
        if !self
            .crypto
            .verify(ComponentId::Node(from), &digest, &cp.signature)
        {
            return Vec::new();
        }
        self.record_checkpoint_vote(cp)
    }

    fn on_state_request(&mut self, from: NodeId, req: StateRequest) -> Vec<ConsensusAction> {
        if req.sender != from {
            return Vec::new();
        }
        let digest = state_request_digest(req.sender, req.above);
        if !self
            .crypto
            .verify(ComponentId::Node(from), &digest, &req.signature)
        {
            return Vec::new();
        }
        // Ship every committed entry above the requested floor for which
        // we still hold both the batch and the certificate (everything
        // since our last stable checkpoint; older entries were garbage
        // collected and are covered by checkpoint catch-up instead).
        let entries: Vec<RecoveredEntry> = self
            .pending_certs
            .range(SeqNum(req.above.0 + 1)..)
            .filter_map(|(seq, cert)| {
                let entry = self.log.entry(*seq)?;
                let batch = entry.batch.clone()?;
                entry.committed.then(|| RecoveredEntry {
                    seq: *seq,
                    view: cert.view,
                    batch,
                    plan: entry.plan,
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

    fn on_state_response(&mut self, from: NodeId, resp: StateResponse) -> Vec<ConsensusAction> {
        if resp.sender != from {
            return Vec::new();
        }
        // First pass: validate. The response is unsigned; each entry must
        // self-certify (the certificate carries a commit quorum and the
        // batch must hash to the digest the quorum signed). Garbage —
        // mismatched or invalid certificates, digest mismatches, a stale
        // view claim contradicting the certificate — is rejected and
        // counted against the sender, never seated. Entries already held
        // (or already adopted from another peer's overlapping suffix) are
        // skipped silently: the adopt-once ledger makes duplicated and
        // overlapping responses idempotent.
        let mut valid = Vec::new();
        let mut duplicates = 0usize;
        let mut garbage = 0u64;
        for e in resp.entries {
            if e.seq <= self.log.stable_seq()
                || self.log.is_committed(e.seq)
                || self.adopted_from_peers.contains(&e.seq)
            {
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
                || batch_digest(&e.batch) != e.certificate.batch_digest
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

        // Checkpoint catch-up: the responder's snapshot floor is above
        // everything we hold, so the suffix below it is gone from peer
        // retention. Adopting the floor is safe once it is *proven* — a
        // certified entry above it in the same response — or *vouched* by
        // `f_r + 1` distinct peers claiming at least that floor (at least
        // one of them honest).
        let floor = resp.stable_seq;
        let claim = self.floor_claims.entry(from).or_insert(SeqNum(0));
        *claim = (*claim).max(floor);
        if floor > self.log.max_committed().max(self.log.stable_seq()) {
            let proven = valid.iter().any(|e| e.seq > floor);
            let vouched =
                self.floor_claims.values().filter(|s| **s >= floor).count() > self.params.f_r;
            if proven || vouched {
                self.log.collect_below(floor);
                self.pending_certs.retain(|s, _| *s > floor);
                self.checkpoint_votes.retain(|s, _| *s > floor);
                self.adopted_from_peers.retain(|s| *s > floor);
                self.next_seq = self.next_seq.max(SeqNum(floor.0 + 1));
                self.catch_ups.inc();
                useful = true;
                actions.push(ConsensusAction::CaughtUp { up_to: floor });
            }
        }

        for e in valid {
            if e.seq <= self.log.stable_seq() {
                // Covered by a floor adopted above.
                continue;
            }
            let entry = self.log.entry_mut(e.seq);
            entry.committed = true;
            entry.prepared = true;
            entry.view = Some(e.certificate.view);
            entry.digest = Some(e.certificate.batch_digest);
            entry.batch = Some(e.batch.clone());
            entry.plan = e.plan;
            self.pending_certs.insert(e.seq, Arc::clone(&e.certificate));
            self.adopted_from_peers.insert(e.seq);
            self.next_seq = self.next_seq.max(SeqNum(e.seq.0 + 1));
            useful = true;
            actions.push(ConsensusAction::CancelTimer(ConsensusTimer::Request(e.seq)));
            actions.push(ConsensusAction::Committed {
                view: e.certificate.view,
                seq: e.seq,
                batch: e.batch,
                plan: e.plan,
                certificate: Some(e.certificate),
            });
        }

        // A useful response ends the retransmission schedule.
        if useful && self.state_transfer_attempt.take().is_some() {
            actions.push(ConsensusAction::CancelTimer(ConsensusTimer::StateTransfer));
        }
        actions
    }

    /// The highest sequence this replica can prove committed — what a
    /// retransmitted `STATEREQUEST` asks above.
    fn transfer_floor(&self) -> SeqNum {
        self.log.max_committed().max(self.log.stable_seq())
    }

    /// Capped exponential backoff for the `STATEREQUEST` retransmission
    /// timer: `node_timeout / 2` doubling per attempt, capped at
    /// `4 × node_timeout`.
    fn state_retry_backoff(&self, attempt: u32) -> SimDuration {
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
    fn retransmit_state_request(&mut self) -> Vec<ConsensusAction> {
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
        let above = self.transfer_floor();
        let digest = state_request_digest(self.me, above);
        let req = StateRequest {
            sender: self.me,
            above,
            signature: self.crypto.sign(&digest),
        };
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

/// The digest a recovering replica signs over its `STATEREQUEST`.
fn state_request_digest(sender: NodeId, above: SeqNum) -> Digest {
    sbft_crypto::digest_u64s("staterequest", &[u64::from(sender.0), above.0])
}

impl OrderingProtocol for PbftReplica {
    fn submit_batch(&mut self, batch: Batch, plan: ShardPlan) -> Vec<ConsensusAction> {
        if !self.is_primary() || self.in_view_change {
            return Vec::new();
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        let digest = batch_digest(&batch);
        if !self
            .log
            .accept_pre_prepare(seq, self.view, digest, batch.clone(), plan)
        {
            return Vec::new();
        }
        let proposal = if self.digest_mode {
            // Bandwidth-frugal proposal: ids, no bodies.
            // Replicas rebuild the batch from client submissions and
            // fetch only what they miss; the digest pins the contents.
            let txn_ids = batch.txn_ids();
            let header = header_digest("digest-preprepare", self.view, seq, &digest);
            ConsensusMessage::DigestPrePrepare(DigestPrePrepare {
                view: self.view,
                seq,
                digest,
                txn_ids,
                plan,
                mac: self.crypto.broadcast_mac(&header),
            })
        } else {
            let header = header_digest("preprepare", self.view, seq, &digest);
            ConsensusMessage::PrePrepare(PrePrepare {
                view: self.view,
                seq,
                digest,
                batch,
                plan,
                mac: self.crypto.broadcast_mac(&header),
            })
        };
        let mut actions = vec![ConsensusAction::Broadcast(proposal)];
        actions.extend(self.after_pre_prepare(self.view, seq, digest));
        actions
    }

    fn handle_message(&mut self, from: NodeId, msg: ConsensusMessage) -> Vec<ConsensusAction> {
        match msg {
            ConsensusMessage::PrePrepare(pp) => self.on_pre_prepare(from, pp),
            ConsensusMessage::DigestPrePrepare(dpp) => self.on_digest_pre_prepare(from, dpp),
            ConsensusMessage::BatchFetch(bf) => self.on_batch_fetch(from, bf),
            ConsensusMessage::BatchFill(bf) => self.on_batch_fill(from, bf),
            ConsensusMessage::Prepare(p) => self.on_prepare(from, p),
            ConsensusMessage::Commit(c) => self.on_commit(from, c),
            ConsensusMessage::ViewChange(vc) => self.on_view_change(from, vc),
            ConsensusMessage::NewView(nv) => self.on_new_view(from, nv),
            ConsensusMessage::Checkpoint(cp) => self.on_checkpoint(from, cp),
            ConsensusMessage::StateRequest(req) => self.on_state_request(from, req),
            ConsensusMessage::StateResponse(resp) => self.on_state_response(from, resp),
            // CFT messages are ignored by a BFT replica.
            _ => Vec::new(),
        }
    }

    fn handle_timer(&mut self, timer: ConsensusTimer) -> Vec<ConsensusAction> {
        match timer {
            ConsensusTimer::Request(seq) => {
                if self.log.is_committed(seq) || seq <= self.log.stable_seq() {
                    Vec::new()
                } else if self
                    .pending_digest
                    .get(&seq)
                    .is_some_and(|p| p.fetch_attempts <= FETCH_RETRY_BUDGET)
                {
                    // Reconstruction is still fetching bodies; retransmit
                    // (rotating to another peer) before blaming the
                    // primary. The retry budget bounds how long a lossy
                    // fetch link can defer the view change.
                    self.send_fetch(seq)
                } else {
                    // The primary failed to complete consensus in time.
                    self.start_view_change(self.view.next())
                }
            }
            ConsensusTimer::ViewChange(target) => {
                if self.view >= target {
                    Vec::new()
                } else {
                    // The view change itself stalled; escalate further.
                    self.start_view_change(target.next())
                }
            }
            ConsensusTimer::StateTransfer => self.retransmit_state_request(),
        }
    }

    fn request_view_change(&mut self) -> Vec<ConsensusAction> {
        self.start_view_change(self.view.next())
    }

    fn install_recovered(
        &mut self,
        entries: Vec<RecoveredEntry>,
        stable: SeqNum,
        view: ViewNumber,
    ) -> Vec<ConsensusAction> {
        self.view = self.view.max(view);
        self.in_view_change = false;
        if stable > SeqNum(0) {
            self.log.collect_below(stable);
        }
        // Re-seat the durable committed suffix. No `Committed` action is
        // emitted for these: the caller already acted on them before the
        // crash (the WAL record was synced after the fact) and re-seating
        // must not re-spawn executors.
        let mut max_seq = stable;
        for e in entries {
            max_seq = max_seq.max(e.seq);
            let entry = self.log.entry_mut(e.seq);
            entry.committed = true;
            entry.prepared = true;
            entry.view = Some(e.view);
            entry.digest = Some(e.certificate.batch_digest);
            entry.batch = Some(e.batch);
            entry.plan = e.plan;
            self.pending_certs.insert(e.seq, e.certificate);
        }
        self.next_seq = self.next_seq.max(SeqNum(max_seq.0 + 1));
        // Everything above the durable suffix was lost with the process;
        // ask the peers for it. The broadcast is backed by a
        // retransmission timer: on a lossy or partitioned network the
        // request is re-sent with capped exponential backoff, rotating
        // through the peers, until a useful response lands or the retry
        // budget is spent.
        self.state_transfer_attempt = Some(0);
        let digest = state_request_digest(self.me, max_seq);
        vec![
            ConsensusAction::Broadcast(ConsensusMessage::StateRequest(StateRequest {
                sender: self.me,
                above: max_seq,
                signature: self.crypto.sign(&digest),
            })),
            ConsensusAction::StartTimer {
                timer: ConsensusTimer::StateTransfer,
                duration: self.state_retry_backoff(0),
            },
        ]
    }

    fn view(&self) -> ViewNumber {
        self.view
    }

    fn primary(&self) -> NodeId {
        self.primary_of(self.view)
    }

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn offer_body(&mut self, txn: Transaction) -> Vec<ConsensusAction> {
        if !self.digest_mode {
            return Vec::new();
        }
        let id = txn.id;
        self.body_cache.insert(id, txn);
        // The body may be the last piece of an in-flight reconstruction
        // (client broadcast racing the proposal).
        let completable: Vec<SeqNum> = self
            .pending_digest
            .iter_mut()
            .filter_map(|(seq, p)| (p.missing.remove(&id) && p.missing.is_empty()).then_some(*seq))
            .collect();
        let mut actions = Vec::new();
        for seq in completable {
            actions.extend(self.try_complete_reconstruction(seq));
        }
        actions
    }

    fn gc_bodies(&mut self, protected: &mut dyn Iterator<Item = TxnId>) {
        let mut kept = IdMap::default();
        for id in protected {
            if let Some(body) = self.body_cache.remove(&id) {
                kept.insert(id, body);
            }
        }
        self.body_cache = kept;
    }

    fn pending_reconstructions(&self) -> Vec<SeqNum> {
        self.pending_digest.keys().copied().collect()
    }

    fn cached_bodies(&self) -> usize {
        self.body_cache.len()
    }

    fn register_metrics(&mut self, registry: &Registry, prefix: &str) {
        self.cache_hits = registry.counter(&format!("{prefix}.digest.cache_hits"));
        self.cache_misses = registry.counter(&format!("{prefix}.digest.cache_misses"));
        self.fetches_sent = registry.counter(&format!("{prefix}.digest.fetches_sent"));
        self.fills_served = registry.counter(&format!("{prefix}.digest.fills_served"));
        self.fallbacks = registry.counter(&format!("{prefix}.digest.fallbacks"));
        self.bad_state_responses =
            registry.counter(&format!("{prefix}.faults.bad_state_responses"));
        self.state_request_retries =
            registry.counter(&format!("{prefix}.faults.state_request_retries"));
        self.catch_ups = registry.counter(&format!("{prefix}.faults.catch_ups"));
    }

    fn name(&self) -> &'static str {
        "PBFT"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::committed_seqs;
    use sbft_crypto::CryptoProvider;
    use sbft_types::{ClientId, Key, Operation, Transaction, TxnId};

    /// A tiny in-memory shim network delivering consensus messages until
    /// quiescence. Nodes listed in `down` receive nothing and send nothing.
    struct TestShim {
        replicas: Vec<PbftReplica>,
        down: BTreeSet<NodeId>,
        /// Nodes kept "in the dark": they do not receive the normal-case
        /// consensus messages (a byzantine primary excludes them) but still
        /// receive checkpoints and view-change traffic from honest peers.
        dark: BTreeSet<NodeId>,
        /// Committed (node, seq, batch-len) triples observed.
        committed: Vec<(NodeId, SeqNum, usize)>,
        /// The batches delivered by Committed actions (zero-copy checks).
        committed_batches: Vec<(NodeId, Batch)>,
        certificates: Vec<Arc<CommitCertificate>>,
        caught_up: Vec<(NodeId, SeqNum)>,
        provider: std::sync::Arc<CryptoProvider>,
    }

    impl TestShim {
        fn new(n: usize) -> Self {
            let provider = CryptoProvider::new(7);
            let params = FaultParams::for_shim_size(n);
            let replicas = (0..n as u32)
                .map(|i| {
                    PbftReplica::new(
                        NodeId(i),
                        params,
                        provider.handle(ComponentId::Node(NodeId(i))),
                        SimDuration::from_millis(100),
                        4,
                    )
                })
                .collect();
            TestShim {
                replicas,
                down: BTreeSet::new(),
                dark: BTreeSet::new(),
                committed: Vec::new(),
                committed_batches: Vec::new(),
                certificates: Vec::new(),
                caught_up: Vec::new(),
                provider,
            }
        }

        /// A shim whose replicas run in digest-proposal mode.
        fn new_digest(n: usize) -> Self {
            let mut shim = TestShim::new(n);
            shim.replicas = shim
                .replicas
                .drain(..)
                .map(|r| r.with_digest_proposals(true))
                .collect();
            shim
        }

        /// Feeds every replica's body cache with the batch's transactions
        /// (models the client broadcast that warms the caches), running
        /// any actions a completed reconstruction produces.
        fn offer_to_all(&mut self, batch: &Batch) {
            for i in 0..self.replicas.len() {
                for txn in batch.txns() {
                    let actions = self.replicas[i].offer_body(txn.clone());
                    self.run_actions(NodeId(i as u32), actions);
                }
            }
        }

        fn blocked(&self, to: NodeId, msg: &ConsensusMessage) -> bool {
            if self.down.contains(&to) {
                return true;
            }
            if self.dark.contains(&to) {
                // A node in the dark misses the normal-case traffic only.
                return matches!(
                    msg,
                    ConsensusMessage::PrePrepare(_)
                        | ConsensusMessage::Prepare(_)
                        | ConsensusMessage::Commit(_)
                );
            }
            false
        }

        fn run_actions(&mut self, origin: NodeId, actions: Vec<ConsensusAction>) {
            // FIFO delivery: messages are handled in the order they were
            // sent, as they would be over per-connection sockets.
            let mut queue: std::collections::VecDeque<(NodeId, NodeId, ConsensusMessage)> =
                std::collections::VecDeque::new();
            self.collect(origin, actions, &mut queue);
            while let Some((from, to, msg)) = queue.pop_front() {
                if self.blocked(to, &msg) || self.down.contains(&from) {
                    continue;
                }
                let acts = self.replicas[to.0 as usize].handle_message(from, msg);
                self.collect(to, acts, &mut queue);
            }
        }

        fn collect(
            &mut self,
            origin: NodeId,
            actions: Vec<ConsensusAction>,
            queue: &mut std::collections::VecDeque<(NodeId, NodeId, ConsensusMessage)>,
        ) {
            for action in actions {
                match action {
                    ConsensusAction::Broadcast(msg) => {
                        if self.down.contains(&origin) {
                            continue;
                        }
                        for r in &self.replicas {
                            let id = r.node_id();
                            if id != origin && !self.down.contains(&id) {
                                queue.push_back((origin, id, msg.clone()));
                            }
                        }
                    }
                    ConsensusAction::Send(to, msg)
                        if !self.down.contains(&origin) && !self.down.contains(&to) =>
                    {
                        queue.push_back((origin, to, msg));
                    }
                    ConsensusAction::Committed {
                        seq,
                        batch,
                        certificate,
                        ..
                    } => {
                        self.committed.push((origin, seq, batch.len()));
                        self.committed_batches.push((origin, batch));
                        if let Some(cert) = certificate {
                            self.certificates.push(cert);
                        }
                    }
                    ConsensusAction::CaughtUp { up_to } => {
                        self.caught_up.push((origin, up_to));
                    }
                    _ => {}
                }
            }
        }

        fn submit_to_primary(&mut self, batch: Batch) {
            let primary = self.replicas[0].primary();
            let actions =
                self.replicas[primary.0 as usize].submit_batch(batch, ShardPlan::Unplanned);
            self.run_actions(primary, actions);
        }

        fn committed_by(&self, node: NodeId) -> Vec<SeqNum> {
            self.committed
                .iter()
                .filter(|(n, _, _)| *n == node)
                .map(|(_, s, _)| *s)
                .collect()
        }
    }

    fn batch(counter: u64) -> Batch {
        Batch::single(Transaction::new(
            TxnId::new(ClientId(0), counter),
            vec![Operation::Read(Key(counter))],
        ))
    }

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
        let actions =
            shim.replicas[primary.0 as usize].submit_batch(submitted.clone(), ShardPlan::Unplanned);
        shim.run_actions(primary, actions);
        assert_eq!(shim.committed_batches.len(), 4, "all replicas committed");
        for (node, b) in &shim.committed_batches {
            assert!(
                b.shares_txns(&submitted),
                "node {node} must deliver the submitted batch's storage"
            );
        }
        // The delivered digest is memoized once and carried by every clone.
        assert!(shim.committed_batches[0].1.cached_digest().is_some());
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
        let actions = shim.replicas[2].submit_batch(batch(0), ShardPlan::Unplanned);
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
        let actions = shim.replicas[1].submit_batch(batch(7), ShardPlan::Unplanned);
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
        let digest = batch_digest(&b);
        shim.replicas[1].log.accept_pre_prepare(
            SeqNum(2),
            ViewNumber(0),
            digest,
            b.clone(),
            ShardPlan::Unplanned,
        );
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
    fn plan_tag_replicates_to_every_log_and_survives_reproposal() {
        let plan = ShardPlan::SingleHome(sbft_types::ShardId(2));
        // Normal case: the tag lands in every replica's log entry.
        let mut shim = TestShim::new(4);
        let primary = shim.replicas[0].primary();
        let actions = shim.replicas[primary.0 as usize].submit_batch(batch(0), plan);
        shim.run_actions(primary, actions);
        for r in &shim.replicas {
            assert_eq!(
                r.log.entry(SeqNum(1)).expect("entry").plan,
                plan,
                "node {} must replicate the tag",
                r.node_id()
            );
        }
        // View change: a prepared-but-uncommitted tagged proposal at the
        // next primary is re-issued with the tag intact and commits.
        let mut shim = TestShim::new(4);
        let b = batch(1);
        let digest = batch_digest(&b);
        shim.replicas[1]
            .log
            .accept_pre_prepare(SeqNum(1), ViewNumber(0), digest, b, plan);
        shim.replicas[1].log.entry_mut(SeqNum(1)).prepared = true;
        shim.down.insert(NodeId(0));
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
            assert!(shim.committed_by(NodeId(i)).contains(&SeqNum(1)));
            assert_eq!(
                shim.replicas[i as usize]
                    .log
                    .entry(SeqNum(1))
                    .expect("entry")
                    .plan,
                plan,
                "node {i} must re-learn the tag from the re-proposal"
            );
        }
    }

    #[test]
    fn equivocating_pre_prepare_is_rejected() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        // Forge a second pre-prepare for seq 1 with a different batch,
        // correctly MACed by the primary's handle.
        let evil = batch(99);
        let digest = batch_digest(&evil);
        let header = header_digest("preprepare", ViewNumber(0), SeqNum(1), &digest);
        let primary_handle = shim.provider.handle(ComponentId::Node(NodeId(0)));
        let pp = PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest,
            batch: evil,
            plan: ShardPlan::Unplanned,
            mac: primary_handle.broadcast_mac(&header),
        };
        let actions = shim.replicas[1].handle_message(NodeId(0), ConsensusMessage::PrePrepare(pp));
        // The node detects equivocation and asks for a view change rather
        // than accepting the conflicting proposal.
        assert!(actions.iter().any(|a| a.is_message_kind("VIEWCHANGE")));
        assert!(committed_seqs(&actions).is_empty());
    }

    #[test]
    fn pre_prepare_with_bad_mac_or_wrong_sender_ignored() {
        let mut shim = TestShim::new(4);
        let b = batch(0);
        let digest = batch_digest(&b);
        let pp = PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest,
            batch: b.clone(),
            plan: ShardPlan::Unplanned,
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
    fn timer_for_committed_request_is_a_no_op() {
        let mut shim = TestShim::new(4);
        shim.submit_to_primary(batch(0));
        let actions = shim.replicas[1].handle_timer(ConsensusTimer::Request(SeqNum(1)));
        assert!(actions.is_empty());
    }

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
                    plan: entry.plan,
                    certificate: Arc::clone(&shim.replicas[3].pending_certs[&SeqNum(s)]),
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
                plan: ShardPlan::Unplanned,
                certificate: Arc::new(CommitCertificate::new(
                    ViewNumber(0),
                    SeqNum(7),
                    batch_digest(&batch(7)),
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
        // with a different batch; the digest check must catch it.
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
                plan: ShardPlan::Unplanned,
                certificate: cert,
            }],
        };
        // Reset node 3 so the entry is genuinely missing there.
        let params = FaultParams::for_shim_size(4);
        shim.replicas[3] = PbftReplica::new(
            NodeId(3),
            params,
            shim.provider.handle(ComponentId::Node(NodeId(3))),
            SimDuration::from_millis(100),
            4,
        );
        let actions =
            shim.replicas[3].handle_message(NodeId(2), ConsensusMessage::StateResponse(evil));
        assert!(actions.is_empty());
        assert!(!shim.replicas[3].log.is_committed(SeqNum(1)));
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
        let digest = state_request_digest(sender, above);
        StateRequest {
            sender,
            above,
            signature: shim
                .provider
                .handle(ComponentId::Node(sender))
                .sign(&digest),
        }
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
                    plan: ShardPlan::Unplanned,
                    certificate: Arc::clone(&cert),
                },
                RecoveredEntry {
                    seq: cert.seq,
                    view: cert.view.next(),
                    batch: batch(0),
                    plan: ShardPlan::Unplanned,
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

    // ----- digest proposals -------------------------------------------------

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
