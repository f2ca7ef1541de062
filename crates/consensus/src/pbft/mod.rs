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
//! One struct, [`PbftReplica`], holds the replica's state; what it knows
//! about a single sequence number lives in its [`ConsensusLog`] and
//! nowhere else. The protocol is cut along the lines that state does not
//! cross — `normal` (the three phases), `checkpoint`, `view_change`,
//! `transfer` (state transfer) and `digest` (digest proposals) — each an
//! `impl PbftReplica` block over the fields declared here; this file keeps
//! the struct, its construction and the [`OrderingProtocol`] dispatch.
//!
//! Byzantine behaviour is *not* implemented here — honest replicas only.
//! The attack layer of `sbft-core` perturbs the actions of compromised
//! nodes (dropping pre-prepares, equivocating, suppressing spawns) before
//! they reach the network.

mod checkpoint;
mod digest;
mod normal;
mod transfer;
mod view_change;

use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::log::ConsensusLog;
use crate::messages::{
    batch_digest, header_digest, Checkpoint, ConsensusMessage, DigestPrePrepare, PrePrepare,
    ViewChange,
};
use crate::traits::OrderingProtocol;
use sbft_crypto::CryptoHandle;
use sbft_durability::RecoveredEntry;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    Batch, Digest, FaultParams, IdMap, NodeId, SeqNum, ShardPlan, SimDuration, Transaction, TxnId,
    ViewNumber,
};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Everything known per sequence number: the accepted proposal, the
    /// votes, whether it prepared and committed, and the certificate it
    /// committed under (shared by reference count with the `Committed`
    /// action, checkpoints and state responses). A sequence adopted from
    /// a peer is committed here, which is what makes overlapping or
    /// duplicated `STATERESPONSE`s idempotent.
    log: ConsensusLog,

    /// Checkpoint votes collected, per checkpoint sequence number.
    checkpoint_votes: BTreeMap<SeqNum, BTreeMap<NodeId, Checkpoint>>,
    /// View-change votes collected, per target view.
    view_change_votes: BTreeMap<ViewNumber, BTreeMap<NodeId, ViewChange>>,

    /// Retransmission attempts made for the in-flight `STATEREQUEST`;
    /// `None` when no state transfer is pending. Bounded by
    /// [`STATE_RETRY_BUDGET`].
    state_transfer_attempt: Option<u32>,
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
            checkpoint_votes: BTreeMap::new(),
            view_change_votes: BTreeMap::new(),
            state_transfer_attempt: None,
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
            self.log
                .seat_certified(e.certificate, Some((e.batch, e.plan)));
        }
        self.next_seq = self.next_seq.max(SeqNum(max_seq.0 + 1));
        // Everything above the durable suffix was lost with the process;
        // ask the peers for it. The broadcast is backed by a
        // retransmission timer: on a lossy or partitioned network the
        // request is re-sent with capped exponential backoff, rotating
        // through the peers, until a useful response lands or the retry
        // budget is spent.
        self.state_transfer_attempt = Some(0);
        vec![
            ConsensusAction::Broadcast(ConsensusMessage::StateRequest(
                self.signed_state_request(max_seq),
            )),
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
    use sbft_crypto::{CommitCertificate, CryptoProvider};
    use sbft_types::{ClientId, ComponentId, Key, Operation, Transaction, TxnId};
    use std::sync::Arc;

    /// A tiny in-memory shim network delivering consensus messages until
    /// quiescence. Nodes listed in `down` receive nothing and send nothing.
    pub(super) struct TestShim {
        pub(super) replicas: Vec<PbftReplica>,
        pub(super) down: BTreeSet<NodeId>,
        /// Nodes kept "in the dark": they do not receive the normal-case
        /// consensus messages (a byzantine primary excludes them) but still
        /// receive checkpoints and view-change traffic from honest peers.
        pub(super) dark: BTreeSet<NodeId>,
        /// Committed (node, seq, batch-len) triples observed.
        pub(super) committed: Vec<(NodeId, SeqNum, usize)>,
        /// The batches delivered by Committed actions (zero-copy checks).
        pub(super) committed_batches: Vec<(NodeId, Batch)>,
        pub(super) certificates: Vec<Arc<CommitCertificate>>,
        pub(super) caught_up: Vec<(NodeId, SeqNum)>,
        pub(super) provider: std::sync::Arc<CryptoProvider>,
    }

    impl TestShim {
        pub(super) fn new(n: usize) -> Self {
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
        pub(super) fn new_digest(n: usize) -> Self {
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
        pub(super) fn offer_to_all(&mut self, batch: &Batch) {
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

        pub(super) fn run_actions(&mut self, origin: NodeId, actions: Vec<ConsensusAction>) {
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

        pub(super) fn submit_to_primary(&mut self, batch: Batch) {
            let primary = self.replicas[0].primary();
            let actions =
                self.replicas[primary.0 as usize].submit_batch(batch, ShardPlan::Unplanned);
            self.run_actions(primary, actions);
        }

        pub(super) fn committed_by(&self, node: NodeId) -> Vec<SeqNum> {
            self.committed
                .iter()
                .filter(|(n, _, _)| *n == node)
                .map(|(_, s, _)| *s)
                .collect()
        }
    }

    pub(super) fn batch(counter: u64) -> Batch {
        Batch::single(Transaction::new(
            TxnId::new(ClientId(0), counter),
            vec![Operation::Read(Key(counter))],
        ))
    }
}
