//! The shim-node role.
//!
//! A shim node is an edge device that (1) accepts signed client requests,
//! (2) batches them and runs the ordering protocol, (3) once a batch
//! commits, spawns serverless executors carrying the execution certificate
//! `C` (Figure 3, primary role), and (4) participates in the recovery paths
//! of Figure 4: forwarding `ERROR` messages to the primary under the
//! re-transmission timer `Υ`, honouring `REPLACE` messages from the
//! verifier, and replacing the primary through the ordering protocol's view
//! change when timers expire.
//!
//! The same state machine covers all spawning modes: primary-only spawning
//! (default), decentralized spawning (Section VI-B), and the planner-gated
//! spawning used when read-write sets are known (Section VI-C).

use crate::durable::{DurableLog, Persisted};
use crate::events::{
    Action, BatchValidated, ClientRequest, Destination, NoticeMarker, ProtocolMessage,
    ProtocolTimer, RecoveryNotice, RecoverySubject,
};
use crate::planner::{batch_home, home_shard, BatchFootprint, BestEffortPlanner};
use sbft_consensus::{
    Batcher, ConsensusAction, ConsensusMessage, OrderingProtocol, PbftReplica, SignedBatch,
};
use sbft_crypto::{CommitCertificate, CryptoHandle};
use sbft_durability::WriteAheadLog;
use sbft_serverless::{ExecuteRequest, Invoker};
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    checkpoint_gc_cutoff, Batch, ComponentId, ConflictHandling, Digest, IdMap, NodeId, SeqNum,
    ShardRouter, Signature, SimDuration, SimTime, SpawningMode, SystemConfig, TxnId, ViewNumber,
};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A committed batch that may still need spawning or re-spawning. The
/// batch and certificate are shared handles into the consensus layer's
/// allocations — storing and later re-reading them copies nothing.
#[derive(Clone, Debug)]
struct CommittedBatch {
    view: ViewNumber,
    batch: Batch,
    certificate: Arc<CommitCertificate>,
    spawned: bool,
}

/// Where a transaction this node batched is, which decides when its id
/// may be forgotten (see [`ShimNode::gc_seen_txns`]). A stamp is the
/// highest validated sequence number when the id was first seen.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SeenTxn {
    /// Waiting in a batcher lane, its client signature not checked yet.
    /// What it was batched with is read from the lanes
    /// ([`Batcher::waiting`]).
    Waiting(SeqNum),
    /// Released to ordering under a valid signature; no batch holding it
    /// has committed on this node (yet).
    Batched(SeqNum),
    /// A batch holding it has committed on this node: the batch may yet
    /// validate or be re-spawned.
    Committed,
    /// Its batch, committed here, validated at this sequence number.
    Validated(SeqNum),
}

/// An `ERROR` a backup forwarded to the primary, held under its subject
/// until the verifier's `ACK` for it (or until its `Υ` expires in a later
/// view, whose primary already got it). The request and the signature,
/// with the subject, rebuild the verifier's `ERROR`, which is re-forwarded
/// to the primary of every view this node installs as a backup while it
/// is held; the marker is always `Error` and the subject is the key, so
/// neither is stored twice.
#[derive(Clone, Debug)]
struct HeldError {
    /// The view the re-transmission timer `Υ` was started in.
    view: ViewNumber,
    /// The client request the `ERROR` carries, if any.
    request: Option<Box<ClientRequest>>,
    /// The verifier's signature over the `ERROR`.
    signature: Signature,
}

/// How long the batcher lets a pending request wait before its lane is
/// released partially filled.
const BATCH_MAX_WAIT: SimDuration = SimDuration::from_millis(5);

/// The shim-node role state machine.
pub struct ShimNode {
    me: NodeId,
    config: SystemConfig,
    crypto: CryptoHandle,
    ordering: Box<dyn OrderingProtocol + Send>,
    batcher: Batcher,
    invoker: Invoker,
    planner: Option<BestEffortPlanner>,
    /// The ordering-time shard planner's router: present when read-write
    /// sets are known, the deployment has more than one shard and
    /// ordering lanes are enabled. Each client transaction is classified
    /// against it and steered into its home lane of the batcher.
    lane_router: Option<ShardRouter>,
    /// Batches committed locally that the verifier has not validated yet.
    committed: BTreeMap<SeqNum, CommittedBatch>,
    /// Transactions this node has already placed in a batch, and where
    /// each one is, so that client re-transmissions and forwarded
    /// `ERROR(⟨T⟩_C)` messages are not ordered twice. The node's only
    /// per-transaction table: it is truncated by one `retain` at each new
    /// featherweight-checkpoint cutoff, mirroring the verifier's retry
    /// table, so duplicates inside the retained window are still
    /// suppressed while the table stays bounded on long runs (see
    /// [`Self::gc_seen_txns`]).
    seen_txns: IdMap<TxnId, SeenTxn>,
    /// Highest `BatchValidated` sequence number observed.
    max_validated: SeqNum,
    /// Highest sequence number at or below which `seen_txns` has been
    /// garbage-collected.
    seen_gc_floor: SeqNum,
    /// Every `ERROR` this node forwarded as a backup and the view its
    /// re-transmission timer `Υ` was started in, until the verifier's
    /// `ACK` (see [`HeldError`]). A view this node installs as a backup
    /// gets the held `ERROR`s re-forwarded to its primary: that is how the
    /// request a view change was raised for reaches the new primary
    /// (RECOVERY.md, "Who re-routes a request after a view change"). If
    /// the view has already changed when `Υ` fires, the new primary gets a
    /// fresh chance instead of triggering yet another view change (this is
    /// what prevents one byzantine primary from cascading the shim through
    /// many views when many `ERROR` messages arrive at once).
    retransmit: IdMap<RecoverySubject, HeldError>,
    /// The write-ahead log and its snapshot rhythm; a no-op unless
    /// `config.durability` is enabled or [`Self::attach_wal`] was called.
    durable: DurableLog,
    /// Whether this node is between a crash restart and the completion of
    /// its peer state transfer. Gates the recovery-only WAL actions (the
    /// checkpoint catch-up snapshot cut).
    recovering: bool,
    /// Whether this node built its own PBFT replica ([`Self::pbft`]) and
    /// builds a fresh one on a crash restart. The baselines (CFT, NoShim)
    /// have no recovery path and keep their instance.
    rebuilds_replica: bool,
    /// The registry this node's counters were re-homed into, kept so a
    /// crash restart can re-home the rebuilt batcher's and ordering
    /// protocol's counters under the same names (the registry re-uses
    /// counters by name, so cumulative values survive the restart).
    metrics_registry: Option<std::sync::Arc<Registry>>,
    // Counters, registered under `shim.<id>.*` by `register_metrics`.
    /// Batches this node has committed locally.
    batches_committed: Counter,
    /// Executors this node has spawned (and will be reimbursed for).
    executors_spawned: Counter,
    /// Client requests this node forwarded to the primary.
    requests_forwarded: Counter,
    /// Transactions the bisecting fallback of the batch
    /// aggregate-signature check pruned before ordering.
    rejected_txns: Counter,
    /// Committed batches adopted from peer state transfer after a crash
    /// restart (`durability.state_transfer_batches`).
    state_transfers: Counter,
    /// Region outages detected reactively from rejected spawns.
    region_outages_detected: Counter,
    /// Views this node installed.
    view_changes: Counter,
    /// Held `ERROR`s re-forwarded to the primary of a newly installed view.
    errors_reforwarded: Counter,
}

/// The cost of a durable step, charged by the driver before whatever the
/// step precedes (the durable-vote rule: a COMMIT's write and fsync come
/// before its send).
fn persist((bytes, fsync): Persisted) -> Action {
    Action::Persist { bytes, fsync }
}

impl ShimNode {
    /// Creates a shim node running PBFT: the node builds its own replica
    /// from the shared configuration, and builds a fresh one when it
    /// restarts after a crash.
    #[must_use]
    pub fn pbft(me: NodeId, config: SystemConfig, crypto: CryptoHandle) -> Self {
        let ordering = Self::pbft_replica(me, &config, &crypto);
        let mut node = Self::new(me, config, crypto, ordering);
        node.rebuilds_replica = true;
        node
    }

    /// The PBFT replica of shim node `me` under `config`.
    fn pbft_replica(
        me: NodeId,
        config: &SystemConfig,
        crypto: &CryptoHandle,
    ) -> Box<dyn OrderingProtocol + Send> {
        Box::new(
            PbftReplica::new(
                me,
                config.fault,
                crypto.clone(),
                config.timers.node_timeout,
                config.timers.checkpoint_interval,
            )
            .with_digest_proposals(config.digest_proposals),
        )
    }

    /// An empty batcher for this node's configuration: per-shard lanes
    /// when the ordering-time planner runs, one lane otherwise.
    fn fresh_batcher(config: &SystemConfig, lane_router: Option<&ShardRouter>) -> Batcher {
        let batch_size = config.workload.batch_size;
        match lane_router {
            Some(router) => {
                Batcher::with_shard_lanes(batch_size, BATCH_MAX_WAIT, router.num_shards())
            }
            None => Batcher::new(batch_size, BATCH_MAX_WAIT),
        }
    }

    /// Creates a shim node around an ordering protocol instance.
    #[must_use]
    pub fn new(
        me: NodeId,
        config: SystemConfig,
        crypto: CryptoHandle,
        ordering: Box<dyn OrderingProtocol + Send>,
    ) -> Self {
        // The ordering-time shard planner needs declared read-write sets
        // (to classify before execution) and more than one shard (to
        // have somewhere to route).
        let lane_router = (matches!(config.conflict_handling, ConflictHandling::KnownRwSets)
            && config.sharding.num_shards > 1
            && config.sharding.ordering_lanes)
            .then(|| ShardRouter::new(config.sharding.num_shards));
        let batcher = Self::fresh_batcher(&config, lane_router.as_ref());
        // Placement follows where the executors' storage lives, re-derived
        // from the shared configuration, never communicated: at the
        // verifier's site a batch's surplus executors go to the nearest
        // regions; geo-partitioned storage keeps the paper's rotation, and
        // pins by the shard → home-region map when the placement knob is on.
        let invoker = match config.region_partition() {
            None => Invoker::new(me, config.regions.clone()),
            Some(partition) => Invoker::geo(
                me,
                config.regions.clone(),
                config.sharding.pinned_placement.then_some(partition),
            ),
        };
        let planner = matches!(config.conflict_handling, ConflictHandling::KnownRwSets)
            .then(BestEffortPlanner::new);
        let durable = DurableLog::new(&config.durability);
        ShimNode {
            me,
            config,
            crypto,
            ordering,
            batcher,
            invoker,
            planner,
            lane_router,
            committed: BTreeMap::new(),
            seen_txns: IdMap::default(),
            max_validated: SeqNum(0),
            seen_gc_floor: SeqNum(0),
            retransmit: IdMap::default(),
            durable,
            recovering: false,
            rebuilds_replica: false,
            metrics_registry: None,
            batches_committed: Counter::new(),
            executors_spawned: Counter::new(),
            requests_forwarded: Counter::new(),
            rejected_txns: Counter::new(),
            state_transfers: Counter::new(),
            region_outages_detected: Counter::new(),
            view_changes: Counter::new(),
            errors_reforwarded: Counter::new(),
        }
    }

    /// Replaces the write-ahead log backend (the thread runtime attaches
    /// a [`sbft_durability::FileWal`] here). Implies durability even if
    /// the configuration left it off.
    pub fn attach_wal(&mut self, wal: Box<dyn WriteAheadLog>) {
        self.durable.wal = Some(wal);
    }

    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.me
    }

    /// Whether this node is the primary of the current view.
    #[must_use]
    pub fn is_primary(&self) -> bool {
        self.ordering.is_primary()
    }

    /// The primary of the current view.
    #[must_use]
    pub fn primary(&self) -> NodeId {
        self.ordering.primary()
    }

    /// The ordering protocol's current view.
    #[must_use]
    pub fn view(&self) -> ViewNumber {
        self.ordering.view()
    }

    /// Name of the ordering protocol in use ("PBFT", "CFT", "NoShim").
    #[must_use]
    pub fn protocol_name(&self) -> &'static str {
        self.ordering.name()
    }

    /// Re-homes this node's counters (and its batcher's and invoker's)
    /// into `registry` under `shim.<id>.*`. Called once by the system
    /// builder; nodes constructed without a registry keep standalone
    /// counters.
    pub fn register_metrics(&mut self, registry: &std::sync::Arc<Registry>) {
        self.metrics_registry = Some(std::sync::Arc::clone(registry));
        let id = self.id().0;
        self.batches_committed = registry.counter(&format!("shim.{id}.batches_committed"));
        self.executors_spawned = registry.counter(&format!("shim.{id}.executors_spawned"));
        self.requests_forwarded = registry.counter(&format!("shim.{id}.requests_forwarded"));
        self.rejected_txns = registry.counter(&format!("shim.{id}.rejected_txns"));
        self.durable.register_metrics(registry, id);
        self.state_transfers =
            registry.counter(&format!("shim.{id}.durability.state_transfer_batches"));
        self.region_outages_detected =
            registry.counter(&format!("shim.{id}.region_outages_detected"));
        self.view_changes = registry.counter(&format!("shim.{id}.view_changes"));
        self.errors_reforwarded = registry.counter(&format!("shim.{id}.errors_reforwarded"));
        self.batcher
            .register_metrics(registry, &format!("shim.{id}"));
        self.invoker.register_metrics(registry);
        self.ordering
            .register_metrics(registry, &format!("shim.{id}"));
    }

    /// Whether this node is still mid-recovery (restarted but its peer
    /// state transfer has not completed yet).
    #[must_use]
    pub fn is_recovering(&self) -> bool {
        self.recovering
    }

    /// Entries currently held in the duplicate-suppression set (tests and
    /// memory accounting).
    #[must_use]
    pub fn seen_txns_len(&self) -> usize {
        self.seen_txns.len()
    }

    /// Digest proposals still waiting for transaction bodies (empty when
    /// digest proposals are off or the protocol has no digest mode).
    #[must_use]
    pub fn pending_reconstructions(&self) -> Vec<SeqNum> {
        self.ordering.pending_reconstructions()
    }

    /// Transaction bodies cached for digest reconstruction (tests and
    /// memory accounting).
    #[must_use]
    pub fn cached_bodies(&self) -> usize {
        self.ordering.cached_bodies()
    }

    /// The batch this node committed at `seq`, while it is still tracked
    /// (entries are released once the verifier reports the batch
    /// validated). Lets equivalence tests compare committed content
    /// across proposal modes without a wire-level batch copy.
    #[must_use]
    pub fn committed_batch(&self, seq: SeqNum) -> Option<&sbft_types::Batch> {
        self.committed.get(&seq).map(|e| &e.batch)
    }

    /// Informs this node's invoker that a cloud region is offline
    /// (a [`sbft_serverless::RegionOutage`] observed by the deployment);
    /// placement avoids the region until it recovers.
    pub fn mark_region_down(&mut self, region: sbft_types::Region) {
        self.invoker.mark_region_down(region);
    }

    /// Informs this node's invoker that a region has recovered.
    pub fn mark_region_up(&mut self, region: sbft_types::Region) {
        self.invoker.mark_region_up(region);
    }

    fn component(&self) -> ComponentId {
        ComponentId::Node(self.me)
    }

    // ---- client requests and batching ---------------------------------------

    /// Handles a signed client request (Figure 3, primary role).
    ///
    /// The primary does **not** verify the client signature here: it
    /// hashes the request body itself, the digest and signature ride into
    /// the batcher, and the whole batch is authenticated with one
    /// aggregate check when it is submitted for ordering (see
    /// [`SignedBatch::verify_and_prune`]). A non-primary node still
    /// verifies eagerly before forwarding — that path is off the hot loop
    /// (it only runs right after view changes) and keeps forged traffic
    /// from being relayed.
    pub fn on_client_request(&mut self, req: &ClientRequest, now: SimTime) -> Vec<Action> {
        if !self.is_primary() {
            if !self.crypto.verify(
                ComponentId::Client(req.txn.id.client),
                &ClientRequest::signing_digest(&req.txn),
                &req.signature,
            ) {
                return Vec::new(); // not well-formed
            }
            if self.config.digest_proposals {
                // Bandwidth-frugal ordering: clients broadcast their
                // requests to every shim node, so a non-primary seeds its
                // body cache instead of relaying to the primary. The offer
                // may complete an in-flight digest reconstruction (the
                // proposal can race ahead of the client broadcast), in
                // which case consensus actions come back.
                let actions = self.ordering.offer_body(req.txn.clone());
                return self.translate(actions);
            }
            // Clients normally target the primary; a node that is not the
            // primary forwards the request (e.g. after a view change).
            self.requests_forwarded.inc();
            return vec![Action::send(
                self.component(),
                Destination::Node(self.primary()),
                ProtocolMessage::ClientRequest(req.clone()),
            )];
        }
        self.order_transaction(req, None, now)
    }

    /// Places a request's transaction in the ordering pipeline (primary
    /// only), skipping transactions this node has already batched. The
    /// primary hashes the body past that check, unless the caller hands
    /// over its `digest` already, and the signing digest and client
    /// signature travel with the transaction so the batch can be
    /// authenticated in aggregate at submit time.
    fn order_transaction(
        &mut self,
        req: &ClientRequest,
        digest: Option<Digest>,
        now: SimTime,
    ) -> Vec<Action> {
        let (txn, signature) = (&req.txn, req.signature);
        if self.seen_txns.is_empty() {
            // Only a node that batches (a primary) tracks ids, so the
            // table is sized by the first one it sees, for a request from
            // every closed-loop client: they all arrive in one burst, and
            // regrown by doubling the table would be held twice over at
            // each step of it. The retained window of validated history
            // on top is reached later, in memory the burst has freed.
            self.seen_txns.reserve(self.config.workload.num_clients);
        }
        let newly_seen = match self.seen_txns.entry(txn.id) {
            Entry::Vacant(entry) => {
                entry.insert(SeenTxn::Waiting(self.max_validated));
                true
            }
            // Already released to ordering under a valid signature: a
            // retry, a forwarded ERROR or a second payload under the same
            // id, the first submission wins. No signature is looked at.
            Entry::Occupied(seen) if !matches!(seen.get(), SeenTxn::Waiting(_)) => {
                return Vec::new();
            }
            Entry::Occupied(_) => {
                // Every request under the id still waits in a lane,
                // unchecked, and the lanes hold what it was batched with.
                // The same signature is a client retry or a forwarded
                // ERROR. Otherwise eager checks (cold path, only on
                // conflicting duplicates) resolve it: a validly signed
                // waiting request keeps the id — a client producing a
                // second validly-signed payload under the same id is
                // equivocating, and the first submission wins, exactly as
                // under eager verification. Otherwise what waits is a
                // forged squatter: a valid newcomer is batched beside it,
                // in whichever lane it belongs to, and the aggregate check
                // prunes the forgery.
                let client = ComponentId::Client(txn.id.client);
                let waiting = || self.batcher.waiting(txn.id);
                if waiting().any(|(_, waiting_sig)| waiting_sig == signature)
                    || waiting().any(|(d, s)| self.crypto.verify(client, &d, &s))
                {
                    return Vec::new();
                }
                false
            }
        };
        // Hashed only past the duplicate check, so a retry of a batched
        // id costs no hashing. A newcomer beside a waiting forgery is
        // checked eagerly.
        let digest = digest.unwrap_or_else(|| ClientRequest::signing_digest(txn));
        if !newly_seen
            && !self
                .crypto
                .verify(ComponentId::Client(txn.id.client), &digest, &signature)
        {
            return Vec::new();
        }
        let mut offered_actions = Vec::new();
        if self.config.digest_proposals && newly_seen {
            // The primary caches the body too: if the view changes before
            // this transaction is proposed, the new primary's digest
            // proposal finds the body locally instead of fetching it.
            let actions = self.ordering.offer_body(txn.clone());
            offered_actions = self.translate(actions);
        }
        // Ordering-time shard planning: classify the transaction's
        // declared read-write set and steer it into its home lane.
        let plan = self
            .lane_router
            .as_ref()
            .map(|router| home_shard(txn, router))
            .unwrap_or_default();
        let mut out = offered_actions;
        if let Some(batch) = self
            .batcher
            .push_planned(txn.clone(), digest, signature, now, plan)
        {
            out.extend(self.submit_signed(batch));
        }
        out
    }

    /// Periodic tick releasing partially filled batches (every stale
    /// lane releases independently).
    pub fn poll_batcher(&mut self, now: SimTime) -> Vec<Action> {
        if !self.is_primary() {
            return Vec::new();
        }
        let mut actions = Vec::new();
        while let Some(batch) = self.batcher.poll(now) {
            actions.extend(self.submit_signed(batch));
        }
        actions
    }

    /// Releases every partially filled batch now, whatever its age. For
    /// drivers that decide the release instant themselves (the thread
    /// runtime cuts what waits once every batch this node proposed has
    /// committed); the simulator releases through [`Self::poll_batcher`]
    /// only.
    pub fn flush_batcher(&mut self) -> Vec<Action> {
        if !self.is_primary() {
            return Vec::new();
        }
        let mut actions = Vec::new();
        while let Some(batch) = self.batcher.flush() {
            actions.extend(self.submit_signed(batch));
        }
        actions
    }

    /// The primary's batch-submit path: one aggregate signature check
    /// authenticates the whole batch; offenders found by the bisecting
    /// fallback are pruned (and released from duplicate suppression, so an
    /// honest request with the same transaction id can still be ordered),
    /// and whatever survives is handed to the ordering protocol.
    fn submit_signed(&mut self, signed: SignedBatch) -> Vec<Action> {
        let (batch, rejected) = signed.verify_and_prune(self.crypto.provider());
        // The survivors hold their ids under valid signatures from here on.
        for txn in batch.iter().flat_map(Batch::iter) {
            if let Some(seen) = self.seen_txns.get_mut(&txn.id) {
                if let SeenTxn::Waiting(stamp) = *seen {
                    *seen = SeenTxn::Batched(stamp);
                }
            }
        }
        self.rejected_txns.add(rejected.len() as u64);
        for id in &rejected {
            // Release a forged id unless a valid request holds it: one
            // released beside the forgery, or one still waiting in
            // another lane.
            if matches!(self.seen_txns.get(id), Some(SeenTxn::Waiting(_)))
                && self.batcher.waiting(*id).next().is_none()
            {
                self.seen_txns.remove(id);
            }
        }
        let Some(batch) = batch else {
            return Vec::new(); // nothing survived the signature check
        };
        let consensus_actions = self.ordering.submit_batch(batch);
        self.translate(consensus_actions)
    }

    // ---- consensus plumbing ---------------------------------------------------

    /// Handles a consensus message from another shim node.
    pub fn on_consensus_message(&mut self, from: NodeId, msg: ConsensusMessage) -> Vec<Action> {
        let is_state_response = matches!(msg, ConsensusMessage::StateResponse(_));
        let actions = self.ordering.handle_message(from, msg);
        let mut transfer_done = false;
        if is_state_response {
            let adopted = actions
                .iter()
                .filter(|a| matches!(a, ConsensusAction::Committed { .. }))
                .count();
            self.state_transfers.add(adopted as u64);
            transfer_done = adopted > 0
                || actions
                    .iter()
                    .any(|a| matches!(a, ConsensusAction::CaughtUp { .. }));
        }
        let out = self.translate(actions);
        if transfer_done {
            self.recovering = false;
        }
        out
    }

    fn translate(&mut self, actions: Vec<ConsensusAction>) -> Vec<Action> {
        let mut out = Vec::new();
        for action in actions {
            match action {
                ConsensusAction::Broadcast(msg) => {
                    // The durable-vote rule: the WAL write (synced for
                    // COMMIT votes) is charged before the send leaves.
                    out.extend(self.durable.on_broadcast(&msg).map(persist));
                    out.push(Action::send(
                        self.component(),
                        Destination::AllNodes,
                        ProtocolMessage::Consensus(msg),
                    ));
                }
                ConsensusAction::Send(to, msg) => out.push(Action::send(
                    self.component(),
                    Destination::Node(to),
                    ProtocolMessage::Consensus(msg),
                )),
                ConsensusAction::StartTimer { timer, duration } => out.push(Action::StartTimer {
                    timer: ProtocolTimer::Consensus(timer),
                    duration,
                }),
                ConsensusAction::CancelTimer(timer) => {
                    out.push(Action::CancelTimer(ProtocolTimer::Consensus(timer)));
                }
                ConsensusAction::Committed {
                    view,
                    seq,
                    batch,
                    certificate,
                } => {
                    let step = self
                        .durable
                        .on_committed(view, seq, &batch, certificate.as_ref());
                    out.extend(step.map(persist));
                    out.extend(self.on_committed(view, seq, batch, certificate));
                }
                ConsensusAction::ViewInstalled { view, .. } => {
                    self.view_changes.inc();
                    out.extend(self.durable.on_view_installed(view).map(persist));
                    out.extend(self.on_view_installed());
                }
                ConsensusAction::CaughtUp { up_to } => {
                    out.extend(self.on_caught_up(up_to));
                }
            }
        }
        out
    }

    // ---- durability -----------------------------------------------------------

    /// A recovering node adopted a peer's checkpoint floor: the durable
    /// log cuts a snapshot there. Gated on [`Self::is_recovering`] so the
    /// nodes-in-dark `CaughtUp` path (which never lost its WAL) keeps its
    /// normal checkpoint rhythm.
    fn on_caught_up(&mut self, up_to: SeqNum) -> Option<Action> {
        if !self.recovering {
            return None;
        }
        let step = self.durable.on_caught_up(up_to, self.ordering.view())?;
        self.max_validated = self.max_validated.max(up_to);
        Some(persist(step))
    }

    /// Simulates the process dying: the unsynced WAL tail is lost. The
    /// volatile state is discarded by [`Self::crash_restart`]; between the
    /// two calls the node must receive no messages or timers.
    pub fn crash(&mut self) {
        self.durable.crash();
    }

    /// Restarts this node after a crash: all volatile state is discarded,
    /// the ordering protocol is rebuilt, and the durable log is replayed
    /// through [`sbft_durability::recover()`]. Returns the replay-cost
    /// [`Action::Persist`] followed by the rejoin actions (for PBFT, a
    /// broadcast `STATEREQUEST` for the suffix committed while this node
    /// was down).
    pub fn crash_restart(&mut self) -> Vec<Action> {
        self.batcher = Self::fresh_batcher(&self.config, self.lane_router.as_ref());
        self.committed.clear();
        self.seen_txns.clear();
        self.retransmit.clear();
        self.max_validated = SeqNum(0);
        self.seen_gc_floor = SeqNum(0);
        if self.planner.is_some() {
            self.planner = Some(BestEffortPlanner::new());
        }
        if self.rebuilds_replica {
            self.ordering = Self::pbft_replica(self.me, &self.config, &self.crypto);
        }
        // The rebuilt parts count on under the names they had: the
        // registry hands back the same counters, so totals survive.
        if let Some(registry) = &self.metrics_registry {
            let prefix = format!("shim.{}", self.me.0);
            self.batcher.register_metrics(registry, &prefix);
            if self.rebuilds_replica {
                self.ordering.register_metrics(registry, &prefix);
            }
        }
        let Some((replay_bytes, state)) = self.durable.replay() else {
            return Vec::new();
        };
        self.recovering = true;
        self.max_validated = state.stable_seq;
        for e in &state.entries {
            // Re-seated as already spawned: this node acted on the commit
            // before crashing, and the verifier's ERROR path re-triggers
            // a spawn if the executors were in fact lost with it.
            self.committed.insert(
                e.seq,
                CommittedBatch {
                    view: e.view,
                    batch: e.batch.clone(),
                    certificate: Arc::clone(&e.certificate),
                    spawned: true,
                },
            );
        }
        let mut actions = vec![persist((replay_bytes, false))];
        let rejoin = self
            .ordering
            .install_recovered(state.entries, state.stable_seq, state.view);
        actions.extend(self.translate(rejoin));
        actions
    }

    /// Reactive region-outage detection: the deployment rejected a spawn
    /// because `region` is offline. The invoker marks the region down
    /// locally and a probation timer is started; when it fires the region
    /// is marked back up (and re-probed by the next placement there).
    pub fn on_spawn_rejected(&mut self, region: sbft_types::Region) -> Vec<Action> {
        /// How long a region stays marked down before it is tried again.
        const REGION_PROBATION: SimDuration = SimDuration::from_millis(200);
        if self.invoker.is_region_down(region) {
            return Vec::new();
        }
        self.invoker.mark_region_down(region);
        self.region_outages_detected.inc();
        vec![Action::StartTimer {
            timer: ProtocolTimer::RegionProbation(region),
            duration: REGION_PROBATION,
        }]
    }

    fn on_committed(
        &mut self,
        view: ViewNumber,
        seq: SeqNum,
        batch: Batch,
        certificate: Option<Arc<CommitCertificate>>,
    ) -> Vec<Action> {
        self.batches_committed.inc();
        let len = batch.len();
        // The batch accounts for its ids from here on. Only a node that
        // batched requests itself (the primary) has any to mark.
        if !self.seen_txns.is_empty() {
            for txn in batch.iter() {
                if let Some(seen) = self.seen_txns.get_mut(&txn.id) {
                    *seen = SeenTxn::Committed;
                }
            }
        }
        // NoShim produces no certificate (CFT's carries no signatures); an
        // empty certificate stands in so the message flow stays identical
        // (executors and the verifier are configured with a quorum of 0).
        let certificate = certificate.unwrap_or_else(|| {
            Arc::new(CommitCertificate::new(
                view,
                seq,
                sbft_consensus::messages::compute_batch_digest(&batch),
                vec![],
            ))
        });
        self.committed.insert(
            seq,
            CommittedBatch {
                view,
                batch,
                certificate,
                spawned: false,
            },
        );
        let mut actions = vec![Action::BatchCommitted { seq, len }];

        if !self.should_spawn() {
            return actions;
        }
        if self.planner.is_some() {
            // Known read-write sets: ask the planner which batches may be
            // dispatched without conflicting with in-flight ones.
            let footprint = {
                let entry = self.committed.get(&seq).expect("just inserted");
                let rwsets: Vec<_> = entry
                    .batch
                    .iter()
                    .map(|t| {
                        t.declared_rwset
                            .clone()
                            .unwrap_or_else(|| t.inferred_rwset())
                    })
                    .collect();
                BatchFootprint::from_rwsets(rwsets.iter())
            };
            let ready = self
                .planner
                .as_mut()
                .expect("planner present")
                .enqueue(seq, footprint);
            for ready_seq in ready {
                actions.extend(self.spawn_for(ready_seq));
            }
        } else {
            actions.extend(self.spawn_for(seq));
        }
        actions
    }

    fn should_spawn(&self) -> bool {
        match self.config.spawning {
            SpawningMode::PrimaryOnly => self.is_primary(),
            SpawningMode::Decentralized => true,
        }
    }

    /// How many executors this node spawns per committed batch.
    fn spawn_count(&self) -> usize {
        match self.config.spawning {
            SpawningMode::PrimaryOnly => self.config.executors_per_batch(),
            SpawningMode::Decentralized => self.config.fault.decentralized_spawn_count(),
        }
    }

    fn spawn_for(&mut self, seq: SeqNum) -> Vec<Action> {
        let count = self.spawn_count();
        let Some(entry) = self.committed.get_mut(&seq) else {
            return Vec::new();
        };
        if entry.spawned {
            return Vec::new();
        }
        entry.spawned = true;
        let digest = entry.certificate.batch_digest;
        let signing = ExecuteRequest::signing_digest(entry.view, seq, &digest, self.me);
        // Both clones below are refcount bumps; the per-executor clone of
        // `execute` in the loop shares them too.
        let execute = ExecuteRequest {
            view: entry.view,
            seq,
            digest,
            batch: entry.batch.clone(),
            certificate: Arc::clone(&entry.certificate),
            spawner: self.me,
            signature: self.crypto.sign(&signing),
        };
        // Plan-aware placement: with ordering lanes, a batch whose keys
        // all live on one shard has its executors pinned to that shard's
        // home region (with deterministic round-robin fallback); the home
        // is derived here from the batch itself, and only when the
        // invoker pins. Cross-home batches, and every batch without lanes,
        // rotate.
        let home = self
            .lane_router
            .as_ref()
            .filter(|_| self.invoker.pins())
            .map(|router| batch_home(&entry.batch, router))
            .unwrap_or_default();
        let plan = self.invoker.plan_placed(seq, count, home);
        self.executors_spawned.add(plan.requests.len() as u64);
        plan.requests
            .into_iter()
            .map(|request| Action::SpawnExecutor {
                request,
                execute: execute.clone(),
            })
            .collect()
    }

    /// A backup of the new view re-forwards every `ERROR` it holds to the
    /// new primary, without restarting `Υ`: the requests the view change
    /// was raised for reach the node that can order them. (On short
    /// timers `Υ` is about as long as the new primary's `ACK` takes, so a
    /// restarted `Υ` would raise a spurious second view change; if the new
    /// primary fails too, the client's next timeout raises a fresh `ERROR`
    /// with a fresh `Υ`.)
    ///
    /// The new primary drops its own copies rather than ordering them in
    /// its install step: a `PREPREPARE` proposed there can overtake the
    /// `NEWVIEW` under link jitter, and a backup still in the old view
    /// drops it. It re-spawns executors for every batch that committed but
    /// was never validated by the verifier (otherwise a view change could
    /// leave committed batches stranded without executors).
    fn on_view_installed(&mut self) -> Vec<Action> {
        if !self.is_primary() {
            let primary = Destination::Node(self.primary());
            let me = self.component();
            let reforwarded: Vec<Action> = self
                .retransmit
                .iter()
                .map(|(subject, held)| {
                    let error = RecoveryNotice {
                        marker: NoticeMarker::Error(held.request.clone()),
                        subject: *subject,
                        signature: held.signature,
                    };
                    Action::send(me, primary, ProtocolMessage::Notice(error))
                })
                .collect();
            self.errors_reforwarded.add(reforwarded.len() as u64);
            return reforwarded;
        }
        self.retransmit.clear();
        let stranded: Vec<SeqNum> = self
            .committed
            .iter()
            .filter(|(_, e)| !e.spawned)
            .map(|(s, _)| *s)
            .collect();
        let mut actions = Vec::new();
        for seq in stranded {
            actions.extend(self.spawn_for(seq));
        }
        actions
    }

    // ---- verifier-driven recovery -----------------------------------------------

    /// Handles messages from the verifier (Figure 4, node role) and other
    /// non-consensus messages.
    pub fn on_message(&mut self, msg: &ProtocolMessage) -> Vec<Action> {
        self.on_message_at(msg, SimTime::ZERO)
    }

    /// Like [`Self::on_message`] but with the current time, needed when the
    /// message may cause the primary to batch a carried client request.
    /// A recovery notice or a `BATCH-VALIDATED` counts only under the
    /// verifier's signature over every field it carries; anything else is
    /// dropped unanswered.
    pub fn on_message_at(&mut self, msg: &ProtocolMessage, now: SimTime) -> Vec<Action> {
        match msg {
            ProtocolMessage::Notice(notice) => {
                // A carried request is hashed here once: the check binds
                // its digest and ordering reuses it.
                let request_digest = notice.request_digest();
                let digest = notice.signing_digest(request_digest.as_ref());
                if self.verifier_signed(digest, notice.signature) {
                    self.on_notice(notice, request_digest, now)
                } else {
                    Vec::new()
                }
            }
            ProtocolMessage::BatchValidated(validated)
                if self.verifier_signed(validated.signing_digest(), validated.signature) =>
            {
                self.on_batch_validated(*validated)
            }
            _ => Vec::new(),
        }
    }

    /// Acts on a recovery notice the verifier signed (Figure 4, node
    /// role); `request_digest` is the carried request's, if any.
    fn on_notice(
        &mut self,
        notice: &RecoveryNotice,
        request_digest: Option<Digest>,
        now: SimTime,
    ) -> Vec<Action> {
        let subject = notice.subject;
        match &notice.marker {
            NoticeMarker::Error(request) if self.is_primary() => {
                // The onus is on the primary to resolve the ERROR: order
                // the carried request (missing transaction case) or
                // re-spawn executors for the missing sequence number.
                match (subject, request) {
                    (RecoverySubject::Txn(_), Some(request)) => {
                        // The carried request joins the batch like any
                        // other; the aggregate check covers it.
                        self.order_transaction(request, request_digest, now)
                    }
                    (RecoverySubject::Seq(seq), _) => self.respawn(seq),
                    _ => Vec::new(),
                }
            }
            NoticeMarker::Error(request) => {
                // Start the re-transmission timer Υ and forward the ERROR,
                // unchanged, to the primary; hold it until the ACK.
                self.retransmit.insert(
                    subject,
                    HeldError {
                        view: self.view(),
                        request: request.clone(),
                        signature: notice.signature,
                    },
                );
                vec![
                    Action::StartTimer {
                        timer: ProtocolTimer::Retransmit(subject),
                        duration: self.config.timers.retransmit_timeout,
                    },
                    Action::send(
                        self.component(),
                        Destination::Node(self.primary()),
                        ProtocolMessage::Notice(notice.clone()),
                    ),
                ]
            }
            NoticeMarker::Ack => {
                self.retransmit.remove(&subject);
                vec![Action::CancelTimer(ProtocolTimer::Retransmit(subject))]
            }
            NoticeMarker::Replace => {
                let actions = self.ordering.request_view_change();
                self.translate(actions)
            }
        }
    }

    /// Whether `signature` is the verifier's over `digest`.
    fn verifier_signed(
        &self,
        digest: sbft_types::Digest,
        signature: sbft_types::Signature,
    ) -> bool {
        self.crypto
            .verify(ComponentId::Verifier, &digest, &signature)
    }

    /// Re-spawns executors for a batch this node committed but whose
    /// execution never completed at the verifier (missing `k_max`).
    fn respawn(&mut self, seq: SeqNum) -> Vec<Action> {
        if let Some(entry) = self.committed.get_mut(&seq) {
            entry.spawned = false;
        }
        if self.should_spawn() {
            self.spawn_for(seq)
        } else {
            Vec::new()
        }
    }

    fn on_batch_validated(&mut self, validated: BatchValidated) -> Vec<Action> {
        if let Some(entry) = self.committed.remove(&validated.seq) {
            // The batch's ids stay suppressed until it leaves the
            // retained checkpoint window.
            for txn in entry.batch.iter() {
                if let Some(seen) = self.seen_txns.get_mut(&txn.id) {
                    *seen = SeenTxn::Validated(validated.seq);
                }
            }
        }
        self.max_validated = self.max_validated.max(validated.seq);
        self.gc_seen_txns();
        let ready = match &mut self.planner {
            Some(planner) => planner.complete(validated.seq),
            None => Vec::new(),
        };
        let mut actions = Vec::new();
        if self.should_spawn() {
            for seq in ready {
                actions.extend(self.spawn_for(seq));
            }
        }
        actions
    }

    /// Truncates `seen_txns` in the rhythm of the featherweight checkpoint
    /// interval with one `retain`, like the verifier truncates its retry
    /// table. The cutoff is the previous checkpoint (one closed interval
    /// behind the latest one validation passed):
    /// - a validated id goes once the cutoff passes its batch: anything
    ///   older is outside the protocol's retry contract (the verifier has
    ///   dropped its stored `RESPONSE` in the same rhythm);
    /// - a released id that never committed here goes once the cutoff
    ///   passes its stamp: its batch was lost, e.g. across a view change
    ///   without re-proposal, and would otherwise be held forever;
    /// - a waiting id is restamped and reconsidered at a later cutoff;
    /// - a committed id stays: its batch may yet validate or be re-spawned.
    fn gc_seen_txns(&mut self) {
        let cutoff =
            checkpoint_gc_cutoff(self.max_validated, self.config.timers.checkpoint_interval);
        if cutoff <= self.seen_gc_floor {
            return;
        }
        self.seen_gc_floor = cutoff;
        let now = self.max_validated;
        self.seen_txns.retain(|_, seen| match *seen {
            SeenTxn::Waiting(stamp) => {
                if stamp <= cutoff {
                    *seen = SeenTxn::Waiting(now);
                }
                true
            }
            SeenTxn::Batched(stamp) => stamp > cutoff,
            SeenTxn::Committed => true,
            SeenTxn::Validated(seq) => seq > cutoff,
        });
        if self.config.digest_proposals {
            // Body-cache retention rides the same checkpoint rhythm: keep
            // bodies for ids the node still tracks (suppression window,
            // local commits, batcher lanes); anything older can no longer
            // appear in a fresh proposal, and an unlucky drop just
            // downgrades a cache hit to a fetch.
            let committed = self.committed.values();
            let mut protected = self
                .seen_txns
                .keys()
                .copied()
                .chain(committed.flat_map(|e| e.batch.iter().map(|t| t.id)))
                .chain(self.batcher.pending_txn_ids());
            self.ordering.gc_bodies(&mut protected);
        }
    }

    /// Handles the expiry of a timer owned by this node. No node timer
    /// reads the clock; the drivers pass it to every role alike.
    pub fn on_timer(&mut self, timer: ProtocolTimer, _now: SimTime) -> Vec<Action> {
        match timer {
            ProtocolTimer::Consensus(t) => {
                let actions = self.ordering.handle_timer(t);
                self.translate(actions)
            }
            ProtocolTimer::Retransmit(subject) => {
                // The primary failed to resolve the verifier's ERROR before
                // Υ expired: it must be byzantine, replace it, and keep the
                // ERROR for the next view's primary — unless the primary
                // has already been replaced since the ERROR arrived, in
                // which case the new primary got the ERROR at its install
                // and gets a fresh chance.
                let Some(started_in) = self.retransmit.get(&subject).map(|held| held.view) else {
                    return Vec::new();
                };
                if started_in == self.view() {
                    let actions = self.ordering.request_view_change();
                    self.translate(actions)
                } else {
                    self.retransmit.remove(&subject);
                    Vec::new()
                }
            }
            ProtocolTimer::RegionProbation(region) => {
                // Probation over: optimistically mark the region back up.
                // If it is still down the next spawn there is rejected
                // again and the cycle restarts.
                self.invoker.mark_region_up(region);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::envelopes;
    use crate::lockstep::{pbft_nodes, settle, Verdict};
    use sbft_consensus::{CftReplica, NoShim, PrePrepare, ProposalBody};
    use sbft_crypto::CryptoProvider;
    use sbft_types::{ClientId, Key, Operation, Signature, Transaction, TxnId};
    use std::sync::Arc;

    struct Shim {
        nodes: Vec<ShimNode>,
        provider: Arc<CryptoProvider>,
        config: SystemConfig,
        /// The nodes' counters, under `shim.<node>.*`.
        registry: Arc<Registry>,
    }

    /// Default test configuration: a 4-node shim batching 2 transactions.
    fn base_config() -> SystemConfig {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 2;
        config
    }

    fn make_shim(config: SystemConfig) -> Shim {
        let provider = CryptoProvider::new(21);
        let registry = Arc::new(Registry::new());
        let nodes = pbft_nodes(&config, &provider, &registry);
        Shim {
            nodes,
            provider,
            config,
            registry,
        }
    }

    /// A one-node CFT shim: every submission commits at once.
    fn single_cft_node(config: &SystemConfig, provider: &Arc<CryptoProvider>) -> ShimNode {
        let alone = sbft_types::FaultParams {
            n_r: 1,
            f_r: 0,
            n_e: 3,
            f_e: 1,
        };
        ShimNode::new(
            NodeId(0),
            config.clone(),
            provider.handle(ComponentId::Node(NodeId(0))),
            Box::new(CftReplica::new(
                NodeId(0),
                alone,
                config.timers.node_timeout,
            )),
        )
    }

    fn signed_request(provider: &Arc<CryptoProvider>, client: u32, counter: u64) -> ClientRequest {
        let txn = Transaction::new(
            TxnId::new(ClientId(client), counter),
            vec![Operation::ReadModifyWrite(Key(counter), 1)],
        );
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: provider
                .handle(ComponentId::Client(ClientId(client)))
                .sign(&digest),
            txn,
        }
    }

    #[test]
    fn primary_batches_requests_and_spawns_after_commit() {
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        // First request only fills the batcher.
        let a0 = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        assert!(a0.is_empty());
        // Second request releases a batch of 2 and starts consensus.
        let a1 = shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        assert!(a1.iter().any(|a| a.sends_kind("PREPREPARE")));
        let external = settle(&mut shim.nodes, NodeId(0), a1, None, |_| Verdict::Deliver);
        // Only the primary spawns, and it spawns executors_per_batch of them.
        let spawns: Vec<_> = external
            .iter()
            .filter(|(n, a)| *n == NodeId(0) && matches!(a, Action::SpawnExecutor { .. }))
            .collect();
        assert_eq!(spawns.len(), shim.config.executors_per_batch());
        assert_eq!(shim.config.workload.batch_size, 2);
        let other_spawns = external
            .iter()
            .filter(|(n, a)| *n != NodeId(0) && matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(other_spawns, 0);
        // Every node observed the commit.
        let commits = external
            .iter()
            .filter(|(_, a)| matches!(a, Action::BatchCommitted { .. }))
            .count();
        assert_eq!(commits, 4);
        assert_eq!(shim.nodes[0].executors_spawned.get(), 3);
    }

    #[test]
    fn execute_requests_share_batch_and_certificate_with_consensus() {
        // Zero-copy hand-off, shim layer: the batch embedded in the
        // primary's PREPREPARE and the batches carried by every spawned
        // EXECUTE message are the same Arc allocation, and all EXECUTE
        // copies share one certificate allocation.
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let _ = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let a1 = shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let proposed = proposed_batch(&a1).expect("primary broadcasts a PREPREPARE");
        let external = settle(&mut shim.nodes, NodeId(0), a1, None, |_| Verdict::Deliver);
        let executes: Vec<_> = external
            .iter()
            .filter_map(|(_, a)| match a {
                Action::SpawnExecutor { execute, .. } => Some(execute.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(executes.len(), shim.config.executors_per_batch());
        for execute in &executes {
            assert!(
                execute.batch.shares_txns(&proposed),
                "EXECUTE must carry the proposed batch's storage, not a copy"
            );
            assert!(
                Arc::ptr_eq(&execute.certificate, &executes[0].certificate),
                "all EXECUTE copies share one certificate allocation"
            );
        }
    }

    #[test]
    fn spawned_execute_requests_verify_at_executors() {
        let mut shim = make_shim(base_config());
        let external = commit_one_batch(&mut shim, 0, &[]);
        let execute = external
            .iter()
            .find_map(|(_, a)| match a {
                Action::SpawnExecutor { execute, .. } => Some(execute.clone()),
                _ => None,
            })
            .expect("spawn action");
        // The certificate carried by the EXECUTE message verifies.
        assert!(execute
            .certificate
            .verify(shim.provider.key_store(), 3, 4)
            .is_ok());
        assert_eq!(execute.spawner, NodeId(0));
    }

    #[test]
    fn malformed_client_request_is_dropped() {
        let mut shim = make_shim(base_config());
        let mut req = signed_request(&shim.provider.clone(), 0, 0);
        req.signature = Signature::ZERO;
        assert!(shim.nodes[0]
            .on_client_request(&req, SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn forged_signature_is_pruned_at_batch_submit() {
        // The primary defers client verification to the batch aggregate
        // check: a forged request is admitted to the batcher but the
        // bisecting fallback prunes it at submit, and only the honest
        // transaction is proposed.
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let mut forged = signed_request(&provider, 0, 0);
        forged.signature = Signature::ZERO;
        let forged_id = forged.txn.id;
        assert!(shim.nodes[0]
            .on_client_request(&forged, SimTime::ZERO)
            .is_empty());
        // The second (honest) request fills the batch and triggers submit.
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let proposed = proposed_batch(&actions).expect("pruned batch is still proposed");
        assert_eq!(proposed.len(), 1, "the forged transaction was pruned");
        assert!(proposed.txn_ids().iter().all(|id| *id != forged_id));
        assert_eq!(shim.nodes[0].rejected_txns.get(), 1);
        // The forged id was released from duplicate suppression, so the
        // honest client can still get the same transaction ordered.
        let honest_retry = signed_request(&provider, 0, 0);
        let _ = shim.nodes[0].on_client_request(&honest_retry, SimTime::ZERO);
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 2, 0), SimTime::ZERO);
        let reproposed = proposed_batch(&actions).expect("second batch proposed");
        assert!(reproposed.txn_ids().contains(&forged_id));
    }

    #[test]
    fn a_request_with_a_swapped_value_is_pruned_at_batch_submit() {
        // A relay keeps the client's id, keys and signature but swaps the
        // salt of its read-modify-write: the signature covers the salt, so
        // the aggregate check fails and the bisecting fallback prunes it.
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let signed = signed_request(&provider, 0, 0);
        let swapped = ClientRequest {
            txn: Transaction::new(signed.txn.id, vec![Operation::ReadModifyWrite(Key(0), 999)]),
            signature: signed.signature,
        };
        let _ = shim.nodes[0].on_client_request(&swapped, SimTime::ZERO);
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let proposed = proposed_batch(&actions).expect("the honest transaction is proposed");
        assert_eq!(proposed.txn_ids(), vec![TxnId::new(ClientId(1), 0)]);
        assert_eq!(shim.nodes[0].rejected_txns.get(), 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_request_for_a_batched_id_is_dropped_before_it_is_hashed() {
        // A client retry (or a forwarded ERROR) for an id the primary has
        // already batched is dropped by the duplicate check, which comes
        // before the primary hashes the request body.
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let first = signed_request(&provider, 0, 0);
        let _ = shim.nodes[0].on_client_request(&first, SimTime::ZERO);
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        assert!(proposed_batch(&actions).is_some(), "both ids are batched");
        let before = sbft_crypto::sha256::compressions();
        for _ in 0..2 {
            assert!(shim.nodes[0]
                .on_client_request(&first, SimTime::ZERO)
                .is_empty());
        }
        assert_eq!(sbft_crypto::sha256::compressions(), before);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn an_error_carried_request_is_hashed_once_at_the_primary() {
        // The primary hashes the request an ERROR carries to check the
        // verifier's signature over it, and orders the request under that
        // digest: delivering the notice costs its own digest-and-verify.
        use sbft_crypto::sha256::compressions;
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let request = signed_request(&provider, 3, 0);
        let id = request.txn.id;
        let notice = RecoveryNotice::signed(
            NoticeMarker::Error(Some(Box::new(request))),
            RecoverySubject::Txn(id),
            &provider.handle(ComponentId::Verifier),
        );
        // The reference runs first, so both find the verifier's schedule
        // in its slot.
        let before = compressions();
        let digest = notice.signing_digest(notice.request_digest().as_ref());
        assert!(provider.verify(ComponentId::Verifier, &digest, &notice.signature));
        let check = compressions() - before;
        let before = compressions();
        let actions = shim.nodes[0].on_message_at(&ProtocolMessage::Notice(notice), SimTime::ZERO);
        assert_eq!(compressions() - before, check);
        assert!(proposed_batch(&actions).is_none(), "one request waits");
        assert_eq!(
            shim.nodes[0].batcher.waiting(id).count(),
            1,
            "it is ordered"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_cft_follower_hashes_each_committed_batch_once() {
        // The follower checks Δ against the accepted batch; the commit
        // hands that digest on in its certificate instead of hashing the
        // batch again to build one.
        use sbft_consensus::messages::{compute_batch_digest, CftAccept, CftDecide};
        use sbft_crypto::sha256::compressions;
        let config = base_config();
        let provider = CryptoProvider::new(5);
        let params = sbft_types::FaultParams::for_shim_size(4);
        let mut follower = ShimNode::new(
            NodeId(1),
            config.clone(),
            provider.handle(ComponentId::Node(NodeId(1))),
            Box::new(CftReplica::new(
                NodeId(1),
                params,
                config.timers.node_timeout,
            )),
        );
        let batch = Batch::new(
            (0..2)
                .map(|c| signed_request(&provider, c, 0).txn)
                .collect(),
        );
        let before = compressions();
        let digest = compute_batch_digest(&batch);
        let per_delta = compressions() - before;
        for seq in 1..=3 {
            let before = compressions();
            let accept = CftAccept {
                ballot: ViewNumber(0),
                seq: SeqNum(seq),
                batch: batch.clone(),
                digest,
            };
            let _ = follower.on_consensus_message(NodeId(0), ConsensusMessage::CftAccept(accept));
            let decide = CftDecide {
                ballot: ViewNumber(0),
                seq: SeqNum(seq),
                digest,
            };
            let actions =
                follower.on_consensus_message(NodeId(0), ConsensusMessage::CftDecide(decide));
            assert!(actions
                .iter()
                .any(|a| matches!(a, Action::BatchCommitted { .. })));
            assert_eq!(compressions() - before, per_delta, "seq {seq}");
        }
    }

    #[test]
    fn squatted_txn_id_is_recovered_by_the_genuine_request() {
        // An attacker squats an honest client's TxnId with a garbage
        // signature before the real request arrives. The genuine request
        // (different signature) must not be silently dropped as a
        // duplicate: the conflicting-signature path verifies it eagerly,
        // batches it, and the aggregate prune removes only the forgery.
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let mut squat = signed_request(&provider, 0, 0);
        squat.signature = Signature::ZERO;
        let id = squat.txn.id;
        assert!(shim.nodes[0]
            .on_client_request(&squat, SimTime::ZERO)
            .is_empty());
        // The genuine request for the same id fills the 2-txn batch and
        // triggers submit.
        let genuine = signed_request(&provider, 0, 0);
        let actions = shim.nodes[0].on_client_request(&genuine, SimTime::ZERO);
        let proposed = proposed_batch(&actions).expect("the genuine transaction is proposed");
        assert_eq!(proposed.len(), 1);
        assert_eq!(proposed.txn_ids(), vec![id]);
        assert_eq!(
            shim.nodes[0].rejected_txns.get(),
            1,
            "the forgery was pruned"
        );
        // The genuine entry kept its duplicate suppression: a retry with
        // the same (valid, deterministic) signature is dropped.
        assert!(shim.nodes[0]
            .on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn equivocating_client_cannot_order_two_payloads_under_one_id() {
        // A byzantine client validly signs two *different* transactions
        // under the same TxnId. The first keeps the id (exactly as under
        // eager verification); the second — despite carrying a valid
        // signature — must be dropped, not batched alongside it.
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let first = signed_request(&provider, 0, 0);
        let first_ops = first.txn.ops.clone();
        assert!(shim.nodes[0]
            .on_client_request(&first, SimTime::ZERO)
            .is_empty());
        // Same id, different payload, genuinely signed.
        let other_txn =
            Transaction::new(TxnId::new(ClientId(0), 0), vec![Operation::Read(Key(42))]);
        let digest = ClientRequest::signing_digest(&other_txn);
        let equivocation = ClientRequest {
            signature: provider
                .handle(ComponentId::Client(ClientId(0)))
                .sign(&digest),
            txn: other_txn,
        };
        assert!(shim.nodes[0]
            .on_client_request(&equivocation, SimTime::ZERO)
            .is_empty());
        // A filler request releases the batch: it must contain the FIRST
        // payload plus the filler — the equivocation was dropped.
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let proposed = proposed_batch(&actions).expect("batch proposed");
        assert_eq!(proposed.len(), 2);
        assert_eq!(proposed.txns()[0].ops, first_ops);
        assert_eq!(shim.nodes[0].rejected_txns.get(), 0, "nothing was pruned");
    }

    /// The batch of the `PREPREPARE` among `actions`.
    fn proposed_batch(actions: &[Action]) -> Option<Batch> {
        actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(ConsensusMessage::PrePrepare(PrePrepare {
                    body: ProposalBody::Batch(batch),
                    ..
                }))) => Some(batch.clone()),
                _ => None,
            })
    }

    /// Whether `actions` propose a batch by its transaction ids alone.
    fn proposes_ids(actions: &[Action]) -> bool {
        envelopes(actions).iter().any(|e| {
            matches!(&e.msg, ProtocolMessage::Consensus(ConsensusMessage::PrePrepare(pp))
                if matches!(pp.body, ProposalBody::Ids(_)))
        })
    }

    #[test]
    fn a_duplicate_after_release_is_dropped_without_a_signature_check() {
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let first = signed_request(&provider, 0, 0);
        let id = first.txn.id;
        let node = &mut shim.nodes[0];
        let _ = node.on_client_request(&first, SimTime::ZERO);
        assert_eq!(waiting_signatures(node, id), vec![first.signature]);
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Waiting(SeqNum(0))));
        let released = node.on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        assert_eq!(proposed_batch(&released).expect("released").len(), 2);
        // The batch passed the aggregate check: nothing waits under the
        // id, and its state says so.
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched(SeqNum(0))));

        // A second payload under the same id, validly signed; a forgery;
        // the retry. With nothing waiting to compare against, none of
        // them can reach a signature check: finding the id is enough.
        let other = Transaction::new(id, vec![Operation::Read(Key(42))]);
        let equivocation = ClientRequest {
            signature: provider
                .handle(ComponentId::Client(ClientId(0)))
                .sign(&ClientRequest::signing_digest(&other)),
            txn: other,
        };
        let mut forged = first.clone();
        forged.signature = Signature::ZERO;
        for duplicate in [&equivocation, &forged, &first] {
            assert!(node.on_client_request(duplicate, SimTime::ZERO).is_empty());
            assert!(
                node.batcher.pending_txn_ids().is_empty(),
                "nothing was batched again"
            );
        }
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched(SeqNum(0))));
        assert_eq!(node.seen_txns_len(), 2);
        assert_eq!(node.rejected_txns.get(), 0);
    }

    #[test]
    fn a_squatter_is_displaced_before_release_and_pruned_at_it() {
        let mut config = base_config();
        config.workload.batch_size = 3;
        let mut shim = make_shim(config);
        let provider = Arc::clone(&shim.provider);
        let genuine = signed_request(&provider, 0, 0);
        let id = genuine.txn.id;
        let mut squat = genuine.clone();
        squat.signature = Signature::ZERO;
        let node = &mut shim.nodes[0];
        assert!(node.on_client_request(&squat, SimTime::ZERO).is_empty());
        assert_eq!(waiting_signatures(node, id), vec![Signature::ZERO]);
        // A second forgery does not join the first …
        let mut other_forgery = genuine.clone();
        other_forgery.signature.0[0] = 1;
        assert!(node
            .on_client_request(&other_forgery, SimTime::ZERO)
            .is_empty());
        assert_eq!(waiting_signatures(node, id), vec![Signature::ZERO]);
        // … the genuine request does, and waits in the lane beside it.
        assert!(node.on_client_request(&genuine, SimTime::ZERO).is_empty());
        assert_eq!(
            waiting_signatures(node, id),
            vec![Signature::ZERO, genuine.signature]
        );
        // The release prunes the forgery and keeps the id suppressed.
        let released = node.on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let batch = proposed_batch(&released).expect("released");
        assert_eq!(batch.txn_ids(), vec![id, TxnId::new(ClientId(1), 0)]);
        assert_eq!(node.rejected_txns.get(), 1);
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched(SeqNum(0))));
        assert!(node.on_client_request(&squat, SimTime::ZERO).is_empty());
        assert!(node.batcher.pending_txn_ids().is_empty());
    }

    /// A client request with one read-modify-write of `key`, its
    /// read-write set declared, so that ordering lanes steer it to the
    /// key's home shard.
    fn declared_request(
        provider: &Arc<CryptoProvider>,
        client: u32,
        counter: u64,
        key: Key,
    ) -> ClientRequest {
        let txn = Transaction::new(
            TxnId::new(ClientId(client), counter),
            vec![Operation::ReadModifyWrite(key, 1)],
        )
        .with_inferred_rwset();
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: provider
                .handle(ComponentId::Client(ClientId(client)))
                .sign(&digest),
            txn,
        }
    }

    #[test]
    fn a_squatter_in_another_lane_is_pruned_and_the_genuine_request_ordered_once() {
        let mut config = base_config();
        config.conflict_handling = ConflictHandling::KnownRwSets;
        config.sharding = sbft_types::ShardingConfig::with_shards(4);
        let router = ShardRouter::new(4);
        let genuine_home = router.shard_of(Key(1));
        let on_shard = |same: bool| {
            (2..)
                .map(Key)
                .find(move |k| (router.shard_of(*k) == genuine_home) == same)
                .expect("a key")
        };
        let (genuine_filler_key, forged_key) = (on_shard(true), on_shard(false));
        for forgery_released_first in [true, false] {
            let mut shim = make_shim(config.clone());
            let provider = Arc::clone(&shim.provider);
            let genuine = declared_request(&provider, 0, 0, Key(1));
            let id = genuine.txn.id;
            // The forgery claims the id with a payload homed on another
            // shard, so the two wait in different lanes.
            let mut squat = declared_request(&provider, 0, 0, forged_key);
            squat.signature = Signature::ZERO;
            let node = &mut shim.nodes[0];
            assert!(node.on_client_request(&squat, SimTime::ZERO).is_empty());
            assert!(node.on_client_request(&genuine, SimTime::ZERO).is_empty());
            assert_eq!(
                waiting_signatures(node, id),
                vec![squat.signature, genuine.signature]
            );
            // Each lane is released by a filler homed on its shard.
            let forged_lane = declared_request(&provider, 1, 0, forged_key);
            let genuine_lane = declared_request(&provider, 2, 0, genuine_filler_key);
            let fillers = if forgery_released_first {
                [forged_lane, genuine_lane]
            } else {
                [genuine_lane, forged_lane]
            };
            let mut proposed = Vec::new();
            for filler in &fillers {
                // A retry of the genuine request is dropped while it waits
                // and after its lane is released.
                assert!(node.on_client_request(&genuine, SimTime::ZERO).is_empty());
                let released = node.on_client_request(filler, SimTime::ZERO);
                let batch = proposed_batch(&released).expect("the lane releases");
                proposed.extend(batch.txn_ids());
            }
            let order = format!("forgery released first: {forgery_released_first}");
            assert_eq!(proposed.iter().filter(|p| **p == id).count(), 1, "{order}");
            assert_eq!(proposed.len(), 3, "{order}");
            assert_eq!(node.rejected_txns.get(), 1, "{order}");
            // Both lanes are out and the id is still suppressed.
            assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched(SeqNum(0))));
            for duplicate in [&genuine, &squat] {
                assert!(node.on_client_request(duplicate, SimTime::ZERO).is_empty());
            }
            assert!(node.batcher.pending_txn_ids().is_empty(), "{order}");
        }
    }

    /// The signatures of the requests under `id` waiting in `node`'s lanes.
    fn waiting_signatures(node: &ShimNode, id: TxnId) -> Vec<Signature> {
        node.batcher.waiting(id).map(|(_, sig)| sig).collect()
    }

    /// How many ids `node` holds as waiting in a lane.
    fn waiting_ids(node: &ShimNode) -> usize {
        node.seen_txns
            .values()
            .filter(|seen| matches!(seen, SeenTxn::Waiting(_)))
            .count()
    }

    #[test]
    fn the_payload_table_drains_at_release_restart_and_expiry() {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 2;
        config.timers.checkpoint_interval = 4;
        let provider = CryptoProvider::new(5);

        // Release, forged-squatter release included: a lone forgery fills
        // half a batch, the filler releases it, nothing survives of it.
        let mut node = single_cft_node(&config, &provider);
        let mut forged = signed_request(&provider, 3, 0);
        forged.signature = Signature::ZERO;
        let _ = node.on_client_request(&forged, SimTime::ZERO);
        assert_eq!(waiting_ids(&node), 1);
        let _ = node.on_client_request(&signed_request(&provider, 4, 0), SimTime::ZERO);
        assert_eq!(waiting_ids(&node), 0);
        assert_eq!(node.seen_txns_len(), 1, "the forged id was released");

        // Orphaned proposals on a PBFT primary, expired in the checkpoint
        // rhythm: an id only ever waits for its own lane's release.
        let mut primary = ShimNode::pbft(
            NodeId(0),
            config.clone(),
            provider.handle(ComponentId::Node(NodeId(0))),
        );
        for i in 0..40u64 {
            let _ = primary.on_client_request(&signed_request(&provider, 0, i), SimTime::ZERO);
            assert_eq!(waiting_ids(&primary), usize::from(i % 2 == 0));
            let _ = primary.on_message(&validated(&provider, SeqNum(i + 1)));
            assert!(waiting_ids(&primary) <= 1);
        }
        assert!(primary.seen_txns_len() < 40, "orphans were expired");

        // A crash restart forgets the lanes and the ids with them.
        let _ = primary.on_client_request(&signed_request(&provider, 0, 40), SimTime::ZERO);
        assert_eq!(waiting_ids(&primary), 1);
        primary.crash();
        let _ = primary.crash_restart();
        assert!(primary.batcher.pending_txn_ids().is_empty());
        assert_eq!(primary.seen_txns_len(), 0);
    }

    #[test]
    fn a_suppressed_id_costs_a_small_bucket() {
        // A 16-byte `TxnId` and a 16-byte state: the stamp that decides
        // when a lost batch's id is forgotten rides in the entry itself.
        assert!(std::mem::size_of::<(TxnId, SeenTxn)>() <= 32);
    }

    #[test]
    fn seen_txns_truncates_at_the_checkpoint_interval() {
        // Long-run bound: a single-node CFT shim orders one batch per
        // request; feeding back BatchValidated notifications must keep the
        // duplicate-suppression set within two checkpoint intervals.
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 1;
        config.timers.checkpoint_interval = 4;
        let provider = CryptoProvider::new(5);
        let mut node = single_cft_node(&config, &provider);
        for i in 0..100u64 {
            let actions = node.on_client_request(&signed_request(&provider, 0, i), SimTime::ZERO);
            assert!(
                actions
                    .iter()
                    .any(|a| matches!(a, Action::BatchCommitted { .. })),
                "request {i} must commit immediately on the 1-node CFT shim"
            );
            let _ = node.on_message(&validated(&provider, SeqNum(i + 1)));
            assert!(
                node.seen_txns_len() <= 2 * 4,
                "after {} batches seen_txns holds {} entries",
                i + 1,
                node.seen_txns_len()
            );
        }
        assert_eq!(node.batches_committed.get(), 100);
        // Entries inside the retained window still suppress duplicates …
        assert!(node
            .on_client_request(&signed_request(&provider, 0, 99), SimTime::ZERO)
            .is_empty());
        // … while a GC-ed transaction would be re-ordered (outside the
        // retry window, matching the verifier's own truncation).
        assert!(!node
            .on_client_request(&signed_request(&provider, 0, 1), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn never_validated_ids_expire_after_the_checkpoint_rhythm() {
        // A primary on a 4-node PBFT shim proposes batches whose
        // consensus never completes (no peer traffic is delivered):
        // every id lands in `seen_txns` but no `BatchValidated` will
        // ever release it. Meanwhile the verifier reports progress for
        // other proposals (re-proposed by later primaries), advancing
        // the checkpoint rhythm — the expiry must reclaim the orphaned
        // ids instead of retaining them forever.
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 1;
        config.timers.checkpoint_interval = 4;
        let provider = CryptoProvider::new(5);
        let mut node = ShimNode::pbft(
            NodeId(0),
            config.clone(),
            provider.handle(ComponentId::Node(NodeId(0))),
        );
        for i in 0..100u64 {
            let actions = node.on_client_request(&signed_request(&provider, 0, i), SimTime::ZERO);
            assert!(
                actions.iter().any(|a| a.sends_kind("PREPREPARE")),
                "request {i} must be proposed"
            );
            assert!(
                !actions
                    .iter()
                    .any(|a| matches!(a, Action::BatchCommitted { .. })),
                "nothing commits without a quorum"
            );
            let _ = node.on_message(&validated(&provider, SeqNum(i + 1)));
            assert!(
                node.seen_txns_len() <= 3 * 4,
                "after {} orphaned proposals seen_txns holds {} entries",
                i + 1,
                node.seen_txns_len()
            );
        }
        // Expired ids are genuinely released: the client's retry is
        // re-ordered instead of silently dropped.
        assert!(!node
            .on_client_request(&signed_request(&provider, 0, 1), SimTime::ZERO)
            .is_empty());
    }

    #[test]
    fn expiry_spares_committed_and_batcher_pending_ids() {
        // Two ids that must survive arbitrary checkpoint progress: one in
        // a locally committed (but never validated) batch, and one still
        // sitting in the batcher. Both keep their duplicate suppression.
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 1;
        config.timers.checkpoint_interval = 4;
        let provider = CryptoProvider::new(5);
        let mut node = single_cft_node(&config, &provider);
        // Request 0 commits immediately (1-node CFT) at seq 1, but its
        // BatchValidated never arrives.
        let committed_req = signed_request(&provider, 0, 0);
        let actions = node.on_client_request(&committed_req, SimTime::ZERO);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::BatchCommitted { .. })));
        // A second node with a large batch keeps one id pending in the
        // batcher (never released).
        let mut big = config.clone();
        big.workload.batch_size = 100;
        let mut pending_node = single_cft_node(&big, &provider);
        let pending_req = signed_request(&provider, 7, 0);
        assert!(pending_node
            .on_client_request(&pending_req, SimTime::ZERO)
            .is_empty());
        // Far more checkpoint progress than any expiry horizon.
        for seq in 2..=40u64 {
            let validated = validated(&provider, SeqNum(seq));
            let _ = node.on_message(&validated);
            let _ = pending_node.on_message(&validated);
        }
        // The committed batch's id is still suppressed (a retry would
        // otherwise double-order a batch that may yet validate) …
        assert!(node
            .on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO)
            .is_empty());
        // … and so is the batcher-pending id.
        assert!(pending_node
            .on_client_request(&signed_request(&provider, 7, 0), SimTime::ZERO)
            .is_empty());
        assert!(pending_node.seen_txns_len() >= 1);
    }

    #[test]
    fn a_restarted_nodes_batcher_keeps_counting_under_its_names() {
        let mut config = SystemConfig::with_shim_size(4);
        config.workload.batch_size = 2;
        let provider = CryptoProvider::new(5);
        let registry = Arc::new(Registry::new());
        let mut node = single_cft_node(&config, &provider);
        node.register_metrics(&registry);
        for counter in 0..3 {
            let _ = node.on_client_request(&signed_request(&provider, 0, counter), SimTime::ZERO);
        }
        assert_eq!(registry.counter_value("shim.0.batcher.released_full"), 1);
        assert_eq!(node.batcher.pending_txn_ids().len(), 1);
        node.crash();
        let _ = node.crash_restart();
        assert!(
            node.batcher.pending_txn_ids().is_empty(),
            "the restarted node's batcher is a new one"
        );
        for counter in 3..5 {
            let _ = node.on_client_request(&signed_request(&provider, 0, counter), SimTime::ZERO);
        }
        assert_eq!(
            registry.counter_value("shim.0.batcher.released_full"),
            2,
            "the rebuilt batcher counts into the registry again"
        );
    }

    #[test]
    fn ordering_lanes_assemble_single_home_batches() {
        // KnownRwSets + 4 shards activates the ordering-time planner:
        // two single-op transactions homed on the same shard fill that
        // shard's lane, and the proposed batch, which every spawned
        // EXECUTE carries, derives to that home.
        let mut config = SystemConfig::with_shim_size(4);
        config.conflict_handling = ConflictHandling::KnownRwSets;
        config.workload.batch_size = 2;
        config.sharding = sbft_types::ShardingConfig::with_shards(4);
        let mut shim = make_shim(config);
        assert!(shim.nodes[0].lane_router.is_some());
        let provider = Arc::clone(&shim.provider);
        let router = ShardRouter::new(4);
        let home = router.shard_of(Key(1));
        let second = (2..)
            .map(Key)
            .find(|k| router.shard_of(*k) == home)
            .expect("another key on the same shard");
        let foreign = (2..)
            .map(Key)
            .find(|k| router.shard_of(*k) != home)
            .expect("a key on another shard");
        let mk = |client: u32, key: Key| declared_request(&provider, client, 0, key);
        // A foreign-shard transaction arrives in between: it must not
        // pollute the home lane.
        let a0 = shim.nodes[0].on_client_request(&mk(0, Key(1)), SimTime::ZERO);
        assert!(a0.is_empty());
        let a1 = shim.nodes[0].on_client_request(&mk(1, foreign), SimTime::ZERO);
        assert!(a1.is_empty(), "the foreign lane is not full yet");
        let actions = shim.nodes[0].on_client_request(&mk(2, second), SimTime::ZERO);
        let proposed = proposed_batch(&actions).expect("the home lane releases a batch");
        let single_home = sbft_types::ShardPlan::SingleHome(home);
        assert_eq!(batch_home(&proposed, &router), single_home);
        assert_eq!(proposed.len(), 2, "only the two same-home transactions");
        // Run consensus; the primary's EXECUTE messages carry that batch.
        let external = settle(&mut shim.nodes, NodeId(0), actions, None, |_| {
            Verdict::Deliver
        });
        let executes: Vec<_> = external
            .iter()
            .filter_map(|(_, a)| match a {
                Action::SpawnExecutor { execute, .. } => Some(execute.clone()),
                _ => None,
            })
            .collect();
        assert!(!executes.is_empty());
        for execute in &executes {
            assert_eq!(batch_home(&execute.batch, &router), single_home);
        }
    }

    #[test]
    fn cross_home_transactions_assemble_in_the_cross_lane() {
        let mut config = SystemConfig::with_shim_size(4);
        config.conflict_handling = ConflictHandling::KnownRwSets;
        config.workload.batch_size = 2;
        config.sharding = sbft_types::ShardingConfig::with_shards(4);
        let mut shim = make_shim(config);
        let provider = Arc::clone(&shim.provider);
        let router = ShardRouter::new(4);
        let k1 = Key(1);
        let foreign = (2..)
            .map(Key)
            .find(|k| router.shard_of(*k) != router.shard_of(k1))
            .expect("a key on another shard");
        let mk = |client: u32| {
            // Two operations spanning shards: the transaction is
            // cross-home by construction.
            let txn = Transaction::new(
                TxnId::new(ClientId(client), 0),
                vec![
                    Operation::ReadModifyWrite(k1, 1),
                    Operation::ReadModifyWrite(foreign, 1),
                ],
            )
            .with_inferred_rwset();
            let digest = ClientRequest::signing_digest(&txn);
            ClientRequest {
                signature: provider
                    .handle(ComponentId::Client(ClientId(client)))
                    .sign(&digest),
                txn,
            }
        };
        let _ = shim.nodes[0].on_client_request(&mk(0), SimTime::ZERO);
        let actions = shim.nodes[0].on_client_request(&mk(1), SimTime::ZERO);
        let proposed = proposed_batch(&actions).expect("the cross lane releases a batch");
        assert_eq!(proposed.len(), 2);
        assert_eq!(
            batch_home(&proposed, &router),
            sbft_types::ShardPlan::CrossHome
        );
    }

    #[test]
    fn non_primary_forwards_requests_to_primary() {
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let actions =
            shim.nodes[2].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Node(NodeId(0)));
        assert_eq!(env.msg.kind(), "CLIENT-REQUEST");
        assert_eq!(shim.nodes[2].requests_forwarded.get(), 1);
    }

    #[test]
    fn decentralized_spawning_makes_every_node_spawn() {
        let mut config = base_config();
        config.spawning = SpawningMode::Decentralized;
        let mut shim = make_shim(config);
        let external = commit_one_batch(&mut shim, 0, &[]);
        // n_E (3) ≤ n_R (4), so every node spawns exactly one executor.
        for i in 0..4u32 {
            let spawns = external
                .iter()
                .filter(|(n, a)| *n == NodeId(i) && matches!(a, Action::SpawnExecutor { .. }))
                .count();
            assert_eq!(spawns, 1, "node {i}");
        }
    }

    /// The verifier's signing handle in `shim`'s deployment.
    fn verifier(shim: &Shim) -> CryptoHandle {
        shim.provider.handle(ComponentId::Verifier)
    }

    /// The verifier's `BATCH-VALIDATED` for `seq`: one transaction
    /// committed.
    fn validated(provider: &Arc<CryptoProvider>, seq: SeqNum) -> ProtocolMessage {
        let verifier = provider.handle(ComponentId::Verifier);
        ProtocolMessage::BatchValidated(BatchValidated::signed(seq, 1, 0, &verifier))
    }

    #[test]
    fn error_from_verifier_starts_retransmit_timer_and_forwards() {
        let mut shim = make_shim(base_config());
        let err = ProtocolMessage::Notice(RecoveryNotice::signed(
            NoticeMarker::Error(None),
            RecoverySubject::Seq(SeqNum(3)),
            &verifier(&shim),
        ));
        let actions = shim.nodes[2].on_message(&err);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::StartTimer {
                timer: ProtocolTimer::Retransmit(_),
                ..
            }
        )));
        let env = envelopes(&actions)[0];
        assert_eq!(
            env.to,
            Destination::Node(NodeId(0)),
            "forwarded to the primary"
        );
        // The matching ACK cancels the timer.
        let ack = ProtocolMessage::Notice(RecoveryNotice::signed(
            NoticeMarker::Ack,
            RecoverySubject::Seq(SeqNum(3)),
            &verifier(&shim),
        ));
        let actions = shim.nodes[2].on_message(&ack);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CancelTimer(ProtocolTimer::Retransmit(_)))));
    }

    #[test]
    fn replace_from_verifier_triggers_view_change() {
        let mut shim = make_shim(base_config());
        let replace = ProtocolMessage::Notice(RecoveryNotice::signed(
            NoticeMarker::Replace,
            RecoverySubject::Seq(SeqNum(1)),
            &verifier(&shim),
        ));
        let actions = shim.nodes[1].on_message(&replace);
        assert!(actions.iter().any(|a| a.sends_kind("VIEWCHANGE")));
    }

    #[test]
    fn retransmit_timer_expiry_triggers_view_change() {
        let mut shim = make_shim(base_config());
        // The verifier reported a missing request; Υ is armed in view 0.
        let err = ProtocolMessage::Notice(RecoveryNotice::signed(
            NoticeMarker::Error(None),
            RecoverySubject::Seq(SeqNum(1)),
            &verifier(&shim),
        ));
        let _ = shim.nodes[1].on_message(&err);
        // The primary never resolved it before Υ expired: view change.
        let actions = shim.nodes[1].on_timer(
            ProtocolTimer::Retransmit(RecoverySubject::Seq(SeqNum(1))),
            SimTime::ZERO,
        );
        assert!(actions.iter().any(|a| a.sends_kind("VIEWCHANGE")));
    }

    #[test]
    fn retransmit_timer_is_forgiven_after_a_view_change() {
        let mut shim = make_shim(base_config());
        let err = ProtocolMessage::Notice(RecoveryNotice::signed(
            NoticeMarker::Error(None),
            RecoverySubject::Seq(SeqNum(1)),
            &verifier(&shim),
        ));
        let _ = shim.nodes[1].on_message(&err);
        // The primary is replaced before Υ expires (for another reason).
        let replace = ProtocolMessage::Notice(RecoveryNotice::signed(
            NoticeMarker::Replace,
            RecoverySubject::Seq(SeqNum(1)),
            &verifier(&shim),
        ));
        let _ = shim.nodes[1].on_message(&replace);
        // Υ now fires, but the view already moved on: no further escalation.
        // (The node's own view only advances once a quorum exists, so fake
        // the comparison by checking that no VIEWCHANGE for view 2 is sent.)
        let actions = shim.nodes[1].on_timer(
            ProtocolTimer::Retransmit(RecoverySubject::Seq(SeqNum(1))),
            SimTime::ZERO,
        );
        // The node already voted for view 1 when handling REPLACE, so the
        // timer expiry must not push it to vote again for a later view.
        for action in &actions {
            if let Some(env) = action.as_send() {
                if let ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::ViewChange(
                    vc,
                )) = &env.msg
                {
                    assert!(vc.new_view <= sbft_types::ViewNumber(1));
                }
            }
        }
    }

    /// The verifier's `ERROR(⟨T⟩_C)` carrying client `client`'s request.
    fn error_carrying(shim: &Shim, client: u32) -> RecoveryNotice {
        RecoveryNotice::signed(
            NoticeMarker::Error(Some(Box::new(signed_request(&shim.provider, client, 0)))),
            RecoverySubject::Txn(TxnId::new(ClientId(client), 0)),
            &verifier(shim),
        )
    }

    #[test]
    fn a_new_view_gets_the_errors_its_backups_hold_and_its_primary_orders_none_at_install() {
        let mut shim = make_shim(base_config());
        let err = error_carrying(&shim, 5);
        let subject = err.subject;
        // Node 0 is dark: the backups forward the ERROR to it in vain and
        // their Υ expires in view 0, which replaces it.
        for node in 1..4 {
            let _ = shim.nodes[node].on_message(&ProtocolMessage::Notice(err.clone()));
        }
        let mut external = Vec::new();
        for node in 1..4 {
            let actions =
                shim.nodes[node].on_timer(ProtocolTimer::Retransmit(subject), SimTime::ZERO);
            let origin = NodeId(node as u32);
            external.extend(settle(&mut shim.nodes, origin, actions, None, |hop| {
                if hop.to == NodeId(0) {
                    Verdict::Drop
                } else {
                    Verdict::Deliver
                }
            }));
        }
        assert!(shim.nodes[1].is_primary());
        for node in 1..4u32 {
            let count = |name: &str| shim.registry.counter_value(&format!("shim.{node}.{name}"));
            assert_eq!(count("view_changes"), 1, "node {node}");
            assert_eq!(
                count("errors_reforwarded"),
                u64::from(node != 1),
                "node {node}"
            );
        }
        // Each backup of view 1 re-forwarded the ERROR to node 1, and
        // started no Υ for it.
        for node in [2, 3] {
            let mine: Vec<&Action> = external
                .iter()
                .filter(|(from, _)| *from == NodeId(node))
                .map(|(_, action)| action)
                .collect();
            let reforwarded: Vec<_> = mine.iter().filter_map(|a| a.as_send()).collect();
            assert_eq!(reforwarded.len(), 1, "node {node}: {mine:?}");
            assert_eq!(reforwarded[0].to, Destination::Node(NodeId(1)));
            assert_eq!(reforwarded[0].msg, ProtocolMessage::Notice(err.clone()));
            assert!(!mine.iter().any(|a| matches!(
                a,
                Action::StartTimer {
                    timer: ProtocolTimer::Retransmit(_),
                    ..
                }
            )));
        }
        // The new primary dropped its own copy and batched nothing while
        // installing the view.
        let primary = &mut shim.nodes[1];
        assert!(primary.retransmit.is_empty());
        assert!(primary.batcher.pending_txn_ids().is_empty());
        assert_eq!(primary.seen_txns_len(), 0);
        // A backup's copy, delivered after the install, is ordered.
        let _ = primary.on_message(&ProtocolMessage::Notice(err));
        assert_eq!(
            primary.batcher.pending_txn_ids(),
            vec![TxnId::new(ClientId(5), 0)]
        );
    }

    #[test]
    fn an_ack_releases_the_held_error() {
        let mut shim = make_shim(base_config());
        let err = error_carrying(&shim, 5);
        let node = &mut shim.nodes[2];
        let _ = node.on_message(&ProtocolMessage::Notice(err.clone()));
        assert_eq!(node.retransmit.len(), 1);
        let ack = RecoveryNotice::signed(NoticeMarker::Ack, err.subject, &verifier(&shim));
        let node = &mut shim.nodes[2];
        let actions = node.on_message(&ProtocolMessage::Notice(ack));
        assert_eq!(
            actions,
            vec![Action::CancelTimer(ProtocolTimer::Retransmit(err.subject))]
        );
        assert!(node.retransmit.is_empty(), "the ACK released the entry");
    }

    /// What a verifier message can move at shim node `node`: every
    /// counter of the shim, the duplicate-suppression table, the
    /// unvalidated committed batches, the validation high mark, the held
    /// `ERROR`s and the view.
    fn observable(shim: &Shim, node: usize) -> impl PartialEq + std::fmt::Debug {
        let n = &shim.nodes[node];
        let mut held: Vec<RecoverySubject> = n.retransmit.keys().copied().collect();
        held.sort();
        let committed: Vec<SeqNum> = n.committed.keys().copied().collect();
        let counts = (n.seen_txns_len(), n.max_validated, n.view());
        (shim.registry.render(), counts, committed, held)
    }

    /// A shim whose sequence 1 (clients 0 and 1) committed at every node
    /// and whose primary holds a second, unordered batch (clients 2, 3).
    fn shim_awaiting_validation() -> Shim {
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        commit_one_batch(&mut shim, 0, &[]);
        for client in [2, 3] {
            let request = signed_request(&provider, client, 0);
            let _ = shim.nodes[0].on_client_request(&request, SimTime::ZERO);
        }
        shim
    }

    #[test]
    fn a_batch_validated_the_verifier_did_not_sign_moves_nothing() {
        // Unchecked, a forged notice for the committed batch retires it
        // (a view change would no longer re-spawn it), and one for a far
        // sequence number moves the validation high mark past every
        // checkpoint cutoff, so every batched id is forgotten.
        let mut shim = shim_awaiting_validation();
        let by_a_node = shim.provider.handle(ComponentId::Node(NodeId(1)));
        let before = shim.nodes[0].seen_txns_len();
        let committed = shim.nodes[0].committed_batch(SeqNum(1)).cloned();
        assert!(committed.is_some());
        for seq in [SeqNum(1), SeqNum(1_000_000)] {
            let signed_by_a_node = BatchValidated::signed(seq, 2, 0, &by_a_node);
            let unsigned = BatchValidated {
                signature: Signature::ZERO,
                ..signed_by_a_node
            };
            for forged in [unsigned, signed_by_a_node] {
                let forged = ProtocolMessage::BatchValidated(forged);
                assert!(shim.nodes[0].on_message(&forged).is_empty());
            }
        }
        assert_eq!(shim.nodes[0].seen_txns_len(), before);
        assert_eq!(shim.nodes[0].committed_batch(SeqNum(1)).cloned(), committed);
        // The verifier's own notice retires the batch.
        let _ = shim.nodes[0].on_message(&validated(&shim.provider, SeqNum(1)));
        assert!(shim.nodes[0].committed_batch(SeqNum(1)).is_none());
    }

    #[test]
    fn a_forged_verifier_message_moves_nothing() {
        // Each case is a message the verifier signed and a forgery of it:
        // one signed field flipped (the marker, the subject, the carried
        // request, or a BATCH-VALIDATED count), the notice unsigned or
        // signed by a node, or a byte of its signature's zero half set.
        // Delivered to the primary and to a backup, the forgery must emit
        // nothing and move nothing; the genuine message must act on at
        // least one of them, so every case bites.
        use NoticeMarker::{Ack, Error, Replace};
        let probe = make_shim(base_config());
        let verifier = verifier(&probe);
        let request = |client| Some(Box::new(signed_request(&probe.provider, client, 0)));
        let seq1 = RecoverySubject::Seq(SeqNum(1));
        let txn5 = RecoverySubject::Txn(TxnId::new(ClientId(5), 0));
        let signed = |marker, subject| RecoveryNotice::signed(marker, subject, &verifier);
        let error = signed(Error(None), seq1);
        let replace = signed(Replace, seq1);
        let ack = signed(Ack, seq1);
        let carrying = signed(Error(request(5)), txn5);
        let bare = signed(Error(None), txn5);
        // `genuine`'s signature over `marker` and `subject`.
        let flip = |name, genuine: &RecoveryNotice, marker, subject| {
            let forged = RecoveryNotice {
                marker,
                subject,
                signature: genuine.signature,
            };
            let genuine = ProtocolMessage::Notice(genuine.clone());
            (name, genuine, ProtocolMessage::Notice(forged))
        };
        let node = probe.provider.handle(ComponentId::Node(NodeId(2)));
        let resign = |name, genuine: &RecoveryNotice, signature| {
            let forged = RecoveryNotice {
                signature,
                ..genuine.clone()
            };
            let genuine = ProtocolMessage::Notice(genuine.clone());
            (name, genuine, ProtocolMessage::Notice(forged))
        };
        // The genuine signature with a byte of its zero half set.
        let padded = |genuine: &RecoveryNotice, byte: usize| {
            let mut signature = genuine.signature;
            signature.0[byte] ^= 0x01;
            signature
        };
        let batch = BatchValidated::signed(SeqNum(1), 2, 0, &verifier);
        let flip_batch = |name, seq, committed, aborted| {
            let forged = BatchValidated {
                seq: SeqNum(seq),
                committed,
                aborted,
                signature: batch.signature,
            };
            let genuine = ProtocolMessage::BatchValidated(batch);
            (name, genuine, ProtocolMessage::BatchValidated(forged))
        };
        let cases = [
            flip("ERROR as REPLACE", &error, Replace, seq1),
            flip("ERROR as ACK", &error, Ack, seq1),
            flip("REPLACE as ERROR", &replace, Error(None), seq1),
            flip("REPLACE as ACK", &replace, Ack, seq1),
            flip("ACK as ERROR", &ack, Error(None), seq1),
            flip("ACK as REPLACE", &ack, Replace, seq1),
            flip(
                "ERROR subject",
                &error,
                Error(None),
                RecoverySubject::Seq(SeqNum(2)),
            ),
            flip("REPLACE subject", &replace, Replace, txn5),
            flip("ACK subject", &ack, Ack, txn5),
            flip("request swapped", &carrying, Error(request(6)), txn5),
            flip("request dropped", &carrying, Error(None), txn5),
            flip("request added", &bare, Error(request(5)), txn5),
            resign("ERROR unsigned", &carrying, Signature::ZERO),
            resign("REPLACE unsigned", &replace, Signature::ZERO),
            resign(
                "ERROR by a node",
                &carrying,
                node.sign(&carrying.signing_digest(carrying.request_digest().as_ref())),
            ),
            resign(
                "REPLACE by a node",
                &replace,
                node.sign(&replace.signing_digest(None)),
            ),
            resign("ACK by a node", &ack, node.sign(&ack.signing_digest(None))),
            resign("ERROR zero half flipped", &carrying, padded(&carrying, 32)),
            resign("ACK zero half flipped", &ack, padded(&ack, 63)),
            flip_batch("BATCH-VALIDATED seq", 1_000_000, 2, 0),
            flip_batch("BATCH-VALIDATED committed", 1, 1, 0),
            flip_batch("BATCH-VALIDATED aborted", 1, 2, 1),
        ];
        for (name, genuine, forged) in cases {
            let mut bites = false;
            for node in [0, 2] {
                let mut shim = shim_awaiting_validation();
                let before = observable(&shim, node);
                let actions = shim.nodes[node].on_message(&forged);
                assert!(actions.is_empty(), "{name} at node {node}: {actions:?}");
                assert_eq!(observable(&shim, node), before, "{name} at node {node}");
                let actions = shim.nodes[node].on_message(&genuine);
                bites |= !actions.is_empty() || observable(&shim, node) != before;
            }
            assert!(bites, "{name}: the genuine message acts nowhere");
        }
    }

    #[test]
    fn planner_gates_spawning_for_conflicting_batches() {
        let mut config = SystemConfig::with_shim_size(4);
        config.conflict_handling = ConflictHandling::KnownRwSets;
        config.workload.batch_size = 1;
        let mut shim = make_shim(config);
        let provider = Arc::clone(&shim.provider);
        // Two conflicting single-transaction batches (both RMW key 7).
        let mk = |client: u32| declared_request(&provider, client, 0, Key(7));
        let a1 = shim.nodes[0].on_client_request(&mk(0), SimTime::ZERO);
        let ext1 = settle(&mut shim.nodes, NodeId(0), a1, None, |_| Verdict::Deliver);
        let spawns1 = ext1
            .iter()
            .filter(|(_, a)| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(spawns1, 3, "first batch spawns immediately");
        let a2 = shim.nodes[0].on_client_request(&mk(1), SimTime::ZERO);
        let ext2 = settle(&mut shim.nodes, NodeId(0), a2, None, |_| Verdict::Deliver);
        let spawns2 = ext2
            .iter()
            .filter(|(_, a)| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(
            spawns2, 0,
            "conflicting batch waits for the first to finish"
        );
        // The verifier validates batch 1; batch 2 is released.
        let actions = shim.nodes[0].on_message(&validated(&provider, SeqNum(1)));
        let spawns3 = actions
            .iter()
            .filter(|a| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(spawns3, 3, "validation releases the conflicting batch");
    }

    #[test]
    fn unknown_rwsets_spawn_three_f_plus_one_executors() {
        let mut config = SystemConfig::with_shim_size(4);
        config.conflict_handling = ConflictHandling::UnknownRwSets;
        config.workload.batch_size = 1;
        let mut shim = make_shim(config);
        let provider = Arc::clone(&shim.provider);
        let a = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let external = settle(&mut shim.nodes, NodeId(0), a, None, |_| Verdict::Deliver);
        let spawns = external
            .iter()
            .filter(|(_, a)| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(spawns, 4, "3·f_E + 1 executors with f_E = 1");
    }

    #[test]
    fn cft_and_noshim_orderings_also_spawn() {
        let config = {
            let mut c = SystemConfig::with_shim_size(4);
            c.workload.batch_size = 1;
            c
        };
        let provider = CryptoProvider::new(5);
        // CFT-backed shim node (single-node degenerate cluster for the test).
        let mut cft_node = single_cft_node(&config, &provider);
        let req = signed_request(&provider, 0, 0);
        let actions = cft_node.on_client_request(&req, SimTime::ZERO);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SpawnExecutor { .. })));
        // NoShim node.
        let mut noshim = ShimNode::new(
            NodeId(0),
            config.clone(),
            provider.handle(ComponentId::Node(NodeId(0))),
            Box::new(NoShim::new(NodeId(0))),
        );
        let req = signed_request(&provider, 1, 0);
        let actions = noshim.on_client_request(&req, SimTime::ZERO);
        let spawns = actions
            .iter()
            .filter(|a| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(spawns, config.executors_per_batch());
        assert_eq!(noshim.protocol_name(), "NoShim");
    }

    fn durable_config(snapshot_interval: u64) -> SystemConfig {
        let mut config = base_config();
        config.durability =
            sbft_types::DurabilityConfig::enabled().with_snapshot_interval(snapshot_interval);
        config
    }

    #[test]
    fn a_cft_commit_is_not_made_durable() {
        // CFT hands on an empty certificate, which certifies nothing: the
        // baseline has no recovery path, so its commits are not logged.
        let mut config = durable_config(1);
        config.workload.batch_size = 1;
        let provider = CryptoProvider::new(5);
        let mut node = single_cft_node(&config, &provider);
        let actions = node.on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::BatchCommitted { .. })));
        assert!(!actions.iter().any(|a| matches!(a, Action::Persist { .. })));
        assert_eq!(node.durable.wal_appends.get(), 0);
    }

    /// Commits one batch of two transactions through the whole shim, the
    /// nodes in `down` unreachable, and returns the external actions.
    fn commit_one_batch(
        shim: &mut Shim,
        client_base: u32,
        down: &[NodeId],
    ) -> Vec<(NodeId, Action)> {
        let provider = Arc::clone(&shim.provider);
        let _ = shim.nodes[0]
            .on_client_request(&signed_request(&provider, client_base, 0), SimTime::ZERO);
        let actions = shim.nodes[0].on_client_request(
            &signed_request(&provider, client_base + 1, 0),
            SimTime::ZERO,
        );
        settle(&mut shim.nodes, NodeId(0), actions, None, |hop| {
            if down.contains(&hop.to) {
                Verdict::Drop
            } else {
                Verdict::Deliver
            }
        })
    }

    #[test]
    fn wal_records_votes_and_commits_and_cuts_snapshots() {
        // Snapshot every 2 batches: after two commits the log is
        // truncated to the mark and the reclaimed bytes are counted.
        let mut shim = make_shim(durable_config(2));
        let external = commit_one_batch(&mut shim, 0, &[]);
        // Synced WAL writes are charged through Persist actions.
        assert!(external
            .iter()
            .any(|(_, a)| matches!(a, Action::Persist { fsync: true, .. })));
        assert!(shim.nodes[0].durable.wal_appends.get() >= 2); // a Vote and a Committed at least
        assert_eq!(shim.nodes[0].durable.last_snapshot, SeqNum(0));
        commit_one_batch(&mut shim, 2, &[]);
        for node in &shim.nodes {
            assert_eq!(node.durable.last_snapshot, SeqNum(2));
            assert!(
                node.durable.snapshot_bytes.get() > 0,
                "truncation reclaims bytes"
            );
            // Only the mark survives the cut.
            assert_eq!(node.durable.wal.as_ref().map(|w| w.durable_len()), Some(1));
        }
    }

    #[test]
    fn crash_restarted_node_replays_its_wal_and_rejoins() {
        let mut shim = make_shim(durable_config(8));
        commit_one_batch(&mut shim, 0, &[]);
        commit_one_batch(&mut shim, 2, &[]);
        // Node 3 dies and restarts: the synced log replays both commits.
        shim.nodes[3].crash();
        let restart = shim.nodes[3].crash_restart();
        assert_eq!(shim.nodes[3].durable.replay_batches.get(), 2);
        assert!(
            restart.iter().any(|a| a.sends_kind("STATEREQUEST")),
            "restart broadcasts a state request"
        );
        // Nothing was missed, so peers stay silent and no batch is adopted.
        settle(&mut shim.nodes, NodeId(3), restart, None, |_| {
            Verdict::Deliver
        });
        assert_eq!(shim.nodes[3].state_transfers.get(), 0);
        // The restarted node keeps participating: the next batch commits
        // everywhere, including on node 3.
        let external = commit_one_batch(&mut shim, 4, &[]);
        assert!(external.iter().any(|(n, a)| *n == NodeId(3)
            && matches!(a, Action::BatchCommitted { seq, .. } if *seq == SeqNum(3))));
    }

    #[test]
    fn crash_restarted_node_state_transfers_the_suffix_it_missed() {
        let mut shim = make_shim(durable_config(8));
        commit_one_batch(&mut shim, 0, &[]);
        // Node 3 is dark while batch 2 commits on the others.
        shim.nodes[3].crash();
        commit_one_batch(&mut shim, 2, &[NodeId(3)]);
        let restart = shim.nodes[3].crash_restart();
        assert_eq!(shim.nodes[3].durable.replay_batches.get(), 1);
        let external = settle(&mut shim.nodes, NodeId(3), restart, None, |_| {
            Verdict::Deliver
        });
        // Peers answered the state request; node 3 adopted the missed
        // batch exactly once and observed its commit.
        assert_eq!(shim.nodes[3].state_transfers.get(), 1);
        assert!(external.iter().any(|(n, a)| *n == NodeId(3)
            && matches!(a, Action::BatchCommitted { seq, .. } if *seq == SeqNum(2))));
    }

    #[test]
    fn spawn_rejection_marks_the_region_down_until_probation_expires() {
        use sbft_types::Region;
        let mut shim = make_shim(base_config());
        let node = &mut shim.nodes[0];
        let actions = node.on_spawn_rejected(Region::Oregon);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::StartTimer {
                timer: ProtocolTimer::RegionProbation(Region::Oregon),
                ..
            }
        )));
        assert_eq!(node.region_outages_detected.get(), 1);
        // Repeated rejections while already marked down are absorbed.
        assert!(node.on_spawn_rejected(Region::Oregon).is_empty());
        assert_eq!(node.region_outages_detected.get(), 1);
        // Probation expiry marks the region back up; a later rejection
        // re-detects the outage and restarts the cycle.
        let up = node.on_timer(
            ProtocolTimer::RegionProbation(Region::Oregon),
            SimTime::ZERO,
        );
        assert!(up.is_empty());
        assert!(!node.on_spawn_rejected(Region::Oregon).is_empty());
        assert_eq!(node.region_outages_detected.get(), 2);
    }

    // ---- digest proposals (bandwidth-frugal ordering) ----------------------

    /// A 4-node PBFT shim with digest proposals on, and the registry its
    /// digest cache statistics are read from.
    fn make_digest_shim(mut config: SystemConfig) -> (Shim, Arc<Registry>) {
        config.digest_proposals = true;
        let shim = make_shim(config);
        let registry = Arc::clone(&shim.registry);
        (shim, registry)
    }

    /// Delivers `req` to every shim node (digest-mode clients broadcast so
    /// replicas can seed their body caches), returning the primary's
    /// actions and asserting the replicas neither forward nor propose.
    fn broadcast_request(shim: &mut Shim, req: &ClientRequest) -> Vec<Action> {
        let mut primary_actions = Vec::new();
        for i in 0..shim.nodes.len() {
            let actions = shim.nodes[i].on_client_request(req, SimTime::ZERO);
            if shim.nodes[i].is_primary() {
                primary_actions = actions;
            } else {
                assert!(
                    actions.is_empty(),
                    "a replica offers the body locally, nothing goes on the wire"
                );
            }
        }
        primary_actions
    }

    #[test]
    fn digest_mode_with_requests_at_every_node_commits_without_forwarding_or_fetching() {
        let (mut shim, registry) = make_digest_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let _ = broadcast_request(&mut shim, &signed_request(&provider, 0, 0));
        let actions = broadcast_request(&mut shim, &signed_request(&provider, 1, 0));
        assert!(
            proposes_ids(&actions),
            "the primary proposes by digest, not by body"
        );
        let external = settle(&mut shim.nodes, NodeId(0), actions, None, |_| {
            Verdict::Deliver
        });
        let commits = external
            .iter()
            .filter(|(_, a)| matches!(a, Action::BatchCommitted { .. }))
            .count();
        assert_eq!(commits, 4, "every node commits the reconstructed batch");
        for node in &shim.nodes {
            assert_eq!(
                node.requests_forwarded.get(),
                0,
                "digest mode never relays request bodies to the primary"
            );
            assert!(node.pending_reconstructions().is_empty());
        }
        // Warm caches: every replica reconstructed from its own cache.
        for i in 1..4 {
            assert_eq!(
                registry
                    .counter(&format!("shim.{i}.digest.cache_hits"))
                    .get(),
                2
            );
            assert_eq!(
                registry
                    .counter(&format!("shim.{i}.digest.cache_misses"))
                    .get(),
                0
            );
            assert_eq!(
                registry
                    .counter(&format!("shim.{i}.digest.fetches_sent"))
                    .get(),
                0
            );
        }
    }

    #[test]
    fn digest_mode_with_cold_replicas_fetches_bodies_and_commits() {
        // Requests reach only the primary (the client broadcast was lost):
        // replicas miss on every body, fetch them from the primary over
        // BATCHFETCH/BATCHFILL, and still commit the identical batch.
        let (mut shim, registry) = make_digest_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let _ = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        assert!(proposes_ids(&actions));
        let external = settle(&mut shim.nodes, NodeId(0), actions, None, |_| {
            Verdict::Deliver
        });
        let commits = external
            .iter()
            .filter(|(_, a)| matches!(a, Action::BatchCommitted { .. }))
            .count();
        assert_eq!(commits, 4);
        for i in 1..4u32 {
            assert_eq!(
                registry
                    .counter(&format!("shim.{i}.digest.cache_misses"))
                    .get(),
                2
            );
            assert_eq!(
                registry
                    .counter(&format!("shim.{i}.digest.fetches_sent"))
                    .get(),
                1
            );
            assert!(shim.nodes[i as usize].pending_reconstructions().is_empty());
        }
        assert_eq!(
            registry.counter("shim.0.digest.fills_served").get(),
            3,
            "the primary served one fill per cold replica"
        );
    }

    #[test]
    fn digest_proposal_is_wal_released_like_a_full_one() {
        let mut config = base_config();
        config.durability = sbft_types::DurabilityConfig::enabled();
        let (mut shim, _registry) = make_digest_shim(config);
        let provider = Arc::clone(&shim.provider);
        let _ = broadcast_request(&mut shim, &signed_request(&provider, 0, 0));
        assert_eq!(shim.nodes[0].durable.wal_appends.get(), 0);
        let actions = broadcast_request(&mut shim, &signed_request(&provider, 1, 0));
        assert!(proposes_ids(&actions));
        // The digest proposal wrote a buffered Released record before the
        // broadcast left (plus this node's own synced COMMIT vote later).
        assert!(
            shim.nodes[0].durable.wal_appends.get() >= 1,
            "a digest proposal must hit the WAL like a full PREPREPARE"
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Persist { fsync: false, .. })));
    }

    #[test]
    fn body_cache_truncates_at_the_checkpoint_rhythm() {
        // Long-run bound: with client broadcasts feeding every replica's
        // body cache and BatchValidated notifications advancing the
        // checkpoint rhythm, the cache must stay within the retained
        // window instead of accumulating every body ever seen.
        let mut config = base_config();
        config.workload.batch_size = 1;
        config.timers.checkpoint_interval = 4;
        let (mut shim, _registry) = make_digest_shim(config);
        let provider = Arc::clone(&shim.provider);
        for i in 0..40u64 {
            let actions = broadcast_request(&mut shim, &signed_request(&provider, 0, i));
            let external = settle(&mut shim.nodes, NodeId(0), actions, None, |_| {
                Verdict::Deliver
            });
            assert!(external
                .iter()
                .any(|(_, a)| matches!(a, Action::BatchCommitted { .. })));
            for node in &mut shim.nodes {
                let _ = node.on_message(&validated(&provider, SeqNum(i + 1)));
            }
            for node in &shim.nodes {
                assert!(
                    node.cached_bodies() <= 3 * 4,
                    "after {} batches node {} caches {} bodies",
                    i + 1,
                    node.id().0,
                    node.cached_bodies()
                );
            }
        }
    }
}
