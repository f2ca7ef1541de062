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
    Action, BatchValidated, ClientRequest, Destination, ProtocolMessage, ProtocolTimer,
    RecoverySubject,
};
use crate::planner::{home_shard, BatchFootprint, BestEffortPlanner};
use sbft_consensus::{
    Batcher, ConsensusAction, ConsensusMessage, OrderingProtocol, PbftReplica, SignedBatch,
};
use sbft_crypto::{CommitCertificate, CryptoHandle};
use sbft_durability::WriteAheadLog;
use sbft_serverless::{ExecuteRequest, Invoker};
use sbft_sharding::ShardRouter;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    Batch, ComponentId, ConflictHandling, IdMap, IdSet, NodeId, SeqNum, ShardPlan, SimDuration,
    SimTime, SpawningMode, SystemConfig, TxnId, ViewNumber,
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
    /// The ordering-time shard plan replicated with the batch; copied
    /// into every `EXECUTE` this node spawns (including re-spawns after
    /// view changes).
    plan: ShardPlan,
    spawned: bool,
}

/// What a node remembers about a transaction it placed in a batch: one
/// byte per id. What the transaction was batched *with* is kept only
/// while it can still matter, in [`ShimNode::unverified`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SeenTxn {
    /// Placed in a batch that has not committed on this node (yet).
    Batched,
    /// A batch holding the transaction has committed on this node. From
    /// then on the batch accounts for the id — it is released when the
    /// validated batch leaves the retained checkpoint window — and the
    /// never-validated expiry leaves it alone.
    Committed,
}

/// What a transaction still waiting in a batcher lane was batched with.
#[derive(Clone, Copy, Debug)]
struct BatchedWith {
    signature: sbft_types::Signature,
    digest: sbft_types::Digest,
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
    /// Transactions this node has already placed in a batch, so that
    /// client re-transmissions and forwarded `ERROR(⟨T⟩_C)` messages are
    /// not ordered twice. Truncated in the rhythm of the featherweight
    /// checkpoint interval, mirroring the verifier's retry maps: one
    /// closed interval of validated history is retained, so duplicates
    /// inside the window are still suppressed while the map stays bounded
    /// on long runs (see [`Self::gc_seen_txns`]).
    seen_txns: IdMap<TxnId, SeenTxn>,
    /// The `(signature, signing digest)` each id still waiting in a
    /// batcher lane was batched with — i.e. of ids whose client signature
    /// nobody has checked yet. Storing the pair is what keeps deferred
    /// verification safe against id-squatting without enabling client
    /// equivocation: a duplicate with the *same* signature is a retry and
    /// is dropped; on a duplicate with a *different* signature the stored
    /// pair is checked first — a validly signed entry keeps the id (two
    /// differently-signed payloads under one id means the client is
    /// equivocating, and the first one wins, exactly as under eager
    /// verification), while a forged squatter is displaced by a valid
    /// newcomer (see [`Self::order_transaction`]). The pair leaves when
    /// its batch passes the aggregate check in [`Self::submit_signed`]:
    /// from then on the id is held by a validly signed request, every
    /// duplicate is dropped whatever it carries, and the 96 bytes have no
    /// reader. At most a batch per lane is ever here.
    unverified: IdMap<TxnId, BatchedWith>,
    /// Transaction ids of validated batches, retained until the GC cutoff
    /// passes them (feeds the `seen_txns` truncation).
    validated_txns: BTreeMap<SeqNum, Vec<TxnId>>,
    /// Expiry ledger for ids whose batch may never be validated: every
    /// id is recorded here when it enters `seen_txns`, stamped with the
    /// highest validated sequence number observed at that moment. Once
    /// the GC cutoff passes an id's stamp, the id is *expired* from
    /// `seen_txns` — unless its batch has committed here by then (it is
    /// released by the regular checkpoint-rhythm truncation instead) or
    /// it still waits in the batcher (it is stamped again). This bounds
    /// the residual growth from ids that were batched but whose batch was
    /// lost (e.g. across a view change without re-proposal) and therefore
    /// never receives a `BatchValidated`.
    pending_seen: BTreeMap<SeqNum, Vec<TxnId>>,
    /// Highest `BatchValidated` sequence number observed.
    max_validated: SeqNum,
    /// Highest sequence number at or below which `seen_txns` has been
    /// garbage-collected.
    seen_gc_floor: SeqNum,
    /// The view in which each re-transmission timer `Υ` was started. If the
    /// view has already changed when the timer fires, the new primary gets a
    /// fresh chance instead of triggering yet another view change (this is
    /// what prevents one byzantine primary from cascading the shim through
    /// many views when many `ERROR` messages arrive at once).
    retransmit_view: IdMap<RecoverySubject, ViewNumber>,
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
                crypto.provider().handle(ComponentId::Node(me)),
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
        // Plan-aware spawn placement needs geo-partitioned storage (the
        // shard → home-region map) and the placement knob left on; the
        // partition is re-derived from the shared configuration, never
        // communicated.
        let invoker = match config
            .sharding
            .pinned_placement
            .then(|| config.region_partition())
            .flatten()
        {
            Some(partition) => Invoker::new(me, config.regions.clone()).with_partition(partition),
            None => Invoker::new(me, config.regions.clone()),
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
            unverified: IdMap::default(),
            validated_txns: BTreeMap::new(),
            pending_seen: BTreeMap::new(),
            max_validated: SeqNum(0),
            seen_gc_floor: SeqNum(0),
            retransmit_view: IdMap::default(),
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
    /// (entries are released to `validated_txns` once the verifier reports
    /// the batch validated). Lets equivalence tests compare committed
    /// content across proposal modes without a wire-level batch copy.
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
    /// The primary does **not** verify the client signature here: the
    /// request's memoized signing digest and signature ride into the
    /// batcher, and the whole batch is authenticated with one aggregate
    /// check when it is submitted for ordering (see
    /// [`SignedBatch::verify_and_prune`]). A non-primary node still
    /// verifies eagerly before forwarding — that path is off the hot loop
    /// (it only runs right after view changes) and keeps forged traffic
    /// from being relayed.
    pub fn on_client_request(&mut self, req: &ClientRequest, now: SimTime) -> Vec<Action> {
        let digest = ClientRequest::signing_digest(&req.txn);
        if !self.is_primary() {
            if !self.crypto.verify(
                ComponentId::Client(req.txn.id.client),
                &digest,
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
        self.order_transaction(req.txn.clone(), digest, req.signature, now)
    }

    /// Places a transaction in the ordering pipeline (primary only),
    /// skipping transactions this node has already batched. The signing
    /// digest and client signature travel with the transaction so the
    /// batch can be authenticated in aggregate at submit time.
    fn order_transaction(
        &mut self,
        txn: sbft_types::Transaction,
        digest: sbft_types::Digest,
        signature: sbft_types::Signature,
        now: SimTime,
    ) -> Vec<Action> {
        let mut newly_seen = false;
        if self.seen_txns.is_empty() {
            // Only a node that batches (a primary) tracks ids, so the
            // table is sized by the first one it sees, for a request from
            // every closed-loop client: they all arrive in one burst, and
            // regrown by doubling the table would be held twice over at
            // each step of it. The retained window of validated history
            // on top is reached later, in memory the burst has freed.
            self.seen_txns.reserve(self.config.workload.num_clients);
        }
        match self.seen_txns.entry(txn.id) {
            Entry::Occupied(_) => {
                let Some(stored) = self.unverified.get_mut(&txn.id) else {
                    // Already released to ordering under a valid
                    // signature: a retry, a forwarded ERROR or a second
                    // payload under the same id, the first submission
                    // wins. No signature is looked at.
                    return Vec::new();
                };
                if stored.signature == signature {
                    // Client retry or forwarded ERROR: already batched.
                    return Vec::new();
                }
                // Same id, different signature, and the batched entry is
                // still unchecked. Two eager checks (cold path, only on
                // conflicting duplicates) resolve it: if the batched
                // entry is validly signed it keeps the id — a client
                // producing a second validly-signed payload under the
                // same id is equivocating, and the first submission
                // wins, exactly as under eager verification. Otherwise
                // the batched entry was a forged squatter: a valid
                // newcomer takes over the id and is batched too (the
                // forgery will be pruned by the aggregate check).
                let client = ComponentId::Client(txn.id.client);
                if self
                    .crypto
                    .verify(client, &stored.digest, &stored.signature)
                {
                    return Vec::new();
                }
                if !self.crypto.verify(client, &digest, &signature) {
                    return Vec::new();
                }
                *stored = BatchedWith { signature, digest };
            }
            Entry::Vacant(entry) => {
                entry.insert(SeenTxn::Batched);
                self.unverified
                    .insert(txn.id, BatchedWith { signature, digest });
                newly_seen = true;
            }
        }
        if newly_seen {
            // Stamp the id for the never-validated expiry (see
            // `pending_seen`): if its batch is lost before validation,
            // the id is reclaimed once the GC cutoff passes this stamp.
            self.pending_seen
                .entry(self.max_validated)
                .or_insert_with(|| Vec::with_capacity(self.config.workload.batch_size))
                .push(txn.id);
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
        let plan = match &self.lane_router {
            Some(router) => home_shard(&txn, router),
            None => ShardPlan::Unplanned,
        };
        let mut out = offered_actions;
        if let Some(batch) = self.batcher.push_planned(txn, digest, signature, now, plan) {
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

    /// How long the batcher lets a pending request wait (its timeout).
    #[must_use]
    pub fn batch_max_wait(&self) -> SimDuration {
        self.batcher.max_wait()
    }

    /// Releases every partially filled batch now, whatever its age. For
    /// drivers that decide the release instant themselves (the thread
    /// runtime cuts its parked requests on a wall-clock interval); the
    /// simulator releases through [`Self::poll_batcher`] only.
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
        let plan = signed.plan();
        let (batch, rejected) = signed.verify_and_prune(self.crypto.provider());
        if !rejected.is_empty() {
            self.rejected_txns.add(rejected.len() as u64);
            for (txn, forged_sig) in &rejected {
                // Release the id only if the forged signature still owns
                // it — a valid request that took over the entry in the
                // meantime keeps its duplicate suppression.
                if self.unverified.get(txn).map(|with| &with.signature) == Some(forged_sig) {
                    self.unverified.remove(txn);
                    self.seen_txns.remove(txn);
                }
            }
        }
        let Some(batch) = batch else {
            return Vec::new(); // nothing survived the signature check
        };
        // The survivors hold their ids under valid signatures from here
        // on; what they were batched with has no reader left.
        for txn in batch.iter() {
            self.unverified.remove(&txn.id);
        }
        let consensus_actions = self.ordering.submit_batch(batch, plan);
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
                    plan,
                    certificate,
                } => {
                    let step =
                        self.durable
                            .on_committed(view, seq, &batch, plan, certificate.as_ref());
                    out.extend(step.map(persist));
                    out.extend(self.on_committed(view, seq, batch, plan, certificate));
                }
                ConsensusAction::ViewInstalled { view, .. } => {
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
        self.unverified.clear();
        self.validated_txns.clear();
        self.pending_seen.clear();
        self.retransmit_view.clear();
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
                    plan: e.plan,
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
        plan: ShardPlan,
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
        // Baseline protocols (CFT / NoShim) produce no certificate; an
        // empty certificate stands in so the message flow stays identical
        // (executors and the verifier are configured with a quorum of 0).
        let certificate = certificate.unwrap_or_else(|| {
            Arc::new(CommitCertificate::new(
                view,
                seq,
                sbft_consensus::messages::batch_digest(&batch),
                vec![],
            ))
        });
        self.committed.insert(
            seq,
            CommittedBatch {
                view,
                batch,
                certificate,
                plan,
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
            plan: entry.plan,
            spawner: self.me,
            signature: self.crypto.sign(&signing),
        };
        // Plan-aware placement: a SingleHome tag pins this batch's
        // executors to its shard's home region (with deterministic
        // round-robin fallback); cross-home and untagged batches rotate.
        let plan = self.invoker.plan_placed(seq, count, entry.plan);
        self.executors_spawned.add(plan.requests.len() as u64);
        plan.requests
            .into_iter()
            .map(|request| Action::SpawnExecutor {
                request,
                execute: execute.clone(),
            })
            .collect()
    }

    /// When this node becomes the primary of a new view it re-spawns
    /// executors for every batch that committed but was never validated by
    /// the verifier (otherwise a view change could leave committed batches
    /// stranded without executors).
    fn on_view_installed(&mut self) -> Vec<Action> {
        if !self.is_primary() {
            return Vec::new();
        }
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
    /// An `ERROR`, `REPLACE` or `ACK` counts only under the verifier's
    /// signature over its subject; anything else is dropped unanswered.
    pub fn on_message_at(&mut self, msg: &ProtocolMessage, now: SimTime) -> Vec<Action> {
        match msg {
            ProtocolMessage::Error(err)
                if self.verifier_signed(err.signing_digest(), err.signature) =>
            {
                if self.is_primary() {
                    // The onus is on the primary to resolve the ERROR: order
                    // the carried request (missing transaction case) or
                    // re-spawn executors for the missing sequence number.
                    return match (&err.subject, &err.request) {
                        (RecoverySubject::Txn(_), Some(request)) => {
                            // The carried request joins the batch like any
                            // other; the aggregate check covers it.
                            let digest = ClientRequest::signing_digest(&request.txn);
                            self.order_transaction(
                                request.txn.clone(),
                                digest,
                                request.signature,
                                now,
                            )
                        }
                        (RecoverySubject::Seq(seq), _) => self.respawn(*seq),
                        _ => Vec::new(),
                    };
                }
                // Start the re-transmission timer Υ and forward the ERROR,
                // unchanged, to the primary.
                self.retransmit_view.insert(err.subject, self.view());
                vec![
                    Action::StartTimer {
                        timer: ProtocolTimer::Retransmit(err.subject),
                        duration: self.config.timers.retransmit_timeout,
                    },
                    Action::send(
                        self.component(),
                        Destination::Node(self.primary()),
                        ProtocolMessage::Error(err.clone()),
                    ),
                ]
            }
            ProtocolMessage::Ack(ack)
                if self.verifier_signed(ack.signing_digest(), ack.signature) =>
            {
                vec![Action::CancelTimer(ProtocolTimer::Retransmit(ack.subject))]
            }
            ProtocolMessage::Replace(replace)
                if self.verifier_signed(replace.signing_digest(), replace.signature) =>
            {
                let actions = self.ordering.request_view_change();
                self.translate(actions)
            }
            ProtocolMessage::BatchValidated(validated) => self.on_batch_validated(*validated),
            _ => Vec::new(),
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
            // Remember which transaction ids this batch retired so the
            // duplicate-suppression set can be truncated once the batch
            // leaves the retained checkpoint window.
            self.validated_txns
                .insert(validated.seq, entry.batch.txn_ids());
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
    /// interval, exactly like the verifier truncates its retry table:
    /// entries of batches at or below the previous
    /// checkpoint (one closed interval behind the latest one validation
    /// passed) are dropped. Duplicates inside the retained window are
    /// still suppressed; anything older is outside the protocol's retry
    /// contract (the verifier has dropped its stored `RESPONSE` for them
    /// in the same rhythm).
    fn gc_seen_txns(&mut self) {
        let interval = self.config.timers.checkpoint_interval;
        if interval == 0 {
            return;
        }
        let stable = (self.max_validated.0 / interval) * interval;
        let cutoff = SeqNum(stable.saturating_sub(interval));
        if cutoff <= self.seen_gc_floor {
            return;
        }
        self.seen_gc_floor = cutoff;
        let retained = self.validated_txns.split_off(&SeqNum(cutoff.0 + 1));
        let dropped = std::mem::replace(&mut self.validated_txns, retained);
        for txns in dropped.values() {
            for txn in txns {
                self.seen_txns.remove(txn);
            }
        }
        self.expire_never_validated(cutoff);
        if self.config.digest_proposals {
            // Body-cache retention rides the same checkpoint rhythm: keep
            // bodies for ids the node still tracks (suppression window,
            // retained validated batches, local commits, batcher lanes);
            // anything older can no longer appear in a fresh proposal, and
            // an unlucky drop just downgrades a cache hit to a fetch.
            let committed = self.committed.values();
            let mut protected = self
                .seen_txns
                .keys()
                .copied()
                .chain(self.validated_txns.values().flatten().copied())
                .chain(committed.flat_map(|e| e.batch.iter().map(|t| t.id)))
                .chain(self.batcher.pending_txn_ids());
            self.ordering.gc_bodies(&mut protected);
        }
    }

    /// Expires duplicate-suppression entries whose batch never committed
    /// here: every id stamped (in `pending_seen`) at or below the GC
    /// cutoff — i.e. batched at least two checkpoint intervals of
    /// validated progress ago — is reclaimed, *unless* a batch holding it
    /// has committed on this node in the meantime (the batch may yet
    /// validate or be re-spawned, and the regular truncation releases the
    /// id with it) or it still waits in a batcher lane (it is re-stamped
    /// and reconsidered at a later cutoff). What remains are the genuinely
    /// leaked ids: batched, then lost before commit — e.g. a proposal
    /// dropped across a view change without re-proposal — which
    /// previously accumulated forever. Each id costs one lookup; nothing
    /// is built over the batches in flight.
    fn expire_never_validated(&mut self, cutoff: SeqNum) {
        let expired_stamps = {
            let rest = self.pending_seen.split_off(&SeqNum(cutoff.0 + 1));
            std::mem::replace(&mut self.pending_seen, rest)
        };
        if expired_stamps.is_empty() {
            return;
        }
        let waiting: IdSet<TxnId> = self.batcher.pending_txn_ids().into_iter().collect();
        let mut restamped = Vec::new();
        for id in expired_stamps.into_values().flatten() {
            match self.seen_txns.get(&id) {
                // Released already, or accounted for by a committed batch.
                None | Some(SeenTxn::Committed) => {}
                Some(SeenTxn::Batched) if waiting.contains(&id) => restamped.push(id),
                // Its lane was released long ago, so nothing of it is
                // left in `unverified` either.
                Some(SeenTxn::Batched) => {
                    self.seen_txns.remove(&id);
                }
            }
        }
        if !restamped.is_empty() {
            self.pending_seen
                .entry(self.max_validated)
                .or_default()
                .extend(restamped);
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
                // Υ expired: it must be byzantine, replace it — unless the
                // primary has already been replaced since the ERROR arrived,
                // in which case the new primary gets a fresh chance.
                let started_in = self.retransmit_view.remove(&subject);
                if started_in == Some(self.view()) {
                    let actions = self.ordering.request_view_change();
                    self.translate(actions)
                } else {
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
    use crate::events::{envelopes, AckMessage, ErrorMessage, ReplaceMessage};
    use sbft_consensus::{CftReplica, NoShim};
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
        let nodes = (0..config.fault.n_r as u32)
            .map(|i| {
                let id = NodeId(i);
                let mut node =
                    ShimNode::pbft(id, config.clone(), provider.handle(ComponentId::Node(id)));
                node.register_metrics(&registry);
                node
            })
            .collect();
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

    /// Drives consensus messages among the shim nodes until quiescence,
    /// collecting every non-consensus action per node.
    fn run_consensus(
        shim: &mut Shim,
        origin: usize,
        actions: Vec<Action>,
    ) -> Vec<(NodeId, Action)> {
        let mut external = Vec::new();
        let mut queue: std::collections::VecDeque<(usize, usize, ConsensusMessage)> =
            std::collections::VecDeque::new();
        let n = shim.nodes.len();
        let push_actions =
            |origin: usize,
             actions: Vec<Action>,
             queue: &mut std::collections::VecDeque<(usize, usize, ConsensusMessage)>,
             external: &mut Vec<(NodeId, Action)>| {
                for a in actions {
                    match &a {
                        Action::Send(env) => match (&env.to, &env.msg) {
                            (Destination::AllNodes, ProtocolMessage::Consensus(msg)) => {
                                for to in 0..n {
                                    if to != origin {
                                        queue.push_back((origin, to, msg.clone()));
                                    }
                                }
                            }
                            (Destination::Node(to), ProtocolMessage::Consensus(msg)) => {
                                queue.push_back((origin, to.0 as usize, msg.clone()));
                            }
                            _ => external.push((NodeId(origin as u32), a.clone())),
                        },
                        _ => external.push((NodeId(origin as u32), a.clone())),
                    }
                }
            };
        push_actions(origin, actions, &mut queue, &mut external);
        while let Some((from, to, msg)) = queue.pop_front() {
            let acts = shim.nodes[to].on_consensus_message(NodeId(from as u32), msg);
            push_actions(to, acts, &mut queue, &mut external);
        }
        external
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
        let external = run_consensus(&mut shim, 0, a1);
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
        let proposed = a1
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some(pp.batch.clone()),
                _ => None,
            })
            .expect("primary broadcasts a PREPREPARE");
        let external = run_consensus(&mut shim, 0, a1);
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
        // The batch digest was computed once and is carried by the handle.
        assert_eq!(
            executes[0].batch.cached_digest(),
            Some(executes[0].certificate.batch_digest)
        );
    }

    #[test]
    fn spawned_execute_requests_verify_at_executors() {
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let _ = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let a1 = shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let external = run_consensus(&mut shim, 0, a1);
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
        let proposed = actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some(pp.batch.clone()),
                _ => None,
            })
            .expect("pruned batch is still proposed");
        assert_eq!(proposed.len(), 1, "the forged transaction was pruned");
        assert!(proposed.txn_ids().iter().all(|id| *id != forged_id));
        assert_eq!(shim.nodes[0].rejected_txns.get(), 1);
        // The forged id was released from duplicate suppression, so the
        // honest client can still get the same transaction ordered.
        let honest_retry = signed_request(&provider, 0, 0);
        let _ = shim.nodes[0].on_client_request(&honest_retry, SimTime::ZERO);
        let actions =
            shim.nodes[0].on_client_request(&signed_request(&provider, 2, 0), SimTime::ZERO);
        let reproposed = actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some(pp.batch.clone()),
                _ => None,
            })
            .expect("second batch proposed");
        assert!(reproposed.txn_ids().contains(&forged_id));
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
        let proposed = actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some(pp.batch.clone()),
                _ => None,
            })
            .expect("the genuine transaction is proposed");
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
        let proposed = actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some(pp.batch.clone()),
                _ => None,
            })
            .expect("batch proposed");
        assert_eq!(proposed.len(), 2);
        assert_eq!(proposed.txns()[0].ops, first_ops);
        assert_eq!(shim.nodes[0].rejected_txns.get(), 0, "nothing was pruned");
    }

    /// The batch of the `PREPREPARE` among `actions`.
    fn proposed_batch(actions: &[Action]) -> Option<Batch> {
        actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(ConsensusMessage::PrePrepare(pp))) => {
                    Some(pp.batch.clone())
                }
                _ => None,
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
        assert_eq!(
            node.unverified.get(&id).map(|with| with.signature),
            Some(first.signature)
        );
        let released = node.on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        assert_eq!(proposed_batch(&released).expect("released").len(), 2);
        // The batch passed the aggregate check: the 96-byte payloads are
        // gone, one byte per id is left.
        assert!(node.unverified.is_empty());
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched));

        // A second payload under the same id, validly signed; a forgery;
        // the retry. With nothing stored to compare against, none of them
        // can reach a signature check: finding the id is enough.
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
            assert!(node.unverified.is_empty(), "nothing was batched again");
            assert!(node.batcher.pending_txn_ids().is_empty());
        }
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched));
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
        assert_eq!(
            node.unverified.get(&id).map(|with| with.signature),
            Some(Signature::ZERO)
        );
        // A second forgery does not displace the first …
        let mut other_forgery = genuine.clone();
        other_forgery.signature.0[0] = 1;
        assert!(node
            .on_client_request(&other_forgery, SimTime::ZERO)
            .is_empty());
        assert_eq!(
            node.unverified.get(&id).map(|with| with.signature),
            Some(Signature::ZERO)
        );
        assert_eq!(node.batcher.pending_txn_ids(), vec![id]);
        // … the genuine request does, and waits in the lane beside it.
        assert!(node.on_client_request(&genuine, SimTime::ZERO).is_empty());
        assert_eq!(
            node.unverified.get(&id).map(|with| with.signature),
            Some(genuine.signature)
        );
        assert_eq!(node.batcher.pending_txn_ids(), vec![id, id]);
        // The release prunes the forgery and keeps the id suppressed.
        let released = node.on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let batch = proposed_batch(&released).expect("released");
        assert_eq!(batch.txn_ids(), vec![id, TxnId::new(ClientId(1), 0)]);
        assert_eq!(node.rejected_txns.get(), 1);
        assert!(node.unverified.is_empty());
        assert_eq!(node.seen_txns.get(&id), Some(&SeenTxn::Batched));
        assert!(node.on_client_request(&squat, SimTime::ZERO).is_empty());
        assert!(node.batcher.pending_txn_ids().is_empty());
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
        assert_eq!(node.unverified.len(), 1);
        let _ = node.on_client_request(&signed_request(&provider, 4, 0), SimTime::ZERO);
        assert!(node.unverified.is_empty());
        assert_eq!(node.seen_txns_len(), 1, "the forged id was released");

        // Orphaned proposals on a PBFT primary, expired in the checkpoint
        // rhythm: a payload only ever waits for its own lane's release.
        let mut primary = ShimNode::pbft(
            NodeId(0),
            config.clone(),
            provider.handle(ComponentId::Node(NodeId(0))),
        );
        for i in 0..40u64 {
            let _ = primary.on_client_request(&signed_request(&provider, 0, i), SimTime::ZERO);
            assert_eq!(primary.unverified.len(), usize::from(i % 2 == 0));
            let _ = primary.on_message(&ProtocolMessage::BatchValidated(BatchValidated {
                seq: SeqNum(i + 1),
                committed: 1,
                aborted: 0,
            }));
            assert!(primary.unverified.len() <= 1);
        }
        assert!(primary.seen_txns_len() < 40, "orphans were expired");

        // A crash restart forgets the lanes and the payloads with them.
        let _ = primary.on_client_request(&signed_request(&provider, 0, 40), SimTime::ZERO);
        assert_eq!(primary.unverified.len(), 1);
        primary.crash();
        let _ = primary.crash_restart();
        assert!(primary.unverified.is_empty());
        assert_eq!(primary.seen_txns_len(), 0);
    }

    #[test]
    fn a_suppressed_id_costs_a_small_bucket() {
        assert!(std::mem::size_of::<(TxnId, SeenTxn)>() <= 24);
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
            let _ = node.on_message(&ProtocolMessage::BatchValidated(BatchValidated {
                seq: SeqNum(i + 1),
                committed: 1,
                aborted: 0,
            }));
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
            let _ = node.on_message(&ProtocolMessage::BatchValidated(BatchValidated {
                seq: SeqNum(i + 1),
                committed: 1,
                aborted: 0,
            }));
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
            let validated = ProtocolMessage::BatchValidated(BatchValidated {
                seq: SeqNum(seq),
                committed: 1,
                aborted: 0,
            });
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
        config.workload.batch_size = 1;
        let provider = CryptoProvider::new(5);
        let registry = Arc::new(Registry::new());
        let mut node = single_cft_node(&config, &provider);
        node.register_metrics(&registry);
        let _ = node.on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        assert_eq!(registry.counter_value("shim.0.batcher.released_full"), 1);
        node.crash();
        let _ = node.crash_restart();
        assert_eq!(node.batch_max_wait(), BATCH_MAX_WAIT);
        let _ = node.on_client_request(&signed_request(&provider, 0, 1), SimTime::ZERO);
        assert_eq!(
            registry.counter_value("shim.0.batcher.released_full"),
            2,
            "the rebuilt batcher counts into the registry again"
        );
    }

    #[test]
    fn ordering_lanes_assemble_single_home_batches_and_tag_executes() {
        // KnownRwSets + 4 shards activates the ordering-time planner:
        // two single-op transactions homed on the same shard fill that
        // shard's lane, the released batch is proposed with a
        // SingleHome tag, and every spawned EXECUTE carries it.
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
        let mk = |client: u32, key: Key| {
            let txn = Transaction::new(
                TxnId::new(ClientId(client), 0),
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
        };
        // A foreign-shard transaction arrives in between: it must not
        // pollute the home lane.
        let a0 = shim.nodes[0].on_client_request(&mk(0, Key(1)), SimTime::ZERO);
        assert!(a0.is_empty());
        let a1 = shim.nodes[0].on_client_request(&mk(1, foreign), SimTime::ZERO);
        assert!(a1.is_empty(), "the foreign lane is not full yet");
        let actions = shim.nodes[0].on_client_request(&mk(2, second), SimTime::ZERO);
        let plan = actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some((pp.plan, pp.batch.clone())),
                _ => None,
            })
            .expect("the home lane releases a batch");
        assert_eq!(plan.0, sbft_types::ShardPlan::SingleHome(home));
        assert_eq!(plan.1.len(), 2, "only the two same-home transactions");
        // Run consensus; the primary's EXECUTE messages carry the tag.
        let external = run_consensus(&mut shim, 0, actions);
        let executes: Vec<_> = external
            .iter()
            .filter_map(|(_, a)| match a {
                Action::SpawnExecutor { execute, .. } => Some(execute.clone()),
                _ => None,
            })
            .collect();
        assert!(!executes.is_empty());
        for execute in &executes {
            assert_eq!(execute.plan, sbft_types::ShardPlan::SingleHome(home));
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
        let plan = actions
            .iter()
            .find_map(|a| match a.as_send().map(|e| &e.msg) {
                Some(ProtocolMessage::Consensus(sbft_consensus::ConsensusMessage::PrePrepare(
                    pp,
                ))) => Some(pp.plan),
                _ => None,
            })
            .expect("the cross lane releases a batch");
        assert_eq!(plan, sbft_types::ShardPlan::CrossHome);
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
        let provider = Arc::clone(&shim.provider);
        let _ = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let a1 = shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let external = run_consensus(&mut shim, 0, a1);
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

    #[test]
    fn error_from_verifier_starts_retransmit_timer_and_forwards() {
        let mut shim = make_shim(base_config());
        let err = ProtocolMessage::Error(ErrorMessage::signed(
            RecoverySubject::Seq(SeqNum(3)),
            None,
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
        let ack = ProtocolMessage::Ack(AckMessage::signed(
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
        let replace = ProtocolMessage::Replace(ReplaceMessage::signed(
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
        let err = ProtocolMessage::Error(ErrorMessage::signed(
            RecoverySubject::Seq(SeqNum(1)),
            None,
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
        let err = ProtocolMessage::Error(ErrorMessage::signed(
            RecoverySubject::Seq(SeqNum(1)),
            None,
            &verifier(&shim),
        ));
        let _ = shim.nodes[1].on_message(&err);
        // The primary is replaced before Υ expires (for another reason).
        let replace = ProtocolMessage::Replace(ReplaceMessage::signed(
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

    #[test]
    fn a_replace_without_the_verifiers_signature_on_its_subject_changes_no_view() {
        let mut shim = make_shim(base_config());
        let unsigned = ReplaceMessage {
            subject: RecoverySubject::Seq(SeqNum(1)),
            signature: Signature::ZERO,
        };
        let mut moved = ReplaceMessage::signed(RecoverySubject::Seq(SeqNum(2)), &verifier(&shim));
        moved.subject = RecoverySubject::Seq(SeqNum(1));
        let by_a_node = ReplaceMessage::signed(
            RecoverySubject::Seq(SeqNum(1)),
            &shim.provider.handle(ComponentId::Node(NodeId(2))),
        );
        for forged in [unsigned, moved, by_a_node] {
            let actions = shim.nodes[1].on_message(&ProtocolMessage::Replace(forged));
            assert!(actions.is_empty(), "{forged:?} acted on: {actions:?}");
        }
        // The verifier's own REPLACE still replaces the primary.
        let genuine = ReplaceMessage::signed(RecoverySubject::Seq(SeqNum(1)), &verifier(&shim));
        let actions = shim.nodes[1].on_message(&ProtocolMessage::Replace(genuine));
        assert!(actions.iter().any(|a| a.sends_kind("VIEWCHANGE")));
    }

    #[test]
    fn an_ack_signed_for_another_subject_leaves_the_retransmit_timer_armed() {
        let mut shim = make_shim(base_config());
        let (a, b) = (
            RecoverySubject::Seq(SeqNum(1)),
            RecoverySubject::Txn(TxnId::new(ClientId(4), 9)),
        );
        let err = ErrorMessage::signed(b, None, &verifier(&shim));
        let _ = shim.nodes[2].on_message(&ProtocolMessage::Error(err));
        let mut replayed = AckMessage::signed(a, &verifier(&shim));
        replayed.subject = b;
        assert!(shim.nodes[2]
            .on_message(&ProtocolMessage::Ack(replayed))
            .is_empty());
        // Υ for b is still armed: its expiry escalates.
        let actions = shim.nodes[2].on_timer(ProtocolTimer::Retransmit(b), SimTime::ZERO);
        assert!(actions.iter().any(|a| a.sends_kind("VIEWCHANGE")));
    }

    #[test]
    fn a_forged_error_arms_nothing_and_moves_no_primary() {
        let mut shim = make_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let verifier = verifier(&shim);
        // Sequence 1 commits and its executors are spawned.
        let _ = shim.nodes[0].on_client_request(&signed_request(&provider, 0, 0), SimTime::ZERO);
        let a1 = shim.nodes[0].on_client_request(&signed_request(&provider, 1, 0), SimTime::ZERO);
        let _ = run_consensus(&mut shim, 0, a1);
        // ERROR(k_max = 1) signed for another sequence number, and
        // ERROR(⟨T⟩_C) whose carried request was swapped under the
        // signature: two requests, enough to release a batch of two.
        let mut moved = ErrorMessage::signed(RecoverySubject::Seq(SeqNum(5)), None, &verifier);
        moved.subject = RecoverySubject::Seq(SeqNum(1));
        let swapped = |client: u32| {
            let mut err = ErrorMessage::signed(
                RecoverySubject::Txn(TxnId::new(ClientId(client), 0)),
                Some(Box::new(signed_request(&provider, client, 0))),
                &verifier,
            );
            err.request = Some(Box::new(signed_request(&provider, client + 10, 0)));
            err
        };
        for forged in [moved, swapped(2), swapped(3)] {
            let forged = ProtocolMessage::Error(forged);
            for node in [0, 2] {
                let actions = shim.nodes[node].on_message(&forged);
                assert!(
                    actions.is_empty(),
                    "node {node} acted on {forged:?}: {actions:?}"
                );
            }
        }
        // The verifier's own ERROR(k_max) makes the primary re-spawn.
        let genuine = ErrorMessage::signed(RecoverySubject::Seq(SeqNum(1)), None, &verifier);
        let actions = shim.nodes[0].on_message(&ProtocolMessage::Error(genuine));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SpawnExecutor { .. })));
    }

    #[test]
    fn planner_gates_spawning_for_conflicting_batches() {
        let mut config = SystemConfig::with_shim_size(4);
        config.conflict_handling = ConflictHandling::KnownRwSets;
        config.workload.batch_size = 1;
        let mut shim = make_shim(config);
        let provider = Arc::clone(&shim.provider);
        // Two conflicting single-transaction batches (both RMW key 7).
        let mk = |client: u32| {
            let txn = Transaction::new(
                TxnId::new(ClientId(client), 0),
                vec![Operation::ReadModifyWrite(Key(7), 1)],
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
        let a1 = shim.nodes[0].on_client_request(&mk(0), SimTime::ZERO);
        let ext1 = run_consensus(&mut shim, 0, a1);
        let spawns1 = ext1
            .iter()
            .filter(|(_, a)| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(spawns1, 3, "first batch spawns immediately");
        let a2 = shim.nodes[0].on_client_request(&mk(1), SimTime::ZERO);
        let ext2 = run_consensus(&mut shim, 0, a2);
        let spawns2 = ext2
            .iter()
            .filter(|(_, a)| matches!(a, Action::SpawnExecutor { .. }))
            .count();
        assert_eq!(
            spawns2, 0,
            "conflicting batch waits for the first to finish"
        );
        // The verifier validates batch 1; batch 2 is released.
        let actions = shim.nodes[0].on_message(&ProtocolMessage::BatchValidated(BatchValidated {
            seq: SeqNum(1),
            committed: 1,
            aborted: 0,
        }));
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
        let external = run_consensus(&mut shim, 0, a);
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

    /// Like [`run_consensus`] but messages to the nodes in `down` are
    /// dropped (they are crashed).
    fn run_consensus_partitioned(
        shim: &mut Shim,
        origin: usize,
        actions: Vec<Action>,
        down: &[usize],
    ) -> Vec<(NodeId, Action)> {
        let mut external = Vec::new();
        let mut queue: std::collections::VecDeque<(usize, usize, ConsensusMessage)> =
            std::collections::VecDeque::new();
        let n = shim.nodes.len();
        let push_actions =
            |origin: usize,
             actions: Vec<Action>,
             queue: &mut std::collections::VecDeque<(usize, usize, ConsensusMessage)>,
             external: &mut Vec<(NodeId, Action)>| {
                for a in actions {
                    match &a {
                        Action::Send(env) => match (&env.to, &env.msg) {
                            (Destination::AllNodes, ProtocolMessage::Consensus(msg)) => {
                                for to in 0..n {
                                    if to != origin {
                                        queue.push_back((origin, to, msg.clone()));
                                    }
                                }
                            }
                            (Destination::Node(to), ProtocolMessage::Consensus(msg)) => {
                                queue.push_back((origin, to.0 as usize, msg.clone()));
                            }
                            _ => external.push((NodeId(origin as u32), a.clone())),
                        },
                        _ => external.push((NodeId(origin as u32), a.clone())),
                    }
                }
            };
        push_actions(origin, actions, &mut queue, &mut external);
        while let Some((from, to, msg)) = queue.pop_front() {
            if down.contains(&to) {
                continue;
            }
            let acts = shim.nodes[to].on_consensus_message(NodeId(from as u32), msg);
            push_actions(to, acts, &mut queue, &mut external);
        }
        external
    }

    fn durable_config(snapshot_interval: u64) -> SystemConfig {
        let mut config = base_config();
        config.durability =
            sbft_types::DurabilityConfig::enabled().with_snapshot_interval(snapshot_interval);
        config
    }

    /// Commits one batch of two transactions through the whole shim and
    /// returns the external actions.
    fn commit_one_batch(
        shim: &mut Shim,
        client_base: u32,
        down: &[usize],
    ) -> Vec<(NodeId, Action)> {
        let provider = Arc::clone(&shim.provider);
        let _ = shim.nodes[0]
            .on_client_request(&signed_request(&provider, client_base, 0), SimTime::ZERO);
        let actions = shim.nodes[0].on_client_request(
            &signed_request(&provider, client_base + 1, 0),
            SimTime::ZERO,
        );
        run_consensus_partitioned(shim, 0, actions, down)
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
        run_consensus_partitioned(&mut shim, 3, restart, &[]);
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
        commit_one_batch(&mut shim, 2, &[3]);
        let restart = shim.nodes[3].crash_restart();
        assert_eq!(shim.nodes[3].durable.replay_batches.get(), 1);
        let external = run_consensus_partitioned(&mut shim, 3, restart, &[]);
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
    fn digest_mode_with_client_broadcast_commits_without_forwarding_or_fetching() {
        let (mut shim, registry) = make_digest_shim(base_config());
        let provider = Arc::clone(&shim.provider);
        let _ = broadcast_request(&mut shim, &signed_request(&provider, 0, 0));
        let actions = broadcast_request(&mut shim, &signed_request(&provider, 1, 0));
        assert!(
            actions.iter().any(|a| a.sends_kind("DIGEST-PREPREPARE")),
            "the primary proposes by digest, not by body"
        );
        let external = run_consensus(&mut shim, 0, actions);
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
        assert!(actions.iter().any(|a| a.sends_kind("DIGEST-PREPREPARE")));
        let external = run_consensus(&mut shim, 0, actions);
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
        assert!(actions.iter().any(|a| a.sends_kind("DIGEST-PREPREPARE")));
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
            let external = run_consensus(&mut shim, 0, actions);
            assert!(external
                .iter()
                .any(|(_, a)| matches!(a, Action::BatchCommitted { .. })));
            for node in &mut shim.nodes {
                let _ = node.on_message(&ProtocolMessage::BatchValidated(BatchValidated {
                    seq: SeqNum(i + 1),
                    committed: 1,
                    aborted: 0,
                }));
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
