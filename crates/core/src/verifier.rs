//! The trusted verifier `V`.
//!
//! The verifier is a lightweight wrapper around the on-premise data-store
//! (Section IV-D). It collects well-formed `VERIFY` messages from the
//! executors, waits for `f_E + 1` matching results, enforces the sequence
//! order the shim agreed on (`k_max` and the pending list `π`), runs the
//! concurrency-control check against storage, applies the writes, and
//! replies to the clients and the shim primary. It also implements:
//!
//! * the **flooding mitigation** of Section V-C (ignore further `VERIFY`
//!   messages once a request is matched — decided before the executor
//!   signature and the certificate are checked, so a flood costs the
//!   verifier no cryptography),
//! * the **request-suppression recovery** of Figure 4 (client retries are
//!   answered with a re-sent `RESPONSE`, an `ERROR(k_max)`, an
//!   `ERROR(⟨T⟩_C)` or a `REPLACE`, followed by an `ACK` once resolved),
//! * the **byzantine-abort detection** of Section VI-B for conflicting
//!   transactions with unknown read-write sets (abort timer per batch,
//!   `REPLACE` when fewer than `2f_E + 1` executors answered, abort when
//!   enough answered but results do not match).

use crate::events::{
    Action, BatchValidated, ClientRequest, Destination, NoticeMarker, ProtocolMessage,
    ProtocolTimer, RecoveryNotice, RecoverySubject, ResponseMessage,
};
use sbft_crypto::CryptoHandle;
use sbft_serverless::VerifyMessage;
use sbft_storage::{ConcurrencyChecker, VersionedStore};
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    checkpoint_gc_cutoff, ComponentId, ConflictHandling, ExecutorId, FaultParams, IdMap, Key,
    ReadWriteSet, SeqNum, ShardRouter, SimDuration, TxnId, TxnOutcome, ViewNumber,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-batch bookkeeping while `VERIFY` messages are being collected.
#[derive(Debug, Default)]
struct SeqState {
    verifies: BTreeMap<ExecutorId, Arc<VerifyMessage>>,
    matched: Option<Arc<VerifyMessage>>,
    abort_tagged: bool,
    timer_started: bool,
}

/// The answer the verifier gave a transaction: everything a re-sent
/// `RESPONSE` / `ABORT` is rebuilt from (signatures are deterministic, so
/// the rebuilt message equals the first one byte for byte).
#[derive(Clone, Copy, Debug)]
struct Answer {
    /// The batch the transaction was answered in.
    seq: SeqNum,
    outcome: TxnOutcome,
    /// The execution output (0 for an abort).
    output: u64,
}

/// What the verifier remembers about a transaction for client retries.
#[derive(Clone, Copy, Debug)]
struct RetryEntry {
    /// The batch the latest `VERIFY` naming the transaction ordered it in.
    located: SeqNum,
    /// The answer already sent, if any.
    answer: Option<Answer>,
}

/// Protocol parameters of the verifier, fixed at deployment time.
#[derive(Clone, Copy, Debug)]
pub struct VerifierConfig {
    /// Fault-tolerance parameters.
    pub params: FaultParams,
    /// Conflict-handling mode.
    pub conflict_handling: ConflictHandling,
    /// Abort-detection timer duration (Section VI-B).
    pub abort_timeout: SimDuration,
    /// Commit-certificate quorum `VERIFY` messages must carry (0 for the
    /// CFT / NoShim baselines, which cannot produce certificates).
    pub cert_quorum: usize,
    /// Total executors the shim spawns per committed batch (depends on
    /// the spawning mode, so it is supplied by the deployment rather than
    /// re-derived from `FaultParams`). Once this many `VERIFY`s arrived
    /// without a matching quorum, the batch can never match.
    pub spawned_per_batch: usize,
    /// Number of execution shards the key space is partitioned into: the
    /// verifier counts single-home batches over them.
    pub num_shards: usize,
    /// The shim's featherweight checkpoint interval (non-zero). The
    /// verifier truncates its retry table in the same rhythm (keeping one
    /// closed interval of history for client retries), so long runs stop
    /// growing without bound.
    pub checkpoint_interval: u64,
}

/// The verifier role state machine.
pub struct Verifier {
    crypto: CryptoHandle,
    /// The data-store every matched batch is checked against and applied
    /// to, one transaction at a time in batch order.
    store: Arc<VersionedStore>,
    /// Routes keys to shards for the single-home count.
    router: ShardRouter,
    config: VerifierConfig,

    /// Sequence number of the next request to be validated.
    kmax: SeqNum,
    /// The pending list `π` plus in-progress collection state.
    pending: BTreeMap<SeqNum, SeqState>,
    /// Which batch each transaction was ordered in (learned from `VERIFY`)
    /// and the answer already sent for it, kept to answer client
    /// re-transmissions. Truncated at the featherweight checkpoint
    /// interval (see [`VerifierConfig::checkpoint_interval`]).
    retry: IdMap<TxnId, RetryEntry>,
    /// Highest sequence number at or below which the retry table has been
    /// garbage-collected.
    gc_floor: SeqNum,
    /// Recovery subjects we broadcast an `ERROR`/`REPLACE` for and still
    /// owe an `ACK`.
    outstanding: BTreeSet<RecoverySubject>,
    /// The highest view of a commit certificate on a matched batch: every
    /// answer carries it, so clients follow the shim's primary. A lone
    /// `VERIFY` never moves it, and without certificates (`cert_quorum`
    /// 0, the baselines) it stays at view 0.
    view: ViewNumber,

    // Counters, registered as `verifier.<field>` by `register_metrics`.
    /// Transactions whose writes have been applied.
    committed_txns: Counter,
    /// Transactions aborted (stale reads or byzantine-abort detection).
    aborted_txns: Counter,
    /// `VERIFY` messages ignored by the flooding mitigation.
    ignored_verifies: Counter,
    /// Batches fully validated (commit or whole-batch abort).
    validated_batches: Counter,
    /// Whole batches aborted because no `f_E + 1` of the executors'
    /// digests matched (the Section VI-B divergence rule, both the
    /// count-triggered and the timer-triggered form).
    divergent_aborts: Counter,
    /// Validated batches whose entire observed footprint lived on one
    /// shard. The complement over `validated_batches` is the cross-shard
    /// coordination rate.
    single_home_batches: Counter,
}

impl Verifier {
    /// Creates the verifier.
    #[must_use]
    pub fn new(crypto: CryptoHandle, store: Arc<VersionedStore>, config: VerifierConfig) -> Self {
        Verifier {
            crypto,
            store,
            router: ShardRouter::new(config.num_shards),
            config,
            kmax: SeqNum(1),
            pending: BTreeMap::new(),
            retry: IdMap::default(),
            gc_floor: SeqNum(0),
            outstanding: BTreeSet::new(),
            view: ViewNumber(0),
            committed_txns: Counter::new(),
            aborted_txns: Counter::new(),
            ignored_verifies: Counter::new(),
            validated_batches: Counter::new(),
            divergent_aborts: Counter::new(),
            single_home_batches: Counter::new(),
        }
    }

    /// Re-homes the verifier's counters into `registry` under
    /// `verifier.*`. Called once by the system builder.
    pub fn register_metrics(&mut self, registry: &Registry) {
        self.committed_txns = registry.counter("verifier.committed_txns");
        self.aborted_txns = registry.counter("verifier.aborted_txns");
        self.ignored_verifies = registry.counter("verifier.ignored_verifies");
        self.validated_batches = registry.counter("verifier.validated_batches");
        self.divergent_aborts = registry.counter("verifier.divergent_aborts");
        self.single_home_batches = registry.counter("verifier.single_home_batches");
    }

    /// Sequence number of the next batch the verifier will validate.
    #[must_use]
    pub fn kmax(&self) -> SeqNum {
        self.kmax
    }

    fn validate_reads(&self) -> bool {
        !matches!(
            self.config.conflict_handling,
            ConflictHandling::NonConflicting
        )
    }

    fn me(&self) -> ComponentId {
        ComponentId::Verifier
    }

    // ---- VERIFY handling ---------------------------------------------------

    /// Handles a `VERIFY` message from an executor (Figure 3, lines 21–29).
    /// Adapter over the buffer-taking path [`Self::on_message_into`] runs.
    pub fn on_verify(&mut self, msg: &VerifyMessage) -> Vec<Action> {
        let mut out = Vec::new();
        self.verify_into(&Arc::new(msg.clone()), &mut out);
        out
    }

    fn verify_into(&mut self, msg: &Arc<VerifyMessage>, out: &mut Vec<Action>) {
        // The flooding mitigation of Section V-C comes first, and costs a
        // flooder's message no cryptography: already validated requests,
        // already matched batches and repeats of an executor we hold a
        // VERIFY from are ignored on sight.
        let collecting = self.pending.get(&msg.seq);
        if msg.seq < self.kmax
            || collecting.is_some_and(|state| {
                state.matched.is_some() || state.verifies.contains_key(&msg.executor)
            })
        {
            self.ignored_verifies.inc();
            return;
        }
        // Well-formedness: a certificate for this batch, the executor's
        // signature, the certificate's quorum, and results that hash to
        // the signed digest — else a byzantine executor could sign an
        // honest digest over altered writes and have them applied once
        // honest VERIFYs complete the quorum.
        if msg.certificate.seq != msg.seq || msg.certificate.batch_digest != msg.batch_digest {
            return;
        }
        if !self.crypto.verify(
            ComponentId::Executor(msg.executor),
            &msg.result_digest,
            &msg.signature,
        ) {
            return;
        }
        if self.config.cert_quorum > 0
            && msg
                .certificate
                .verify(
                    self.crypto.provider().key_store(),
                    self.config.cert_quorum,
                    self.config.params.n_r,
                )
                .is_err()
        {
            return;
        }
        if VerifyMessage::digest_of_results(msg.seq, &msg.results) != msg.result_digest {
            return;
        }

        let quorum = self.config.params.verify_quorum();
        let spawned_per_batch = self.config.spawned_per_batch;
        let abort_timeout = self.config.abort_timeout;
        let track_aborts = matches!(
            self.config.conflict_handling,
            ConflictHandling::UnknownRwSets
        );
        let state = self.pending.entry(msg.seq).or_default();
        state.verifies.insert(msg.executor, Arc::clone(msg));

        // Start the abort-detection timer on the first VERIFY for this
        // batch (only needed when conflicts with unknown rw-sets are
        // possible, Section VI-B).
        if track_aborts && !state.timer_started {
            state.timer_started = true;
            out.push(Action::StartTimer {
                timer: ProtocolTimer::VerifierAbort(msg.seq),
                duration: abort_timeout,
            });
        }

        // Record where each transaction lives for client-retry handling.
        for r in msg.results.iter() {
            self.retry
                .entry(r.txn)
                .and_modify(|e| e.located = msg.seq)
                .or_insert(RetryEntry {
                    located: msg.seq,
                    answer: None,
                });
        }

        // Count matching results.
        let state = self.pending.get_mut(&msg.seq).expect("state exists");
        let matching = state
            .verifies
            .values()
            .filter(|v| v.result_digest == msg.result_digest)
            .count();
        if matching >= quorum {
            state.matched = Some(Arc::clone(msg));
            if self.config.cert_quorum > 0 {
                self.view = self.view.max(msg.certificate.view);
            }
            if state.timer_started {
                out.push(Action::CancelTimer(ProtocolTimer::VerifierAbort(msg.seq)));
            }
            self.advance_kmax(out);
        } else if state.verifies.len() >= spawned_per_batch {
            // Every spawned executor has answered and no digest reached
            // the f_E + 1 quorum: the batch can never match (executors of
            // one batch observed interleaved storage states, or byzantine
            // executors diverged). Abort it deterministically — the
            // count-triggered form of the Section VI-B divergence rule —
            // so k_max never blocks behind an unmatchable batch.
            let best = state
                .verifies
                .values()
                .map(|candidate| {
                    state
                        .verifies
                        .values()
                        .filter(|v| v.result_digest == candidate.result_digest)
                        .count()
                })
                .max()
                .unwrap_or(0);
            if best < quorum {
                state.abort_tagged = true;
                if state.timer_started {
                    out.push(Action::CancelTimer(ProtocolTimer::VerifierAbort(msg.seq)));
                }
                self.advance_kmax(out);
            }
        }
    }

    /// Validates every batch at the head of the order that is matched (or
    /// abort-tagged), advancing `k_max` (Figure 3, lines 24–29).
    fn advance_kmax(&mut self, out: &mut Vec<Action>) {
        while let Some(state) = self.pending.get(&self.kmax) {
            if state.matched.is_none() && !state.abort_tagged {
                break;
            }
            let seq = self.kmax;
            let state = self.pending.remove(&seq).expect("present");
            if let Some(matched) = &state.matched {
                self.apply_batch(seq, matched, out);
            } else {
                self.abort_batch(seq, &state, out);
            }
            self.kmax = self.kmax.next();
        }
        self.gc_retry_maps();
    }

    /// Truncates the client-retry table in the rhythm of the shim's
    /// featherweight checkpoints. Entries for batches at or below the
    /// previous checkpoint (one closed interval behind the latest one
    /// `k_max` passed) are dropped: late duplicate requests inside the
    /// retained window are still answered with the stored `RESPONSE`,
    /// while anything older falls back to the `ERROR(⟨T⟩_C)` path — the
    /// primary recognises the duplicate and drops it.
    fn gc_retry_maps(&mut self) {
        let validated = SeqNum(self.kmax.0 - 1);
        let cutoff = checkpoint_gc_cutoff(validated, self.config.checkpoint_interval);
        if cutoff <= self.gc_floor {
            return;
        }
        self.gc_floor = cutoff;
        self.retry.retain(|_, entry| entry.located > cutoff);
    }

    /// Records `answer` for client retries and returns the message that
    /// carries it to the client.
    fn answer(&mut self, txn: TxnId, answer: Answer) -> ProtocolMessage {
        self.retry
            .entry(txn)
            .or_insert(RetryEntry {
                located: answer.seq,
                answer: None,
            })
            .answer = Some(answer);
        self.answer_message(txn, answer)
    }

    /// The `RESPONSE` or `ABORT` carrying `answer` (first send and every
    /// re-send build it here), stamped with the verifier's current view:
    /// the view is not stored per answer, so a re-send may name a later
    /// one than the first send did.
    fn answer_message(&self, txn: TxnId, answer: Answer) -> ProtocolMessage {
        let Answer {
            seq,
            outcome,
            output,
        } = answer;
        ProtocolMessage::answer(ResponseMessage::signed(
            txn,
            seq,
            outcome,
            output,
            self.view,
            &self.crypto,
        ))
    }

    /// Applies a matched batch: its `ccheck` work is announced first (as
    /// [`Action::Ccheck`]) so CPU-modelling runtimes can charge it to the
    /// apply station before the responses leave. Then every transaction
    /// runs [`ConcurrencyChecker::check_and_apply`] in batch order on the
    /// verifier's own thread and is answered ([`Self::answer_batch`]).
    fn apply_batch(&mut self, seq: SeqNum, matched: &VerifyMessage, actions: &mut Vec<Action>) {
        // One answer per transaction, the announcement and the notice to
        // the nodes: reserved once instead of grown push by push.
        actions.reserve(matched.results.len() + 3);
        // A batch is single-home when every key its executors observed
        // lives on the first key's shard (a single pass over the keys, no
        // sets, no allocation). This only counts: every batch is checked
        // and applied the same way.
        let router = self.router;
        let mut keys = matched.results.iter().flat_map(|r| keys_of(&r.rwset));
        let single_home = keys.next().is_none_or(|first| {
            let home = router.shard_of(first);
            matched
                .results
                .iter()
                .all(|result| router.all_on(home, keys_of(&result.rwset)))
        });
        if single_home {
            self.single_home_batches.inc();
        }
        actions.push(Action::Ccheck {
            accesses: matched
                .results
                .iter()
                .map(|result| result.rwset.len() as u32)
                .sum(),
        });
        let store = Arc::clone(&self.store);
        let validate_reads = self.validate_reads();
        let outputs = matched.results.iter().map(|result| {
            let applied =
                ConcurrencyChecker::check_and_apply(&store, &result.rwset, validate_reads)
                    .is_applied();
            (result.txn, applied.then_some(result.output))
        });
        self.answer_batch(seq, outputs, actions);
    }

    /// Aborts a whole batch (byzantine-abort detection, Section VI-B).
    fn abort_batch(&mut self, seq: SeqNum, state: &SeqState, actions: &mut Vec<Action>) {
        // Any received VERIFY tells us which transactions (and clients) the
        // batch contains.
        let Some(sample) = state.verifies.values().next() else {
            return;
        };
        self.divergent_aborts.inc();
        let outputs = sample.results.iter().map(|result| (result.txn, None));
        self.answer_batch(seq, outputs, actions);
    }

    /// Answers every transaction of validated batch `seq` in batch order
    /// — `Some(output)` commits it, `None` aborts it — each answer followed
    /// by the `ACK` its transaction may be owed, then tells the nodes the
    /// batch is validated and acknowledges the batch itself.
    fn answer_batch(
        &mut self,
        seq: SeqNum,
        outputs: impl Iterator<Item = (TxnId, Option<u64>)>,
        actions: &mut Vec<Action>,
    ) {
        let mut committed = 0u32;
        let mut aborted = 0u32;
        for (txn, output) in outputs {
            let answer = match output {
                Some(output) => {
                    committed += 1;
                    self.committed_txns.inc();
                    Answer {
                        seq,
                        outcome: TxnOutcome::Committed,
                        output,
                    }
                }
                None => {
                    aborted += 1;
                    self.aborted_txns.inc();
                    Answer {
                        seq,
                        outcome: TxnOutcome::Aborted,
                        output: 0,
                    }
                }
            };
            let msg = self.answer(txn, answer);
            actions.push(Action::send(
                self.me(),
                Destination::Client(txn.client),
                msg,
            ));
            self.resolve_subject(RecoverySubject::Txn(txn), actions);
        }
        self.validated_batches.inc();
        actions.push(Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::BatchValidated(BatchValidated::signed(
                seq,
                committed,
                aborted,
                &self.crypto,
            )),
        ));
        self.resolve_subject(RecoverySubject::Seq(seq), actions);
    }

    /// Broadcasts an `ACK` if the subject had an outstanding `ERROR`.
    fn resolve_subject(&mut self, subject: RecoverySubject, out: &mut Vec<Action>) {
        if self.outstanding.remove(&subject) {
            out.push(self.notice(NoticeMarker::Ack, subject));
        }
    }

    /// Broadcasts the `ERROR` or `REPLACE` `marker` about `subject`, which
    /// owes an `ACK` from now on.
    fn raise(&mut self, marker: NoticeMarker, subject: RecoverySubject) -> Vec<Action> {
        self.outstanding.insert(subject);
        vec![self.notice(marker, subject)]
    }

    /// The recovery notice `marker` about `subject`, to every shim node.
    fn notice(&self, marker: NoticeMarker, subject: RecoverySubject) -> Action {
        Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::Notice(RecoveryNotice::signed(marker, subject, &self.crypto)),
        )
    }

    // ---- abort-detection timer ----------------------------------------------

    /// Handles the expiry of the abort-detection timer for `seq`
    /// (Section VI-B, *Verifier Abort Detection*).
    fn on_abort_timeout(&mut self, seq: SeqNum) -> Vec<Action> {
        let blame_threshold = self.config.params.verify_blame_threshold();
        let Some(state) = self.pending.get_mut(&seq) else {
            return Vec::new(); // already validated
        };
        if state.matched.is_some() {
            return Vec::new();
        }
        if state.verifies.len() < blame_threshold {
            // Fewer than 2f_E + 1 executors answered: conservatively blame
            // the primary and ask the shim to replace it.
            return self.raise(NoticeMarker::Replace, RecoverySubject::Seq(seq));
        }
        // Enough executors answered but their results conflict: the
        // transaction(s) must be aborted. If this is the next batch in
        // order we abort immediately, otherwise we tag it in π.
        state.abort_tagged = true;
        let mut out = Vec::new();
        self.advance_kmax(&mut out);
        out
    }

    // ---- client re-transmissions ----------------------------------------------

    /// Handles a client request re-transmitted directly to the verifier
    /// (Figure 4, verifier role).
    pub fn on_client_request(&mut self, req: &ClientRequest) -> Vec<Action> {
        let digest = ClientRequest::signing_digest(&req.txn);
        if !self.crypto.verify(
            ComponentId::Client(req.txn.id.client),
            &digest,
            &req.signature,
        ) {
            return Vec::new();
        }
        let txn = req.txn.id;
        let entry = self.retry.get(&txn).copied();
        // (i) Already answered: re-send the response.
        if let Some(answer) = entry.and_then(|e| e.answer) {
            return vec![Action::send(
                self.me(),
                Destination::Client(txn.client),
                self.answer_message(txn, answer),
            )];
        }
        match entry {
            Some(RetryEntry { located, .. }) => {
                let matched = self
                    .pending
                    .get(&located)
                    .is_some_and(|state| state.matched.is_some());
                if matched {
                    // (ii) The request sits in π waiting for k_max: tell the
                    // shim which sequence number is missing.
                    self.raise(NoticeMarker::Error(None), RecoverySubject::Seq(self.kmax))
                } else {
                    // (iii) Some VERIFY messages arrived but not f_E + 1
                    // matching ones: only a byzantine primary can cause
                    // this, ask for its replacement.
                    self.raise(NoticeMarker::Replace, RecoverySubject::Txn(txn))
                }
            }
            None => {
                // No VERIFY message mentions this transaction: the shim may
                // never have ordered it. The ERROR carries ⟨T⟩_C so the
                // primary can order it (Figure 4, line 12).
                let request = Some(Box::new(req.clone()));
                self.raise(NoticeMarker::Error(request), RecoverySubject::Txn(txn))
            }
        }
    }

    /// Entry point for all messages addressed to the verifier: appends
    /// the resulting actions to `out`, a buffer the caller reuses across
    /// messages (a quorum-completing `VERIFY` answers a whole batch).
    pub fn on_message_into(&mut self, msg: &ProtocolMessage, out: &mut Vec<Action>) {
        match msg {
            ProtocolMessage::Verify(v) => self.verify_into(v, out),
            ProtocolMessage::ClientRequest(r) => out.extend(self.on_client_request(r)),
            _ => {}
        }
    }

    /// [`Self::on_message_into`] into a fresh list.
    pub fn on_message(&mut self, msg: &ProtocolMessage) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_message_into(msg, &mut out);
        out
    }

    /// Entry point for verifier timers.
    pub fn on_timer(&mut self, timer: ProtocolTimer) -> Vec<Action> {
        match timer {
            ProtocolTimer::VerifierAbort(seq) => self.on_abort_timeout(seq),
            _ => Vec::new(),
        }
    }
}

/// Every key a read-write set touches: its reads, then its writes.
fn keys_of(rwset: &ReadWriteSet) -> impl Iterator<Item = Key> + '_ {
    let reads = rwset.reads.iter().map(|(k, _)| *k);
    reads.chain(rwset.writes.iter().map(|(k, _)| *k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::certificate::commit_digest;
    use sbft_crypto::{CommitCertificate, CryptoProvider};
    use sbft_storage::YcsbTable;
    use sbft_types::{
        Batch, ClientId, Digest, Key, NodeId, Operation, ReadWriteSet, ShardingConfig, Transaction,
        TxnResult, Value, Version, ViewNumber,
    };

    struct Fixture {
        provider: Arc<CryptoProvider>,
        store: Arc<VersionedStore>,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                provider: CryptoProvider::new(5),
                store: YcsbTable::populate(100).store().clone(),
            }
        }

        fn verifier(&self, conflict: ConflictHandling) -> Verifier {
            self.verifier_sharded(conflict, ShardingConfig::default())
        }

        fn verifier_sharded(
            &self,
            conflict: ConflictHandling,
            sharding: ShardingConfig,
        ) -> Verifier {
            // Primary-only spawning: n_e executors per batch, or 3f_E + 1
            // when conflicting transactions have unknown rw-sets.
            let params = FaultParams::for_shim_size(4);
            let spawned = match conflict {
                ConflictHandling::UnknownRwSets => params.n_e.max(params.executors_for_conflicts()),
                _ => params.n_e,
            };
            Verifier::new(
                self.provider.handle(ComponentId::Verifier),
                Arc::clone(&self.store),
                VerifierConfig {
                    params,
                    conflict_handling: conflict,
                    abort_timeout: SimDuration::from_millis(100),
                    cert_quorum: 3,
                    spawned_per_batch: spawned,
                    num_shards: sharding.num_shards,
                    checkpoint_interval: 4,
                },
            )
        }

        /// A valid commit certificate for `digest` at `seq` in `view`.
        fn certificate(
            &self,
            view: u64,
            seq: u64,
            digest: Digest,
        ) -> std::sync::Arc<CommitCertificate> {
            let cd = commit_digest(ViewNumber(view), SeqNum(seq), &digest);
            let entries = (0..3u32)
                .map(|n| {
                    let node = self.provider.handle(ComponentId::Node(NodeId(n)));
                    (NodeId(n), node.sign(&cd))
                })
                .collect();
            std::sync::Arc::new(CommitCertificate::new(
                ViewNumber(view),
                SeqNum(seq),
                digest,
                entries,
            ))
        }

        /// Builds a VERIFY message from executor `executor` for batch `seq`
        /// containing a single committed write of `value` to key 1 read at
        /// `read_version`.
        fn verify_msg(
            &self,
            executor: u64,
            seq: u64,
            client: u32,
            value: u64,
            read_version: u64,
        ) -> VerifyMessage {
            let txn_id = TxnId::new(ClientId(client), seq);
            let mut rwset = ReadWriteSet::new();
            rwset.record_read(Key(1), Version(read_version));
            rwset.record_write(Key(2), Value::new(value));
            let results = vec![TxnResult {
                txn: txn_id,
                output: value,
                rwset,
            }];
            self.verify_msg_with_results(executor, seq, results)
        }

        /// Builds a VERIFY message carrying an arbitrary result list.
        fn verify_msg_with_results(
            &self,
            executor: u64,
            seq: u64,
            results: Vec<TxnResult>,
        ) -> VerifyMessage {
            let digest = Digest::from_bytes([seq as u8; 32]);
            let result_digest = VerifyMessage::digest_of_results(SeqNum(seq), &results);
            let handle = self
                .provider
                .handle(ComponentId::Executor(ExecutorId(executor)));
            let batch = Batch::single(Transaction::new(
                results[0].txn,
                vec![Operation::Read(Key(1))],
            ));
            VerifyMessage {
                executor: ExecutorId(executor),
                view: ViewNumber(0),
                seq: SeqNum(seq),
                batch_id: batch.id(),
                batch_digest: digest,
                results: results.into(),
                result_digest,
                certificate: self.certificate(0, seq, digest),
                signature: handle.sign(&result_digest),
            }
        }

        /// Like [`Self::verify_msg`], certified in `view`.
        fn verify_msg_in_view(
            &self,
            executor: u64,
            seq: u64,
            client: u32,
            view: u64,
        ) -> VerifyMessage {
            let mut msg = self.verify_msg(executor, seq, client, 42, 1);
            msg.certificate = self.certificate(view, seq, msg.batch_digest);
            msg
        }
    }

    fn response_kinds(actions: &[Action]) -> Vec<&'static str> {
        crate::events::envelopes(actions)
            .iter()
            .map(|e| e.msg.kind())
            .collect()
    }

    #[test]
    fn two_matching_verifies_validate_and_respond() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let m1 = fx.verify_msg(1, 1, 0, 42, 1);
        let m2 = fx.verify_msg(2, 1, 0, 42, 1);
        assert!(v.on_verify(&m1).is_empty(), "one VERIFY is not enough");
        let actions = v.on_verify(&m2);
        let kinds = response_kinds(&actions);
        assert!(kinds.contains(&"RESPONSE"));
        assert!(kinds.contains(&"BATCH-VALIDATED"));
        assert_eq!(v.committed_txns.get(), 1);
        assert_eq!(v.kmax(), SeqNum(2));
        // The write was applied to storage.
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn mismatching_results_do_not_reach_quorum() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let honest = fx.verify_msg(1, 1, 0, 42, 1);
        let lying = fx.verify_msg(2, 1, 0, 999, 1);
        assert!(v.on_verify(&honest).is_empty());
        assert!(v.on_verify(&lying).is_empty());
        assert_eq!(v.committed_txns.get(), 0);
        // A third executor agreeing with the honest one resolves it.
        let honest2 = fx.verify_msg(3, 1, 0, 42, 1);
        let actions = v.on_verify(&honest2);
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn forged_results_under_an_honest_digest_are_dropped() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let original = fx.store.get(Key(2));
        let honest = fx.verify_msg(1, 1, 0, 42, 1);
        // Executor 2 signs the honest digest over a write of 999.
        let mut forged = fx.verify_msg(2, 1, 0, 999, 1);
        forged.result_digest = honest.result_digest;
        forged.signature = fx
            .provider
            .handle(ComponentId::Executor(ExecutorId(2)))
            .sign(&honest.result_digest);
        assert!(v.on_verify(&honest).is_empty());
        assert!(v.on_verify(&forged).is_empty());
        assert!(v.pending[&SeqNum(1)].matched.is_none());
        assert_eq!(v.kmax(), SeqNum(1));
        assert_eq!(fx.store.get(Key(2)), original);
        // A second honest executor completes the quorum.
        let actions = v.on_verify(&fx.verify_msg(3, 1, 0, 42, 1));
        assert!(response_kinds(&actions).contains(&"BATCH-VALIDATED"));
        assert_eq!(v.committed_txns.get(), 1);
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn a_certificate_for_another_batch_is_dropped() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let mut other = fx.verify_msg(1, 1, 0, 42, 1);
        other.certificate = fx.certificate(0, 2, Digest::from_bytes([2; 32]));
        let _ = v.on_verify(&other);
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        assert_eq!(v.committed_txns.get(), 0);
        assert_eq!(v.pending[&SeqNum(1)].verifies.len(), 1);
    }

    #[test]
    fn out_of_order_batches_wait_in_pi() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        // Batch 2 matches first but must wait for batch 1.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 1, 7, 1));
        let actions = v.on_verify(&fx.verify_msg(2, 2, 1, 7, 1));
        assert!(
            response_kinds(&actions).is_empty(),
            "batch 2 must wait for batch 1"
        );
        assert_eq!(v.kmax(), SeqNum(1));
        assert_eq!(v.pending.len(), 1);
        // Batch 1 arrives and both validate in order.
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 5, 1));
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 5, 1));
        assert_eq!(v.kmax(), SeqNum(3));
        let kinds = response_kinds(&actions);
        assert_eq!(kinds.iter().filter(|k| **k == "RESPONSE").count(), 2);
        assert_eq!(v.validated_batches.get(), 2);
    }

    #[test]
    fn flooding_duplicates_are_ignored() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let m1 = fx.verify_msg(1, 1, 0, 42, 1);
        let _ = v.on_verify(&m1);
        // The same executor floods the verifier with copies.
        let _ = v.on_verify(&m1);
        let _ = v.on_verify(&m1);
        assert_eq!(v.ignored_verifies.get(), 2);
        // Match the batch; further VERIFY messages for it are ignored too.
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 42, 1));
        assert!(v.ignored_verifies.get() >= 3);
        assert_eq!(
            v.committed_txns.get(),
            1,
            "flooding does not double-apply writes"
        );
    }

    #[test]
    fn a_burst_of_stale_or_repeated_verifies_costs_no_cryptography() {
        // A message with a void signature and an empty certificate is
        // dropped *uncounted* where well-formedness is checked (the two
        // tests below); being counted as ignored instead shows the
        // flooding mitigation answered first — no executor signature, no
        // four-signature certificate verified per flooded message.
        let void = |mut m: VerifyMessage| {
            m.signature = sbft_types::Signature::ZERO;
            Arc::make_mut(&mut m.certificate).entries.clear();
            m
        };
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        assert_eq!((v.kmax(), v.ignored_verifies.get()), (SeqNum(2), 0));
        // Stale: batch 1 is validated.
        for executor in 10..60 {
            assert!(v
                .on_verify(&void(fx.verify_msg(executor, 1, 0, 42, 1)))
                .is_empty());
        }
        assert_eq!(v.ignored_verifies.get(), 50);
        // Matched but waiting in π behind batch 2: batch 3.
        let _ = v.on_verify(&fx.verify_msg(1, 3, 2, 9, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 3, 2, 9, 1));
        for executor in 10..60 {
            let _ = v.on_verify(&void(fx.verify_msg(executor, 3, 2, 9, 1)));
        }
        assert_eq!(v.ignored_verifies.get(), 100);
        // Repeats of an executor batch 2 already holds a VERIFY from.
        let _ = v.on_verify(&fx.verify_msg(3, 2, 1, 7, 1));
        for _ in 0..50 {
            let _ = v.on_verify(&void(fx.verify_msg(3, 2, 1, 7, 1)));
        }
        assert_eq!(v.ignored_verifies.get(), 150);
        // A void message that is neither still reaches the checks: dropped,
        // uncounted, unstored.
        assert!(v.on_verify(&void(fx.verify_msg(4, 2, 1, 7, 1))).is_empty());
        assert_eq!(v.ignored_verifies.get(), 150);
        assert_eq!(v.pending[&SeqNum(2)].verifies.len(), 1);
        // The honest flow is untouched by the burst.
        let actions = v.on_verify(&fx.verify_msg(5, 2, 1, 7, 1));
        assert_eq!(v.kmax(), SeqNum(4));
        assert_eq!(v.committed_txns.get(), 3);
        assert!(response_kinds(&actions).contains(&"BATCH-VALIDATED"));
    }

    #[test]
    fn forged_executor_signature_rejected() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        m.signature = sbft_types::Signature::ZERO;
        assert!(v.on_verify(&m).is_empty());
        assert_eq!(v.pending.len(), 0, "rejected messages are not stored");
    }

    #[test]
    fn bad_certificate_rejected() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m.certificate)
            .entries
            .truncate(1);
        assert!(v.on_verify(&m).is_empty());
    }

    #[test]
    fn stale_reads_abort_the_transaction_when_conflicts_tracked() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // The executors read key 1 at version 1, but storage has moved on.
        fx.store.put(Key(1), Value::new(123));
        let m1 = fx.verify_msg(1, 1, 0, 42, 1);
        let _ = v.on_verify(&m1);
        let actions = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        let kinds = response_kinds(&actions);
        assert!(kinds.contains(&"ABORT"));
        assert_eq!(v.aborted_txns.get(), 1);
        assert_eq!(v.committed_txns.get(), 0);
        // Key 2 was not written.
        assert_ne!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn abort_timer_starts_only_in_unknown_rwset_mode() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        let actions = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::StartTimer {
                timer: ProtocolTimer::VerifierAbort(_),
                ..
            }
        )));
        let mut v2 = fx.verifier(ConflictHandling::NonConflicting);
        let actions = v2.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        assert!(!actions.iter().any(|a| matches!(
            a,
            Action::StartTimer {
                timer: ProtocolTimer::VerifierAbort(_),
                ..
            }
        )));
    }

    #[test]
    fn abort_timeout_with_few_verifies_blames_the_primary() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // Only one executor answered (< 2f_E + 1 = 3).
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        let actions = v.on_abort_timeout(SeqNum(1));
        assert!(actions.iter().any(|a| a.sends_kind("REPLACE")));
        assert_eq!(
            v.aborted_txns.get(),
            0,
            "blaming the primary does not abort yet"
        );
    }

    #[test]
    fn abort_timeout_with_enough_but_divergent_verifies_aborts() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // 3 executors answered (≥ 2f_E + 1) but no two match.
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        let actions = v.on_abort_timeout(SeqNum(1));
        assert!(actions.iter().any(|a| a.sends_kind("ABORT")));
        assert_eq!(v.aborted_txns.get(), 1);
        assert_eq!(v.divergent_aborts.get(), 1);
        assert_eq!(
            v.kmax(),
            SeqNum(2),
            "the aborted batch no longer blocks the order"
        );
    }

    #[test]
    fn client_retry_resends_existing_response() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 1, 3, 42, 1));
        let first = v.on_verify(&fx.verify_msg(2, 1, 3, 42, 1));
        let sent = first
            .iter()
            .filter_map(Action::as_send)
            .find(|env| env.to == Destination::Client(ClientId(3)))
            .expect("the quorum-completing VERIFY answers the client");
        // The client re-transmits its request to the verifier.
        let txn = Transaction::new(TxnId::new(ClientId(3), 1), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(3)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Client(ClientId(3)));
        assert_eq!(env.msg.kind(), "RESPONSE");
        // Rebuilt from the compact answer, signature included.
        assert_eq!(env.msg, sent.msg);
    }

    #[test]
    fn client_retry_for_unknown_txn_raises_error() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let txn = Transaction::new(TxnId::new(ClientId(5), 0), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(5)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
    }

    #[test]
    fn a_request_with_a_swapped_value_is_refused_by_the_verifier() {
        // The client signed a write of 1; the copy that reaches the
        // verifier writes 999 under the same id and signature. The
        // untouched request is answered (an ERROR: the id is unknown),
        // the swapped one is ignored.
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let write = |data| {
            Transaction::new(
                TxnId::new(ClientId(5), 0),
                vec![Operation::Write(Key(1), Value::new(data))],
            )
        };
        let signed = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(5)))
                .sign(&ClientRequest::signing_digest(&write(1))),
            txn: write(1),
        };
        let swapped = ClientRequest {
            txn: write(999),
            ..signed.clone()
        };
        assert!(v.on_client_request(&swapped).is_empty());
        assert!(v
            .on_client_request(&signed)
            .iter()
            .any(|a| a.sends_kind("ERROR")));
    }

    #[test]
    fn client_retry_with_forged_signature_ignored() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let txn = Transaction::new(TxnId::new(ClientId(5), 0), vec![Operation::Read(Key(1))]);
        let req = ClientRequest {
            txn,
            signature: sbft_types::Signature::ZERO,
        };
        assert!(v.on_client_request(&req).is_empty());
    }

    #[test]
    fn client_retry_while_waiting_in_pi_reports_kmax_and_acks_later() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        // Batch 2 is matched but batch 1 has not arrived.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 4, 9, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 2, 4, 9, 1));
        let txn = Transaction::new(TxnId::new(ClientId(4), 2), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(4)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        let error = crate::events::envelopes(&actions)
            .into_iter()
            .find(|e| e.msg.kind() == "ERROR")
            .expect("error broadcast");
        match &error.msg {
            ProtocolMessage::Notice(e) => {
                assert_eq!(
                    e.subject,
                    RecoverySubject::Seq(SeqNum(1)),
                    "reports the missing k_max"
                );
            }
            _ => unreachable!(),
        }
        // Batch 1 finally validates: the verifier ACKs the resolved subject.
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 5, 1));
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 5, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ACK")));
    }

    #[test]
    fn client_retry_with_divergent_verifies_requests_replacement() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::UnknownRwSets);
        // Verifies exist for the transaction but they do not match.
        let _ = v.on_verify(&fx.verify_msg(1, 1, 6, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 6, 2, 1));
        let txn = Transaction::new(TxnId::new(ClientId(6), 1), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(6)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        assert!(actions.iter().any(|a| a.sends_kind("REPLACE")));
    }

    #[test]
    fn fully_divergent_verifies_abort_deterministically() {
        // All three spawned executors answered with three different
        // digests: no f_E + 1 quorum is possible, so the batch must abort
        // immediately instead of blocking k_max forever.
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let actions = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        assert!(actions.iter().any(|a| a.sends_kind("ABORT")));
        assert_eq!(v.aborted_txns.get(), 1);
        assert_eq!(v.divergent_aborts.get(), 1);
        assert_eq!(
            v.kmax(),
            SeqNum(2),
            "the unmatchable batch no longer blocks"
        );
    }

    #[test]
    fn divergence_abort_waits_for_every_decentralized_spawn() {
        // Decentralized spawning over-spawns: 4 nodes × 1 executor = 4
        // per batch. Three divergent VERIFYs must NOT abort the batch,
        // because the fourth may still complete an f_E + 1 quorum.
        let fx = Fixture::new();
        let mut v = Verifier::new(
            fx.provider.handle(ComponentId::Verifier),
            Arc::clone(&fx.store),
            VerifierConfig {
                params: FaultParams::for_shim_size(4),
                conflict_handling: ConflictHandling::NonConflicting,
                abort_timeout: SimDuration::from_millis(100),
                cert_quorum: 3,
                // decentralized: n_r × decentralized_spawn_count()
                spawned_per_batch: 4,
                num_shards: 1,
                checkpoint_interval: 4,
            },
        );
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let actions = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        assert!(
            !actions.iter().any(|a| a.sends_kind("ABORT")),
            "three of four verifies must not trigger the divergence abort"
        );
        assert_eq!(v.aborted_txns.get(), 0);
        // The fourth executor agrees with one of them: quorum, commit.
        let actions = v.on_verify(&fx.verify_msg(4, 1, 0, 2, 1));
        assert!(actions.iter().any(|a| a.sends_kind("RESPONSE")));
        assert_eq!(v.committed_txns.get(), 1);
    }

    #[test]
    fn sharded_verifier_announces_one_ccheck_before_responses() {
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::NonConflicting,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        let actions = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        // One read and one write: the batch's whole rwset, announced once
        // and ahead of the responses it gates.
        assert_eq!(announced(&actions), vec![(0, 2)]);
        assert_eq!(v.committed_txns.get(), 1);
        assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(42));
    }

    #[test]
    fn a_read_of_a_write_earlier_in_the_same_batch_is_stale() {
        // Two transactions of one batch on different home shards: txn A
        // writes a key txn B then reads at the version it had before the
        // batch. Batch order is apply order, so B's read is stale and
        // aborts, and A's value stays.
        let fx = Fixture::new();
        // A conflict-tracking mode, so read validation is on and the
        // apply order is observable.
        let mut v = fx.verifier_sharded(
            ConflictHandling::UnknownRwSets,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let router = v.router;
        let k1 = Key(1);
        // A key on a *higher-numbered* shard than k1's, so txn A (which
        // touches both) homes on k1's shard while txn B homes on k2's.
        let k2 = (2..)
            .map(Key)
            .find(|k| router.shard_of(*k).0 > router.shard_of(k1).0)
            .expect("8 shards have a higher-numbered one");
        let mut rw_a = ReadWriteSet::new();
        rw_a.record_read(k1, Version(1));
        rw_a.record_write(k2, Value::new(77));
        let mut rw_b = ReadWriteSet::new();
        rw_b.record_read(k2, fx.store.version_of(k2));
        rw_b.record_write(k2, Value::new(88));
        let results = vec![
            TxnResult {
                txn: TxnId::new(ClientId(0), 1),
                output: 77,
                rwset: rw_a,
            },
            TxnResult {
                txn: TxnId::new(ClientId(1), 1),
                output: 88,
                rwset: rw_b,
            },
        ];
        let _ = v.on_verify(&fx.verify_msg_with_results(1, 1, results.clone()));
        let actions = v.on_verify(&fx.verify_msg_with_results(2, 1, results));
        let kinds = response_kinds(&actions);
        assert!(kinds.contains(&"RESPONSE"), "txn A commits");
        assert!(kinds.contains(&"ABORT"), "txn B reads A's write stale");
        assert_eq!(v.committed_txns.get(), 1);
        assert_eq!(v.aborted_txns.get(), 1);
        assert_eq!(fx.store.get(k2).unwrap().value, Value::new(77));
    }

    #[test]
    fn verifier_commits_identically_across_shard_counts() {
        for shards in [1usize, 4, 16] {
            let fx = Fixture::new();
            let mut v = fx.verifier_sharded(
                ConflictHandling::NonConflicting,
                sbft_types::ShardingConfig::with_shards(shards),
            );
            for seq in 1..=5u64 {
                let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, 1));
                let _ = v.on_verify(&fx.verify_msg(2, seq, 0, seq, 1));
            }
            assert_eq!(v.committed_txns.get(), 5, "{shards} shards");
            assert_eq!(v.kmax(), SeqNum(6));
            assert_eq!(fx.store.get(Key(2)).unwrap().value, Value::new(5));
        }
    }

    #[test]
    fn retry_maps_truncate_at_the_checkpoint_interval() {
        // Fixture checkpoint interval is 4. Validate 9 batches: the last
        // stable checkpoint k_max passed is 8, so everything at or below
        // checkpoint 4 is dropped while the last closed interval (5..=8)
        // plus batch 9 is retained for client retries.
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        for seq in 1..=9u64 {
            let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, 1));
            let _ = v.on_verify(&fx.verify_msg(2, seq, 0, seq, 1));
        }
        assert_eq!(v.kmax(), SeqNum(10));
        assert_eq!(v.retry.len(), 5, "seqs 5..=9 retained");

        // A late duplicate request inside the retained window is still
        // answered with the stored RESPONSE.
        let txn = Transaction::new(TxnId::new(ClientId(0), 7), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&txn);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(0)))
                .sign(&digest),
            txn,
        };
        let actions = v.on_client_request(&req);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.msg.kind(), "RESPONSE");

        // A duplicate older than the GC floor falls back to the
        // ERROR(⟨T⟩_C) recovery path (the primary recognises it as a
        // duplicate and drops it).
        let old = Transaction::new(TxnId::new(ClientId(0), 2), vec![Operation::Read(Key(1))]);
        let digest = ClientRequest::signing_digest(&old);
        let req = ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(0)))
                .sign(&digest),
            txn: old,
        };
        let actions = v.on_client_request(&req);
        assert!(actions.iter().any(|a| a.sends_kind("ERROR")));
    }

    #[test]
    fn retry_maps_do_not_grow_without_bound() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        for seq in 1..=100u64 {
            let _ = v.on_verify(&fx.verify_msg(1, seq, 0, seq, 1));
            let _ = v.on_verify(&fx.verify_msg(2, seq, 0, seq, 1));
        }
        // One interval of history plus the open interval: never more than
        // two intervals' worth of entries with one transaction per batch.
        assert!(
            v.retry.len() <= 8,
            "the retry table holds {} entries",
            v.retry.len()
        );
        assert_eq!(v.committed_txns.get(), 100);
    }

    #[test]
    fn divergent_abort_counter_tracks_whole_batch_divergence() {
        // Count-triggered divergence (all spawned executors answered, no
        // quorum) increments the counter ...
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 1, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 1, 0, 2, 1));
        let _ = v.on_verify(&fx.verify_msg(3, 1, 0, 3, 1));
        assert_eq!(v.divergent_aborts.get(), 1);
        // ... and a matched batch does not.
        let _ = v.on_verify(&fx.verify_msg(1, 2, 0, 5, 1));
        let _ = v.on_verify(&fx.verify_msg(2, 2, 0, 5, 1));
        assert_eq!(v.divergent_aborts.get(), 1);
        assert_eq!(v.committed_txns.get(), 1);
    }

    /// The view stamped on every answer among `actions`.
    fn answer_views(actions: &[Action]) -> Vec<ViewNumber> {
        crate::events::envelopes(actions)
            .iter()
            .filter_map(|e| match &e.msg {
                ProtocolMessage::Response(r) | ProtocolMessage::Abort(r) => Some(r.view),
                _ => None,
            })
            .collect()
    }

    /// Client `client`'s signed request `counter`, retransmitted.
    fn retry(fx: &Fixture, client: u32, counter: u64) -> ClientRequest {
        let txn = Transaction::new(
            TxnId::new(ClientId(client), counter),
            vec![Operation::Read(Key(1))],
        );
        let digest = ClientRequest::signing_digest(&txn);
        ClientRequest {
            signature: fx
                .provider
                .handle(ComponentId::Client(ClientId(client)))
                .sign(&digest),
            txn,
        }
    }

    #[test]
    fn first_sends_and_resends_carry_the_highest_matched_view() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        let _ = v.on_verify(&fx.verify_msg_in_view(1, 1, 0, 0));
        let first = v.on_verify(&fx.verify_msg_in_view(2, 1, 0, 0));
        assert_eq!(answer_views(&first), vec![ViewNumber(0)]);
        // Batch 2 was certified after a view change.
        let _ = v.on_verify(&fx.verify_msg_in_view(1, 2, 1, 2));
        let second = v.on_verify(&fx.verify_msg_in_view(2, 2, 1, 2));
        assert_eq!(answer_views(&second), vec![ViewNumber(2)]);
        // A batch re-spawned from the old view lowers nothing.
        let _ = v.on_verify(&fx.verify_msg_in_view(1, 3, 2, 1));
        let third = v.on_verify(&fx.verify_msg_in_view(2, 3, 2, 1));
        assert_eq!(answer_views(&third), vec![ViewNumber(2)]);
        // A re-send is stamped with the current view, not the first one.
        let resent = v.on_client_request(&retry(&fx, 0, 1));
        assert_eq!(answer_views(&resent), vec![ViewNumber(2)]);
    }

    #[test]
    fn a_lone_verify_from_a_later_view_moves_no_answer() {
        let fx = Fixture::new();
        let mut v = fx.verifier(ConflictHandling::NonConflicting);
        // One executor's VERIFY for batch 2, validly certified in view 5,
        // never matched by a second.
        let _ = v.on_verify(&fx.verify_msg_in_view(7, 2, 1, 5));
        let _ = v.on_verify(&fx.verify_msg_in_view(1, 1, 0, 0));
        let actions = v.on_verify(&fx.verify_msg_in_view(2, 1, 0, 0));
        assert_eq!(answer_views(&actions), vec![ViewNumber(0)]);
        let resent = v.on_client_request(&retry(&fx, 0, 1));
        assert_eq!(answer_views(&resent), vec![ViewNumber(0)]);
    }

    #[test]
    fn cert_quorum_zero_accepts_baseline_verifies() {
        let fx = Fixture::new();
        let mut v = Verifier::new(
            fx.provider.handle(ComponentId::Verifier),
            Arc::clone(&fx.store),
            VerifierConfig {
                params: FaultParams::for_shim_size(4),
                conflict_handling: ConflictHandling::NonConflicting,
                abort_timeout: SimDuration::from_millis(100),
                cert_quorum: 0,
                spawned_per_batch: 3,
                num_shards: 1,
                checkpoint_interval: 4,
            },
        );
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m.certificate).entries.clear();
        let mut m2 = fx.verify_msg(2, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m2.certificate)
            .entries
            .clear();
        // The stand-in certificates name a view; without a quorum behind
        // them the answers stay at view 0.
        Arc::make_mut(&mut m.certificate).view = ViewNumber(3);
        Arc::make_mut(&mut m2.certificate).view = ViewNumber(3);
        let _ = v.on_verify(&m);
        let actions = v.on_verify(&m2);
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(answer_views(&actions), vec![ViewNumber(0)]);
    }

    /// A result writing `key` after reading it at version 1.
    fn rmw_result(client: u32, key: Key, value: u64) -> TxnResult {
        let mut rwset = ReadWriteSet::new();
        rwset.record_read(key, Version(1));
        rwset.record_write(key, Value::new(value));
        TxnResult {
            txn: TxnId::new(ClientId(client), 1),
            output: value,
            rwset,
        }
    }

    /// `n` distinct keys all living on one shard of the verifier's router.
    fn keys_on_one_shard(v: &Verifier, n: usize) -> Vec<Key> {
        let router = v.router;
        let home = router.shard_of(Key(1));
        (1..)
            .map(Key)
            .filter(|k| router.shard_of(*k) == home)
            .take(n)
            .collect()
    }

    /// Every announced `ccheck` of an action list as `(position,
    /// accesses)`, asserting each comes before the list's first send.
    fn announced(actions: &[Action]) -> Vec<(usize, u32)> {
        let first_send = actions.iter().position(|a| a.as_send().is_some());
        let cchecks: Vec<(usize, u32)> = actions
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match *a {
                Action::Ccheck { accesses } => Some((i, accesses)),
                _ => None,
            })
            .collect();
        for (i, _) in &cchecks {
            assert!(
                first_send.is_some_and(|send| *i < send),
                "the ccheck precedes the responses it gates"
            );
        }
        cchecks
    }

    /// Three read-modify-write transactions, one of them touching a
    /// second key: 7 accesses over keys that spread across 8 shards.
    fn mixed_batch() -> Vec<TxnResult> {
        let mut results = vec![
            rmw_result(0, Key(1), 5),
            rmw_result(1, Key(2), 6),
            rmw_result(2, Key(3), 7),
        ];
        results[2].rwset.record_write(Key(4), Value::new(8));
        results
    }

    #[test]
    fn every_batch_announces_one_ccheck_and_counts_its_observed_home() {
        // A single-home batch and a cross-home one (keys 1, 2, 3 and 4
        // hash to shards 4, 1, 6 and 3 of 8), over 8 shards and over one.
        // Every batch is one `ccheck` over its whole rwset; its observed
        // keys decide only `single_home_batches`.
        let fx = Fixture::new();
        let probe = fx.verifier_sharded(
            ConflictHandling::NonConflicting,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let keys = keys_on_one_shard(&probe, 3);
        let single: Vec<TxnResult> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| rmw_result(i as u32, *k, 10 + i as u64))
            .collect();
        let mixed = mixed_batch();
        for (shards, results, accesses, single_home) in [
            (8, &single, 6, 1),
            (8, &mixed, 7, 0),
            // At one shard every key is home.
            (1, &mixed, 7, 1),
        ] {
            let fx = Fixture::new();
            let mut v = fx.verifier_sharded(
                ConflictHandling::NonConflicting,
                sbft_types::ShardingConfig::with_shards(shards),
            );
            let _ = v.on_verify(&fx.verify_msg_with_results(1, 1, results.clone()));
            let actions = v.on_verify(&fx.verify_msg_with_results(2, 1, results.clone()));
            let row = format!("{shards} shards, {} txns", results.len());
            assert_eq!(announced(&actions), vec![(0, accesses)], "{row}");
            assert_eq!(v.single_home_batches.get(), single_home, "{row}");
            assert_eq!(v.committed_txns.get(), results.len() as u64, "{row}");
        }
    }

    #[test]
    fn verify_message_clones_share_the_result_allocation() {
        // The verifier stores every VERIFY twice (vote map + matched
        // slot); with `results` behind `Arc` those clones are refcount
        // bumps of the executor's allocation, never per-transaction
        // read-write set copies.
        let fx = Fixture::new();
        let msg = fx.verify_msg(1, 1, 0, 42, 1);
        let clone = msg.clone();
        assert!(std::sync::Arc::ptr_eq(&msg.results, &clone.results));
    }
}
