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
    AbortMessage, AckMessage, Action, BatchValidated, ClientRequest, Destination, ErrorMessage,
    ProtocolMessage, ProtocolTimer, RecoverySubject, ReplaceMessage, ResponseMessage,
};
use sbft_crypto::CryptoHandle;
use sbft_serverless::VerifyMessage;
use sbft_sharding::{ShardId, ShardSet, ShardedCommitter};
use sbft_storage::VersionedStore;
use sbft_telemetry::{Counter, Registry};
use sbft_types::{
    ComponentId, ConflictHandling, ExecutorId, FaultParams, IdMap, SeqNum, ShardPlan,
    ShardingConfig, SimDuration, TxnId, TxnOutcome,
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
    /// Sharded-execution parameters for the commit path.
    pub sharding: ShardingConfig,
    /// The shim's featherweight checkpoint interval. The verifier
    /// truncates its retry table in the same rhythm
    /// (keeping one closed interval of history for client retries), so
    /// long runs stop growing without bound. `0` disables the GC.
    pub checkpoint_interval: u64,
}

/// The verifier role state machine.
pub struct Verifier {
    crypto: CryptoHandle,
    /// The sharded commit path replacing the single global `ccheck`.
    committer: ShardedCommitter,
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
    /// Batches applied through the verified ordering-time fast path (a
    /// `SingleHome` plan tag that survived re-derivation).
    planned_batches: Counter,
    /// `SingleHome` tags that failed re-derivation against the observed
    /// read-write sets (a byzantine primary or mis-declared sets); each
    /// fell back deterministically to the unplanned routing path.
    plan_mismatches: Counter,
    /// Validated batches whose entire footprint lived on one shard,
    /// pre-planned or discovered by apply-time routing. The complement
    /// over `validated_batches` is the cross-shard coordination rate.
    single_home_batches: Counter,
}

impl Verifier {
    /// Creates the verifier.
    #[must_use]
    pub fn new(crypto: CryptoHandle, store: Arc<VersionedStore>, config: VerifierConfig) -> Self {
        let committer = ShardedCommitter::new(store, &config.sharding);
        Verifier {
            crypto,
            committer,
            config,
            kmax: SeqNum(1),
            pending: BTreeMap::new(),
            retry: IdMap::default(),
            gc_floor: SeqNum(0),
            outstanding: BTreeSet::new(),
            committed_txns: Counter::new(),
            aborted_txns: Counter::new(),
            ignored_verifies: Counter::new(),
            validated_batches: Counter::new(),
            divergent_aborts: Counter::new(),
            planned_batches: Counter::new(),
            plan_mismatches: Counter::new(),
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
        self.planned_batches = registry.counter("verifier.planned_batches");
        self.plan_mismatches = registry.counter("verifier.plan_mismatches");
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
        // Well-formedness: executor signature and certificate.
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
        let interval = self.config.checkpoint_interval;
        if interval == 0 {
            return;
        }
        let validated = self.kmax.0.saturating_sub(1);
        let stable = (validated / interval) * interval;
        let cutoff = SeqNum(stable.saturating_sub(interval));
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
    /// re-send build it here).
    fn answer_message(&self, txn: TxnId, answer: Answer) -> ProtocolMessage {
        let Answer {
            seq,
            outcome,
            output,
        } = answer;
        match outcome {
            TxnOutcome::Committed => ProtocolMessage::Response(ResponseMessage::signed(
                txn,
                seq,
                outcome,
                output,
                &self.crypto,
            )),
            TxnOutcome::Aborted => {
                ProtocolMessage::Abort(AbortMessage::signed(txn, seq, &self.crypto))
            }
        }
    }

    /// Applies a matched batch: per-transaction concurrency check through
    /// the shard router, storage update, client responses, primary
    /// notification, ACKs. The batch is routed exactly once; the per-shard
    /// `ccheck` work is announced first (as [`Action::ShardCcheck`]) so
    /// CPU-modelling runtimes can charge it to the shard stations before
    /// the responses leave, and the same routes then drive the apply, in
    /// batch order on the verifier's own thread through
    /// [`ShardedCommitter::commit_routed`].
    fn apply_batch(&mut self, seq: SeqNum, matched: &VerifyMessage, actions: &mut Vec<Action>) {
        // One answer per transaction, the notice to the nodes and a few
        // shard slices: reserved once instead of grown push by push.
        actions.reserve(matched.results.len() + 4);
        let router = *self.committer.router();
        // Trust-but-verify the ordering-time plan tag: a `SingleHome`
        // claim is honoured only after re-deriving it from the read-write
        // sets the executors actually observed (a cheap single pass over
        // the keys — no sets, no allocation). Only a byzantine primary or
        // a mis-declared read-write set can fail this check; the failure
        // falls back deterministically to the unplanned routing path, so
        // a lying tag costs the fast path but can never corrupt state.
        let verified_home = match matched.plan {
            ShardPlan::SingleHome(home) => {
                let in_range = (home.0 as usize) < router.num_shards();
                let all_home = in_range
                    && matched.results.iter().all(|result| {
                        router.all_on(
                            home,
                            result
                                .rwset
                                .reads
                                .iter()
                                .map(|(k, _)| *k)
                                .chain(result.rwset.writes.iter().map(|(k, _)| *k)),
                        )
                    });
                if !all_home {
                    // Out-of-range homes are lies too: count them so the
                    // detection telemetry sees every forged tag.
                    self.plan_mismatches.inc();
                }
                all_home.then_some(home)
            }
            _ => None,
        };
        // The one routing pass: a verified tag supplies every involved
        // set without hashing a key, anything else asks the router.
        let routes: Vec<ShardSet> = matched
            .results
            .iter()
            .map(|result| match verified_home {
                Some(home) if !result.rwset.is_empty() => ShardSet::single(home),
                Some(_) => ShardSet::EMPTY,
                None => router.shards_of(&result.rwset),
            })
            .collect();
        if let Some(home) = verified_home {
            // The whole batch's ccheck lands on its one home shard.
            self.planned_batches.inc();
            self.single_home_batches.inc();
            actions.push(Action::ShardCcheck {
                shard: home,
                txns: matched.results.len() as u32,
                accesses: matched
                    .results
                    .iter()
                    .map(|result| result.rwset.len() as u32)
                    .sum(),
                planned: true,
                chained: false,
            });
        } else {
            // Split the announced ccheck work: single-home transactions
            // charge their one shard and run in parallel across stations,
            // while cross-shard transactions hold every involved shard's
            // execution lock in ascending shard order — their slices are
            // `chained`, so CPU-modelling runtimes serialise them (shard
            // i+1 starts only after shard i grants).
            let mut solo_work: BTreeMap<ShardId, (u32, u32)> = BTreeMap::new();
            let mut cross_work: BTreeMap<ShardId, (u32, u32)> = BTreeMap::new();
            for (result, involved) in matched.results.iter().zip(&routes) {
                let work = if involved.len() > 1 {
                    &mut cross_work
                } else {
                    &mut solo_work
                };
                for shard in involved.iter() {
                    let entry = work.entry(shard).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 += result.rwset.len() as u32;
                }
            }
            let all_shards: ShardSet = solo_work.keys().chain(cross_work.keys()).copied().collect();
            if all_shards.len() <= 1 {
                // Discovered-late single-home batch (the planner would
                // have tagged it; without lanes this is the baseline
                // measurement the `planner_points` experiment compares).
                self.single_home_batches.inc();
            }
            for (chained, work) in [(false, solo_work), (true, cross_work)] {
                for (shard, (txns, accesses)) in work {
                    actions.push(Action::ShardCcheck {
                        shard,
                        txns,
                        accesses,
                        planned: false,
                        chained,
                    });
                }
            }
        }
        let validate_reads = self.validate_reads();
        let mut committed = 0u32;
        let mut aborted = 0u32;
        for (result, involved) in matched.results.iter().zip(&routes) {
            let applied = self
                .committer
                .commit_routed(&result.rwset, validate_reads, *involved)
                .is_applied();
            let answer = if applied {
                committed += 1;
                self.committed_txns.inc();
                Answer {
                    seq,
                    outcome: TxnOutcome::Committed,
                    output: result.output,
                }
            } else {
                aborted += 1;
                self.aborted_txns.inc();
                Answer {
                    seq,
                    outcome: TxnOutcome::Aborted,
                    output: 0,
                }
            };
            let msg = self.answer(result.txn, answer);
            actions.push(Action::send(
                self.me(),
                Destination::Client(result.txn.client),
                msg,
            ));
            self.resolve_subject(RecoverySubject::Txn(result.txn), actions);
        }
        self.validated_batches.inc();
        actions.push(Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::BatchValidated(BatchValidated {
                seq,
                committed,
                aborted,
            }),
        ));
        self.resolve_subject(RecoverySubject::Seq(seq), actions);
    }

    /// Aborts a whole batch (byzantine-abort detection, Section VI-B).
    fn abort_batch(&mut self, seq: SeqNum, state: &SeqState, actions: &mut Vec<Action>) {
        // Any received VERIFY tells us which transactions (and clients) the
        // batch contains.
        let Some(sample) = state.verifies.values().next() else {
            return;
        };
        self.divergent_aborts.inc();
        let mut aborted = 0u32;
        for result in sample.results.iter() {
            aborted += 1;
            self.aborted_txns.inc();
            let msg = self.answer(
                result.txn,
                Answer {
                    seq,
                    outcome: TxnOutcome::Aborted,
                    output: 0,
                },
            );
            actions.push(Action::send(
                self.me(),
                Destination::Client(result.txn.client),
                msg,
            ));
            self.resolve_subject(RecoverySubject::Txn(result.txn), actions);
        }
        self.validated_batches.inc();
        actions.push(Action::send(
            self.me(),
            Destination::AllNodes,
            ProtocolMessage::BatchValidated(BatchValidated {
                seq,
                committed: 0,
                aborted,
            }),
        ));
        self.resolve_subject(RecoverySubject::Seq(seq), actions);
    }

    /// Broadcasts an `ACK` if the subject had an outstanding `ERROR`.
    fn resolve_subject(&mut self, subject: RecoverySubject, out: &mut Vec<Action>) {
        if self.outstanding.remove(&subject) {
            out.push(Action::send(
                self.me(),
                Destination::AllNodes,
                ProtocolMessage::Ack(AckMessage::signed(subject, &self.crypto)),
            ));
        }
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
            let subject = RecoverySubject::Seq(seq);
            self.outstanding.insert(subject);
            return vec![Action::send(
                self.me(),
                Destination::AllNodes,
                ProtocolMessage::Replace(ReplaceMessage::signed(subject, &self.crypto)),
            )];
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
                    let subject = RecoverySubject::Seq(self.kmax);
                    self.outstanding.insert(subject);
                    vec![Action::send(
                        self.me(),
                        Destination::AllNodes,
                        ProtocolMessage::Error(ErrorMessage::signed(subject, None, &self.crypto)),
                    )]
                } else {
                    // (iii) Some VERIFY messages arrived but not f_E + 1
                    // matching ones: only a byzantine primary can cause
                    // this, ask for its replacement.
                    let subject = RecoverySubject::Txn(txn);
                    self.outstanding.insert(subject);
                    vec![Action::send(
                        self.me(),
                        Destination::AllNodes,
                        ProtocolMessage::Replace(ReplaceMessage::signed(subject, &self.crypto)),
                    )]
                }
            }
            None => {
                // No VERIFY message mentions this transaction: the shim may
                // never have ordered it. The ERROR carries ⟨T⟩_C so the
                // primary can order it (Figure 4, line 12).
                let subject = RecoverySubject::Txn(txn);
                self.outstanding.insert(subject);
                vec![Action::send(
                    self.me(),
                    Destination::AllNodes,
                    ProtocolMessage::Error(ErrorMessage::signed(
                        subject,
                        Some(Box::new(req.clone())),
                        &self.crypto,
                    )),
                )]
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

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::certificate::commit_digest;
    use sbft_crypto::{CommitCertificate, CryptoProvider, SimSigner};
    use sbft_storage::YcsbTable;
    use sbft_types::{
        Batch, ClientId, Digest, Key, NodeId, Operation, ReadWriteSet, Transaction, TxnResult,
        Value, Version, ViewNumber,
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
                    sharding,
                    checkpoint_interval: 4,
                },
            )
        }

        fn certificate(&self, seq: u64, digest: Digest) -> std::sync::Arc<CommitCertificate> {
            let cd = commit_digest(ViewNumber(0), SeqNum(seq), &digest);
            let entries = (0..3u32)
                .map(|n| {
                    let kp = self
                        .provider
                        .key_store()
                        .keypair_for(ComponentId::Node(NodeId(n)));
                    (NodeId(n), SimSigner::sign(&kp, &cd))
                })
                .collect();
            std::sync::Arc::new(CommitCertificate::new(
                ViewNumber(0),
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
                certificate: self.certificate(seq, digest),
                plan: ShardPlan::Unplanned,
                signature: handle.sign(&result_digest),
            }
        }

        /// Like [`Self::verify_msg_with_results`], with an ordering-time
        /// plan tag attached (honest or lying — the verifier must not
        /// care for correctness).
        fn verify_msg_planned(
            &self,
            executor: u64,
            seq: u64,
            results: Vec<TxnResult>,
            plan: ShardPlan,
        ) -> VerifyMessage {
            let mut msg = self.verify_msg_with_results(executor, seq, results);
            msg.plan = plan;
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
            ProtocolMessage::Error(e) => {
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
                sharding: ShardingConfig::default(),
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
    fn sharded_verifier_announces_ccheck_work_before_responses() {
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::NonConflicting,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let _ = v.on_verify(&fx.verify_msg(1, 1, 0, 42, 1));
        let actions = v.on_verify(&fx.verify_msg(2, 1, 0, 42, 1));
        let ccheck_positions: Vec<usize> = actions
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a, Action::ShardCcheck { .. }))
            .map(|(i, _)| i)
            .collect();
        assert!(!ccheck_positions.is_empty(), "shard work must be announced");
        let first_send = actions
            .iter()
            .position(|a| a.as_send().is_some())
            .expect("responses follow");
        assert!(
            ccheck_positions.iter().all(|p| *p < first_send),
            "shard work precedes the responses it gates"
        );
        // Every transaction of the batch is accounted to some shard.
        let total_txns: u32 = actions
            .iter()
            .filter_map(|a| match a {
                Action::ShardCcheck { txns, .. } => Some(*txns),
                _ => None,
            })
            .sum();
        assert!(total_txns >= 1);
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
        let router = *v.committer.router();
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
                sharding: ShardingConfig::default(),
                checkpoint_interval: 4,
            },
        );
        let mut m = fx.verify_msg(1, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m.certificate).entries.clear();
        let mut m2 = fx.verify_msg(2, 1, 0, 42, 1);
        std::sync::Arc::make_mut(&mut m2.certificate)
            .entries
            .clear();
        let _ = v.on_verify(&m);
        let actions = v.on_verify(&m2);
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
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
    fn keys_on_one_shard(v: &Verifier, n: usize) -> (sbft_sharding::ShardId, Vec<Key>) {
        let router = *v.committer.router();
        let home = router.shard_of(Key(1));
        let keys: Vec<Key> = (1..)
            .map(Key)
            .filter(|k| router.shard_of(*k) == home)
            .take(n)
            .collect();
        (home, keys)
    }

    #[test]
    fn verified_single_home_plan_takes_the_fast_path() {
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::KnownRwSets,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let (home, keys) = keys_on_one_shard(&v, 3);
        let results: Vec<TxnResult> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| rmw_result(i as u32, *k, 10 + i as u64))
            .collect();
        let plan = ShardPlan::SingleHome(home);
        let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
        let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
        // Exactly one ShardCcheck, on the verified home shard.
        let cchecks: Vec<_> = actions
            .iter()
            .filter_map(|a| match a {
                Action::ShardCcheck { shard, txns, .. } => Some((*shard, *txns)),
                _ => None,
            })
            .collect();
        assert_eq!(cchecks, vec![(home, 3)]);
        assert_eq!(v.planned_batches.get(), 1);
        assert_eq!(v.plan_mismatches.get(), 0);
        assert_eq!(v.single_home_batches.get(), 1);
        assert_eq!(v.committed_txns.get(), 3);
        assert_eq!(fx.store.get(keys[0]).unwrap().value, Value::new(10));
    }

    #[test]
    fn lying_single_home_plan_falls_back_without_corrupting_state() {
        // A byzantine primary tags a genuinely cross-home batch as
        // SingleHome(0). The verifier must detect the mismatch and apply
        // the batch exactly as an untagged verifier would.
        let run = |plan: ShardPlan| {
            let fx = Fixture::new();
            let mut v = fx.verifier_sharded(
                ConflictHandling::KnownRwSets,
                sbft_types::ShardingConfig::with_shards(8),
            );
            let router = *v.committer.router();
            let k1 = Key(1);
            let k2 = (2..)
                .map(Key)
                .find(|k| router.shard_of(*k) != router.shard_of(k1))
                .expect("8 shards split the keys");
            let results = vec![rmw_result(0, k1, 5), rmw_result(1, k2, 6)];
            let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
            let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
            let kinds = response_kinds(&actions);
            (
                v.committed_txns.get(),
                v.aborted_txns.get(),
                v.plan_mismatches.get(),
                v.planned_batches.get(),
                kinds,
                fx.store.get(k1).unwrap().value,
                fx.store.get(k2).unwrap().value,
            )
        };
        let lied = run(ShardPlan::SingleHome(sbft_sharding::ShardId(0)));
        let honest = run(ShardPlan::Unplanned);
        assert_eq!(lied.2, 1, "the lie must be detected");
        assert_eq!(lied.3, 0, "a lying tag never earns the fast path");
        assert_eq!(honest.2, 0);
        // Outcomes, responses and state are identical either way.
        assert_eq!(lied.0, honest.0);
        assert_eq!(lied.1, honest.1);
        assert_eq!(lied.4, honest.4);
        assert_eq!(lied.5, honest.5);
        assert_eq!(lied.6, honest.6);
    }

    #[test]
    fn out_of_range_home_tag_is_ignored_not_honoured() {
        // SingleHome(99) on an 8-shard verifier: neither a panic nor a
        // fast path — the batch routes like an unplanned one.
        let fx = Fixture::new();
        let mut v = fx.verifier_sharded(
            ConflictHandling::NonConflicting,
            sbft_types::ShardingConfig::with_shards(8),
        );
        let plan = ShardPlan::SingleHome(sbft_sharding::ShardId(99));
        let results = vec![rmw_result(0, Key(1), 7)];
        let _ = v.on_verify(&fx.verify_msg_planned(1, 1, results.clone(), plan));
        let actions = v.on_verify(&fx.verify_msg_planned(2, 1, results, plan));
        assert!(response_kinds(&actions).contains(&"RESPONSE"));
        assert_eq!(v.planned_batches.get(), 0);
        assert_eq!(
            v.plan_mismatches.get(),
            1,
            "an impossible home is a lie too"
        );
        assert_eq!(v.committed_txns.get(), 1);
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
