//! The architecture-wide message and action vocabulary.
//!
//! Every role state machine in this crate consumes [`ProtocolMessage`]s and
//! timer expirations and produces [`Action`]s. The discrete-event simulator
//! and the thread runtime are interchangeable interpreters of these
//! actions; neither the roles nor the attacks ever touch a clock or a
//! socket directly.

use sbft_consensus::{ConsensusMessage, ConsensusTimer};
use sbft_serverless::{ExecuteRequest, SpawnRequest, VerifyMessage};
use sbft_sharding::ShardId;
use sbft_types::{
    ClientId, ComponentId, ExecutorId, NodeId, Region, SeqNum, Signature, SimDuration, Transaction,
    TxnId, TxnOutcome,
};
use std::sync::Arc;

/// A signed client request `⟨T⟩_C`.
#[derive(Clone, PartialEq, Debug)]
pub struct ClientRequest {
    /// The transaction being submitted.
    pub txn: Transaction,
    /// The client's signature over the transaction digest.
    pub signature: Signature,
}

impl ClientRequest {
    /// The digest a client signs for its request.
    ///
    /// Memoized on the transaction: the digest is computed at most once
    /// per transaction per run — the client fills the cache when it signs,
    /// and the primary's and verifier's checks (including every retry)
    /// reuse the cached value carried by the transaction's clones.
    #[must_use]
    pub fn signing_digest(txn: &Transaction) -> sbft_types::Digest {
        txn.signing_digest_memo(|| Self::compute_signing_digest(txn))
    }

    /// Computes the signing digest from scratch, bypassing the memo (the
    /// cache regression tests compare this against [`Self::signing_digest`]).
    #[must_use]
    pub fn compute_signing_digest(txn: &Transaction) -> sbft_types::Digest {
        let mut h = sbft_crypto::U64Hasher::new("sbft-client-request");
        h.push(u64::from(txn.id.client.0));
        h.push(txn.id.counter);
        h.push(txn.ops.len() as u64);
        for op in &txn.ops {
            h.push(op.key().0);
            h.push(u64::from(op.is_write()));
        }
        h.finish()
    }
}

/// `RESPONSE(Δ, r)` from the verifier to a client (and, as a batch-level
/// notification, to the shim primary).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResponseMessage {
    /// The transaction this response answers.
    pub txn: TxnId,
    /// The sequence number of the batch containing it.
    pub seq: SeqNum,
    /// Whether the transaction committed or was aborted.
    pub outcome: TxnOutcome,
    /// The execution output (meaningful only when committed).
    pub output: u64,
    /// The verifier's signature over the response.
    pub signature: Signature,
}

impl ResponseMessage {
    /// The `RESPONSE` for `txn`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(
        txn: TxnId,
        seq: SeqNum,
        outcome: TxnOutcome,
        output: u64,
        signer: &sbft_crypto::CryptoHandle,
    ) -> Self {
        let mut response = ResponseMessage {
            txn,
            seq,
            outcome,
            output,
            signature: Signature::ZERO,
        };
        response.signature = signer.sign(&response.signing_digest());
        response
    }

    /// The digest the verifier signs and the client checks: every field,
    /// so an answer fits exactly the transaction it was given to (one
    /// signed `RESPONSE` used to fit every transaction of its batch with
    /// the same output).
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        sbft_crypto::digest_u64s(
            "response",
            &[
                self.seq.0,
                self.output,
                u64::from(self.txn.client.0),
                self.txn.counter,
                u64::from(self.outcome == TxnOutcome::Committed),
            ],
        )
    }
}

/// Notification from the verifier to the shim primary that a whole batch
/// has been validated (used by the conflict-avoidance planner to release
/// logical locks, Section VI-C step 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchValidated {
    /// The validated batch.
    pub seq: SeqNum,
    /// Transactions whose writes were applied.
    pub committed: u32,
    /// Transactions aborted by the concurrency-control check.
    pub aborted: u32,
}

/// What a recovery message (ERROR / REPLACE / ACK) is about.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RecoverySubject {
    /// The verifier is waiting for the request ordered at this sequence
    /// number (`ERROR(k_max)`).
    Seq(SeqNum),
    /// The verifier has seen no `VERIFY` message for this transaction
    /// (`ERROR(⟨T⟩_C)`).
    Txn(TxnId),
}

/// The digest a recovery marker (`label`: `error`, `replace` or `ack`)
/// about `subject` is signed over. `request` is the signing digest of the
/// request an `ERROR(⟨T⟩_C)` carries, so the request cannot be swapped
/// under the verifier's signature either.
fn marker_digest(
    label: &str,
    subject: RecoverySubject,
    request: Option<sbft_types::Digest>,
) -> sbft_types::Digest {
    let mut h = sbft_crypto::U64Hasher::new(label);
    match subject {
        RecoverySubject::Seq(seq) => {
            h.push(0);
            h.push(seq.0);
        }
        RecoverySubject::Txn(txn) => {
            h.push(1);
            h.push(u64::from(txn.client.0));
            h.push(txn.counter);
        }
    }
    if let Some(request) = request {
        h.push_digest(&request);
    }
    h.finish()
}

/// `ERROR` broadcast by the verifier to the shim nodes (Figure 4).
#[derive(Clone, PartialEq, Debug)]
pub struct ErrorMessage {
    /// What is missing.
    pub subject: RecoverySubject,
    /// For the missing-transaction case (`ERROR(⟨T⟩_C)`), the verifier
    /// includes the client's signed request so the (possibly new) primary
    /// can order it — matching Figure 4 line 12, where the `ERROR` message
    /// carries `⟨T⟩_C` itself. Boxed: the recovery path is rare, and an
    /// inline request would make every [`Action`] as large as this one.
    pub request: Option<Box<ClientRequest>>,
    /// The verifier's signature.
    pub signature: Signature,
}

impl ErrorMessage {
    /// The `ERROR` about `subject`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(
        subject: RecoverySubject,
        request: Option<Box<ClientRequest>>,
        signer: &sbft_crypto::CryptoHandle,
    ) -> Self {
        let mut error = ErrorMessage {
            subject,
            request,
            signature: Signature::ZERO,
        };
        error.signature = signer.sign(&error.signing_digest());
        error
    }

    /// The digest the verifier signs and a node checks: the subject and
    /// the carried request.
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        let request = self
            .request
            .as_ref()
            .map(|r| ClientRequest::signing_digest(&r.txn));
        marker_digest("error", self.subject, request)
    }
}

/// `REPLACE` broadcast by the verifier: the primary is provably misbehaving
/// and must be replaced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReplaceMessage {
    /// The transaction whose handling exposed the primary.
    pub subject: RecoverySubject,
    /// The verifier's signature.
    pub signature: Signature,
}

impl ReplaceMessage {
    /// The `REPLACE` about `subject`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(subject: RecoverySubject, signer: &sbft_crypto::CryptoHandle) -> Self {
        let mut replace = ReplaceMessage {
            subject,
            signature: Signature::ZERO,
        };
        replace.signature = signer.sign(&replace.signing_digest());
        replace
    }

    /// The digest the verifier signs and a node checks: the subject.
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        marker_digest("replace", self.subject, None)
    }
}

/// `ACK` broadcast by the verifier once the previously reported subject has
/// been validated, releasing the nodes' re-transmission timers `Υ`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AckMessage {
    /// The subject that is now resolved.
    pub subject: RecoverySubject,
    /// The verifier's signature.
    pub signature: Signature,
}

impl AckMessage {
    /// The `ACK` for `subject`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(subject: RecoverySubject, signer: &sbft_crypto::CryptoHandle) -> Self {
        let mut ack = AckMessage {
            subject,
            signature: Signature::ZERO,
        };
        ack.signature = signer.sign(&ack.signing_digest());
        ack
    }

    /// The digest the verifier signs and a node checks: the subject.
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        marker_digest("ack", self.subject, None)
    }
}

/// `ABORT(T)` from the verifier to a client (Section VI-B).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbortMessage {
    /// The aborted transaction.
    pub txn: TxnId,
    /// The sequence number it was ordered at.
    pub seq: SeqNum,
    /// The verifier's signature.
    pub signature: Signature,
}

impl AbortMessage {
    /// The `ABORT` for `txn`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(txn: TxnId, seq: SeqNum, signer: &sbft_crypto::CryptoHandle) -> Self {
        let mut abort = AbortMessage {
            txn,
            seq,
            signature: Signature::ZERO,
        };
        abort.signature = signer.sign(&abort.signing_digest());
        abort
    }

    /// The digest the verifier signs and the client checks.
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        sbft_crypto::digest_u64s(
            "abort",
            &[self.seq.0, u64::from(self.txn.client.0), self.txn.counter],
        )
    }
}

/// Every message that travels between components of the architecture.
///
/// The enum is sized by its consensus variant: the two wider messages —
/// `EXECUTE` and `VERIFY`, a few per batch — travel behind a pointer, so
/// the per-transaction messages (`CLIENT-REQUEST`, `RESPONSE`) and every
/// [`Action`] carrying one stay small.
#[derive(Clone, PartialEq, Debug)]
pub enum ProtocolMessage {
    /// A signed client request (client → primary, or client → verifier on
    /// re-transmission).
    ClientRequest(ClientRequest),
    /// A shim-internal consensus message.
    Consensus(ConsensusMessage),
    /// `EXECUTE` from a spawning shim node to an executor.
    Execute(Box<ExecuteRequest>),
    /// `VERIFY` from an executor to the verifier (the handle the executor
    /// produced; a flooding executor's copies share one message).
    Verify(Arc<VerifyMessage>),
    /// `RESPONSE` from the verifier to a client.
    Response(ResponseMessage),
    /// `ABORT` from the verifier to a client.
    Abort(AbortMessage),
    /// Batch-level validation notice from the verifier to the primary.
    BatchValidated(BatchValidated),
    /// `ERROR` from the verifier to the shim nodes.
    Error(ErrorMessage),
    /// `REPLACE` from the verifier to the shim nodes.
    Replace(ReplaceMessage),
    /// `ACK` from the verifier to the shim nodes.
    Ack(AckMessage),
}

impl ProtocolMessage {
    /// Short message-kind label for traces and the CPU cost model.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ProtocolMessage::ClientRequest(_) => "CLIENT-REQUEST",
            ProtocolMessage::Consensus(c) => c.kind(),
            ProtocolMessage::Execute(_) => "EXECUTE",
            ProtocolMessage::Verify(_) => "VERIFY",
            ProtocolMessage::Response(_) => "RESPONSE",
            ProtocolMessage::Abort(_) => "ABORT",
            ProtocolMessage::BatchValidated(_) => "BATCH-VALIDATED",
            ProtocolMessage::Error(_) => "ERROR",
            ProtocolMessage::Replace(_) => "REPLACE",
            ProtocolMessage::Ack(_) => "ACK",
        }
    }

    /// Modeled wire size in bytes.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            ProtocolMessage::ClientRequest(r) => 120 + r.txn.wire_size(),
            ProtocolMessage::Consensus(c) => c.wire_size(),
            ProtocolMessage::Execute(e) => e.wire_size(),
            ProtocolMessage::Verify(v) => v.wire_size(),
            // The paper reports 2270 B responses (these carry the result
            // payload back to the client).
            ProtocolMessage::Response(_) => 2_270,
            ProtocolMessage::Abort(_) => 160,
            ProtocolMessage::BatchValidated(_) => 140,
            ProtocolMessage::Error(e) => 180 + e.request.as_ref().map_or(0, |r| r.txn.wire_size()),
            ProtocolMessage::Replace(_) | ProtocolMessage::Ack(_) => 180,
        }
    }
}

/// Where an envelope is headed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Destination {
    /// One specific shim node.
    Node(NodeId),
    /// Every shim node (including byzantine ones).
    AllNodes,
    /// One client.
    Client(ClientId),
    /// One executor.
    Executor(ExecutorId),
    /// The verifier.
    Verifier,
}

/// A message in flight between two components.
#[derive(Clone, PartialEq, Debug)]
pub struct Envelope {
    /// The sender.
    pub from: ComponentId,
    /// The receiver(s).
    pub to: Destination,
    /// The payload.
    pub msg: ProtocolMessage,
}

/// Timers owned by the protocol roles.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProtocolTimer {
    /// The client timer `τ_m` for one outstanding request.
    ClientRequest(TxnId),
    /// A timer owned by the shim node's ordering protocol.
    Consensus(ConsensusTimer),
    /// The node re-transmission timer `Υ` tracking an `ERROR` it forwarded.
    Retransmit(RecoverySubject),
    /// The verifier's abort-detection timer for a batch (Section VI-B).
    VerifierAbort(SeqNum),
    /// Probation on a region an invoker reactively marked down after a
    /// `SpawnRejected` answer: on expiry the region is tried again.
    RegionProbation(Region),
}

/// An action requested by a role state machine, interpreted by the runtime.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Send a message.
    Send(Envelope),
    /// Start (or restart) a timer owned by the emitting component.
    StartTimer {
        /// Which timer.
        timer: ProtocolTimer,
        /// How long until it fires.
        duration: SimDuration,
    },
    /// Cancel a timer owned by the emitting component.
    CancelTimer(ProtocolTimer),
    /// Ask the serverless cloud to spawn an executor and hand it the
    /// `EXECUTE` message once it is up.
    SpawnExecutor {
        /// The spawn request (spawner, region, batch).
        request: SpawnRequest,
        /// The `EXECUTE` message the new executor will process.
        execute: ExecuteRequest,
    },
    /// A client observed the final outcome of one of its transactions
    /// (terminal event used for latency/throughput accounting).
    TxnCompleted {
        /// The transaction.
        txn: TxnId,
        /// Commit or abort.
        outcome: TxnOutcome,
    },
    /// A shim node observed a batch commit locally (metrics hook).
    BatchCommitted {
        /// The committed sequence number.
        seq: SeqNum,
        /// Number of transactions in the batch.
        len: usize,
    },
    /// The verifier ran the concurrency-control check of a validated batch
    /// slice on an execution shard. Runtimes that model CPU (the
    /// simulator) charge this work to the shard's service station and
    /// delay the batch's outgoing responses until it completes; the
    /// thread runtime executes the work eagerly and ignores the hint.
    ShardCcheck {
        /// The shard the work ran on.
        shard: ShardId,
        /// Transactions checked on this shard.
        txns: u32,
        /// Total read/write-set entries validated and applied.
        accesses: u32,
        /// Whether the work ran on the verified ordering-time fast path
        /// (a `SingleHome` tag that survived re-derivation): no
        /// per-transaction route sets, no probe key map — charged
        /// cheaper than probed work by the CPU model.
        planned: bool,
        /// Whether this slice is cross-shard work acquiring execution
        /// locks in ascending shard order: a chained slice starts only
        /// after the previous chained slice of the same action list has
        /// granted (the lock-ordered staircase), while unchained slices
        /// run in parallel across shard stations.
        chained: bool,
    },
    /// The emitting component wrote to its durable write-ahead log.
    /// Runtimes that model CPU/disk charge the write (and the fsync, when
    /// set) to the component's station *before* any later action in the
    /// same list takes effect — that ordering is what makes a synced
    /// `Vote` record durable before the `COMMIT` message leaves the node.
    Persist {
        /// Encoded bytes appended to the log.
        bytes: u64,
        /// Whether the write ends with an fsync.
        fsync: bool,
    },
}

impl Action {
    /// Convenience constructor for a directed send.
    #[must_use]
    pub fn send(from: ComponentId, to: Destination, msg: ProtocolMessage) -> Self {
        Action::Send(Envelope { from, to, msg })
    }

    /// The envelope if this action is a send.
    #[must_use]
    pub fn as_send(&self) -> Option<&Envelope> {
        match self {
            Action::Send(e) => Some(e),
            _ => None,
        }
    }

    /// Whether this action sends a message of the given kind.
    #[must_use]
    pub fn sends_kind(&self, kind: &str) -> bool {
        self.as_send().is_some_and(|e| e.msg.kind() == kind)
    }
}

/// Test/metrics helper: all envelopes among a list of actions.
#[must_use]
pub fn envelopes(actions: &[Action]) -> Vec<&Envelope> {
    actions.iter().filter_map(Action::as_send).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Key, Operation};

    fn txn() -> Transaction {
        Transaction::new(TxnId::new(ClientId(1), 2), vec![Operation::Read(Key(3))])
    }

    #[test]
    fn cached_signing_digest_equals_fresh_computation() {
        let t = txn();
        let memoized = ClientRequest::signing_digest(&t);
        assert_eq!(memoized, ClientRequest::compute_signing_digest(&t));
        assert_eq!(t.cached_signing_digest(), Some(memoized));
        // Clones carry the cache, so downstream components never re-hash.
        assert_eq!(t.clone().cached_signing_digest(), Some(memoized));
    }

    #[test]
    fn client_request_digest_binds_id_and_ops() {
        let a = ClientRequest::signing_digest(&txn());
        let other = Transaction::new(TxnId::new(ClientId(1), 3), vec![Operation::Read(Key(3))]);
        assert_ne!(a, ClientRequest::signing_digest(&other));
        let write = Transaction::new(
            TxnId::new(ClientId(1), 2),
            vec![Operation::Write(Key(3), sbft_types::Value::new(0))],
        );
        assert_ne!(a, ClientRequest::signing_digest(&write));
        assert_eq!(a, ClientRequest::signing_digest(&txn()));
    }

    #[test]
    fn message_kinds_and_sizes() {
        let req = ProtocolMessage::ClientRequest(ClientRequest {
            txn: txn(),
            signature: Signature::ZERO,
        });
        assert_eq!(req.kind(), "CLIENT-REQUEST");
        assert!(req.wire_size() > 120);
        let resp = ProtocolMessage::Response(ResponseMessage {
            txn: TxnId::new(ClientId(1), 2),
            seq: SeqNum(1),
            outcome: TxnOutcome::Committed,
            output: 0,
            signature: Signature::ZERO,
        });
        assert_eq!(resp.wire_size(), 2_270);
        let err = ProtocolMessage::Error(ErrorMessage {
            subject: RecoverySubject::Seq(SeqNum(4)),
            request: None,
            signature: Signature::ZERO,
        });
        assert_eq!(err.kind(), "ERROR");
        assert!(err.wire_size() < resp.wire_size());
    }

    #[test]
    fn action_send_helpers() {
        let action = Action::send(
            ComponentId::Client(ClientId(0)),
            Destination::Node(NodeId(0)),
            ProtocolMessage::ClientRequest(ClientRequest {
                txn: txn(),
                signature: Signature::ZERO,
            }),
        );
        assert!(action.sends_kind("CLIENT-REQUEST"));
        assert!(!action.sends_kind("VERIFY"));
        assert_eq!(envelopes(std::slice::from_ref(&action)).len(), 1);
        let timer = Action::StartTimer {
            timer: ProtocolTimer::VerifierAbort(SeqNum(1)),
            duration: SimDuration::from_millis(1),
        };
        assert!(timer.as_send().is_none());
        assert_eq!(envelopes(&[timer]).len(), 0);
    }

    #[test]
    fn recovery_subjects_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(RecoverySubject::Seq(SeqNum(1)));
        set.insert(RecoverySubject::Txn(TxnId::new(ClientId(0), 0)));
        set.insert(RecoverySubject::Seq(SeqNum(1)));
        assert_eq!(set.len(), 2);
    }
}
