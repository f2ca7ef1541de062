//! The architecture-wide message and action vocabulary.
//!
//! Every role state machine in this crate consumes [`ProtocolMessage`]s and
//! timer expirations and produces [`Action`]s. The discrete-event simulator
//! and the thread runtime are interchangeable interpreters of these
//! actions; neither the roles nor the attacks ever touch a clock or a
//! socket directly.

use sbft_consensus::{ConsensusMessage, ConsensusTimer};
use sbft_serverless::{ExecuteRequest, SpawnRequest, VerifyMessage};
use sbft_types::{
    ClientId, ComponentId, ExecutorId, NodeId, Region, SeqNum, Signature, SimDuration, Transaction,
    TxnId, TxnOutcome, ViewNumber,
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
    /// The digest a client signs for its request. It binds every field
    /// of the transaction ([`sbft_crypto::hashing::absorb_transaction`]),
    /// so a request whose body was altered after signing no longer
    /// verifies.
    ///
    /// Always hashed, never cached: the client hashes what it signs, and
    /// the primary and the verifier each hash the body they were handed
    /// before checking the signature against it.
    #[must_use]
    pub fn signing_digest(txn: &Transaction) -> sbft_types::Digest {
        let mut h = sbft_crypto::U64Hasher::new("sbft-client-request");
        sbft_crypto::hashing::absorb_transaction(&mut h, txn);
        h.finish()
    }
}

/// `RESPONSE(Δ, r)` or `ABORT(T)` from the verifier to a client
/// (Section VI-B): the verifier's answer to one transaction. An abort is
/// the answer with outcome [`TxnOutcome::Aborted`] and output 0; the
/// outcome picks the message's kind ([`ProtocolMessage::answer`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResponseMessage {
    /// The transaction this answer is for.
    pub txn: TxnId,
    /// The sequence number of the batch containing it.
    pub seq: SeqNum,
    /// Whether the transaction committed or was aborted.
    pub outcome: TxnOutcome,
    /// The execution output (0 for an abort).
    pub output: u64,
    /// The highest shim view the verifier has seen a matched batch
    /// certified in: clients follow it to the current primary.
    pub view: ViewNumber,
    /// The verifier's signature over the answer.
    pub signature: Signature,
}

impl ResponseMessage {
    /// The answer for `txn`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(
        txn: TxnId,
        seq: SeqNum,
        outcome: TxnOutcome,
        output: u64,
        view: ViewNumber,
        signer: &sbft_crypto::CryptoHandle,
    ) -> Self {
        let mut response = ResponseMessage {
            txn,
            seq,
            outcome,
            output,
            view,
            signature: Signature::ZERO,
        };
        response.signature = signer.sign(&response.signing_digest());
        response
    }

    /// The digest the verifier signs and the client checks: every field,
    /// so an answer fits exactly the transaction it was given to (one
    /// signed `RESPONSE` used to fit every transaction of its batch with
    /// the same output). The view rides above the outcome bit of the last
    /// word, so a view-0 answer hashes exactly as before views were sent.
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        sbft_crypto::digest_u64s(
            "response",
            &[
                self.seq.0,
                self.output,
                u64::from(self.txn.client.0),
                self.txn.counter,
                u64::from(self.outcome == TxnOutcome::Committed) | self.view.0 << 1,
            ],
        )
    }
}

/// Notification from the verifier to the shim nodes that a whole batch
/// has been validated (used by the conflict-avoidance planner to release
/// logical locks, Section VI-C step 4, and to retire the batch and its
/// duplicate-suppression window).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BatchValidated {
    /// The validated batch.
    pub seq: SeqNum,
    /// Transactions whose writes were applied.
    pub committed: u32,
    /// Transactions aborted by the concurrency-control check.
    pub aborted: u32,
    /// The verifier's signature.
    pub signature: Signature,
}

impl BatchValidated {
    /// The notice for batch `seq`, signed by `signer` (the verifier).
    #[must_use]
    pub fn signed(
        seq: SeqNum,
        committed: u32,
        aborted: u32,
        signer: &sbft_crypto::CryptoHandle,
    ) -> Self {
        let mut validated = BatchValidated {
            seq,
            committed,
            aborted,
            signature: Signature::ZERO,
        };
        validated.signature = signer.sign(&validated.signing_digest());
        validated
    }

    /// The digest the verifier signs and a node checks: every field.
    #[must_use]
    pub fn signing_digest(&self) -> sbft_types::Digest {
        sbft_crypto::digest_u64s(
            "batch-validated",
            &[
                self.seq.0,
                u64::from(self.committed),
                u64::from(self.aborted),
            ],
        )
    }
}

/// What a recovery notice (ERROR / REPLACE / ACK) is about.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RecoverySubject {
    /// The verifier is waiting for the request ordered at this sequence
    /// number (`ERROR(k_max)`).
    Seq(SeqNum),
    /// The verifier has seen no `VERIFY` message for this transaction
    /// (`ERROR(⟨T⟩_C)`).
    Txn(TxnId),
}

/// Which recovery notice the verifier sends (Figure 4).
#[derive(Clone, PartialEq, Debug)]
pub enum NoticeMarker {
    /// `ERROR`: the subject is missing. For the missing-transaction case
    /// (`ERROR(⟨T⟩_C)`) it carries the client's signed request so the
    /// (possibly new) primary can order it — Figure 4 line 12. Boxed:
    /// the recovery path is rare, and an inline request would make every
    /// [`Action`] as large as this one.
    Error(Option<Box<ClientRequest>>),
    /// `REPLACE`: the primary is provably misbehaving and must be
    /// replaced.
    Replace,
    /// `ACK`: the previously reported subject has been validated,
    /// releasing the nodes' re-transmission timers `Υ`.
    Ack,
}

/// `ERROR`, `REPLACE` or `ACK`, broadcast by the verifier to the shim
/// nodes and signed by it.
#[derive(Clone, PartialEq, Debug)]
pub struct RecoveryNotice {
    /// Which notice this is.
    pub marker: NoticeMarker,
    /// What it is about.
    pub subject: RecoverySubject,
    /// The verifier's signature.
    pub signature: Signature,
}

impl RecoveryNotice {
    /// The notice `marker` about `subject`, signed by `signer` (the
    /// verifier).
    #[must_use]
    pub fn signed(
        marker: NoticeMarker,
        subject: RecoverySubject,
        signer: &sbft_crypto::CryptoHandle,
    ) -> Self {
        let mut notice = RecoveryNotice {
            marker,
            subject,
            signature: Signature::ZERO,
        };
        notice.signature = signer.sign(&notice.signing_digest(notice.request_digest().as_ref()));
        notice
    }

    /// The signing digest of the request an `ERROR(⟨T⟩_C)` carries, if
    /// it carries one.
    #[must_use]
    pub fn request_digest(&self) -> Option<sbft_types::Digest> {
        match &self.marker {
            NoticeMarker::Error(Some(request)) => Some(ClientRequest::signing_digest(&request.txn)),
            _ => None,
        }
    }

    /// The digest the verifier signs and a node checks: the marker's
    /// label (`error`, `replace` or `ack`), the subject and, for an
    /// `ERROR(⟨T⟩_C)`, `request_digest` — the carried request's
    /// [`Self::request_digest`] — so the request cannot be swapped under
    /// the verifier's signature either. The caller hashes the request, so
    /// a receiver that goes on to order it hashes it once.
    #[must_use]
    pub fn signing_digest(
        &self,
        request_digest: Option<&sbft_types::Digest>,
    ) -> sbft_types::Digest {
        let label = match &self.marker {
            NoticeMarker::Error(_) => "error",
            NoticeMarker::Replace => "replace",
            NoticeMarker::Ack => "ack",
        };
        let mut h = sbft_crypto::U64Hasher::new(label);
        match self.subject {
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
        if let Some(request_digest) = request_digest {
            h.push_digest(request_digest);
        }
        h.finish()
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
    /// `RESPONSE` from the verifier to a client: a committed answer.
    Response(ResponseMessage),
    /// `ABORT` from the verifier to a client: an aborted answer.
    Abort(ResponseMessage),
    /// Batch-level validation notice from the verifier to the shim nodes.
    BatchValidated(BatchValidated),
    /// `ERROR`, `REPLACE` or `ACK` from the verifier to the shim nodes.
    Notice(RecoveryNotice),
}

impl ProtocolMessage {
    /// The `RESPONSE` or `ABORT` carrying `answer`, by its outcome.
    #[must_use]
    pub fn answer(answer: ResponseMessage) -> Self {
        match answer.outcome {
            TxnOutcome::Committed => ProtocolMessage::Response(answer),
            TxnOutcome::Aborted => ProtocolMessage::Abort(answer),
        }
    }

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
            ProtocolMessage::Notice(n) => match n.marker {
                NoticeMarker::Error(_) => "ERROR",
                NoticeMarker::Replace => "REPLACE",
                NoticeMarker::Ack => "ACK",
            },
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
            ProtocolMessage::Notice(n) => match &n.marker {
                NoticeMarker::Error(Some(request)) => 180 + request.txn.wire_size(),
                _ => 180,
            },
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

impl Destination {
    /// The shim nodes a send from `sender` reaches in a shim of `n` nodes,
    /// in id order: `Node` names one, `AllNodes` is every node but the
    /// sender, and the other destinations are no shim node. The
    /// simulator, the thread runtime and [`crate::lockstep`] expand node
    /// sends through this.
    pub fn nodes(
        self,
        sender: ComponentId,
        n: usize,
    ) -> impl DoubleEndedIterator<Item = NodeId> + Clone {
        let (ids, skip) = match self {
            Destination::Node(id) => (id.0..id.0 + 1, None),
            Destination::AllNodes => (0..n as u32, sender.as_node()),
            _ => (0..0, None),
        };
        ids.map(NodeId).filter(move |id| Some(*id) != skip)
    }
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
    /// The verifier ran the concurrency-control check (`ccheck`) of one
    /// matched batch, every transaction in batch order on its own thread.
    /// Runtimes that model CPU (the simulator) charge this work to the
    /// verifier's one apply station and delay the batch's outgoing
    /// responses until it completes; the thread runtime executes the
    /// work eagerly and ignores the hint.
    Ccheck {
        /// Total read/write-set entries validated and applied.
        accesses: u32,
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
    fn every_transaction_field_moves_both_digests() {
        // A byzantine primary or filler must not be able to change any
        // field equality compares (a written value, an RMW salt, the
        // declared set, the cost, the payload) under the client's
        // signature or under the batch digest Δ.
        use sbft_consensus::messages::compute_batch_digest;
        use sbft_types::{Batch, RwSetKeys, SimDuration, Value};
        #[derive(Clone)]
        struct Shape {
            counter: u64,
            ops: Vec<Operation>,
            rwset: Option<RwSetKeys>,
            cost: u64,
            payload: u32,
        }
        let build = |s: Shape| {
            let txn = Transaction::new(TxnId::new(ClientId(1), s.counter), s.ops)
                .with_execution_cost(SimDuration::from_micros(s.cost))
                .with_payload_len(s.payload);
            match s.rwset {
                Some(rwset) => txn.with_declared_rwset(rwset),
                None => txn,
            }
        };
        let shape = Shape {
            counter: 2,
            ops: vec![
                Operation::Write(Key(3), Value::with_len(10, 100)),
                Operation::ReadModifyWrite(Key(4), 5),
            ],
            rwset: Some(RwSetKeys::new([Key(4)], [Key(3), Key(4)])),
            cost: 50,
            payload: 40,
        };
        type Mutation = (&'static str, fn(&mut Shape));
        let mutations: [Mutation; 10] = [
            ("txn id", |s| s.counter = 3),
            ("op kind", |s| s.ops[0] = Operation::Read(Key(3))),
            ("op key", |s| {
                s.ops[0] = Operation::Write(Key(9), Value::with_len(10, 100))
            }),
            ("value data", |s| {
                s.ops[0] = Operation::Write(Key(3), Value::with_len(11, 100))
            }),
            ("value length", |s| {
                s.ops[0] = Operation::Write(Key(3), Value::with_len(10, 101))
            }),
            ("rmw salt", |s| {
                s.ops[1] = Operation::ReadModifyWrite(Key(4), 6)
            }),
            ("declared set", |s| {
                s.rwset = Some(RwSetKeys::new([], [Key(3), Key(4)]))
            }),
            ("no declared set", |s| s.rwset = None),
            ("execution cost", |s| s.cost = 51),
            ("payload length", |s| s.payload = 41),
        ];
        let base = build(shape.clone());
        let request = ClientRequest::signing_digest(&base);
        let delta = compute_batch_digest(&Batch::new(vec![base.clone()]));
        for (field, mutate) in mutations {
            let mut mutated = shape.clone();
            mutate(&mut mutated);
            let mutant = build(mutated);
            assert_ne!(mutant, base, "{field}: the mutant differs");
            assert_ne!(
                ClientRequest::signing_digest(&mutant),
                request,
                "{field} moves the request digest"
            );
            assert_ne!(
                compute_batch_digest(&Batch::new(vec![mutant])),
                delta,
                "{field} moves the batch digest"
            );
        }
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
            view: ViewNumber(0),
            signature: Signature::ZERO,
        });
        assert_eq!(resp.wire_size(), 2_270);
        let err = ProtocolMessage::Notice(RecoveryNotice {
            marker: NoticeMarker::Error(None),
            subject: RecoverySubject::Seq(SeqNum(4)),
            signature: Signature::ZERO,
        });
        assert_eq!(err.kind(), "ERROR");
        assert!(err.wire_size() < resp.wire_size());
    }

    #[test]
    fn a_view_0_answer_hashes_as_before_views_were_signed_and_a_view_moves_it() {
        let txn = TxnId::new(ClientId(9), 4);
        let answer = |outcome, output, view| ResponseMessage {
            txn,
            seq: SeqNum(3),
            outcome,
            output,
            view: ViewNumber(view),
            signature: Signature::ZERO,
        };
        let response = |view| answer(TxnOutcome::Committed, 77, view);
        let abort = |view| answer(TxnOutcome::Aborted, 0, view);
        // The preimage of a response before it carried a view; an abort
        // is the same formula with outcome bit 0 and output 0.
        assert_eq!(
            response(0).signing_digest(),
            sbft_crypto::digest_u64s("response", &[3, 77, 9, 4, 1])
        );
        assert_eq!(
            abort(0).signing_digest(),
            sbft_crypto::digest_u64s("response", &[3, 0, 9, 4, 0])
        );
        assert_ne!(response(1).signing_digest(), response(0).signing_digest());
        assert_ne!(abort(1).signing_digest(), abort(0).signing_digest());
        assert_eq!(ProtocolMessage::answer(response(0)).kind(), "RESPONSE");
        assert_eq!(ProtocolMessage::answer(abort(0)).kind(), "ABORT");
        assert_eq!(ProtocolMessage::answer(abort(0)).wire_size(), 160);
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
