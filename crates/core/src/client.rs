//! The client role.
//!
//! "Any user that accesses the edge application becomes a client in our
//! system" (Section IV-A). A client signs its transaction, sends it to the
//! shim primary of the current view, and waits for a `RESPONSE` from the
//! trusted verifier. If the client timer `τ_m` expires, the client forwards
//! the request directly to the verifier and keeps re-transmitting with
//! exponential back-off until it receives a `RESPONSE` (Figure 4,
//! client role). Only an answer carrying the verifier's signature over
//! exactly this request counts; anything else leaves the timer armed.
//!
//! Clients follow the view (PBFT's own rule): every answer carries the
//! view the verifier last saw a batch certified in, under its signature,
//! and a client whose view is older moves its next submission to that
//! view's primary. It never guesses one.
//! Under digest proposals it sends to every shim node instead, so that
//! all of them can rebuild a batch the primary proposes by ids alone.

use crate::events::{Action, ClientRequest, Destination, ProtocolMessage, ProtocolTimer};
use sbft_crypto::CryptoHandle;
use sbft_types::{
    ClientId, ComponentId, InlineVec, NodeId, SimDuration, Transaction, TxnId, TxnOutcome,
    ViewNumber,
};

/// Factor the client timer grows by on every re-transmission to the
/// verifier (exponential back-off).
const BACKOFF_FACTOR: f64 = 2.0;

/// State of one outstanding request.
#[derive(Clone, Debug, Default)]
struct Outstanding {
    /// The request; `None` only in the filler of an unused inline slot.
    txn: Option<Transaction>,
    retries: u32,
    current_timeout: SimDuration,
}

impl Outstanding {
    fn txn(&self) -> &Transaction {
        self.txn.as_ref().expect("a listed request carries its txn")
    }
}

/// The client role state machine.
pub struct ClientRole {
    id: ClientId,
    crypto: CryptoHandle,
    /// Shim size: the primary of `view` is `view mod n_r`. Two bytes, so
    /// that it and `broadcast` share the word `id` leaves.
    n_r: u16,
    /// The highest view a verified answer carried.
    view: ViewNumber,
    /// Whether requests go to every shim node (digest proposals).
    broadcast: bool,
    base_timeout: SimDuration,
    /// Requests awaiting a response, searched by id. A closed-loop client
    /// has one, which lives in the role itself: no heap block per client.
    outstanding: InlineVec<Outstanding, 1>,
    completed: u64,
    aborted: u64,
}

impl ClientRole {
    /// Creates a client of a shim of `n_r` nodes; it submits to the
    /// primary of view 0 until an answer names a later view, or to every
    /// node when the shim runs digest proposals.
    #[must_use]
    pub fn new(
        id: ClientId,
        crypto: CryptoHandle,
        n_r: usize,
        base_timeout: SimDuration,
        digest_proposals: bool,
    ) -> Self {
        ClientRole {
            id,
            crypto,
            n_r: u16::try_from(n_r).expect("a shim of at most u16::MAX nodes"),
            view: ViewNumber(0),
            broadcast: digest_proposals,
            base_timeout,
            outstanding: InlineVec::new(),
            completed: 0,
            aborted: 0,
        }
    }

    /// This client's identifier.
    #[must_use]
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of responses received (committed transactions).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of aborts received.
    #[must_use]
    pub fn aborted(&self) -> u64 {
        self.aborted
    }

    /// Number of requests still awaiting a response.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    fn position(&self, txn: TxnId) -> Option<usize> {
        self.outstanding.iter().position(|o| o.txn().id == txn)
    }

    /// [`Self::submit_into`] into a fresh list.
    pub fn submit(&mut self, txn: Transaction) -> Vec<Action> {
        let mut out = Vec::with_capacity(2);
        self.submit_into(txn, &mut out);
        out
    }

    /// Submits a transaction: sign it, send `⟨T⟩_C` to the primary of the
    /// client's view (to every node under digest proposals), and start
    /// the client timer `τ_m` (Figure 3 line 1, Figure 4 line 1).
    /// The two actions are appended to `out`, a buffer the caller reuses.
    pub fn submit_into(&mut self, txn: Transaction, out: &mut Vec<Action>) {
        assert_eq!(
            txn.id.client, self.id,
            "clients only sign their own transactions"
        );
        let digest = ClientRequest::signing_digest(&txn);
        let request = ClientRequest {
            txn: txn.clone(),
            signature: self.crypto.sign(&digest),
        };
        let id = txn.id;
        let entry = Outstanding {
            txn: Some(txn),
            retries: 0,
            current_timeout: self.base_timeout,
        };
        match self.position(id) {
            Some(at) => self.outstanding[at] = entry,
            None => self.outstanding.push(entry),
        }
        let to = if self.broadcast {
            Destination::AllNodes
        } else {
            Destination::Node(NodeId::primary_of(self.view, usize::from(self.n_r)))
        };
        out.push(Action::send(
            ComponentId::Client(self.id),
            to,
            ProtocolMessage::ClientRequest(request),
        ));
        out.push(Action::StartTimer {
            timer: ProtocolTimer::ClientRequest(id),
            duration: self.base_timeout,
        });
    }

    /// [`Self::on_message_into`] into a fresh list.
    pub fn on_message(&mut self, msg: &ProtocolMessage) -> Vec<Action> {
        let mut out = Vec::new();
        self.on_message_into(msg, &mut out);
        out
    }

    /// Handles a `RESPONSE` or `ABORT` from the verifier, appending the
    /// resulting actions to `out`. An answer whose signature is not the
    /// verifier's over exactly this transaction's answer is ignored: the
    /// request stays outstanding and its timer armed. A verified answer
    /// from a later view moves the client's next submission to that
    /// view's primary.
    pub fn on_message_into(&mut self, msg: &ProtocolMessage, out: &mut Vec<Action>) {
        let (txn, outcome, view, digest, signature) = match msg {
            ProtocolMessage::Response(r) => {
                (r.txn, r.outcome, r.view, r.signing_digest(), &r.signature)
            }
            ProtocolMessage::Abort(a) => (
                a.txn,
                TxnOutcome::Aborted,
                a.view,
                a.signing_digest(),
                &a.signature,
            ),
            _ => return,
        };
        let Some(at) = self.position(txn) else {
            // Duplicate response (e.g. re-sent by the verifier after a
            // retry); the request was already marked processed.
            return;
        };
        if !self
            .crypto
            .verify(ComponentId::Verifier, &digest, signature)
        {
            return;
        }
        self.outstanding.swap_remove(at);
        self.view = self.view.max(view);
        match outcome {
            TxnOutcome::Committed => self.completed += 1,
            TxnOutcome::Aborted => self.aborted += 1,
        }
        out.push(Action::CancelTimer(ProtocolTimer::ClientRequest(txn)));
        out.push(Action::TxnCompleted { txn, outcome });
    }

    /// Handles the expiry of the client timer for `txn`: forward the
    /// request to the verifier, back off, restart the timer.
    pub fn on_timeout(&mut self, txn: TxnId) -> Vec<Action> {
        let Some(at) = self.position(txn) else {
            return Vec::new(); // already answered
        };
        let entry = &mut self.outstanding[at];
        entry.retries += 1;
        entry.current_timeout = entry.current_timeout.mul_f64(BACKOFF_FACTOR);
        let digest = ClientRequest::signing_digest(entry.txn());
        let request = ClientRequest {
            txn: entry.txn().clone(),
            signature: self.crypto.sign(&digest),
        };
        let duration = entry.current_timeout;
        vec![
            Action::send(
                ComponentId::Client(self.id),
                Destination::Verifier,
                ProtocolMessage::ClientRequest(request),
            ),
            Action::StartTimer {
                timer: ProtocolTimer::ClientRequest(txn),
                duration,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{AbortMessage, ResponseMessage};
    use sbft_crypto::CryptoProvider;
    use sbft_types::{Key, Operation, SeqNum, Signature};

    fn client() -> ClientRole {
        let provider = CryptoProvider::new(3);
        ClientRole::new(
            ClientId(7),
            provider.handle(ComponentId::Client(ClientId(7))),
            4,
            SimDuration::from_millis(100),
            false,
        )
    }

    fn txn(counter: u64) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(7), counter),
            vec![Operation::Read(Key(1))],
        )
    }

    /// The answer to request `counter` in `view`, signed by `signer`.
    fn answer_in(
        signer: ComponentId,
        counter: u64,
        outcome: TxnOutcome,
        view: u64,
    ) -> ProtocolMessage {
        let handle = CryptoProvider::new(3).handle(signer);
        let txn = TxnId::new(ClientId(7), counter);
        let view = ViewNumber(view);
        match outcome {
            TxnOutcome::Committed => ProtocolMessage::Response(ResponseMessage::signed(
                txn,
                SeqNum(1),
                outcome,
                9,
                view,
                &handle,
            )),
            TxnOutcome::Aborted => {
                ProtocolMessage::Abort(AbortMessage::signed(txn, SeqNum(1), view, &handle))
            }
        }
    }

    fn response(counter: u64, outcome: TxnOutcome) -> ProtocolMessage {
        answer_in(ComponentId::Verifier, counter, outcome, 0)
    }

    /// Where the client sends its next request, `counter`.
    fn next_target(c: &mut ClientRole, counter: u64) -> Destination {
        c.submit(txn(counter))[0].as_send().expect("a send").to
    }

    /// The request is still outstanding and a timeout still re-sends it.
    fn assert_still_waiting(c: &mut ClientRole, counter: u64) {
        assert_eq!((c.completed(), c.aborted(), c.outstanding()), (0, 0, 1));
        assert_eq!(c.on_timeout(TxnId::new(ClientId(7), counter)).len(), 2);
    }

    #[test]
    fn submit_sends_signed_request_to_primary_and_starts_timer() {
        let mut c = client();
        let actions = c.submit(txn(0));
        assert_eq!(actions.len(), 2);
        let env = actions[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Node(NodeId(0)));
        match &env.msg {
            ProtocolMessage::ClientRequest(r) => {
                // The signature must verify as this client's.
                let digest = ClientRequest::signing_digest(&r.txn);
                let provider = CryptoProvider::new(3);
                assert!(provider.verify(ComponentId::Client(ClientId(7)), &digest, &r.signature));
            }
            other => panic!("unexpected message {other:?}"),
        }
        assert!(matches!(actions[1], Action::StartTimer { .. }));
        assert_eq!(c.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "own transactions")]
    fn submitting_a_foreign_transaction_panics() {
        let mut c = client();
        let foreign = Transaction::new(TxnId::new(ClientId(8), 0), vec![]);
        let _ = c.submit(foreign);
    }

    #[test]
    fn response_completes_request_and_cancels_timer() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let actions = c.on_message(&response(0, TxnOutcome::Committed));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::CancelTimer(ProtocolTimer::ClientRequest(_)))));
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::TxnCompleted {
                outcome: TxnOutcome::Committed,
                ..
            }
        )));
        assert_eq!(c.completed(), 1);
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn duplicate_responses_are_ignored() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&response(0, TxnOutcome::Committed));
        assert!(c.on_message(&response(0, TxnOutcome::Committed)).is_empty());
        assert_eq!(c.completed(), 1);
    }

    #[test]
    fn abort_counts_separately() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&response(0, TxnOutcome::Aborted));
        assert_eq!(c.aborted(), 1);
        assert_eq!(c.completed(), 0);
    }

    #[test]
    fn an_answer_not_signed_by_the_verifier_is_ignored() {
        for outcome in [TxnOutcome::Committed, TxnOutcome::Aborted] {
            let mut c = client();
            let _ = c.submit(txn(0));
            // Validly signed, but by a shim node.
            let forged = answer_in(ComponentId::Node(NodeId(0)), 0, outcome, 0);
            assert!(c.on_message(&forged).is_empty());
            assert_still_waiting(&mut c, 0);
            // The verifier's own answer still completes the request.
            assert_eq!(c.on_message(&response(0, outcome)).len(), 2);
        }
    }

    #[test]
    fn a_zero_signed_answer_is_ignored() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let mut unsigned = response(0, TxnOutcome::Committed);
        if let ProtocolMessage::Response(r) = &mut unsigned {
            r.signature = Signature::ZERO;
        }
        assert!(c.on_message(&unsigned).is_empty());
        let unsigned_abort = ProtocolMessage::Abort(AbortMessage {
            txn: TxnId::new(ClientId(7), 0),
            seq: SeqNum(1),
            view: ViewNumber(0),
            signature: Signature::ZERO,
        });
        assert!(c.on_message(&unsigned_abort).is_empty());
        assert_still_waiting(&mut c, 0);
    }

    #[test]
    fn an_answer_signed_for_another_transaction_is_ignored() {
        // Same batch, same output: before the id was bound into the
        // marker one signed RESPONSE fitted every such transaction.
        let mut c = client();
        let _ = c.submit(txn(1));
        for outcome in [TxnOutcome::Committed, TxnOutcome::Aborted] {
            let mut replayed = response(0, outcome);
            match &mut replayed {
                ProtocolMessage::Response(r) => r.txn.counter = 1,
                ProtocolMessage::Abort(a) => a.txn.counter = 1,
                _ => unreachable!(),
            }
            assert!(c.on_message(&replayed).is_empty());
        }
        // Nor can a signed RESPONSE be flipped into an abort.
        let mut flipped = response(1, TxnOutcome::Committed);
        if let ProtocolMessage::Response(r) = &mut flipped {
            r.outcome = TxnOutcome::Aborted;
        }
        assert!(c.on_message(&flipped).is_empty());
        assert_still_waiting(&mut c, 1);
    }

    #[test]
    fn a_verified_answer_from_a_later_view_retargets_the_next_submit() {
        for outcome in [TxnOutcome::Committed, TxnOutcome::Aborted] {
            let mut c = client();
            assert_eq!(next_target(&mut c, 0), Destination::Node(NodeId(0)));
            let _ = c.on_message(&answer_in(ComponentId::Verifier, 0, outcome, 2));
            assert_eq!(next_target(&mut c, 1), Destination::Node(NodeId(2)));
        }
    }

    #[test]
    fn an_answer_from_the_same_or_an_earlier_view_keeps_the_target() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&answer_in(
            ComponentId::Verifier,
            0,
            TxnOutcome::Committed,
            2,
        ));
        for (counter, view) in [(1, 2), (2, 1), (3, 0)] {
            let _ = c.submit(txn(counter));
            let answer = answer_in(ComponentId::Verifier, counter, TxnOutcome::Committed, view);
            assert_eq!(c.on_message(&answer).len(), 2, "the answer counts");
            assert_eq!(
                next_target(&mut c, 10 + counter),
                Destination::Node(NodeId(2))
            );
        }
    }

    #[test]
    fn a_forged_answer_carrying_a_later_view_moves_nothing() {
        for outcome in [TxnOutcome::Committed, TxnOutcome::Aborted] {
            let mut c = client();
            let _ = c.submit(txn(0));
            // The verifier's view-0 answer with its view raised: the
            // signature covers the view, so it no longer verifies.
            let mut raised = response(0, outcome);
            match &mut raised {
                ProtocolMessage::Response(r) => r.view = ViewNumber(3),
                ProtocolMessage::Abort(a) => a.view = ViewNumber(3),
                _ => unreachable!(),
            }
            assert!(c.on_message(&raised).is_empty());
            // Signed for view 3, but by a shim node.
            let by_a_node = answer_in(ComponentId::Node(NodeId(3)), 0, outcome, 3);
            assert!(c.on_message(&by_a_node).is_empty());
            assert_still_waiting(&mut c, 0);
            assert_eq!(next_target(&mut c, 1), Destination::Node(NodeId(0)));
        }
    }

    #[test]
    fn the_followed_view_wraps_round_the_shim() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&answer_in(
            ComponentId::Verifier,
            0,
            TxnOutcome::Committed,
            5,
        ));
        assert_eq!(
            next_target(&mut c, 1),
            Destination::Node(NodeId(1)),
            "5 mod 4"
        );
    }

    #[test]
    fn timeout_retransmits_to_verifier_with_backoff() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let first = c.on_timeout(TxnId::new(ClientId(7), 0));
        let env = first[0].as_send().unwrap();
        assert_eq!(env.to, Destination::Verifier);
        let d1 = match first[1] {
            Action::StartTimer { duration, .. } => duration,
            _ => panic!("expected timer restart"),
        };
        assert_eq!(d1, SimDuration::from_millis(200), "one doubling");
        let second = c.on_timeout(TxnId::new(ClientId(7), 0));
        let d2 = match second[1] {
            Action::StartTimer { duration, .. } => duration,
            _ => panic!("expected timer restart"),
        };
        assert_eq!(d2, SimDuration::from_millis(400), "exponential back-off");
    }

    #[test]
    fn timeout_after_response_is_a_no_op() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let _ = c.on_message(&response(0, TxnOutcome::Committed));
        assert!(c.on_timeout(TxnId::new(ClientId(7), 0)).is_empty());
    }

    #[test]
    fn unrelated_messages_are_ignored() {
        let mut c = client();
        let _ = c.submit(txn(0));
        let msg = ProtocolMessage::BatchValidated(crate::events::BatchValidated {
            seq: SeqNum(1),
            committed: 1,
            aborted: 0,
        });
        assert!(c.on_message(&msg).is_empty());
    }
}
