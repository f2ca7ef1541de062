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
        let (ProtocolMessage::Response(answer) | ProtocolMessage::Abort(answer)) = msg else {
            return;
        };
        let Some(at) = self.position(answer.txn) else {
            // Duplicate response (e.g. re-sent by the verifier after a
            // retry); the request was already marked processed.
            return;
        };
        if !self.crypto.verify(
            ComponentId::Verifier,
            &answer.signing_digest(),
            &answer.signature,
        ) {
            return;
        }
        self.outstanding.swap_remove(at);
        self.view = self.view.max(answer.view);
        let (txn, outcome) = (answer.txn, answer.outcome);
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
    use crate::events::ResponseMessage;
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
        let output = match outcome {
            TxnOutcome::Committed => 9,
            TxnOutcome::Aborted => 0,
        };
        ProtocolMessage::answer(ResponseMessage::signed(
            txn,
            SeqNum(1),
            outcome,
            output,
            ViewNumber(view),
            &handle,
        ))
    }

    fn response(counter: u64, outcome: TxnOutcome) -> ProtocolMessage {
        answer_in(ComponentId::Verifier, counter, outcome, 0)
    }

    /// Where the client sends its next request, `counter`.
    fn next_target(c: &mut ClientRole, counter: u64) -> Destination {
        c.submit(txn(counter))[0].as_send().expect("a send").to
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

    /// The answer inside a `RESPONSE` or `ABORT`, with `flip` applied.
    fn flipped(msg: ProtocolMessage, flip: impl FnOnce(&mut ResponseMessage)) -> ResponseMessage {
        let (ProtocolMessage::Response(mut answer) | ProtocolMessage::Abort(mut answer)) = msg
        else {
            panic!("not an answer: {msg:?}");
        };
        flip(&mut answer);
        answer
    }

    #[test]
    fn a_forged_answer_moves_nothing() {
        // Each case forges the verifier's answer to request 0: one signed
        // field flipped, the signature zeroed, or the answer signed for
        // view 3 by a shim node. The client acts on none of them. The
        // flipped `txn` names its other outstanding request (before the id
        // was bound into the digest, one signed RESPONSE fitted every
        // transaction of its batch with the same output).
        for outcome in [TxnOutcome::Committed, TxnOutcome::Aborted] {
            let genuine = response(0, outcome);
            let other = match outcome {
                TxnOutcome::Committed => TxnOutcome::Aborted,
                TxnOutcome::Aborted => TxnOutcome::Committed,
            };
            let by_a_node = answer_in(ComponentId::Node(NodeId(3)), 0, outcome, 3);
            let forgeries = [
                ("txn", flipped(genuine.clone(), |a| a.txn.counter = 1)),
                ("seq", flipped(genuine.clone(), |a| a.seq = SeqNum(2))),
                ("outcome", flipped(genuine.clone(), |a| a.outcome = other)),
                ("output", flipped(genuine.clone(), |a| a.output = 1)),
                ("view", flipped(genuine.clone(), |a| a.view = ViewNumber(3))),
                (
                    "no signature",
                    flipped(genuine.clone(), |a| a.signature = Signature::ZERO),
                ),
                ("a node's signature", flipped(by_a_node, |_| {})),
            ];
            for (forgery, forged) in forgeries {
                let mut c = client();
                let _ = c.submit(txn(0));
                let _ = c.submit(txn(1));
                let actions = c.on_message(&ProtocolMessage::answer(forged));
                assert!(actions.is_empty(), "{outcome:?}, {forgery}: {actions:?}");
                assert_eq!((c.completed(), c.aborted(), c.outstanding()), (0, 0, 2));
                assert_eq!(next_target(&mut c, 2), Destination::Node(NodeId(0)));
                // The verifier's own answer still completes the request.
                assert_eq!(c.on_message(&genuine).len(), 2, "{forgery}");
            }
        }
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
        let msg = ProtocolMessage::BatchValidated(crate::events::BatchValidated::signed(
            SeqNum(1),
            1,
            0,
            &CryptoProvider::new(3).handle(ComponentId::Verifier),
        ));
        assert!(c.on_message(&msg).is_empty());
    }
}
