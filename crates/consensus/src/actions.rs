//! Actions emitted by the consensus state machines.
//!
//! The state machines never touch the network or a clock directly; they
//! return a list of [`ConsensusAction`]s that the simulator or the thread
//! runtime interprets. This is what makes the protocols testable in
//! isolation and lets the byzantine-attack layer of `sbft-core` intercept
//! and drop/modify outgoing messages of compromised nodes.

use crate::messages::ConsensusMessage;
use sbft_crypto::CommitCertificate;
use sbft_types::{Batch, NodeId, SeqNum, SimDuration, ViewNumber};
use std::sync::Arc;

/// Timers a consensus replica can request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ConsensusTimer {
    /// The node timer `τ_m` for the request at the given sequence number:
    /// started when a `PREPREPARE` arrives, cancelled on commit, and
    /// triggering a view change on expiry (Section V-A).
    Request(SeqNum),
    /// A timer bounding how long a view change may take before the node
    /// escalates to the next view.
    ViewChange(ViewNumber),
    /// The retransmission timer of a recovering replica's `STATEREQUEST`:
    /// started when recovery broadcasts the request, re-armed with capped
    /// exponential backoff on every expiry, and cancelled when a useful
    /// `STATERESPONSE` arrives. Retries rotate through the peers one at a
    /// time instead of re-broadcasting.
    StateTransfer,
}

/// An action requested by a consensus state machine.
#[derive(Clone, PartialEq, Debug)]
pub enum ConsensusAction {
    /// Send a message to every other shim node.
    Broadcast(ConsensusMessage),
    /// Send a message to one specific shim node.
    Send(NodeId, ConsensusMessage),
    /// The replica has locally committed `batch` at `seq` in `view`; the
    /// certificate carries the `2f_R + 1` commit signatures that the
    /// ServerlessBFT layer ships to the executors. Both the batch and the
    /// certificate are reference-counted handles: emitting this action
    /// never deep-copies transactions or signatures.
    Committed {
        /// View in which the batch committed.
        view: ViewNumber,
        /// Sequence number assigned to the batch.
        seq: SeqNum,
        /// The committed batch.
        batch: Batch,
        /// Certificate proving the quorum: empty for the CFT baseline,
        /// which produces no signatures, and absent for NoShim.
        certificate: Option<Arc<CommitCertificate>>,
    },
    /// Start (or restart) a timer.
    StartTimer {
        /// Which timer to start.
        timer: ConsensusTimer,
        /// How long until it fires.
        duration: SimDuration,
    },
    /// Cancel a previously started timer.
    CancelTimer(ConsensusTimer),
    /// The replica moved to a new view with the given primary.
    ViewInstalled {
        /// The view that was installed.
        view: ViewNumber,
        /// The primary of that view.
        primary: NodeId,
    },
    /// The replica detected that it had missed committed requests and
    /// caught up from a featherweight checkpoint (used by the nodes-in-dark
    /// recovery experiments).
    CaughtUp {
        /// Highest sequence number covered by the checkpoint.
        up_to: SeqNum,
    },
}

impl ConsensusAction {
    /// Convenience predicate used in tests: does this action broadcast or
    /// send a message of the given kind?
    #[must_use]
    pub fn is_message_kind(&self, kind: &str) -> bool {
        match self {
            ConsensusAction::Broadcast(m) | ConsensusAction::Send(_, m) => m.kind() == kind,
            _ => false,
        }
    }

    /// Returns the committed sequence number if this is a commit action.
    #[must_use]
    fn committed_seq(&self) -> Option<SeqNum> {
        match self {
            ConsensusAction::Committed { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

/// Helper for tests and harnesses: extracts all committed sequence numbers
/// from a list of actions, in order.
#[must_use]
pub fn committed_seqs(actions: &[ConsensusAction]) -> Vec<SeqNum> {
    actions
        .iter()
        .filter_map(ConsensusAction::committed_seq)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{Digest, MacTag};

    #[test]
    fn message_kind_predicate() {
        let msg = ConsensusMessage::Prepare(crate::messages::Prepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            sender: NodeId(0),
            mac: MacTag::ZERO,
        });
        let action = ConsensusAction::Broadcast(msg.clone());
        assert!(action.is_message_kind("PREPARE"));
        assert!(!action.is_message_kind("COMMIT"));
        let send = ConsensusAction::Send(NodeId(1), msg);
        assert!(send.is_message_kind("PREPARE"));
    }

    #[test]
    fn committed_seq_extraction() {
        use sbft_types::{Batch, ClientId, Key, Operation, Transaction, TxnId};
        let batch = Batch::single(Transaction::new(
            TxnId::new(ClientId(0), 0),
            vec![Operation::Read(Key(1))],
        ));
        let actions = vec![
            ConsensusAction::CancelTimer(ConsensusTimer::Request(SeqNum(1))),
            ConsensusAction::Committed {
                view: ViewNumber(0),
                seq: SeqNum(1),
                batch,
                certificate: None,
            },
        ];
        assert_eq!(committed_seqs(&actions), vec![SeqNum(1)]);
        assert_eq!(actions[0].committed_seq(), None);
    }

    #[test]
    fn timers_compare_by_kind_and_argument() {
        assert_eq!(
            ConsensusTimer::Request(SeqNum(3)),
            ConsensusTimer::Request(SeqNum(3))
        );
        assert_ne!(
            ConsensusTimer::Request(SeqNum(3)),
            ConsensusTimer::Request(SeqNum(4))
        );
        assert_ne!(
            ConsensusTimer::Request(SeqNum(3)),
            ConsensusTimer::ViewChange(ViewNumber(3))
        );
    }
}
