//! The `NoShim` baseline: no consensus at all.
//!
//! Figure 7's `NOSHIM` configuration "represents the experiment where there
//! is no shim; no BFT consensus takes place. All the clients send their
//! requests to a node, which instantaneously spawns executors." This
//! state machine simply assigns the next sequence number and reports the
//! batch as committed — it is the throughput upper bound of the
//! architecture and also approximates the serverless-edge designs of
//! Aslanpour et al. and Baresi et al. discussed in the related work.

use crate::actions::{ConsensusAction, ConsensusTimer};
use crate::messages::ConsensusMessage;
use crate::traits::OrderingProtocol;
use sbft_types::{Batch, NodeId, SeqNum, ViewNumber};

/// The trivial single-node "ordering" protocol.
pub struct NoShim {
    me: NodeId,
    next_seq: SeqNum,
    committed: u64,
}

impl NoShim {
    /// Creates the no-consensus node.
    #[must_use]
    pub fn new(me: NodeId) -> Self {
        NoShim {
            me,
            next_seq: SeqNum(1),
            committed: 0,
        }
    }

    /// Number of batches committed so far.
    #[must_use]
    pub fn committed(&self) -> u64 {
        self.committed
    }
}

impl OrderingProtocol for NoShim {
    fn submit_batch(&mut self, batch: Batch) -> Vec<ConsensusAction> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.next();
        self.committed += 1;
        vec![ConsensusAction::Committed {
            view: ViewNumber(0),
            seq,
            batch,
            certificate: None,
        }]
    }

    fn handle_message(&mut self, _from: NodeId, _msg: ConsensusMessage) -> Vec<ConsensusAction> {
        Vec::new()
    }

    fn handle_timer(&mut self, _timer: ConsensusTimer) -> Vec<ConsensusAction> {
        Vec::new()
    }

    fn request_view_change(&mut self) -> Vec<ConsensusAction> {
        Vec::new()
    }

    fn view(&self) -> ViewNumber {
        ViewNumber(0)
    }

    fn primary(&self) -> NodeId {
        self.me
    }

    fn node_id(&self) -> NodeId {
        self.me
    }

    fn name(&self) -> &'static str {
        "NoShim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, Key, Operation, Transaction, TxnId};

    fn batch(counter: u64) -> Batch {
        Batch::single(Transaction::new(
            TxnId::new(ClientId(0), counter),
            vec![Operation::Read(Key(counter))],
        ))
    }

    #[test]
    fn every_submission_commits_immediately() {
        let mut node = NoShim::new(NodeId(0));
        for i in 1..=5u64 {
            let actions = node.submit_batch(batch(i));
            assert_eq!(actions.len(), 1);
            match &actions[0] {
                ConsensusAction::Committed {
                    seq, certificate, ..
                } => {
                    assert_eq!(*seq, SeqNum(i));
                    assert!(certificate.is_none());
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(node.committed(), 5);
    }

    #[test]
    fn is_always_its_own_primary() {
        let node = NoShim::new(NodeId(3));
        assert!(node.is_primary());
        assert_eq!(node.primary(), NodeId(3));
        assert_eq!(node.name(), "NoShim");
    }

    #[test]
    fn messages_and_timers_are_ignored() {
        let mut node = NoShim::new(NodeId(0));
        assert!(node
            .handle_timer(ConsensusTimer::Request(SeqNum(1)))
            .is_empty());
        assert!(node.request_view_change().is_empty());
        assert_eq!(node.view(), ViewNumber(0));
    }
}
