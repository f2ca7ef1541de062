//! The `recover()` fold: durable WAL records back into replica state.
//!
//! Recovery is a pure function of the replayed records — no I/O, no
//! peers. The consensus layer installs the [`RecoveredState`] and then
//! state-transfers the suffix above the highest entry it holds from
//! peers; everything at or below it is reconstructed locally.

use crate::wal::WalRecord;
use sbft_crypto::CommitCertificate;
use sbft_types::{Batch, SeqNum, ViewNumber};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One committed batch reconstructed from the durable log (or received
/// via state transfer — the shapes are identical because certificates
/// self-certify).
#[derive(Clone, PartialEq, Debug)]
pub struct RecoveredEntry {
    /// Committed sequence number.
    pub seq: SeqNum,
    /// View the batch committed in.
    pub view: ViewNumber,
    /// The committed batch.
    pub batch: Batch,
    /// The commit certificate proving the batch committed.
    pub certificate: Arc<CommitCertificate>,
}

/// Everything a restarted replica resumes from.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// The last snapshot boundary (stable checkpoint floor). Zero when
    /// no snapshot was ever cut.
    pub stable_seq: SeqNum,
    /// The highest view the replica had durably installed or committed
    /// in — it rejoins at this view, never an older one.
    pub view: ViewNumber,
    /// Committed entries above the snapshot floor, in sequence order.
    pub entries: Vec<RecoveredEntry>,
}

/// Folds replayed WAL records into the state a replica restarts from.
///
/// View is the maximum over every durable view mention (installed views,
/// committed entries, snapshot marks); the stable floor is the highest
/// snapshot mark; committed entries are keyed by sequence with the
/// latest record winning (a re-commit after view change supersedes the
/// older one), and entries at or below the floor are dropped — the
/// snapshot already covers them.
#[must_use]
pub fn recover(records: &[WalRecord]) -> RecoveredState {
    let mut view = ViewNumber(0);
    let mut stable = SeqNum(0);
    let mut committed: BTreeMap<SeqNum, RecoveredEntry> = BTreeMap::new();
    for record in records {
        match record {
            WalRecord::Released { view: v, .. } | WalRecord::Vote { view: v, .. } => {
                view = view.max(*v);
            }
            WalRecord::Committed {
                seq,
                view: v,
                batch,
                certificate,
                ..
            } => {
                view = view.max(*v);
                committed.insert(
                    *seq,
                    RecoveredEntry {
                        seq: *seq,
                        view: *v,
                        batch: batch.clone(),
                        certificate: Arc::clone(certificate),
                    },
                );
            }
            WalRecord::ViewInstalled { view: v } => view = view.max(*v),
            WalRecord::SnapshotMark { upto, view: v } => {
                view = view.max(*v);
                stable = stable.max(*upto);
            }
        }
    }
    committed.retain(|seq, _| *seq > stable);
    RecoveredState {
        stable_seq: stable,
        view,
        entries: committed.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, Digest, Key, NodeId, Operation, Signature, Transaction, TxnId};

    fn committed(seq: u64, view: u64) -> WalRecord {
        WalRecord::Committed {
            seq: SeqNum(seq),
            view: ViewNumber(view),
            plan: sbft_types::ShardPlan::Unplanned,
            batch: Batch::single(Transaction::new(
                TxnId::new(ClientId(9), seq),
                vec![Operation::Write(
                    Key(seq),
                    sbft_types::Value {
                        data: view,
                        logical_len: 8,
                    },
                )],
            )),
            certificate: Arc::new(CommitCertificate::new(
                ViewNumber(view),
                SeqNum(seq),
                Digest::from_bytes([seq as u8; 32]),
                vec![(NodeId(0), Signature([2; 64]))],
            )),
        }
    }

    #[test]
    fn empty_log_recovers_to_the_initial_state() {
        let state = recover(&[]);
        assert_eq!(state.stable_seq, SeqNum(0));
        assert_eq!(state.view, ViewNumber(0));
        assert!(state.entries.is_empty());
    }

    #[test]
    fn entries_below_the_snapshot_floor_are_dropped() {
        let records = vec![
            committed(1, 0),
            committed(2, 0),
            WalRecord::SnapshotMark {
                upto: SeqNum(2),
                view: ViewNumber(0),
            },
            committed(3, 0),
        ];
        let state = recover(&records);
        assert_eq!(state.stable_seq, SeqNum(2));
        let seqs: Vec<_> = state.entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![SeqNum(3)]);
    }

    #[test]
    fn view_is_the_maximum_durable_view_from_any_record() {
        let records = vec![
            committed(1, 0),
            WalRecord::ViewInstalled {
                view: ViewNumber(3),
            },
            WalRecord::Vote {
                seq: SeqNum(2),
                view: ViewNumber(2),
                digest: Digest::ZERO,
            },
        ];
        assert_eq!(recover(&records).view, ViewNumber(3));
    }

    #[test]
    fn recommit_in_a_later_view_supersedes_the_older_record() {
        let records = vec![committed(5, 0), committed(5, 2)];
        let state = recover(&records);
        assert_eq!(state.entries.len(), 1);
        assert_eq!(state.entries[0].view, ViewNumber(2));
    }
}
