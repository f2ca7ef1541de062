//! The per-sequence-number consensus log.
//!
//! Each shim node keeps, per sequence number, the pre-prepare it accepted,
//! the prepare/commit votes it has collected and — once the slot commits —
//! the certificate that proves it. The log is the only home of what a
//! replica knows about one sequence number: an entry becomes *committed*
//! in one place (`ConsensusLog::seat_certified`), a committed entry never
//! changes its digest, and everything about a slot is garbage-collected
//! together below the last stable (featherweight) checkpoint.

use crate::messages::{Commit, Prepare};
use sbft_crypto::CommitCertificate;
use sbft_types::{Batch, Digest, NodeId, SeqNum, ShardPlan, ViewNumber};
use std::collections::BTreeMap;
use std::ops::RangeBounds;
use std::sync::Arc;

/// Log entry for one sequence number.
#[derive(Clone, Debug, Default)]
pub struct LogEntry {
    /// View in which the pre-prepare was accepted.
    pub view: Option<ViewNumber>,
    /// Digest of the accepted batch.
    pub digest: Option<Digest>,
    /// The batch itself (present on nodes that received the pre-prepare).
    pub batch: Option<Batch>,
    /// The ordering-time shard plan carried by the accepted pre-prepare
    /// (re-proposals after a view change re-issue it unchanged).
    pub plan: ShardPlan,
    /// Prepare votes collected, by sender.
    pub prepares: BTreeMap<NodeId, Prepare>,
    /// Commit votes collected, by sender.
    pub commits: BTreeMap<NodeId, Commit>,
    /// Whether the entry reached the prepared state.
    pub prepared: bool,
    /// Whether the entry reached the committed state.
    pub committed: bool,
    /// The certificate the entry committed under, held by reference count:
    /// the `Committed` action, every featherweight checkpoint and every
    /// `STATERESPONSE` share the one allocation.
    pub certificate: Option<Arc<CommitCertificate>>,
}

impl LogEntry {
    /// Whether a pre-prepare has been accepted for this entry.
    #[must_use]
    pub fn pre_prepared(&self) -> bool {
        self.digest.is_some()
    }

    /// How many `PREPARE` votes match the accepted pre-prepare's view and
    /// digest (none before one is accepted).
    #[must_use]
    pub(crate) fn matching_prepares(&self) -> usize {
        let matches = |p: &&Prepare| Some(p.digest) == self.digest && Some(p.view) == self.view;
        self.prepares.values().filter(matches).count()
    }

    /// The `COMMIT` votes that match the accepted pre-prepare's view and
    /// digest — the signatures a commit certificate is made of.
    pub(crate) fn matching_commits(&self) -> impl Iterator<Item = &Commit> {
        let matches = |c: &&Commit| Some(c.digest) == self.digest && Some(c.view) == self.view;
        self.commits.values().filter(matches)
    }
}

/// The ordered log of consensus entries.
#[derive(Clone, Debug, Default)]
pub struct ConsensusLog {
    entries: BTreeMap<SeqNum, LogEntry>,
    /// Everything at or below this sequence number has been garbage
    /// collected (covered by a stable checkpoint).
    stable_seq: SeqNum,
}

impl ConsensusLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `seq`, created on demand.
    pub fn entry_mut(&mut self, seq: SeqNum) -> &mut LogEntry {
        self.entries.entry(seq).or_default()
    }

    /// The entry for `seq`, if any votes or a pre-prepare were recorded.
    #[must_use]
    pub fn entry(&self, seq: SeqNum) -> Option<&LogEntry> {
        self.entries.get(&seq)
    }

    /// Records an accepted pre-prepare. Returns `false` if a *different*
    /// digest was already accepted at this sequence number in the same view
    /// (the equivocation guard of Figure 3, line 10) or committed there in
    /// any view: a committed slot keeps its digest and batch for good. The
    /// same digest in a later view is accepted — re-issued proposals that
    /// committed meanwhile do arrive.
    pub fn accept_pre_prepare(
        &mut self,
        seq: SeqNum,
        view: ViewNumber,
        digest: Digest,
        batch: Batch,
        plan: ShardPlan,
    ) -> bool {
        let entry = self.entry_mut(seq);
        if let (Some(v), Some(d)) = (entry.view, entry.digest) {
            if (v == view || entry.committed) && d != digest {
                return false;
            }
        }
        // A re-proposal in a later view (after a view change) restarts the
        // agreement for this slot: the prepared state from the old view does
        // not carry over, only commitment does.
        if entry.view != Some(view) && !entry.committed {
            entry.prepared = false;
        }
        entry.view = Some(view);
        entry.digest = Some(digest);
        entry.batch = Some(batch);
        entry.plan = plan;
        true
    }

    /// Seats the commit `certificate` proves at its sequence number — the
    /// one place an entry becomes committed, whether the quorum formed
    /// here, a checkpoint or a peer's `STATERESPONSE` carried the proof,
    /// or the write-ahead log replayed it. `body` is the batch and plan
    /// when the proof travelled with them; without it the entry keeps
    /// what its pre-prepare left (nothing, on a node kept in the dark).
    /// The caller has verified the certificate and never seats a slot
    /// twice.
    pub(crate) fn seat_certified(
        &mut self,
        certificate: Arc<CommitCertificate>,
        body: Option<(Batch, ShardPlan)>,
    ) -> &LogEntry {
        let entry = self.entry_mut(certificate.seq);
        entry.committed = true;
        entry.prepared = true;
        entry.view = Some(certificate.view);
        entry.digest = Some(certificate.batch_digest);
        if let Some((batch, plan)) = body {
            entry.batch = Some(batch);
            entry.plan = plan;
        }
        entry.certificate = Some(certificate);
        entry
    }

    /// Adds a prepare vote and returns the number of distinct voters.
    pub fn add_prepare(&mut self, prepare: Prepare) -> usize {
        let entry = self.entry_mut(prepare.seq);
        entry.prepares.insert(prepare.sender, prepare);
        entry.prepares.len()
    }

    /// Adds a commit vote and returns the number of distinct voters.
    pub fn add_commit(&mut self, commit: Commit) -> usize {
        let entry = self.entry_mut(commit.seq);
        entry.commits.insert(commit.sender, commit);
        entry.commits.len()
    }

    /// The entries of `range` that hold the certificate they committed
    /// under, in sequence order — what a featherweight checkpoint and a
    /// `STATERESPONSE` ship.
    pub(crate) fn certified(
        &self,
        range: impl RangeBounds<SeqNum>,
    ) -> impl Iterator<Item = (&LogEntry, &Arc<CommitCertificate>)> {
        self.entries
            .range(range)
            .filter_map(|(_, entry)| Some((entry, entry.certificate.as_ref()?)))
    }

    /// Sequence numbers that are prepared but not yet committed (reported
    /// in `VIEWCHANGE` messages).
    #[must_use]
    pub fn prepared_uncommitted(&self) -> Vec<(SeqNum, ViewNumber, Digest)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.prepared && !e.committed)
            .filter_map(|(seq, e)| Some((*seq, e.view?, e.digest?)))
            .collect()
    }

    /// Highest committed sequence number.
    #[must_use]
    pub fn max_committed(&self) -> SeqNum {
        self.entries
            .iter()
            .filter(|(_, e)| e.committed)
            .map(|(s, _)| *s)
            .next_back()
            .unwrap_or_default()
    }

    /// Whether the entry at `seq` is committed.
    #[must_use]
    pub fn is_committed(&self, seq: SeqNum) -> bool {
        self.entries.get(&seq).is_some_and(|e| e.committed)
    }

    /// The last stable checkpoint sequence number.
    #[must_use]
    pub fn stable_seq(&self) -> SeqNum {
        self.stable_seq
    }

    /// Garbage-collects every entry at or below `seq` (a new stable
    /// checkpoint), certificates included. Entries above are kept.
    pub fn collect_below(&mut self, seq: SeqNum) {
        self.stable_seq = self.stable_seq.max(seq);
        self.entries.retain(|s, _| *s > seq);
    }

    /// Whether the log holds no live entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence numbers at or below `seq` that this node has *not*
    /// committed — the gaps a featherweight checkpoint lets a node in the
    /// dark detect.
    #[must_use]
    pub fn missing_up_to(&self, seq: SeqNum) -> Vec<SeqNum> {
        (self.stable_seq.0 + 1..=seq.0)
            .map(SeqNum)
            .filter(|s| !self.is_committed(*s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, Key, MacTag, Operation, Signature, Transaction, TxnId};

    fn batch() -> Batch {
        Batch::single(Transaction::new(
            TxnId::new(ClientId(0), 0),
            vec![Operation::Read(Key(1))],
        ))
    }

    fn digest(n: u8) -> Digest {
        Digest::from_bytes([n; 32])
    }

    fn prepare(seq: u64, sender: u32) -> Prepare {
        Prepare {
            view: ViewNumber(0),
            seq: SeqNum(seq),
            digest: digest(1),
            sender: NodeId(sender),
            mac: MacTag::ZERO,
        }
    }

    fn commit(seq: u64, sender: u32) -> Commit {
        Commit {
            view: ViewNumber(0),
            seq: SeqNum(seq),
            digest: digest(1),
            sender: NodeId(sender),
            signature: Signature::ZERO,
        }
    }

    #[test]
    fn accept_pre_prepare_rejects_equivocation() {
        let plan = ShardPlan::Unplanned;
        let mut log = ConsensusLog::new();
        assert!(log.accept_pre_prepare(SeqNum(1), ViewNumber(0), digest(1), batch(), plan));
        // Same digest again is fine (duplicate delivery).
        assert!(log.accept_pre_prepare(SeqNum(1), ViewNumber(0), digest(1), batch(), plan));
        // A different digest at the same (view, seq) is equivocation.
        assert!(!log.accept_pre_prepare(SeqNum(1), ViewNumber(0), digest(2), batch(), plan));
        // A different digest in a *new* view is allowed (view change re-proposal).
        assert!(log.accept_pre_prepare(SeqNum(1), ViewNumber(1), digest(2), batch(), plan));
    }

    #[test]
    fn a_committed_slot_never_accepts_a_different_digest() {
        let plan = ShardPlan::Unplanned;
        let mut log = ConsensusLog::new();
        assert!(log.accept_pre_prepare(SeqNum(2), ViewNumber(0), digest(1), batch(), plan));
        log.entry_mut(SeqNum(2)).committed = true;
        // A later view's proposal of another batch is refused and leaves
        // the entry as it committed.
        assert!(!log.accept_pre_prepare(SeqNum(2), ViewNumber(1), digest(2), batch(), plan));
        let entry = log.entry(SeqNum(2)).unwrap();
        assert_eq!(entry.digest, Some(digest(1)));
        assert_eq!(entry.view, Some(ViewNumber(0)));
        // The committed batch re-issued in a later view is still accepted.
        assert!(log.accept_pre_prepare(SeqNum(2), ViewNumber(1), digest(1), batch(), plan));
        assert!(log.is_committed(SeqNum(2)));
    }

    #[test]
    fn a_certified_commit_is_seated_whole_and_collected_whole() {
        let mut log = ConsensusLog::new();
        let certificate = Arc::new(CommitCertificate::new(
            ViewNumber(3),
            SeqNum(2),
            digest(1),
            Vec::new(),
        ));
        // Without a body (a checkpoint on a node kept in the dark) the
        // entry learns that the slot committed, not what it holds.
        let entry = log.seat_certified(Arc::clone(&certificate), None);
        assert!(entry.committed && entry.prepared && entry.batch.is_none());
        assert_eq!(entry.view, Some(ViewNumber(3)));
        assert_eq!(entry.digest, Some(digest(1)));
        assert_eq!(entry.certificate, Some(certificate));
        log.collect_below(SeqNum(2));
        assert!(log.entry(SeqNum(2)).is_none());
    }

    #[test]
    fn accepted_plan_is_stored_on_the_entry() {
        let mut log = ConsensusLog::new();
        let plan = ShardPlan::SingleHome(sbft_types::ShardId(3));
        assert!(log.accept_pre_prepare(SeqNum(1), ViewNumber(0), digest(1), batch(), plan));
        assert_eq!(log.entry(SeqNum(1)).unwrap().plan, plan);
    }

    #[test]
    fn votes_count_distinct_senders_only() {
        let mut log = ConsensusLog::new();
        assert_eq!(log.add_prepare(prepare(1, 0)), 1);
        assert_eq!(
            log.add_prepare(prepare(1, 0)),
            1,
            "duplicate sender not counted"
        );
        assert_eq!(log.add_prepare(prepare(1, 1)), 2);
        assert_eq!(log.add_commit(commit(1, 2)), 1);
        assert_eq!(log.add_commit(commit(1, 3)), 2);
    }

    #[test]
    fn prepared_uncommitted_reports_in_flight_entries() {
        let mut log = ConsensusLog::new();
        log.accept_pre_prepare(
            SeqNum(1),
            ViewNumber(0),
            digest(1),
            batch(),
            ShardPlan::Unplanned,
        );
        log.entry_mut(SeqNum(1)).prepared = true;
        log.accept_pre_prepare(
            SeqNum(2),
            ViewNumber(0),
            digest(1),
            batch(),
            ShardPlan::Unplanned,
        );
        log.entry_mut(SeqNum(2)).prepared = true;
        log.entry_mut(SeqNum(2)).committed = true;
        let pending = log.prepared_uncommitted();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].0, SeqNum(1));
    }

    #[test]
    fn garbage_collection_drops_old_entries() {
        let mut log = ConsensusLog::new();
        for s in 1..=10 {
            log.accept_pre_prepare(
                SeqNum(s),
                ViewNumber(0),
                digest(1),
                batch(),
                ShardPlan::Unplanned,
            );
            log.entry_mut(SeqNum(s)).committed = true;
        }
        log.collect_below(SeqNum(7));
        assert_eq!(log.stable_seq(), SeqNum(7));
        assert!(log.entry(SeqNum(7)).is_none());
        assert!(log.entry(SeqNum(8)).is_some());
    }

    #[test]
    fn missing_up_to_finds_gaps() {
        let mut log = ConsensusLog::new();
        for s in [1u64, 2, 4, 6] {
            log.entry_mut(SeqNum(s)).committed = true;
        }
        assert_eq!(log.missing_up_to(SeqNum(6)), vec![SeqNum(3), SeqNum(5)]);
        assert_eq!(log.max_committed(), SeqNum(6));
        log.collect_below(SeqNum(3));
        // Gaps below the stable checkpoint no longer count as missing.
        assert_eq!(log.missing_up_to(SeqNum(6)), vec![SeqNum(5)]);
    }
}
