//! Consensus messages exchanged between shim nodes.
//!
//! The PBFT messages follow Figure 3 of the paper. `PREPREPARE` and
//! `PREPARE` are authenticated with MACs (cheaper, no non-repudiation
//! needed); `COMMIT` carries a digital signature because the primary later
//! assembles the commit signatures into the execution certificate `C`
//! shipped to the serverless executors. The CFT baseline messages carry no
//! authentication at all, which is exactly why `ServerlessCFT` outperforms
//! PBFT in Figure 7.

use sbft_crypto::{CommitCertificate, U64Hasher};
use sbft_durability::RecoveredEntry;
use sbft_types::{
    Batch, Digest, MacTag, NodeId, SeqNum, ShardPlan, Signature, Transaction, TxnId, ViewNumber,
};
use std::sync::Arc;

/// Fixed per-message framing overhead (transport headers, message type
/// tags, lengths) used by the wire-size model.
const FRAMING_OVERHEAD: usize = 120;

/// `PREPREPARE(⟨T⟩_C, Δ, k)`: the primary proposes ordering batch `Δ` at
/// sequence `k` in view `v` (MAC-authenticated).
#[derive(Clone, PartialEq, Debug)]
pub struct PrePrepare {
    /// Current view.
    pub view: ViewNumber,
    /// Proposed sequence number.
    pub seq: SeqNum,
    /// Digest of the batch, `Δ = H(m)`.
    pub digest: Digest,
    /// The full batch of client transactions.
    pub batch: Batch,
    /// The ordering-time shard plan the batcher computed for this batch.
    /// Replicated alongside the batch so every node (and, after a view
    /// change, every future primary) spawns executors with the same tag.
    /// Deliberately *not* covered by the MAC or the digest: it is a
    /// trust-but-verify hint that the verifier re-derives before acting
    /// on it (see `sbft_types::plan`), so authenticating a byzantine
    /// primary's claim would buy nothing.
    pub plan: ShardPlan,
    /// MAC over the header fields from the primary.
    pub mac: MacTag,
}

/// `DIGEST-PREPREPARE(Δ, ids, k)`: the bandwidth-frugal form of the
/// proposal. Instead of re-shipping every transaction body to every
/// replica, the primary sends the batch digest and the ordered transaction
/// ids (compact 4-byte delta encoding on the wire); replicas reconstruct the batch from the bodies they already hold
/// from client submission and fetch only what they miss via
/// [`BatchFetch`]/[`BatchFill`]. The digest pins the proposal exactly as
/// in the full-body path: no vote is cast before the reconstructed batch
/// hashes to `Δ`.
#[derive(Clone, PartialEq, Debug)]
pub struct DigestPrePrepare {
    /// Current view.
    pub view: ViewNumber,
    /// Proposed sequence number.
    pub seq: SeqNum,
    /// Digest of the proposed batch, `Δ = H(m)`.
    pub digest: Digest,
    /// Ids of the batch's transactions, in batch order.
    pub txn_ids: Vec<TxnId>,
    /// The ordering-time shard plan (same trust-but-verify rules as in
    /// [`PrePrepare`]).
    pub plan: ShardPlan,
    /// MAC over the header fields from the primary.
    pub mac: MacTag,
}

/// `BATCHFETCH`: a replica reconstructing a digest proposal asks the
/// primary for the transaction bodies it misses — or, after a digest
/// mismatch, for the full batch (`full = true`).
#[derive(Clone, PartialEq, Debug)]
pub struct BatchFetch {
    /// The requesting replica.
    pub sender: NodeId,
    /// View of the proposal being reconstructed.
    pub view: ViewNumber,
    /// Sequence number of the proposal.
    pub seq: SeqNum,
    /// The proposal digest the request is keyed on.
    pub digest: Digest,
    /// Ids of the bodies the sender misses (empty when `full`).
    pub missing: Vec<TxnId>,
    /// Request the entire batch instead of individual bodies (fallback
    /// after a reconstruction digest mismatch).
    pub full: bool,
    /// MAC over the request header.
    pub mac: MacTag,
}

/// `BATCHFILL`: the bodies answering a [`BatchFetch`]. Unauthenticated —
/// the proposal digest self-certifies the reconstructed batch, so a
/// poisoned fill can only fail the digest check, never corrupt state.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchFill {
    /// The responding node.
    pub sender: NodeId,
    /// Sequence number of the proposal being filled.
    pub seq: SeqNum,
    /// The proposal digest the fill is keyed on.
    pub digest: Digest,
    /// The requested transaction bodies (the whole batch when `full`).
    pub bodies: Vec<Transaction>,
    /// Whether this fill carries the entire batch.
    pub full: bool,
}

/// `PREPARE(Δ, k)`: a node supports ordering the batch with digest `Δ` at
/// sequence `k` (MAC-authenticated).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Prepare {
    /// Current view.
    pub view: ViewNumber,
    /// Sequence number.
    pub seq: SeqNum,
    /// Digest of the batch.
    pub digest: Digest,
    /// Sender of the message.
    pub sender: NodeId,
    /// MAC over the header fields.
    pub mac: MacTag,
}

/// `⟨COMMIT(Δ, k)⟩_R`: a node commits the batch; digitally signed so the
/// signature can be embedded in the execution certificate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Commit {
    /// Current view.
    pub view: ViewNumber,
    /// Sequence number.
    pub seq: SeqNum,
    /// Digest of the batch.
    pub digest: Digest,
    /// Sender of the message.
    pub sender: NodeId,
    /// Digital signature over the commit digest.
    pub signature: Signature,
}

/// A `(seq, digest, view)` tuple proving a request prepared at the sender,
/// carried inside `VIEWCHANGE` messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PreparedProof {
    /// Sequence number of the prepared request.
    pub seq: SeqNum,
    /// Digest of the prepared batch.
    pub digest: Digest,
    /// View in which it prepared.
    pub view: ViewNumber,
}

/// `VIEWCHANGE`: a node requests replacing the primary of `new_view - 1`.
#[derive(Clone, PartialEq, Debug)]
pub struct ViewChange {
    /// The view the sender wants to move to.
    pub new_view: ViewNumber,
    /// Sender of the message.
    pub sender: NodeId,
    /// Sequence number of the sender's last stable checkpoint.
    pub last_stable_seq: SeqNum,
    /// Requests prepared at the sender above the stable checkpoint.
    pub prepared: Vec<PreparedProof>,
    /// Digital signature over the message digest.
    pub signature: Signature,
}

/// `NEWVIEW`: the primary of the new view proves the view change is
/// justified and re-proposes in-flight requests.
#[derive(Clone, PartialEq, Debug)]
pub struct NewView {
    /// The view being installed.
    pub new_view: ViewNumber,
    /// Sender (the new primary).
    pub sender: NodeId,
    /// The nodes whose `VIEWCHANGE` messages justify this new view.
    pub view_change_senders: Vec<NodeId>,
    /// Pre-prepares re-issued for requests that prepared in earlier views.
    pub reissued: Vec<PrePrepare>,
    /// Digital signature over the message digest.
    pub signature: Signature,
}

/// A featherweight `CHECKPOINT` (Section V-B): only the signed commit
/// certificates since the last checkpoint, because shim nodes neither
/// execute requests nor store application data.
#[derive(Clone, PartialEq, Debug)]
pub struct Checkpoint {
    /// Sequence number this checkpoint covers (inclusive).
    pub seq: SeqNum,
    /// Sender of the message.
    pub sender: NodeId,
    /// Commit certificates for every sequence number since the previous
    /// checkpoint, proving those requests committed. Shared by reference
    /// count with the replica's own certificate store, so building a
    /// checkpoint copies no signatures.
    pub certificates: Vec<Arc<CommitCertificate>>,
    /// Digital signature over the checkpoint digest.
    pub signature: Signature,
}

/// `STATEREQUEST`: a crash-restarted replica asks its peers for the
/// committed suffix above what its durable log reconstructed. Signed so
/// byzantine nodes cannot trigger transfer storms in someone else's name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StateRequest {
    /// The recovering replica.
    pub sender: NodeId,
    /// Highest sequence number the sender already holds; peers reply
    /// with committed entries strictly above it.
    pub above: SeqNum,
    /// Digital signature over the request digest.
    pub signature: Signature,
}

/// `STATERESPONSE`: a peer ships committed entries (batch + certificate)
/// above the requested floor. Unsigned: each entry's `2f_R + 1`-signer
/// commit certificate self-certifies, so the recovering replica verifies
/// the certificates rather than trusting the sender. The receiver adopts
/// each sequence at most once (duplicated or replayed responses are
/// idempotent), rejects garbage entries per sender, and treats
/// `stable_seq` as a checkpoint-floor claim for the catch-up path when
/// its own floor fell below every peer's retention boundary.
#[derive(Clone, PartialEq, Debug)]
pub struct StateResponse {
    /// The responding peer.
    pub sender: NodeId,
    /// The responder's stable-checkpoint floor (tells the recovering
    /// replica how far behind it could possibly be).
    pub stable_seq: SeqNum,
    /// Committed entries above the requested floor, in sequence order.
    pub entries: Vec<RecoveredEntry>,
}

/// CFT (Multi-Paxos-style) accept message from the leader.
#[derive(Clone, PartialEq, Debug)]
pub struct CftAccept {
    /// Leader's ballot (plays the role of the view).
    pub ballot: ViewNumber,
    /// Sequence number.
    pub seq: SeqNum,
    /// The batch being replicated.
    pub batch: Batch,
    /// Digest of the batch.
    pub digest: Digest,
    /// The ordering-time shard plan (same trust-but-verify rules as in
    /// [`PrePrepare`]).
    pub plan: ShardPlan,
}

/// CFT acknowledgment from a follower.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CftAccepted {
    /// Leader's ballot.
    pub ballot: ViewNumber,
    /// Sequence number.
    pub seq: SeqNum,
    /// Digest of the accepted batch.
    pub digest: Digest,
    /// Sender of the acknowledgment.
    pub sender: NodeId,
}

/// CFT commit notification from the leader.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CftDecide {
    /// Leader's ballot.
    pub ballot: ViewNumber,
    /// Sequence number.
    pub seq: SeqNum,
    /// Digest of the decided batch.
    pub digest: Digest,
}

// The preimage of each signed control message is written once, here, and
// read by the signer and by the verifier alike. It folds what the message
// carries (everything but the signature), so swapping one proof, sender,
// re-issued batch or certificate for another breaks the signature.

impl ViewChange {
    /// The digest the sender signs.
    #[must_use]
    pub(crate) fn signing_digest(&self) -> Digest {
        let mut h = U64Hasher::new("viewchange");
        h.push(self.new_view.0);
        h.push(self.last_stable_seq.0);
        h.push(self.prepared.len() as u64);
        for proof in &self.prepared {
            h.push(proof.seq.0);
            h.push(proof.view.0);
            h.push_digest(&proof.digest);
        }
        h.finish()
    }
}

impl NewView {
    /// The digest the new primary signs.
    #[must_use]
    pub(crate) fn signing_digest(&self) -> Digest {
        let mut h = U64Hasher::new("newview");
        h.push(self.new_view.0);
        h.push(self.view_change_senders.len() as u64);
        for sender in &self.view_change_senders {
            h.push(u64::from(sender.0));
        }
        h.push(self.reissued.len() as u64);
        for proposal in &self.reissued {
            h.push(proposal.seq.0);
            h.push_digest(&proposal.digest);
        }
        h.finish()
    }
}

impl Checkpoint {
    /// The digest the sender signs.
    #[must_use]
    pub(crate) fn signing_digest(&self) -> Digest {
        let mut h = U64Hasher::new("checkpoint");
        h.push(self.seq.0);
        h.push(self.certificates.len() as u64);
        for certificate in &self.certificates {
            h.push(certificate.seq.0);
            h.push(certificate.view.0);
            h.push_digest(&certificate.batch_digest);
        }
        h.finish()
    }
}

impl StateRequest {
    /// The digest the recovering replica signs.
    #[must_use]
    pub(crate) fn signing_digest(&self) -> Digest {
        sbft_crypto::digest_u64s("staterequest", &[u64::from(self.sender.0), self.above.0])
    }
}

/// All messages understood by the shim ordering protocols.
#[derive(Clone, PartialEq, Debug)]
pub enum ConsensusMessage {
    /// PBFT pre-prepare.
    PrePrepare(PrePrepare),
    /// PBFT pre-prepare in digest-proposal mode (ids, no bodies).
    DigestPrePrepare(DigestPrePrepare),
    /// Request for missing transaction bodies of a digest proposal.
    BatchFetch(BatchFetch),
    /// Bodies answering a [`BatchFetch`].
    BatchFill(BatchFill),
    /// PBFT prepare.
    Prepare(Prepare),
    /// PBFT commit.
    Commit(Commit),
    /// PBFT view change request.
    ViewChange(ViewChange),
    /// PBFT new-view installation.
    NewView(NewView),
    /// Featherweight checkpoint.
    Checkpoint(Checkpoint),
    /// State-transfer request from a crash-restarted replica.
    StateRequest(StateRequest),
    /// State-transfer response carrying the committed suffix.
    StateResponse(StateResponse),
    /// CFT accept (leader → followers).
    CftAccept(CftAccept),
    /// CFT accepted (follower → leader).
    CftAccepted(CftAccepted),
    /// CFT decide (leader → followers).
    CftDecide(CftDecide),
}

impl ConsensusMessage {
    /// Short name used in traces and metrics.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ConsensusMessage::PrePrepare(_) => "PREPREPARE",
            ConsensusMessage::DigestPrePrepare(_) => "DIGEST-PREPREPARE",
            ConsensusMessage::BatchFetch(_) => "BATCHFETCH",
            ConsensusMessage::BatchFill(_) => "BATCHFILL",
            ConsensusMessage::Prepare(_) => "PREPARE",
            ConsensusMessage::Commit(_) => "COMMIT",
            ConsensusMessage::ViewChange(_) => "VIEWCHANGE",
            ConsensusMessage::NewView(_) => "NEWVIEW",
            ConsensusMessage::Checkpoint(_) => "CHECKPOINT",
            ConsensusMessage::StateRequest(_) => "STATEREQUEST",
            ConsensusMessage::StateResponse(_) => "STATERESPONSE",
            ConsensusMessage::CftAccept(_) => "CFT-ACCEPT",
            ConsensusMessage::CftAccepted(_) => "CFT-ACCEPTED",
            ConsensusMessage::CftDecide(_) => "CFT-DECIDE",
        }
    }

    /// The sequence number a batch-releasing proposal orders its batch at
    /// (`PREPREPARE` in either form, CFT accept); `None` for every other
    /// message. Both runtimes key the batch-release edge on this.
    #[must_use]
    pub fn proposal_seq(&self) -> Option<SeqNum> {
        match self {
            ConsensusMessage::PrePrepare(p) => Some(p.seq),
            ConsensusMessage::DigestPrePrepare(d) => Some(d.seq),
            ConsensusMessage::CftAccept(a) => Some(a.seq),
            _ => None,
        }
    }

    /// The transaction ids of the batch a proposal releases (a digest
    /// proposal carries them in place of the bodies); empty for every
    /// other message.
    #[must_use]
    pub fn proposal_txn_ids(&self) -> Vec<TxnId> {
        match self {
            ConsensusMessage::PrePrepare(p) => p.batch.txn_ids(),
            ConsensusMessage::DigestPrePrepare(d) => d.txn_ids.clone(),
            ConsensusMessage::CftAccept(a) => a.batch.txn_ids(),
            _ => Vec::new(),
        }
    }

    /// Modeled wire size in bytes. With the default 100-transaction batch
    /// the sizes land near the paper's reported numbers
    /// (`PREPREPARE` 5392 B, `PREPARE` 216 B, `COMMIT` 220 B).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        match self {
            ConsensusMessage::PrePrepare(m) => {
                FRAMING_OVERHEAD + 16 + 32 + 32 + 5 + m.batch.wire_size()
            }
            ConsensusMessage::DigestPrePrepare(m) => {
                // Header (view + seq) + digest + MAC + plan tag + id count
                // + the id list. The ids ride as a compact 4-byte
                // delta encoding against the batch's first id (consecutive
                // counters from a bounded client set), not as full 12-byte
                // ids — that compaction is the whole point of the message.
                FRAMING_OVERHEAD + 16 + 32 + 32 + 5 + 8 + m.txn_ids.len() * 4
            }
            ConsensusMessage::BatchFetch(m) => {
                // Header + sender + digest + MAC + full flag + id count +
                // full 12-byte ids (no delta locality in a miss set).
                FRAMING_OVERHEAD + 16 + 4 + 32 + 32 + 1 + 8 + m.missing.len() * 12
            }
            ConsensusMessage::BatchFill(m) => {
                // Bodies ship in the batch's compact per-txn encoding —
                // digest-verified on arrival, so no client signatures ride
                // along.
                FRAMING_OVERHEAD
                    + 8
                    + 4
                    + 32
                    + 1
                    + 8
                    + m.bodies
                        .iter()
                        .map(|t| 16 + t.ops.len() * 17 + 20)
                        .sum::<usize>()
            }
            ConsensusMessage::Prepare(_) => FRAMING_OVERHEAD + 16 + 32 + 4 + 32,
            ConsensusMessage::Commit(_) => FRAMING_OVERHEAD + 16 + 32 + 4 + 64,
            ConsensusMessage::ViewChange(m) => {
                FRAMING_OVERHEAD + 16 + 4 + 64 + m.prepared.len() * 48
            }
            ConsensusMessage::NewView(m) => {
                // Each justifying view-change sender is charged with the
                // 64-byte signature that proves its VIEWCHANGE (id alone
                // under-counted the proof); each reissued pre-prepare
                // carries its MAC and replicated plan tag like the
                // standalone message does.
                FRAMING_OVERHEAD
                    + 16
                    + 4
                    + 64
                    + m.view_change_senders.len() * (4 + 64)
                    + m.reissued
                        .iter()
                        .map(|pp| 48 + 32 + 5 + pp.batch.wire_size())
                        .sum::<usize>()
            }
            ConsensusMessage::Checkpoint(m) => {
                FRAMING_OVERHEAD
                    + 8
                    + 4
                    + 64
                    + m.certificates.iter().map(|c| c.wire_size()).sum::<usize>()
            }
            ConsensusMessage::StateRequest(_) => FRAMING_OVERHEAD + 4 + 8 + 64,
            ConsensusMessage::StateResponse(m) => {
                FRAMING_OVERHEAD
                    + 4
                    + 8
                    + m.entries
                        .iter()
                        // seq + view + entry framing + replicated plan tag,
                        // then the batch and its self-certifying commit
                        // certificate.
                        .map(|e| 24 + 5 + e.batch.wire_size() + e.certificate.wire_size())
                        .sum::<usize>()
            }
            ConsensusMessage::CftAccept(m) => FRAMING_OVERHEAD + 16 + 32 + 5 + m.batch.wire_size(),
            ConsensusMessage::CftAccepted(_) => FRAMING_OVERHEAD + 16 + 32 + 4,
            ConsensusMessage::CftDecide(_) => FRAMING_OVERHEAD + 16 + 32,
        }
    }
}

/// The digest a node signs or MACs for a `(view, seq, batch-digest)` header.
#[must_use]
pub fn header_digest(label: &str, view: ViewNumber, seq: SeqNum, digest: &Digest) -> Digest {
    let mut h = U64Hasher::new(label);
    h.push(view.0);
    h.push(seq.0);
    h.push_digest(digest);
    h.finish()
}

/// Digest of a batch of transactions (`Δ = H(m)`): hashes the transaction
/// identifiers and operation structure.
///
/// The result is memoized on the batch value: the primary computes it
/// once when it proposes, every replica computes it once when it checks
/// the `PREPREPARE`, and every clone taken afterwards (log entries,
/// re-proposals, certificates) reuses the cached digest.
#[must_use]
pub fn batch_digest(batch: &Batch) -> Digest {
    batch.digest_memo(|| compute_batch_digest(batch))
}

/// Computes the batch digest from scratch, bypassing the memo (the cache
/// regression tests compare this against [`batch_digest`]).
///
/// The format is streamable: transactions are absorbed one at a time
/// (each is self-delimiting — its operation count precedes its
/// operations) and the batch length seals the hash at the end. That is
/// what lets the batching front-end absorb each transaction as it
/// arrives ([`BatchDigestAccumulator`]) and hand consensus a batch whose
/// digest memo is already filled, taking the whole digest computation
/// off the submit hot path.
#[must_use]
pub fn compute_batch_digest(batch: &Batch) -> Digest {
    let mut acc = BatchDigestAccumulator::new();
    for txn in batch.txns() {
        acc.absorb(txn);
    }
    acc.finish()
}

/// Incrementally computes [`compute_batch_digest`] one transaction at a
/// time, so the cost is paid as transactions arrive instead of all at
/// once when the batch is proposed.
#[derive(Clone, Debug)]
pub struct BatchDigestAccumulator {
    hasher: U64Hasher,
    absorbed: u64,
}

impl BatchDigestAccumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        BatchDigestAccumulator {
            hasher: U64Hasher::new("sbft-batch"),
            absorbed: 0,
        }
    }

    /// Absorbs the next transaction of the batch (in batch order).
    pub fn absorb(&mut self, txn: &sbft_types::Transaction) {
        self.hasher.push(u64::from(txn.id.client.0));
        self.hasher.push(txn.id.counter);
        self.hasher.push(txn.ops.len() as u64);
        for op in &txn.ops {
            self.hasher.push(op.key().0);
            self.hasher.push(u64::from(op.is_write()));
        }
        self.absorbed += 1;
    }

    /// Seals the hash with the batch length and produces the digest.
    #[must_use]
    pub fn finish(self) -> Digest {
        let mut hasher = self.hasher;
        hasher.push(self.absorbed);
        hasher.finish()
    }
}

impl Default for BatchDigestAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, Key, Operation, Transaction, TxnId};

    fn batch(n: usize) -> Batch {
        Batch::new(
            (0..n)
                .map(|i| {
                    Transaction::new(
                        TxnId::new(ClientId(0), i as u64),
                        vec![Operation::Read(Key(i as u64))],
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn batch_digest_is_deterministic_and_sensitive() {
        let b = batch(10);
        assert_eq!(batch_digest(&b), batch_digest(&b));
        let mut txns: Vec<Transaction> = batch(10).txns().to_vec();
        txns[3] = Transaction::new(txns[3].id, vec![Operation::ReadModifyWrite(Key(3), 1)]);
        let other = Batch::new(txns);
        assert_ne!(batch_digest(&b), batch_digest(&other));
        assert_ne!(batch_digest(&b), batch_digest(&batch(11)));
    }

    #[test]
    fn batch_digest_memo_matches_fresh_computation_and_follows_clones() {
        let b = batch(25);
        let memoized = batch_digest(&b);
        assert_eq!(memoized, compute_batch_digest(&b));
        assert_eq!(b.cached_digest(), Some(memoized));
        // A clone taken after the computation carries the cache.
        let clone = b.clone();
        assert_eq!(clone.cached_digest(), Some(memoized));
        assert!(clone.shares_txns(&b));
    }

    #[test]
    fn incremental_accumulator_matches_one_shot_digest() {
        for n in [1usize, 7, 100] {
            let b = batch(n);
            let mut acc = BatchDigestAccumulator::new();
            for txn in b.txns() {
                acc.absorb(txn);
            }
            assert_eq!(acc.absorbed, n as u64);
            assert_eq!(acc.finish(), compute_batch_digest(&b), "batch of {n}");
        }
    }

    #[test]
    fn accumulator_is_length_sealed() {
        // A 2-txn stream and a 3-txn stream sharing a prefix must differ
        // even before the extra transaction is absorbed — the trailing
        // length seal guarantees it.
        let b3 = batch(3);
        let mut two = BatchDigestAccumulator::new();
        two.absorb(&b3.txns()[0]);
        two.absorb(&b3.txns()[1]);
        assert_ne!(two.finish(), compute_batch_digest(&b3));
    }

    #[test]
    fn header_digest_binds_all_fields() {
        let d = batch_digest(&batch(3));
        let base = header_digest("prepare", ViewNumber(0), SeqNum(1), &d);
        assert_ne!(base, header_digest("prepare", ViewNumber(1), SeqNum(1), &d));
        assert_ne!(base, header_digest("prepare", ViewNumber(0), SeqNum(2), &d));
        assert_ne!(base, header_digest("commit", ViewNumber(0), SeqNum(1), &d));
    }

    #[test]
    fn preprepare_size_near_paper_for_batch_100() {
        let b = batch(100);
        let msg = ConsensusMessage::PrePrepare(PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            batch: b,
            plan: ShardPlan::Unplanned,
            mac: MacTag::ZERO,
        });
        let size = msg.wire_size();
        assert!(
            (4_800..=6_500).contains(&size),
            "PREPREPARE size {size} should be near the paper's 5392 B"
        );
    }

    #[test]
    fn prepare_and_commit_sizes_near_paper() {
        let prepare = ConsensusMessage::Prepare(Prepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            sender: NodeId(1),
            mac: MacTag::ZERO,
        });
        let commit = ConsensusMessage::Commit(Commit {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            sender: NodeId(1),
            signature: Signature::ZERO,
        });
        assert!(
            (150..=280).contains(&prepare.wire_size()),
            "{}",
            prepare.wire_size()
        );
        assert!(
            (180..=300).contains(&commit.wire_size()),
            "{}",
            commit.wire_size()
        );
        assert!(commit.wire_size() > prepare.wire_size());
    }

    #[test]
    fn kind_names_the_message_variant() {
        let prepare = ConsensusMessage::Prepare(Prepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            sender: NodeId(1),
            mac: MacTag::ZERO,
        });
        let commit = ConsensusMessage::Commit(Commit {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: Digest::ZERO,
            sender: NodeId(1),
            signature: Signature::ZERO,
        });
        assert_eq!(prepare.kind(), "PREPARE");
        assert_eq!(commit.kind(), "COMMIT");
    }

    #[test]
    fn digest_preprepare_is_far_smaller_than_full_preprepare() {
        let b = batch(100);
        let full = ConsensusMessage::PrePrepare(PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            batch: b.clone(),
            plan: ShardPlan::Unplanned,
            mac: MacTag::ZERO,
        });
        let digest = ConsensusMessage::DigestPrePrepare(DigestPrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            txn_ids: b.txn_ids(),
            plan: ShardPlan::Unplanned,
            mac: MacTag::ZERO,
        });
        // Pinned: 120 framing + 16 header + 32 digest + 32 mac + 5 plan +
        // 8 count + 100 × 4 delta-encoded ids.
        assert_eq!(digest.wire_size(), 613);
        assert!(
            full.wire_size() >= 5 * digest.wire_size(),
            "digest proposal must be at least 5x smaller ({} vs {})",
            full.wire_size(),
            digest.wire_size()
        );
        assert_eq!(digest.kind(), "DIGEST-PREPREPARE");
    }

    #[test]
    fn fetch_and_fill_sizes_scale_with_the_missing_set() {
        let b = batch(10);
        let fetch = |missing: Vec<TxnId>| {
            ConsensusMessage::BatchFetch(BatchFetch {
                sender: NodeId(2),
                view: ViewNumber(0),
                seq: SeqNum(1),
                digest: batch_digest(&b),
                missing,
                full: false,
                mac: MacTag::ZERO,
            })
        };
        let empty = fetch(Vec::new());
        let three = fetch(b.txn_ids()[..3].to_vec());
        assert_eq!(three.wire_size() - empty.wire_size(), 3 * 12);
        assert_eq!(three.kind(), "BATCHFETCH");
        let fill = ConsensusMessage::BatchFill(BatchFill {
            sender: NodeId(0),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            bodies: b.txns()[..3].to_vec(),
            full: false,
        });
        // Bodies ride in the batch's compact per-txn encoding (no client
        // signatures): 16 + 17 + 20 per single-op body here.
        assert_eq!(
            fill.wire_size(),
            FRAMING_OVERHEAD + 8 + 4 + 32 + 1 + 8 + 3 * 53
        );
        assert_eq!(fill.kind(), "BATCHFILL");
    }

    #[test]
    fn newview_and_stateresponse_charge_plan_and_proof_bytes() {
        // Regression for the byte-accounting fix: the replicated plan tag
        // and the justifying certificate bytes used to be omitted, so the
        // messages this crate re-ships batches in under-charged the wire.
        let b = batch(10);
        let pp = PrePrepare {
            view: ViewNumber(1),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            batch: b.clone(),
            plan: ShardPlan::Unplanned,
            mac: MacTag::ZERO,
        };
        let nv = ConsensusMessage::NewView(NewView {
            new_view: ViewNumber(1),
            sender: NodeId(1),
            view_change_senders: vec![NodeId(1), NodeId(2), NodeId(3)],
            reissued: vec![pp.clone()],
            signature: Signature::ZERO,
        });
        assert_eq!(
            nv.wire_size(),
            FRAMING_OVERHEAD + 16 + 4 + 64 + 3 * (4 + 64) + (48 + 32 + 5 + b.wire_size()),
            "NEWVIEW must charge per-sender proof signatures and the \
             reissued pre-prepares' MAC and plan tag"
        );
        // Signature validity is irrelevant to the wire model.
        let cert = Arc::new(CommitCertificate::new(
            ViewNumber(0),
            SeqNum(1),
            batch_digest(&b),
            (0..3u32).map(|i| (NodeId(i), Signature::ZERO)).collect(),
        ));
        let entry = RecoveredEntry {
            seq: SeqNum(1),
            view: ViewNumber(0),
            batch: b.clone(),
            plan: ShardPlan::Unplanned,
            certificate: Arc::clone(&cert),
        };
        let resp = ConsensusMessage::StateResponse(StateResponse {
            sender: NodeId(0),
            stable_seq: SeqNum(0),
            entries: vec![entry],
        });
        assert_eq!(
            resp.wire_size(),
            FRAMING_OVERHEAD + 4 + 8 + (24 + 5 + b.wire_size() + cert.wire_size()),
            "STATERESPONSE entries must charge the replicated plan tag"
        );
    }

    #[test]
    fn cft_messages_are_smaller_than_bft_counterparts() {
        let b = batch(100);
        let accept = ConsensusMessage::CftAccept(CftAccept {
            ballot: ViewNumber(0),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            batch: b.clone(),
            plan: ShardPlan::Unplanned,
        });
        let pp = ConsensusMessage::PrePrepare(PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: batch_digest(&b),
            batch: b,
            plan: ShardPlan::Unplanned,
            mac: MacTag::ZERO,
        });
        assert!(accept.wire_size() < pp.wire_size());
    }
}
