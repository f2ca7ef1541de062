//! Consensus messages exchanged between shim nodes.
//!
//! The PBFT messages follow Figure 3 of the paper. `PREPREPARE` and
//! `PREPARE` are authenticated with MACs (cheaper, no non-repudiation
//! needed); `COMMIT` carries a digital signature because the primary later
//! assembles the commit signatures into the execution certificate `C`
//! shipped to the serverless executors. The CFT baseline messages carry no
//! authentication at all, which is exactly why `ServerlessCFT` outperforms
//! PBFT in Figure 7.

use sbft_crypto::certificate::commit_digest;
pub use sbft_crypto::hashing::compute_batch_digest;
use sbft_crypto::{CommitCertificate, U64Hasher};
use sbft_durability::RecoveredEntry;
use sbft_types::{
    Batch, Digest, MacTag, NodeId, SeqNum, Signature, Transaction, TxnId, ViewNumber,
};
use std::sync::Arc;

/// Fixed per-message framing overhead (transport headers, message type
/// tags, lengths) used by the wire-size model.
const FRAMING_OVERHEAD: usize = 120;

/// `PREPREPARE(⟨T⟩_C, Δ, k)`: the primary proposes ordering batch `Δ` at
/// sequence `k` in view `v` (MAC-authenticated). The MAC covers the
/// header and the digest, never the body: whatever form the body takes,
/// no vote is cast before the batch it yields hashes to `Δ`.
#[derive(Clone, PartialEq, Debug)]
pub struct PrePrepare {
    /// Current view.
    pub view: ViewNumber,
    /// Proposed sequence number.
    pub seq: SeqNum,
    /// Digest of the batch, `Δ = H(m)`.
    pub digest: Digest,
    /// The batch, or only its transaction ids.
    pub body: ProposalBody,
    /// MAC over the header fields from the primary.
    pub mac: MacTag,
}

/// What a [`PrePrepare`] carries of its batch.
#[derive(Clone, PartialEq, Debug)]
pub enum ProposalBody {
    /// The full batch of client transactions.
    Batch(Batch),
    /// The batch's transaction ids, in batch order: the bandwidth-frugal
    /// form of digest proposals. Replicas rebuild the batch from the
    /// bodies they already hold from client submission and fetch only
    /// what they miss via [`BatchFetch`]/[`BatchFill`].
    Ids(Vec<TxnId>),
}

impl ProposalBody {
    /// Modeled wire size of the body in bytes. The ids ride as an id
    /// count and a compact 4-byte delta encoding against the batch's
    /// first id (consecutive counters from a bounded client set), not as
    /// full 12-byte ids: that compaction is the whole point of the form.
    fn wire_size(&self) -> usize {
        match self {
            ProposalBody::Batch(batch) => batch.wire_size(),
            ProposalBody::Ids(ids) => 8 + ids.len() * 4,
        }
    }
}

/// `BATCHFETCH`: a replica reconstructing an ids-only proposal asks a
/// peer for the transaction bodies it misses, by id.
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
    /// Ids of the bodies the sender misses.
    pub missing: Vec<TxnId>,
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
    /// The requested transaction bodies.
    pub bodies: Vec<Transaction>,
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

// The preimage of each authenticated message is written once, here, and
// read by the signer and by the admission gate alike. It folds what the
// message carries (everything but the MAC or signature, and the body of a
// proposal), so swapping one field for another breaks the authenticator.

impl PrePrepare {
    /// The digest the primary MACs.
    #[must_use]
    pub(crate) fn signing_digest(view: ViewNumber, seq: SeqNum, digest: &Digest) -> Digest {
        header_digest("preprepare", view, seq, digest)
    }
}

impl Prepare {
    /// The digest the sender MACs.
    #[must_use]
    pub(crate) fn signing_digest(view: ViewNumber, seq: SeqNum, digest: &Digest) -> Digest {
        header_digest("prepare", view, seq, digest)
    }
}

impl BatchFetch {
    /// The digest the requester MACs.
    #[must_use]
    pub(crate) fn signing_digest(view: ViewNumber, seq: SeqNum, digest: &Digest) -> Digest {
        header_digest("batchfetch", view, seq, digest)
    }
}

impl Commit {
    /// The digest the sender signs, which its commit certificate checks.
    #[must_use]
    pub(crate) fn signing_digest(view: ViewNumber, seq: SeqNum, digest: &Digest) -> Digest {
        commit_digest(view, seq, digest)
    }
}

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
    /// Request for missing transaction bodies of an ids-only proposal.
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
    /// (`PREPREPARE` with either body, CFT accept); `None` for every other
    /// message. Both runtimes key the batch-release edge on this.
    #[must_use]
    pub fn proposal_seq(&self) -> Option<SeqNum> {
        match self {
            ConsensusMessage::PrePrepare(p) => Some(p.seq),
            ConsensusMessage::CftAccept(a) => Some(a.seq),
            _ => None,
        }
    }

    /// The transaction ids of the batch a proposal releases; empty for
    /// every other message.
    #[must_use]
    pub fn proposal_txn_ids(&self) -> Vec<TxnId> {
        match self {
            ConsensusMessage::PrePrepare(p) => match &p.body {
                ProposalBody::Batch(batch) => batch.txn_ids(),
                ProposalBody::Ids(ids) => ids.clone(),
            },
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
                // Header (view + seq) + digest + MAC + body.
                FRAMING_OVERHEAD + 16 + 32 + 32 + m.body.wire_size()
            }
            ConsensusMessage::BatchFetch(m) => {
                // Header + sender + digest + MAC + id count + full 12-byte
                // ids (no delta locality in a miss set).
                FRAMING_OVERHEAD + 16 + 4 + 32 + 32 + 8 + m.missing.len() * 12
            }
            ConsensusMessage::BatchFill(m) => {
                // Bodies ship in the batch's compact per-txn encoding —
                // digest-verified on arrival, so no client signatures ride
                // along.
                FRAMING_OVERHEAD
                    + 8
                    + 4
                    + 32
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
                // carries its MAC like the standalone message does.
                FRAMING_OVERHEAD
                    + 16
                    + 4
                    + 64
                    + m.view_change_senders.len() * (4 + 64)
                    + m.reissued
                        .iter()
                        .map(|pp| 48 + 32 + pp.body.wire_size())
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
                        // seq + view + entry framing, then the batch and
                        // its self-certifying commit certificate.
                        .map(|e| 24 + e.batch.wire_size() + e.certificate.wire_size())
                        .sum::<usize>()
            }
            ConsensusMessage::CftAccept(m) => FRAMING_OVERHEAD + 16 + 32 + m.batch.wire_size(),
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
        assert_eq!(compute_batch_digest(&b), compute_batch_digest(&b));
        let mut txns: Vec<Transaction> = batch(10).txns().to_vec();
        txns[3] = Transaction::new(txns[3].id, vec![Operation::ReadModifyWrite(Key(3), 1)]);
        let other = Batch::new(txns);
        assert_ne!(compute_batch_digest(&b), compute_batch_digest(&other));
        assert_ne!(compute_batch_digest(&b), compute_batch_digest(&batch(11)));
    }

    #[test]
    fn header_digest_binds_all_fields() {
        let d = compute_batch_digest(&batch(3));
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
            digest: compute_batch_digest(&b),
            body: ProposalBody::Batch(b),
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
            digest: compute_batch_digest(&b),
            body: ProposalBody::Batch(b.clone()),
            mac: MacTag::ZERO,
        });
        let digest = ConsensusMessage::PrePrepare(PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: compute_batch_digest(&b),
            body: ProposalBody::Ids(b.txn_ids()),
            mac: MacTag::ZERO,
        });
        // Pinned: 120 framing + 16 header + 32 digest + 32 mac + 8 count +
        // 100 × 4 delta-encoded ids.
        assert_eq!(digest.wire_size(), 608);
        assert_eq!(full.wire_size(), 5_540);
        assert!(
            full.wire_size() >= 5 * digest.wire_size(),
            "digest proposal must be at least 5x smaller ({} vs {})",
            full.wire_size(),
            digest.wire_size()
        );
        assert_eq!(digest.kind(), "PREPREPARE");
        assert_eq!(digest.proposal_txn_ids(), full.proposal_txn_ids());
    }

    #[test]
    fn fetch_and_fill_sizes_scale_with_the_missing_set() {
        let b = batch(10);
        let fetch = |missing: Vec<TxnId>| {
            ConsensusMessage::BatchFetch(BatchFetch {
                sender: NodeId(2),
                view: ViewNumber(0),
                seq: SeqNum(1),
                digest: compute_batch_digest(&b),
                missing,
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
            digest: compute_batch_digest(&b),
            bodies: b.txns()[..3].to_vec(),
        });
        // Bodies ride in the batch's compact per-txn encoding (no client
        // signatures): 16 + 17 + 20 per single-op body here.
        assert_eq!(fill.wire_size(), FRAMING_OVERHEAD + 8 + 4 + 32 + 8 + 3 * 53);
        assert_eq!(fill.kind(), "BATCHFILL");
    }

    #[test]
    fn newview_and_stateresponse_charge_proof_bytes() {
        // Regression for the byte-accounting fix: the justifying signature
        // and certificate bytes used to be omitted, so the messages this
        // crate re-ships batches in under-charged the wire.
        let b = batch(10);
        let pp = PrePrepare {
            view: ViewNumber(1),
            seq: SeqNum(1),
            digest: compute_batch_digest(&b),
            body: ProposalBody::Batch(b.clone()),
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
            FRAMING_OVERHEAD + 16 + 4 + 64 + 3 * (4 + 64) + (48 + 32 + b.wire_size()),
            "NEWVIEW must charge per-sender proof signatures and the \
             reissued pre-prepares' MAC"
        );
        // Signature validity is irrelevant to the wire model.
        let cert = Arc::new(CommitCertificate::new(
            ViewNumber(0),
            SeqNum(1),
            compute_batch_digest(&b),
            (0..3u32).map(|i| (NodeId(i), Signature::ZERO)).collect(),
        ));
        let entry = RecoveredEntry {
            seq: SeqNum(1),
            view: ViewNumber(0),
            batch: b.clone(),
            certificate: Arc::clone(&cert),
        };
        let resp = ConsensusMessage::StateResponse(StateResponse {
            sender: NodeId(0),
            stable_seq: SeqNum(0),
            entries: vec![entry],
        });
        assert_eq!(
            resp.wire_size(),
            FRAMING_OVERHEAD + 4 + 8 + (24 + b.wire_size() + cert.wire_size()),
            "STATERESPONSE entries must charge each entry's certificate"
        );
    }

    #[test]
    fn cft_messages_are_smaller_than_bft_counterparts() {
        let b = batch(100);
        let accept = ConsensusMessage::CftAccept(CftAccept {
            ballot: ViewNumber(0),
            seq: SeqNum(1),
            digest: compute_batch_digest(&b),
            batch: b.clone(),
        });
        let pp = ConsensusMessage::PrePrepare(PrePrepare {
            view: ViewNumber(0),
            seq: SeqNum(1),
            digest: compute_batch_digest(&b),
            body: ProposalBody::Batch(b),
            mac: MacTag::ZERO,
        });
        assert!(accept.wire_size() < pp.wire_size());
    }
}
