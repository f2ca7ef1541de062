//! The `EXECUTE` and `VERIFY` messages.
//!
//! `⟨EXECUTE(⟨T⟩_C, C, m, Δ)⟩_P` is sent by the shim node that spawns an
//! executor and carries the ordered batch plus the certificate `C` of
//! `2f_R + 1` commit signatures (Figure 3, line 9). After execution the
//! executor sends `VERIFY(⟨T⟩_C, C, m, rw, r)` to the verifier with the
//! computed results and the read-write sets it observed (line 20).

use sbft_crypto::{CommitCertificate, U64Hasher};
use sbft_types::{
    Batch, BatchId, Digest, ExecutorId, NodeId, SeqNum, ShardPlan, Signature, TxnResult, ViewNumber,
};
use std::sync::Arc;

/// The `EXECUTE` message handed to a spawned executor.
#[derive(Clone, PartialEq, Debug)]
pub struct ExecuteRequest {
    /// View in which the batch committed.
    pub view: ViewNumber,
    /// Sequence number the shim assigned to the batch.
    pub seq: SeqNum,
    /// Digest of the ordered batch (`Δ`).
    pub digest: Digest,
    /// The batch of client transactions to execute (a shared handle: the
    /// one `EXECUTE` body is cloned per spawned executor by refcount).
    pub batch: Batch,
    /// The certificate proving `2f_R + 1` shim nodes committed the batch,
    /// shared by reference count with the spawner's consensus log.
    pub certificate: Arc<CommitCertificate>,
    /// The ordering-time shard plan replicated with the batch. Not
    /// covered by the spawner signature (trust-but-verify: the verifier
    /// re-derives it before acting on it, and a byzantine spawner holds
    /// its own signing key anyway).
    pub plan: ShardPlan,
    /// The shim node that spawned this executor (and pays for it).
    pub spawner: NodeId,
    /// Signature of the spawner over the request digest.
    pub signature: Signature,
}

/// The `VERIFY` message an executor sends to the verifier after execution.
#[derive(Clone, PartialEq, Debug)]
pub struct VerifyMessage {
    /// The executor that produced this result.
    pub executor: ExecutorId,
    /// View in which the batch committed.
    pub view: ViewNumber,
    /// Sequence number of the batch.
    pub seq: SeqNum,
    /// Identifier of the executed batch.
    pub batch_id: BatchId,
    /// Digest of the ordered batch, echoed from the `EXECUTE` message.
    pub batch_digest: Digest,
    /// Per-transaction results (outputs plus observed read-write sets),
    /// behind `Arc` so the verifier's bookkeeping clones are refcount
    /// bumps and the pooled apply stage can hand the very same
    /// allocation to the shard workers (zero-copy — no per-transaction
    /// read-write set is ever cloned on the apply path).
    pub results: Arc<[TxnResult]>,
    /// A digest of `results`; two `VERIFY` messages *match* iff these are
    /// equal (the verifier counts matching messages, Figure 3 line 23).
    pub result_digest: Digest,
    /// The certificate echoed back so the verifier can detect spawns that
    /// were never backed by consensus (Section V-C). Shared with the
    /// `EXECUTE` message it answers.
    pub certificate: Arc<CommitCertificate>,
    /// The ordering-time shard plan echoed from the `EXECUTE` message,
    /// so the verifier learns the tag from the same quorum it validates.
    pub plan: ShardPlan,
    /// The executor's signature over `result_digest`.
    pub signature: Signature,
}

impl ExecuteRequest {
    /// The digest the spawner signs for this request.
    #[must_use]
    pub fn signing_digest(
        view: ViewNumber,
        seq: SeqNum,
        digest: &Digest,
        spawner: NodeId,
    ) -> Digest {
        let mut h = U64Hasher::new("sbft-execute");
        h.push(view.0);
        h.push(seq.0);
        h.push(u64::from(spawner.0));
        h.push_digest(digest);
        h.finish()
    }

    /// Modeled wire size. With the default configuration (3-signature
    /// certificate, 100-transaction batch summarised by digest + compact
    /// transaction encodings) this lands near the paper's 3320 B.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        // Framing + header + plan tag + certificate + compact transaction
        // encoding (ids and operations only; values are fetched from
        // storage).
        120 + 16
            + 32
            + 64
            + 5
            + self.certificate.wire_size()
            + self
                .batch
                .iter()
                .map(|t| 16 + t.ops.len() * 12)
                .sum::<usize>()
    }
}

impl VerifyMessage {
    /// Computes the digest over a result vector that defines "matching"
    /// `VERIFY` messages.
    #[must_use]
    pub fn digest_of_results(seq: SeqNum, results: &[TxnResult]) -> Digest {
        let mut h = U64Hasher::new("sbft-verify-result");
        h.push(seq.0);
        h.push(results.len() as u64);
        for r in results {
            h.push(u64::from(r.txn.client.0));
            h.push(r.txn.counter);
            h.push(r.output);
            for (k, v) in &r.rwset.reads {
                h.push(k.0);
                h.push(v.0);
            }
            for (k, v) in &r.rwset.writes {
                h.push(k.0);
                h.push(v.data);
            }
        }
        h.finish()
    }

    /// Whether two `VERIFY` messages match (same batch, same results).
    #[must_use]
    pub fn matches(&self, other: &VerifyMessage) -> bool {
        self.seq == other.seq
            && self.batch_digest == other.batch_digest
            && self.result_digest == other.result_digest
    }

    /// Modeled wire size (the paper's `RESPONSE`-adjacent messages are a
    /// few kilobytes; the dominant term is the read-write sets).
    #[must_use]
    pub fn wire_size(&self) -> usize {
        120 + 16
            + 32
            + 32
            + 64
            + 5
            + self.certificate.wire_size()
            + self
                .results
                .iter()
                .map(|r| 24 + r.rwset.reads.len() * 16 + r.rwset.writes.len() * 16)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::{ClientId, Key, ReadWriteSet, TxnId, Value, Version};

    fn result(counter: u64, output: u64) -> TxnResult {
        let mut rwset = ReadWriteSet::new();
        rwset.record_read(Key(counter), Version(1));
        rwset.record_write(Key(counter), Value::new(output));
        TxnResult {
            txn: TxnId::new(ClientId(0), counter),
            output,
            rwset,
        }
    }

    #[test]
    fn result_digest_is_order_and_value_sensitive() {
        let a = vec![result(0, 1), result(1, 2)];
        let b = vec![result(1, 2), result(0, 1)];
        let c = vec![result(0, 1), result(1, 3)];
        let d1 = VerifyMessage::digest_of_results(SeqNum(1), &a);
        assert_eq!(d1, VerifyMessage::digest_of_results(SeqNum(1), &a));
        assert_ne!(d1, VerifyMessage::digest_of_results(SeqNum(1), &b));
        assert_ne!(d1, VerifyMessage::digest_of_results(SeqNum(1), &c));
        assert_ne!(d1, VerifyMessage::digest_of_results(SeqNum(2), &a));
    }

    #[test]
    fn signing_digest_binds_spawner() {
        let d = Digest::from_bytes([7; 32]);
        let a = ExecuteRequest::signing_digest(ViewNumber(0), SeqNum(1), &d, NodeId(0));
        let b = ExecuteRequest::signing_digest(ViewNumber(0), SeqNum(1), &d, NodeId(1));
        assert_ne!(a, b);
    }
}
