//! Hand-rolled binary codec for [`WalRecord`]s.
//!
//! The WAL defines its own little-endian, length-free tag format. The format is
//! self-delimiting per record (every list is length-prefixed) and
//! versioned only by the record tags; [`decode`] returns `None` on any
//! malformed input so a torn or corrupted frame never panics a replay.

use crate::wal::WalRecord;
use sbft_crypto::CommitCertificate;
use sbft_types::{
    Batch, Digest, Key, NodeId, Operation, RwSetKeys, SeqNum, ShardId, ShardPlan, Signature,
    SimDuration, Transaction, TxnId, Value, ViewNumber,
};

const TAG_RELEASED: u8 = 1;
const TAG_VOTE: u8 = 2;
const TAG_COMMITTED: u8 = 3;
const TAG_VIEW_INSTALLED: u8 = 4;
const TAG_SNAPSHOT_MARK: u8 = 5;

/// FNV-1a over the encoded payload; the frame checksum of [`crate::FileWal`].
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one record into its wire bytes.
#[must_use]
pub fn encode(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        WalRecord::Released { seq, view, digest } => {
            out.push(TAG_RELEASED);
            put_u64(&mut out, seq.0);
            put_u64(&mut out, view.0);
            out.extend_from_slice(digest.as_bytes());
        }
        WalRecord::Vote { seq, view, digest } => {
            out.push(TAG_VOTE);
            put_u64(&mut out, seq.0);
            put_u64(&mut out, view.0);
            out.extend_from_slice(digest.as_bytes());
        }
        WalRecord::Committed {
            seq,
            view,
            plan,
            batch,
            certificate,
        } => {
            out.push(TAG_COMMITTED);
            put_u64(&mut out, seq.0);
            put_u64(&mut out, view.0);
            put_plan(&mut out, *plan);
            put_batch(&mut out, batch);
            put_certificate(&mut out, certificate);
        }
        WalRecord::ViewInstalled { view } => {
            out.push(TAG_VIEW_INSTALLED);
            put_u64(&mut out, view.0);
        }
        WalRecord::SnapshotMark { upto, view } => {
            out.push(TAG_SNAPSHOT_MARK);
            put_u64(&mut out, upto.0);
            put_u64(&mut out, view.0);
        }
    }
    out
}

/// Decodes one record, or `None` if the bytes are malformed or carry
/// trailing garbage.
#[must_use]
pub fn decode(bytes: &[u8]) -> Option<WalRecord> {
    let mut r = Reader { bytes, pos: 0 };
    let record = match r.u8()? {
        TAG_RELEASED => WalRecord::Released {
            seq: SeqNum(r.u64()?),
            view: ViewNumber(r.u64()?),
            digest: r.digest()?,
        },
        TAG_VOTE => WalRecord::Vote {
            seq: SeqNum(r.u64()?),
            view: ViewNumber(r.u64()?),
            digest: r.digest()?,
        },
        TAG_COMMITTED => WalRecord::Committed {
            seq: SeqNum(r.u64()?),
            view: ViewNumber(r.u64()?),
            plan: r.plan()?,
            batch: r.batch()?,
            certificate: std::sync::Arc::new(r.certificate()?),
        },
        TAG_VIEW_INSTALLED => WalRecord::ViewInstalled {
            view: ViewNumber(r.u64()?),
        },
        TAG_SNAPSHOT_MARK => WalRecord::SnapshotMark {
            upto: SeqNum(r.u64()?),
            view: ViewNumber(r.u64()?),
        },
        _ => return None,
    };
    if r.pos == bytes.len() {
        Some(record)
    } else {
        None
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_plan(out: &mut Vec<u8>, plan: ShardPlan) {
    match plan {
        ShardPlan::Unplanned => out.push(0),
        ShardPlan::SingleHome(shard) => {
            out.push(1);
            put_u32(out, shard.0);
        }
        ShardPlan::CrossHome => out.push(2),
    }
}

fn put_batch(out: &mut Vec<u8>, batch: &Batch) {
    put_u32(out, batch.len() as u32);
    for txn in batch.txns() {
        put_txn(out, txn);
    }
}

fn put_txn(out: &mut Vec<u8>, txn: &Transaction) {
    put_u32(out, txn.id.client.0);
    put_u64(out, txn.id.counter);
    put_u32(out, txn.ops.len() as u32);
    for op in &txn.ops {
        match op {
            Operation::Read(k) => {
                out.push(0);
                put_u64(out, k.0);
            }
            Operation::Write(k, v) => {
                out.push(1);
                put_u64(out, k.0);
                put_u64(out, v.data);
                put_u32(out, v.logical_len);
            }
            Operation::ReadModifyWrite(k, salt) => {
                out.push(2);
                put_u64(out, k.0);
                put_u64(out, *salt);
            }
        }
    }
    match &txn.declared_rwset {
        None => out.push(0),
        Some(rwset) => {
            out.push(1);
            put_u32(out, rwset.read_keys.len() as u32);
            for k in &rwset.read_keys {
                put_u64(out, k.0);
            }
            put_u32(out, rwset.write_keys.len() as u32);
            for k in &rwset.write_keys {
                put_u64(out, k.0);
            }
        }
    }
    put_u64(out, txn.execution_cost.0);
    put_u32(out, txn.payload_len);
}

fn put_certificate(out: &mut Vec<u8>, cert: &CommitCertificate) {
    put_u64(out, cert.view.0);
    put_u64(out, cert.seq.0);
    out.extend_from_slice(cert.batch_digest.as_bytes());
    put_u32(out, cert.entries.len() as u32);
    for (node, sig) in &cert.entries {
        put_u32(out, node.0);
        out.extend_from_slice(sig.as_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn digest(&mut self) -> Option<Digest> {
        Some(Digest::from_bytes(self.take(32)?.try_into().ok()?))
    }

    fn signature(&mut self) -> Option<Signature> {
        Some(Signature(self.take(64)?.try_into().ok()?))
    }

    fn plan(&mut self) -> Option<ShardPlan> {
        Some(match self.u8()? {
            0 => ShardPlan::Unplanned,
            1 => ShardPlan::SingleHome(ShardId(self.u32()?)),
            2 => ShardPlan::CrossHome,
            _ => return None,
        })
    }

    fn batch(&mut self) -> Option<Batch> {
        let len = self.u32()? as usize;
        if len == 0 {
            return None;
        }
        let mut txns = Vec::with_capacity(len.min(4_096));
        for _ in 0..len {
            txns.push(self.txn()?);
        }
        Some(Batch::new(txns))
    }

    fn txn(&mut self) -> Option<Transaction> {
        let client = sbft_types::ClientId(self.u32()?);
        let counter = self.u64()?;
        let n_ops = self.u32()? as usize;
        let mut ops = Vec::with_capacity(n_ops.min(4_096));
        for _ in 0..n_ops {
            ops.push(match self.u8()? {
                0 => Operation::Read(Key(self.u64()?)),
                1 => {
                    let key = Key(self.u64()?);
                    let data = self.u64()?;
                    let logical_len = self.u32()?;
                    Operation::Write(key, Value { data, logical_len })
                }
                2 => Operation::ReadModifyWrite(Key(self.u64()?), self.u64()?),
                _ => return None,
            });
        }
        let rwset = match self.u8()? {
            0 => None,
            1 => {
                let n_reads = self.u32()? as usize;
                let mut reads = Vec::with_capacity(n_reads.min(4_096));
                for _ in 0..n_reads {
                    reads.push(Key(self.u64()?));
                }
                let n_writes = self.u32()? as usize;
                let mut writes = Vec::with_capacity(n_writes.min(4_096));
                for _ in 0..n_writes {
                    writes.push(Key(self.u64()?));
                }
                Some(RwSetKeys::new(reads, writes))
            }
            _ => return None,
        };
        let execution_cost = SimDuration(self.u64()?);
        let payload_len = self.u32()?;
        let txn = Transaction::new(TxnId::new(client, counter), ops)
            .with_execution_cost(execution_cost)
            .with_payload_len(payload_len);
        Some(match rwset {
            Some(rwset) => txn.with_declared_rwset(rwset),
            None => txn,
        })
    }

    fn certificate(&mut self) -> Option<CommitCertificate> {
        let view = ViewNumber(self.u64()?);
        let seq = SeqNum(self.u64()?);
        let batch_digest = self.digest()?;
        let n = self.u32()? as usize;
        let mut entries = Vec::with_capacity(n.min(4_096));
        for _ in 0..n {
            let node = NodeId(self.u32()?);
            let sig = self.signature()?;
            entries.push((node, sig));
        }
        Some(CommitCertificate::new(view, seq, batch_digest, entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::ClientId;
    use std::sync::Arc;

    fn txn(counter: u64) -> Transaction {
        Transaction::new(
            TxnId::new(ClientId(3), counter),
            vec![
                Operation::Read(Key(counter)),
                Operation::Write(
                    Key(counter + 1),
                    Value {
                        data: 42,
                        logical_len: 1_000,
                    },
                ),
                Operation::ReadModifyWrite(Key(counter + 2), 7),
            ],
        )
        .with_inferred_rwset()
        .with_execution_cost(SimDuration::from_micros(50))
    }

    fn cert(seq: u64) -> CommitCertificate {
        CommitCertificate::new(
            ViewNumber(1),
            SeqNum(seq),
            Digest::from_bytes([9; 32]),
            vec![
                (NodeId(0), Signature([1; 64])),
                (NodeId(2), Signature([2; 64])),
                (NodeId(3), Signature([3; 64])),
            ],
        )
    }

    fn all_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Released {
                seq: SeqNum(1),
                view: ViewNumber(0),
                digest: Digest::from_bytes([1; 32]),
            },
            WalRecord::Vote {
                seq: SeqNum(1),
                view: ViewNumber(0),
                digest: Digest::from_bytes([1; 32]),
            },
            WalRecord::Committed {
                seq: SeqNum(1),
                view: ViewNumber(0),
                plan: ShardPlan::SingleHome(ShardId(2)),
                batch: Batch::new(vec![txn(0), txn(1)]),
                certificate: Arc::new(cert(1)),
            },
            WalRecord::ViewInstalled {
                view: ViewNumber(4),
            },
            WalRecord::SnapshotMark {
                upto: SeqNum(8),
                view: ViewNumber(4),
            },
        ]
    }

    #[test]
    fn every_record_kind_round_trips() {
        for record in all_records() {
            let bytes = encode(&record);
            let decoded = decode(&bytes).expect("decodes");
            assert_eq!(decoded, record);
        }
    }

    #[test]
    fn committed_record_preserves_batch_and_certificate_exactly() {
        let record = WalRecord::Committed {
            seq: SeqNum(7),
            view: ViewNumber(2),
            plan: ShardPlan::CrossHome,
            batch: Batch::new((0..100).map(txn).collect()),
            certificate: Arc::new(cert(7)),
        };
        let decoded = decode(&encode(&record)).expect("decodes");
        let WalRecord::Committed {
            batch, certificate, ..
        } = &decoded
        else {
            panic!("wrong kind");
        };
        assert_eq!(batch.len(), 100);
        assert_eq!(certificate.entries.len(), 3);
        assert_eq!(decoded, record);
    }

    #[test]
    fn truncated_or_corrupt_bytes_decode_to_none() {
        let bytes = encode(&all_records()[2]);
        for cut in [0, 1, 5, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_none(), "trailing garbage rejected");
        let mut bad_tag = bytes;
        bad_tag[0] = 99;
        assert!(decode(&bad_tag).is_none());
    }

    #[test]
    fn checksum_is_stable_and_input_sensitive() {
        let a = checksum(b"hello");
        assert_eq!(a, checksum(b"hello"));
        assert_ne!(a, checksum(b"hellp"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
