//! Convenience digest helpers built on [`crate::sha256::Sha256`].
//!
//! The protocol hashes structured data — `(view, seq, digest)` headers,
//! transaction identifiers, result vectors — far more often than raw byte
//! buffers. [`U64Hasher`] is the allocation-free workhorse for those
//! sites: values are pushed one `u64` at a time straight into the
//! hasher's own block buffer (an eight-byte store on the short-write path
//! of [`Sha256::update`]), so a digest over any number of values costs
//! zero heap allocations and no staging copy.
//!
//! The batch digest `Δ` is one of those digests, so it lives here too:
//! consensus orders batches under it and executors check the body they
//! are given against it. It and the client's request digest encode each
//! transaction the same way ([`absorb_transaction`]), binding every field
//! that transaction equality compares. Neither is cached on the value it
//! covers: a component that relies on one computes it from the body it
//! holds.

use crate::sha256::Sha256;
use sbft_types::{Batch, Digest, Operation, Transaction};

/// An incremental, allocation-free hasher for streams of `u64` values.
///
/// Construction absorbs a domain-separation label; values are then pushed
/// with [`push`](U64Hasher::push) (or [`push_digest`](U64Hasher::push_digest)
/// for 32-byte digests) and the final digest is produced by
/// [`finish`](U64Hasher::finish). No heap memory is touched.
#[derive(Clone, Debug)]
pub struct U64Hasher {
    inner: Sha256,
}

impl U64Hasher {
    /// Creates a hasher and absorbs the domain-separation `label`
    /// (terminated by a `0` separator byte, as [`digest_u64s`] always did).
    #[must_use]
    pub fn new(label: &str) -> Self {
        let mut inner = Sha256::new();
        inner.update(label.as_bytes());
        inner.update(&[0u8]); // separator between label and payload
        U64Hasher { inner }
    }

    /// Pushes one value (little-endian encoded).
    #[inline]
    pub fn push(&mut self, value: u64) {
        self.inner.update(&value.to_le_bytes());
    }

    /// Pushes a 32-byte digest: its bytes as they are, which is what four
    /// little-endian `u64` words of them encode to (the encoding the
    /// header/commit digests have always used).
    #[inline]
    pub fn push_digest(&mut self, digest: &Digest) {
        self.inner.update(digest.as_bytes());
    }

    /// Finalizes the hash.
    #[must_use]
    pub fn finish(self) -> Digest {
        self.inner.finalize()
    }
}

/// Hashes a sequence of `u64` values (little-endian encoded). Used for
/// digesting structured identifiers such as `(view, seq, batch)` tuples.
/// For call sites that would need to build a temporary `Vec` first, use
/// [`U64Hasher`] directly and push the values as they are produced.
#[must_use]
pub fn digest_u64s(label: &str, values: &[u64]) -> Digest {
    let mut h = U64Hasher::new(label);
    for v in values {
        h.push(*v);
    }
    h.finish()
}

/// Absorbs one transaction: every field its equality compares — the id,
/// each operation's kind, key and written value or salt, the declared
/// read-write set, the execution cost and the payload length — so two
/// transactions hash alike only if they are equal. The client's request
/// digest and the batch digest `Δ` both use it: a body with one value
/// swapped breaks the client's signature and `Δ`.
///
/// Every part is self-delimiting (a count precedes each list, a kind
/// word each operation's variable part), and two 32-bit fields share a
/// word where they can — the client with the payload length, a write's
/// kind with its logical length — since every word costs hashing time
/// on each of the several digests a transaction goes through.
pub fn absorb_transaction(h: &mut U64Hasher, txn: &Transaction) {
    h.push(u64::from(txn.id.client.0) | u64::from(txn.payload_len) << 32);
    h.push(txn.id.counter);
    h.push(txn.execution_cost.0);
    h.push(txn.ops.len() as u64);
    for op in &txn.ops {
        h.push(op.key().0);
        match *op {
            Operation::Read(_) => h.push(0),
            Operation::Write(_, value) => {
                h.push(1 | u64::from(value.logical_len) << 32);
                h.push(value.data);
            }
            Operation::ReadModifyWrite(_, salt) => {
                h.push(2);
                h.push(salt);
            }
        }
    }
    match &txn.declared_rwset {
        None => h.push(0),
        Some(rwset) => {
            h.push(1);
            for keys in [&rwset.read_keys, &rwset.write_keys] {
                h.push(keys.len() as u64);
                for key in keys {
                    h.push(key.0);
                }
            }
        }
    }
}

/// The digest of a batch of transactions (`Δ = H(m)`): each transaction
/// encoded by [`absorb_transaction`], in batch order, then the batch
/// length.
///
/// Nothing caches it: every component that relies on `Δ` calls this on
/// the body it holds. The primary hashes the batch it proposes, a
/// replica the batch a `PREPREPARE` (or a digest-mode rebuild) gives it,
/// an executor the batch of its `EXECUTE`, and the digest each certified
/// stays in its own state.
#[must_use]
pub fn compute_batch_digest(batch: &Batch) -> Digest {
    let mut h = U64Hasher::new("sbft-batch");
    for txn in batch.txns() {
        absorb_transaction(&mut h, txn);
    }
    h.push(batch.len() as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_digest_depends_on_label_and_values() {
        let d1 = digest_u64s("preprepare", &[1, 2, 3]);
        let d2 = digest_u64s("preprepare", &[1, 2, 4]);
        let d3 = digest_u64s("prepare", &[1, 2, 3]);
        assert_ne!(d1, d2);
        assert_ne!(d1, d3);
        assert_eq!(d1, digest_u64s("preprepare", &[1, 2, 3]));
    }

    #[test]
    fn empty_inputs_are_valid() {
        assert_eq!(Sha256::new().finalize(), Sha256::digest(b""));
        let d = digest_u64s("x", &[]);
        assert!(!d.is_zero());
    }

    #[test]
    fn incremental_pushes_match_slice_digest() {
        // Cross the 64-byte block boundary several times.
        for n in [0usize, 1, 7, 8, 9, 16, 33, 100] {
            let values: Vec<u64> = (0..n as u64).map(|v| v.wrapping_mul(0x9e37)).collect();
            let mut h = U64Hasher::new("stream");
            for v in &values {
                h.push(*v);
            }
            assert_eq!(h.finish(), digest_u64s("stream", &values), "n = {n}");
        }
    }

    #[test]
    fn push_digest_matches_word_encoding() {
        let d = Sha256::digest(b"payload");
        let words: Vec<u64> = d
            .as_bytes()
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut h = U64Hasher::new("hdr");
        h.push(3);
        h.push_digest(&d);
        let mut expected = vec![3u64];
        expected.extend(words);
        assert_eq!(h.finish(), digest_u64s("hdr", &expected));
    }
}
