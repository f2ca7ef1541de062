//! Convenience digest helpers built on [`crate::sha256::Sha256`].
//!
//! The protocol hashes structured data — `(view, seq, digest)` headers,
//! transaction identifiers, result vectors — far more often than raw byte
//! buffers. [`U64Hasher`] is the allocation-free workhorse for those
//! sites: values are pushed one `u64` at a time straight into the
//! hasher's own block buffer (an eight-byte store on the short-write path
//! of [`Sha256::update`]), so a digest over any number of values costs
//! zero heap allocations and no staging copy.

use crate::sha256::Sha256;
use sbft_types::Digest;

/// Hashes the concatenation of several byte slices without copying them
/// into one buffer (domain separation is the caller's responsibility).
#[must_use]
pub fn digest_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_equals_single_buffer() {
        let a = b"hello ";
        let b = b"world";
        let mut joined = Vec::new();
        joined.extend_from_slice(a);
        joined.extend_from_slice(b);
        assert_eq!(digest_concat(&[a, b]), Sha256::digest(&joined));
    }

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
        assert_eq!(digest_concat(&[]), Sha256::digest(b""));
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
