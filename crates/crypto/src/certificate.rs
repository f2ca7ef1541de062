//! Execution certificates.
//!
//! After the primary collects `2f_R + 1` signed `COMMIT` messages it builds
//! a certificate `C` — "a set of signatures of `2f_R + 1` distinct shim
//! nodes that proves these nodes agreed to order this request" (Figure 3,
//! line 8) — and ships it inside every `EXECUTE` message. Executors verify
//! `C` before executing, and echo it in their `VERIFY` messages so the
//! verifier can detect byzantine spawning (Section V-C).

use crate::hashing::U64Hasher;
use crate::keys::KeyStore;
use crate::signature::SimSigner;
use sbft_types::{
    ComponentId, Digest, NodeId, SbftError, SbftResult, SeqNum, Signature, ViewNumber,
};
use std::collections::BTreeSet;

/// The digest that shim nodes sign in their `COMMIT` messages: a
/// domain-separated hash binding the view, the sequence number and the
/// digest of the ordered batch.
#[must_use]
pub fn commit_digest(view: ViewNumber, seq: SeqNum, batch_digest: &Digest) -> Digest {
    let mut h = U64Hasher::new("sbft-commit");
    h.push(view.0);
    h.push(seq.0);
    h.push_digest(batch_digest);
    h.finish()
}

/// A certificate proving that a quorum of shim nodes committed a batch at a
/// given view and sequence number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommitCertificate {
    /// View in which the batch committed.
    pub view: ViewNumber,
    /// Sequence number assigned by the shim.
    pub seq: SeqNum,
    /// Digest of the ordered batch.
    pub batch_digest: Digest,
    /// `(node, signature)` pairs over [`commit_digest`].
    pub entries: Vec<(NodeId, Signature)>,
}

impl CommitCertificate {
    /// Builds a certificate from collected commit signatures.
    #[must_use]
    pub fn new(
        view: ViewNumber,
        seq: SeqNum,
        batch_digest: Digest,
        entries: Vec<(NodeId, Signature)>,
    ) -> Self {
        CommitCertificate {
            view,
            seq,
            batch_digest,
            entries,
        }
    }

    /// Number of distinct signers in the certificate.
    #[must_use]
    fn distinct_signers(&self) -> usize {
        self.entries
            .iter()
            .map(|(n, _)| *n)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Verifies the certificate: at least `quorum` distinct shim nodes,
    /// every signature valid over the commit digest, and every signer a
    /// member of the shim (`node.0 < n_r`).
    pub fn verify(&self, store: &KeyStore, quorum: usize, n_r: usize) -> SbftResult<()> {
        if self.distinct_signers() < quorum {
            return Err(SbftError::BadCertificate(format!(
                "certificate has {} distinct signers, quorum is {quorum}",
                self.distinct_signers()
            )));
        }
        let digest = commit_digest(self.view, self.seq, &self.batch_digest);
        let mut seen = BTreeSet::new();
        for (node, sig) in &self.entries {
            if node.0 as usize >= n_r {
                return Err(SbftError::BadCertificate(format!(
                    "signer {node} is not a member of the {n_r}-node shim"
                )));
            }
            if !seen.insert(*node) {
                // Duplicate entries are tolerated but only counted once;
                // skip re-verification.
                continue;
            }
            if !SimSigner::verify(store, ComponentId::Node(*node), &digest, sig) {
                return Err(SbftError::BadCertificate(format!(
                    "signature of {node} does not verify"
                )));
            }
        }
        Ok(())
    }

    /// Wire size in bytes: view + seq + digest + per-entry node id and
    /// 64-byte signature. With `2f_R + 1 = 3` signers (a 4-node shim) this
    /// is ~250 B, which together with the batch digest and commit message
    /// puts the `EXECUTE` message near the paper's reported 3320 B for the
    /// default configuration.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        8 + 8 + 32 + self.entries.len() * (4 + 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::digest_u64s;
    use sbft_types::Digest;

    fn make_cert(store: &KeyStore, signers: &[u32], view: u64, seq: u64) -> CommitCertificate {
        let batch_digest = digest_u64s("batch", &[seq]);
        let digest = commit_digest(ViewNumber(view), SeqNum(seq), &batch_digest);
        let entries = signers
            .iter()
            .map(|&n| {
                let kp = store.keypair_for(ComponentId::Node(NodeId(n)));
                (NodeId(n), SimSigner::sign(&kp, &digest))
            })
            .collect();
        CommitCertificate::new(ViewNumber(view), SeqNum(seq), batch_digest, entries)
    }

    #[test]
    fn valid_certificate_verifies() {
        let store = KeyStore::new(1);
        let cert = make_cert(&store, &[0, 1, 2], 0, 5);
        assert!(cert.verify(&store, 3, 4).is_ok());
    }

    #[test]
    fn too_few_signers_rejected() {
        let store = KeyStore::new(1);
        let cert = make_cert(&store, &[0, 1], 0, 5);
        let err = cert.verify(&store, 3, 4).unwrap_err();
        assert!(matches!(err, SbftError::BadCertificate(_)));
    }

    #[test]
    fn duplicate_signers_count_once() {
        let store = KeyStore::new(1);
        let mut cert = make_cert(&store, &[0, 1], 0, 5);
        let dup = cert.entries[0];
        cert.entries.push(dup);
        assert_eq!(cert.distinct_signers(), 2);
        assert!(cert.verify(&store, 3, 4).is_err());
    }

    #[test]
    fn forged_signature_rejected() {
        let store = KeyStore::new(1);
        let mut cert = make_cert(&store, &[0, 1, 2], 0, 5);
        cert.entries[1].1 .0[0] ^= 0xff;
        assert!(cert.verify(&store, 3, 4).is_err());
    }

    #[test]
    fn signer_outside_shim_rejected() {
        let store = KeyStore::new(1);
        let cert = make_cert(&store, &[0, 1, 7], 0, 5);
        assert!(cert.verify(&store, 3, 4).is_err());
        // But fine for a larger shim.
        assert!(cert.verify(&store, 3, 8).is_ok());
    }

    #[test]
    fn certificate_bound_to_view_seq_and_digest() {
        let store = KeyStore::new(1);
        let cert = make_cert(&store, &[0, 1, 2], 0, 5);
        let mut tampered = cert.clone();
        tampered.seq = SeqNum(6);
        assert!(tampered.verify(&store, 3, 4).is_err());
        let mut tampered = cert.clone();
        tampered.view = ViewNumber(1);
        assert!(tampered.verify(&store, 3, 4).is_err());
        let mut tampered = cert;
        tampered.batch_digest = Digest::ZERO;
        assert!(tampered.verify(&store, 3, 4).is_err());
    }

    #[test]
    fn wire_size_grows_with_quorum() {
        let store = KeyStore::new(1);
        let small = make_cert(&store, &[0, 1, 2], 0, 1);
        let large = make_cert(&store, &(0..21).collect::<Vec<_>>(), 0, 1);
        assert!(large.wire_size() > small.wire_size());
        assert_eq!(small.wire_size(), 48 + 3 * 68);
    }
}
