//! The simulated digital-signature scheme.
//!
//! `SimSigner` is the documented substitution (see `DESIGN.md`) for the
//! CryptoPP Ed25519/RSA signatures of the original system: a signature is
//! a 64-byte deterministic keyed hash of the message digest under the
//! signer's secret key. Verification recomputes the signature from the
//! signer's registered key pair (obtained through the trusted
//! [`crate::keys::KeyStore`]), which mirrors the paper's assumption that
//! honest components can always validate `⟨m⟩_R` given R's public-key
//! certificate while byzantine components cannot forge it.
//!
//! The scheme preserves every property the protocol relies on:
//! determinism (matching `VERIFY` messages stay matching), binding to the
//! signer identity, binding to the message digest, and a realistic 64-byte
//! wire size.

use crate::hmac::HmacKey;
use crate::keys::{KeyPair, KeyStore};
use sbft_types::{ComponentId, Digest, Signature};

/// Signing and verification entry points.
pub struct SimSigner;

impl SimSigner {
    /// Signs a message digest with a secret key.
    ///
    /// The two 32-byte halves are HMACs under the same secret key; the key
    /// schedule is derived once and reused for both. Callers that sign
    /// repeatedly under one identity should use the schedule the
    /// [`KeyStore`] holds, through [`Self::sign_with_schedule`] (that is
    /// what [`crate::provider::CryptoHandle::sign`] does).
    #[must_use]
    pub fn sign(keypair: &KeyPair, digest: &Digest) -> Signature {
        Self::sign_with_schedule(&keypair.signing_schedule(), digest)
    }

    /// Signs a message digest with an already-derived key schedule,
    /// skipping the schedule derivation [`Self::sign`] pays per call.
    ///
    /// Neither half depends on the other, so both HMACs are computed side
    /// by side: two paired compressions instead of four single ones.
    #[must_use]
    pub fn sign_with_schedule(schedule: &HmacKey, digest: &Digest) -> Signature {
        let d = digest.as_bytes().as_slice();
        let [first, second] = schedule.mac_pair([&[d], &[d, &[0x01]]]);
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&first.0);
        out[32..].copy_from_slice(&second.0);
        Signature(out)
    }

    /// Verifies that `signature` is `signer`'s signature over `digest`,
    /// using the trusted key registry and the signing schedule it holds.
    #[must_use]
    pub fn verify(
        store: &KeyStore,
        signer: ComponentId,
        digest: &Digest,
        signature: &Signature,
    ) -> bool {
        let expected = Self::sign_with_schedule(&store.signing_schedule_of(signer), digest);
        signatures_equal(&expected, signature)
    }
}

/// Constant-time-ish 64-byte signature comparison.
#[must_use]
pub(crate) fn signatures_equal(a: &Signature, b: &Signature) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.0.iter().zip(b.0.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_types::NodeId;

    fn store() -> KeyStore {
        KeyStore::new(1234)
    }

    fn digest(n: u64) -> Digest {
        crate::hashing::digest_u64s("test", &[n])
    }

    #[test]
    fn sign_verify_round_trip() {
        let s = store();
        let node = ComponentId::Node(NodeId(0));
        let kp = s.keypair_for(node);
        let sig = SimSigner::sign(&kp, &digest(1));
        assert!(SimSigner::verify(&s, node, &digest(1), &sig));
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let s = store();
        let node = ComponentId::Node(NodeId(0));
        let sig = SimSigner::sign(&s.keypair_for(node), &digest(1));
        assert!(!SimSigner::verify(&s, node, &digest(2), &sig));
    }

    #[test]
    fn verification_rejects_wrong_signer() {
        let s = store();
        let sig = SimSigner::sign(&s.keypair_for(ComponentId::Node(NodeId(0))), &digest(1));
        assert!(!SimSigner::verify(
            &s,
            ComponentId::Node(NodeId(1)),
            &digest(1),
            &sig
        ));
    }

    #[test]
    fn verification_rejects_bit_flip() {
        let s = store();
        let node = ComponentId::Node(NodeId(2));
        let mut sig = SimSigner::sign(&s.keypair_for(node), &digest(9));
        sig.0[63] ^= 0x80;
        assert!(!SimSigner::verify(&s, node, &digest(9), &sig));
    }

    #[test]
    fn signatures_are_deterministic() {
        let s = store();
        let node = ComponentId::Node(NodeId(3));
        let kp = s.keypair_for(node);
        assert_eq!(
            SimSigner::sign(&kp, &digest(5)),
            SimSigner::sign(&kp, &digest(5))
        );
    }

    #[test]
    fn halves_of_signature_differ() {
        let s = store();
        let sig = SimSigner::sign(&s.keypair_for(ComponentId::Verifier), &digest(5));
        assert_ne!(&sig.0[..32], &sig.0[32..]);
    }

    #[test]
    fn schedule_paths_match_the_fresh_key_paths() {
        let s = store();
        let node = ComponentId::Node(NodeId(4));
        let kp = s.keypair_for(node);
        let schedule = kp.signing_schedule();
        let sig = SimSigner::sign_with_schedule(&schedule, &digest(11));
        assert_eq!(sig, SimSigner::sign(&kp, &digest(11)));
        assert!(SimSigner::verify(&s, node, &digest(11), &sig));
        assert!(!SimSigner::verify(&s, node, &digest(12), &sig));
    }
}
