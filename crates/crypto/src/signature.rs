//! The simulated digital-signature scheme.
//!
//! `SimSigner` is the documented substitution (see `DESIGN.md`) for the
//! CryptoPP Ed25519/RSA signatures of the original system: a signature is
//! one HMAC-SHA256 of the message digest under the signer's secret key,
//! zero-padded to Ed25519's 64 bytes. Verification recomputes the
//! signature from the signer's registered key pair (obtained through the
//! trusted [`crate::keys::KeyStore`]), which mirrors the paper's
//! assumption that honest components can always validate `⟨m⟩_R` given
//! R's public-key certificate while byzantine components cannot forge it.
//!
//! The scheme preserves every property the protocol relies on:
//! determinism (matching `VERIFY` messages stay matching), binding to the
//! signer identity, binding to the message digest, and a realistic 64-byte
//! wire size. Forging one means producing an HMAC-SHA256 tag without the
//! key (RFC 2104); its 256 bits are above the 128-bit level of the
//! Ed25519 it models, so a second keyed hash in the pad would add cost
//! and no security. Verification compares all 64 bytes, so a nonzero pad
//! is refused like any other altered byte.

use crate::hmac::HmacKey;
use crate::keys::{KeyPair, KeyStore};
use sbft_types::{ComponentId, Digest, Signature};

/// Signing and verification entry points.
pub struct SimSigner;

impl SimSigner {
    /// Signs a message digest with a secret key.
    ///
    /// Derives the key schedule on every call. Callers that sign
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
    /// The first 32 bytes are `HMAC(key, digest)` (two compressions), the
    /// last 32 are zero.
    #[must_use]
    pub fn sign_with_schedule(schedule: &HmacKey, digest: &Digest) -> Signature {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&schedule.mac(digest.as_bytes()).0);
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
    fn a_signature_is_one_mac_and_a_zero_half() {
        let s = store();
        for (signer, n) in [
            (ComponentId::Verifier, 5),
            (ComponentId::Node(NodeId(1)), 6),
        ] {
            let schedule = s.keypair_for(signer).signing_schedule();
            let d = digest(n);
            let sig = SimSigner::sign_with_schedule(&schedule, &d);
            assert_eq!(sig.0[..32], schedule.mac(d.as_bytes()).0);
            assert_eq!(sig.0[32..], [0u8; 32]);
        }
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
