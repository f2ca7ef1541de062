//! The simulated digital-signature scheme.
//!
//! `SimSigner` is the documented substitution (see `DESIGN.md`) for the
//! CryptoPP Ed25519/RSA signatures of the original system: a signature is
//! one HMAC-SHA256 of the message digest under the signer's secret key,
//! zero-padded to Ed25519's 64 bytes. A component signs through its own
//! [`crate::provider::CryptoHandle`], under the schedule the trusted
//! [`crate::keys::KeyStore`] holds for it; verification recomputes the
//! signature under the signer's schedule from the same store, which
//! mirrors the paper's assumption that honest components can always
//! validate `⟨m⟩_R` given R's public-key certificate while byzantine
//! components cannot forge it.
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
use crate::keys::KeyStore;
use sbft_types::{ComponentId, Digest, Signature};

/// Signing and verification entry points.
pub struct SimSigner;

impl SimSigner {
    /// Signs a message digest with the signer's key schedule (the one
    /// [`KeyStore`] holds, which is what
    /// [`crate::provider::CryptoHandle::sign`] passes).
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
    use crate::provider::CryptoProvider;
    use sbft_types::NodeId;
    use std::sync::Arc;

    fn provider() -> Arc<CryptoProvider> {
        CryptoProvider::new(1234)
    }

    fn digest(n: u64) -> Digest {
        crate::hashing::digest_u64s("test", &[n])
    }

    #[test]
    fn sign_verify_round_trip() {
        let p = provider();
        let node = ComponentId::Node(NodeId(0));
        let sig = p.handle(node).sign(&digest(1));
        assert!(SimSigner::verify(p.key_store(), node, &digest(1), &sig));
    }

    #[test]
    fn verification_rejects_wrong_message() {
        let p = provider();
        let node = ComponentId::Node(NodeId(0));
        let sig = p.handle(node).sign(&digest(1));
        assert!(!SimSigner::verify(p.key_store(), node, &digest(2), &sig));
    }

    #[test]
    fn verification_rejects_wrong_signer() {
        let p = provider();
        let sig = p.handle(ComponentId::Node(NodeId(0))).sign(&digest(1));
        assert!(!SimSigner::verify(
            p.key_store(),
            ComponentId::Node(NodeId(1)),
            &digest(1),
            &sig
        ));
    }

    #[test]
    fn verification_rejects_bit_flip() {
        let p = provider();
        let node = ComponentId::Node(NodeId(2));
        let mut sig = p.handle(node).sign(&digest(9));
        sig.0[63] ^= 0x80;
        assert!(!SimSigner::verify(p.key_store(), node, &digest(9), &sig));
    }

    #[test]
    fn signatures_are_deterministic() {
        let handle = provider().handle(ComponentId::Node(NodeId(3)));
        assert_eq!(handle.sign(&digest(5)), handle.sign(&digest(5)));
    }

    #[test]
    fn a_signature_is_one_mac_and_a_zero_half() {
        let p = provider();
        for (signer, n) in [
            (ComponentId::Verifier, 5),
            (ComponentId::Node(NodeId(1)), 6),
        ] {
            let schedule = HmacKey::new(&p.key_store().seed_of(signer));
            let d = digest(n);
            let sig = p.handle(signer).sign(&d);
            assert_eq!(sig.0[..32], schedule.mac(d.as_bytes()).0);
            assert_eq!(sig.0[32..], [0u8; 32]);
        }
    }

    #[test]
    fn schedule_paths_match_the_fresh_key_paths() {
        let p = provider();
        let node = ComponentId::Node(NodeId(4));
        let fresh = HmacKey::new(&p.key_store().seed_of(node));
        let sig = SimSigner::sign_with_schedule(&fresh, &digest(11));
        assert_eq!(sig, p.handle(node).sign(&digest(11)));
        assert!(SimSigner::verify(p.key_store(), node, &digest(11), &sig));
        assert!(!SimSigner::verify(p.key_store(), node, &digest(12), &sig));
    }
}
