//! HMAC-SHA256 (RFC 2104), used for message authentication codes.
//!
//! The paper uses MACs for the `PREPREPARE` and `PREPARE` phases because
//! they are cheaper than digital signatures and non-repudiation is not
//! needed there; the pairwise secret keys come out of the
//! [`crate::keys::KeyStore`]. The simulated signature
//! ([`crate::signature::SimSigner`]) is one HMAC too, under the signer's
//! own key: two compressions from a stored schedule, like a MAC.

use crate::sha256::{state_bytes, Sha256, BLOCK_SIZE, H0};
use sbft_types::MacTag;

const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Longest message that shares a block with its own padding (`0x80` and
/// the eight length bytes): the single-compression case of each pass.
const ONE_BLOCK_MAX: usize = BLOCK_SIZE - 9;

/// A reusable HMAC-SHA256 key schedule.
///
/// The two padded-key blocks (`key ⊕ ipad`, `key ⊕ opad`) are compressed
/// once at construction and only the resulting chaining values — the
/// *midstates*, 32 bytes each — are kept. A MAC resumes from them, so a
/// message of up to 55 bytes (every message this workspace authenticates
/// is a 32-byte digest) costs exactly two compressions, each over a
/// block padded on the stack; a simulated signature
/// ([`crate::signature::SimSigner`]) is one such MAC. Deriving a
/// schedule costs two compressions too, one per key block.
#[derive(Clone, Copy)]
pub struct HmacKey {
    /// Chaining value after absorbing `key ⊕ ipad`.
    inner: [u32; 8],
    /// Chaining value after absorbing `key ⊕ opad`.
    outer: [u32; 8],
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key-schedule material.
        f.write_str("HmacKey(…)")
    }
}

/// The block that ends a message of ≤ 55 bytes that follows one key
/// block: the message, `0x80`, zeros and the bit length of key block and
/// message.
fn last_block(message: &[u8]) -> [u8; BLOCK_SIZE] {
    let len = message.len();
    let mut block = [0u8; BLOCK_SIZE];
    block[..len].copy_from_slice(message);
    block[len] = 0x80;
    let bit_len = 8 * (BLOCK_SIZE + len) as u64;
    block[BLOCK_SIZE - 8..].copy_from_slice(&bit_len.to_be_bytes());
    block
}

impl HmacKey {
    /// Derives the key schedule from a raw key.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        // Keys longer than the block size are hashed first.
        let mut key_block = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let hashed = Sha256::digest(key);
            key_block[..32].copy_from_slice(hashed.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let (mut inner, mut outer) = (H0, H0);
        Sha256::compress_blocks(&mut inner, &key_block.map(|b| b ^ IPAD));
        Sha256::compress_blocks(&mut outer, &key_block.map(|b| b ^ OPAD));
        HmacKey { inner, outer }
    }

    /// Computes the MAC of one message.
    #[must_use]
    pub fn mac(&self, message: &[u8]) -> MacTag {
        let inner_digest = if message.len() <= ONE_BLOCK_MAX {
            let mut state = self.inner;
            Sha256::compress_blocks(&mut state, &last_block(message));
            state_bytes(&state)
        } else {
            let mut inner = Sha256::resume(self.inner, BLOCK_SIZE as u64);
            inner.update(message);
            *inner.finalize().as_bytes()
        };

        // The outer pass always hashes 32 bytes: one padded block.
        let mut state = self.outer;
        Sha256::compress_blocks(&mut state, &last_block(&inner_digest));
        MacTag(state_bytes(&state))
    }

    /// Verifies a MAC tag in (logically) constant time.
    #[must_use]
    pub fn verify(&self, message: &[u8], tag: &MacTag) -> bool {
        let expected = self.mac(message);
        let mut diff = 0u8;
        for (a, b) in expected.0.iter().zip(tag.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// Computes `HMAC-SHA256(key, message)`.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> MacTag {
    HmacKey::new(key).mac(message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(tag: &MacTag) -> String {
        tag.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 test case 7: a long key and a message past the one-block
    /// path (152 bytes).
    #[test]
    fn rfc4231_case_7_long_key_long_message() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
        );
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// RFC 2104 written out — `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))` through
    /// the plain hasher — against the midstate schedule, across the
    /// boundary between its one-block path (≤ 55 bytes) and the streaming
    /// one, for keys of every shape: empty, short, 32 bytes (every key the
    /// store derives), a whole block, and one byte past it (hashed first).
    #[test]
    fn midstate_paths_match_the_definition_at_every_length() {
        let message: Vec<u8> = (0..130u8).map(|i| i.wrapping_mul(37)).collect();
        for key_len in [0usize, 23, 32, 64, 65] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 11 + 5) as u8).collect();
            let mut padded = [0u8; BLOCK_SIZE];
            if key_len > BLOCK_SIZE {
                padded[..32].copy_from_slice(Sha256::digest(&key).as_bytes());
            } else {
                padded[..key_len].copy_from_slice(&key);
            }
            let schedule = HmacKey::new(&key);
            for len in (0..=70).chain([119, 120, 130]) {
                let m = &message[..len];
                let mut inner = Sha256::new();
                inner.update(&padded.map(|b| b ^ IPAD));
                inner.update(m);
                let mut outer = Sha256::new();
                outer.update(&padded.map(|b| b ^ OPAD));
                outer.update(inner.finalize().as_bytes());
                let expected = MacTag(*outer.finalize().as_bytes());
                assert_eq!(schedule.mac(m), expected, "key {key_len}, len {len}");
                assert_eq!(hmac_sha256(&key, m), expected, "key {key_len}, len {len}");
            }
        }
    }

    #[test]
    fn verify_accepts_correct_and_rejects_tampered() {
        let key = HmacKey::new(b"secret");
        let tag = key.mac(b"message");
        assert!(key.verify(b"message", &tag));
        assert!(!key.verify(b"messagE", &tag));
        assert!(!HmacKey::new(b"Secret").verify(b"message", &tag));
        for byte in [0, 31] {
            let mut bad = tag;
            bad.0[byte] ^= 1;
            assert!(!key.verify(b"message", &bad));
        }
    }

    #[test]
    fn different_keys_give_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn reusable_key_matches_one_shot() {
        let key = HmacKey::new(b"secret");
        assert_eq!(key.mac(b"message"), hmac_sha256(b"secret", b"message"));
        // The schedule is reusable across messages.
        assert_eq!(key.mac(b"other"), hmac_sha256(b"secret", b"other"));
    }
}
