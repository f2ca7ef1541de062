//! Constant-size digests and byte containers for signatures and MACs.
//!
//! The algorithms that *produce* these values (SHA-256, HMAC and the
//! simulated digital-signature scheme) live in `sbft-crypto`; this module
//! only defines the plain data containers so the message types can be
//! defined without a dependency cycle.

use std::fmt;

/// Length in bytes of a collision-resistant digest `H(v)` (SHA-256).
const DIGEST_LEN: usize = 32;

/// A constant-size digest `Δ = H(m)` of a message or batch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; DIGEST_LEN]);

/// A digital signature `⟨m⟩_R` produced with a component's private key.
///
/// The simulated scheme in `sbft-crypto` produces 64-byte signatures, the
/// same length as Ed25519, so wire-size accounting matches the paper: one
/// 32-byte HMAC-SHA256 tag followed by 32 zero bytes, all 64 checked.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 64]);

/// A message authentication code tag computed with a shared secret key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTag(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a placeholder before hashing.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Builds a digest from raw bytes.
    #[must_use]
    pub const fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// The raw digest bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// A short hexadecimal prefix used in log and debug output.
    #[must_use]
    fn short_hex(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Whether this is the all-zero placeholder digest.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }
}

impl Signature {
    /// The all-zero signature; only valid as a placeholder in tests.
    pub const ZERO: Signature = Signature([0u8; 64]);

    /// The raw signature bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 64] {
        &self.0
    }

    /// Wire size of a digital signature in bytes.
    #[must_use]
    pub const fn wire_size() -> usize {
        64
    }
}

impl MacTag {
    /// The all-zero tag; only valid as a placeholder in tests.
    pub const ZERO: MacTag = MacTag([0u8; 32]);

    /// The raw MAC bytes.
    #[must_use]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Wire size of a MAC tag in bytes.
    #[must_use]
    pub const fn wire_size() -> usize {
        32
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature::ZERO
    }
}

impl Default for MacTag {
    fn default() -> Self {
        MacTag::ZERO
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::ZERO
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ({})", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.short_hex())
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Sig({prefix}…)")
    }
}

impl fmt::Debug for MacTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefix: String = self.0[..4].iter().map(|b| format!("{b:02x}")).collect();
        write!(f, "Mac({prefix}…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_digest_is_zero() {
        assert!(Digest::ZERO.is_zero());
        let mut bytes = [0u8; DIGEST_LEN];
        bytes[31] = 1;
        assert!(!Digest::from_bytes(bytes).is_zero());
    }

    #[test]
    fn short_hex_is_twelve_chars() {
        let d = Digest::from_bytes([0xab; DIGEST_LEN]);
        assert_eq!(d.short_hex(), "abababababab");
        assert_eq!(d.short_hex().len(), 12);
    }

    #[test]
    fn wire_sizes_match_constants() {
        assert_eq!(Signature::wire_size(), 64);
        assert_eq!(MacTag::wire_size(), 32);
        assert_eq!(std::mem::size_of::<Digest>(), DIGEST_LEN);
    }

    #[test]
    fn debug_formats_do_not_dump_full_bytes() {
        let s = format!("{:?}", Signature::ZERO);
        assert!(s.len() < 20, "{s}");
        let m = format!("{:?}", MacTag::ZERO);
        assert!(m.len() < 20, "{m}");
    }

    #[test]
    fn digest_equality_and_ordering() {
        let a = Digest::from_bytes([1; DIGEST_LEN]);
        let b = Digest::from_bytes([2; DIGEST_LEN]);
        assert!(a < b);
        assert_ne!(a, b);
        assert_eq!(a, Digest::from_bytes([1; DIGEST_LEN]));
    }
}
