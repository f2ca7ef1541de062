//! # sbft-crypto
//!
//! Cryptographic substrate for the ServerlessBFT serverless-edge
//! architecture.
//!
//! The paper (Section III) relies on:
//!
//! * **Digital signatures** `⟨m⟩_R` for `COMMIT`, `EXECUTE`, `VERIFY`,
//!   `RESPONSE` and client requests (CryptoPP in the original
//!   implementation),
//! * **MACs** for messages that do not need non-repudiation
//!   (`PREPREPARE`, `PREPARE`),
//! * a **collision-resistant hash** `H(·)` producing constant-size digests.
//!
//! Two things the paper mentions are not modelled (see `DESIGN.md`):
//! pairwise MAC secrets come out of the [`keys::KeyStore`] instead of a
//! Diffie–Hellman exchange, and a certificate carries its `2f_R + 1`
//! signatures instead of one threshold signature.
//!
//! This crate implements SHA-256 and HMAC-SHA256 from scratch (tested
//! against published vectors; the compression function has a portable
//! kernel and an x86-64 SHA-extensions kernel the CPU selects between,
//! see [`sha256`]) and a deterministic keyed-hash signature
//! scheme ([`signature::SimSigner`]) as the substitution for CryptoPP
//! (documented in `DESIGN.md`): signing requires the private key, and
//! verification goes through the trusted [`keys::KeyStore`] established at
//! setup (the paper's public-key-certificate distribution). Byzantine
//! components are assumed unable to forge signatures or subvert the hash,
//! exactly as in the paper, so every certificate/quorum check in the
//! protocol is exercised for real.
//!
//! Two amortisation layers keep the hot paths cheap:
//!
//! * **Key-schedule caches** ([`provider`]): HMAC key schedules are
//!   derived once per identity (sender side in [`CryptoHandle`],
//!   verification side in [`CryptoProvider`]) instead of once per
//!   operation.
//! * **Batch signature aggregation** ([`aggregate`]): the individual
//!   client signatures of a consensus batch fold into one
//!   [`aggregate::AggregateSignature`]; the primary verifies one
//!   aggregate per batch, with a bisecting fallback that pinpoints
//!   offending transactions when the aggregate check fails.

// The SHA-NI kernel (`sha256::shani`) is the only module of the
// workspace allowed to contain `unsafe`.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod aggregate;
pub mod certificate;
pub mod hashing;
pub mod hmac;
pub mod keys;
pub mod provider;
pub mod sha256;
pub mod signature;

pub use aggregate::AggregateSignature;
pub use certificate::CommitCertificate;
pub use hashing::{digest_concat, digest_u64s, U64Hasher};
pub use hmac::{hmac_sha256, HmacKey};
pub use keys::{KeyPair, KeyStore, PublicKey, SecretKey};
pub use provider::{CryptoHandle, CryptoProvider};
pub use sha256::Sha256;
pub use signature::SimSigner;
